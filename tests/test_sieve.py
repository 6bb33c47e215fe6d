"""The exact square-free counts of ``qtwist.sieve`` against the byte mask
that ``sieve`` counted before (``reference.squarefree_mask``): every float
is compared with ``==``, so the counts give the answers the mask gave, bit
for bit."""

from fractions import Fraction

import pytest

from qtwist.graphs import prob_table
from qtwist.sieve import DensityReport, empirical_prob, squarefree_density

from reference import squarefree_mask

PRIMES = (2, 3, 5, 7, 11, 13)
# nine (type, t): a genus >= 1 type (L2_11), types with prime blocks at
# two primes (R4_6, R4_10, S8), a row at each of the primes 2, 3, 5 and 11,
# and branches whose one row holds for every d (R4_10 at 4, S8 at 3)
CASES = [("L3_9", 3), ("L3_9", 45), ("T4", 8), ("L2_5", 5), ("L2_11", None),
         ("R4_6", 12), ("R4_10", 4), ("L2_2", 192), ("S8", 3)]


def mask_density(p, n, mask):
    """``squarefree_density`` as it was read off the mask."""
    total_sf = mask.count(1)
    div = mask[p::p].count(1)
    return DensityReport(p, n, div / total_sf, total_sf / n)


def mask_frequencies(kind, t, mask):
    """``empirical_prob`` as it was read off the mask."""
    total = mask.count(1)
    freq = {}
    for row in prob_table(kind, t):
        if row.p is None:
            count = total
        else:
            div = mask[row.p::row.p].count(1)
            count = div if row.divisible else total - div
        freq[row.vertex] = freq.get(row.vertex, 0.0) + count / total
    return freq


@pytest.mark.parametrize("n", [10**4, 10**4 + 1, 12345, 10**5, 10**6, 10**7])
def test_density_equals_mask(n):
    mask = squarefree_mask(n)
    for p in PRIMES:
        assert squarefree_density(p, n) == mask_density(p, n, mask), p


@pytest.mark.parametrize("n", [10**4, 12345, 10**5, 10**6])
def test_frequencies_equal_mask(n):
    mask = squarefree_mask(n)
    for kind, t in CASES:
        freq, want = empirical_prob(kind, t, n), mask_frequencies(kind, t, mask)
        assert (freq, list(freq)) == (want, list(want)), (kind, t)


# S(n), the number of square-free numbers up to n (OEIS A071172).  The
# values were recalled from memory, then derived again by the formula in
# ``sieve`` and, at 10^8, by counting ``reference.squarefree_mask``.
@pytest.mark.parametrize("n, count", [(10**8, 60_792_694), (10**10, 6_079_270_942),
                                      (10**12, 607_927_102_274)])
def test_squarefree_count(n, count):
    assert squarefree_density(2, n).squarefree_density == count / n


@pytest.mark.parametrize("bound", [1e5, "10000", Fraction(10**4), True, 10**12 + 1],
                         ids=["float", "str", "Fraction", "bool", "past_cap"])
def test_bound_must_be_int_in_range(bound):
    with pytest.raises(ValueError, match="bound"):
        squarefree_density(3, bound)
    with pytest.raises(ValueError, match="bound"):
        empirical_prob("L3_9", 3, bound)
