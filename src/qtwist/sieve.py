"""Sieved square-free densities and vertex frequencies, to set against the
exact branch probabilities of the decision tables.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .exactnum import RatLike, check_prime


def _squarefree_mask(n: int) -> bytearray:
    """mask[i] = 1 for the square-free i in 0..n, else 0 (mask[0] = 0).

    The mask takes n + 1 bytes, hence the upper bound."""
    if not 10**4 <= n <= 10**8:
        raise ValueError(f"bound = {n} is outside 10^4..10^8")
    mask = bytearray(b"\x01") * (n + 1)
    mask[0] = 0
    k = 2
    while k * k <= n:
        mask[k * k:: k * k] = bytes(n // (k * k))
        k += 1
    return mask


class DensityReport(NamedTuple):
    p: int
    bound: int
    divisible_fraction: float
    squarefree_density: float


def squarefree_density(p: int, bound: int) -> DensityReport:
    """Among square-free n <= bound: fraction divisible by p, plus the
    overall square-free density (expected 1/(1+p) and 6/pi^2)."""
    check_prime(p)
    mask = _squarefree_mask(bound)
    total_sf = mask.count(1)
    div = mask[p::p].count(1)
    return DensityReport(p, bound, div / total_sf, total_sf / bound)


def empirical_prob(kind: str, t: Optional[RatLike], bound: int) -> dict:
    """Frequencies, over square-free |d| <= bound, of the vertex chosen
    by the closed-form decision.

    The decision depends on d only through divisibility by the table's
    primes, so each branch is counted with one sieve pass; counting
    positive d suffices because every condition is sign-blind.
    """
    from . import graphs  # here, so that density does not load the registry

    rows = graphs.prob_table(kind, t)
    mask = _squarefree_mask(bound)
    total = mask.count(1)
    freq: dict = {}
    for row in rows:
        if row.p is None:
            count = total
        else:
            div = mask[row.p::row.p].count(1)
            count = div if row.divisible else total - div
        freq[row.vertex] = freq.get(row.vertex, 0.0) + count / total
    return freq
