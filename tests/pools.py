"""Shared generators: branch-covering t pools and d samples per class.

The sweep tests need, for every isogeny-graph type, a supply of
hauptmodul values t hitting each decision branch, plus square-free
twisting integers d in each residue class a branch splits on.  Branch
keys are taken from the package's own classifiers; coverage is asserted
against the registry's branches, so a missing branch fails loudly.
"""

from collections import defaultdict
from fractions import Fraction

from qtwist import graphs
from qtwist.exactnum import prime_factors

_UNITS = list(range(1, 100, 2))
_DENS = [1, 7, 11, 17, 23, 29]


def _candidates(kind):
    primes = graphs.graph_type(kind).primes
    if len(primes) == 1:
        p = primes[0]
        for u in _UNITS:
            if u % p == 0:
                continue
            for den in _DENS:
                if den % p == 0:
                    continue
                for e in range(-4, 11):
                    for s in (1, -1):
                        yield s * u * Fraction(p) ** e / den
    else:
        p, q = primes[0], primes[1]
        for u in _UNITS:
            if u % p == 0 or u % q == 0:
                continue
            for den in _DENS:
                if den % p == 0 or den % q == 0:
                    continue
                for i in range(-2, 6):
                    for j in range(-2, 6):
                        for s in (1, -1):
                            yield s * Fraction(u, den) * Fraction(p) ** i * Fraction(q) ** j
    # offset families pinning v_p(t + 64) / v_p(t + 27) at t-values where
    # the plain valuation is ambiguous
    if kind == "L2_2":
        for j in range(1, 10):
            for c in (1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23):
                if c % 2:
                    yield Fraction(2**6 * (c * 2**j - 1))
    if kind == "L2_3":
        for j in range(1, 13):
            for c in range(1, 30):
                if c % 3:
                    yield Fraction(3**3 * (c * 3**j - 1))


def pooled_ts(kind, per_branch):
    """{branch key: [t, ...]} with per_branch values per decision branch."""
    buckets = defaultdict(list)
    want = set(graphs.graph_type(kind).decisions)
    for t in _candidates(kind):
        try:
            key = graphs.branch_key(kind, t)
        except graphs.CuspError:
            continue
        if key in want and len(buckets[key]) < per_branch:
            buckets[key].append(t)
        if len(buckets) == len(want) and all(
            len(v) == per_branch for v in buckets.values()
        ):
            break
    missing = {k: len(buckets.get(k, [])) for k in want if len(buckets.get(k, [])) < per_branch}
    assert not missing, f"{kind}: underfilled branches {missing}"
    return dict(buckets)


def squarefree_ds(p, divisible, n):
    """n square-free d on one side of a decision row's condition: with
    p | d when divisible, else with p not dividing d (every d when p is
    None).  The side is tested here, apart from ``FaltingsResult.matches``."""
    out = []
    d = 0
    while len(out) < n:
        d += 1
        for cand in (d, -d):
            if (p is None or (cand % p == 0) == divisible) \
                    and all(cand % (q * q) for q in prime_factors(cand)) and len(out) < n:
                out.append(cand)
    return out
