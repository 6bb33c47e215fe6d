"""Shared generators: branch-covering t pools and d samples per class.

The sweep tests need, for every isogeny-graph type, hauptmodul values t
in each decision branch, built from every reading of the blocks' tables
(``graphs.PrimeBlock``) so that each cut is crossed on both sides, plus
square-free twisting integers d in each residue class a branch splits on.
Coverage is asserted against the registry's branches, so a missing
branch fails loudly.
"""

import math
from collections import defaultdict
from fractions import Fraction
from itertools import count, islice, product

from qtwist import graphs
from qtwist.exactnum import prime_factors, residue

_UNITS = list(range(1, 100, 2))
_DENS = [1, 7, 11, 17, 23, 29]


def unit_parts(primes):
    """Every +-u/den, u in _UNITS and den in _DENS prime to each p in primes."""
    return [s * Fraction(u, den) for u in _UNITS for den in _DENS for s in (1, -1)
            if all(u % p and den % p for p in primes)]


def entry(block, v):
    """The entry of a block's table that reads the t with v_p(t) = v."""
    return block.keys[min(max(v - block.lo, 0), len(block.keys) - 1)]


def readings(block):
    """Every (v, r) a block's table reads, v from block.lo - 2 to two past
    its last entry: r is None at a key, the residue of t's p-free part at a
    residue dict, and v_p(t + p^v) mod m at an offset tuple of m keys."""
    for v in range(block.lo - 2, block.lo + len(block.keys) + 2):
        e = entry(block, v)
        yield from ((v, r) for r in (range(len(e)) if type(e) is tuple else
                                     e if type(e) is dict else (None,)))


def representatives(blocks, reading, cs):
    """The t at one reading (v, r) per block, one per unit part c in cs that
    fits: t = c * prod p^v, or t = p^v (c p^e - 1) at an offset entry, which
    only one-block types have, so that v_p(t + p^v) = v + e = r mod m.  A c
    whose t misses the residue a reading asks for is skipped."""
    for c in cs:
        t = c * math.prod(Fraction(b.p) ** v for b, (v, _) in zip(blocks, reading))
        for b, (v, r) in zip(blocks, reading):
            e = entry(b, v)
            if type(e) is tuple:
                t = Fraction(b.p) ** v * (c * b.p ** ((r - v - 1) % len(e) + 1) - 1)
            elif type(e) is dict and residue(t, b.p, 2 if b.p == 2 else 1, v) != r:
                break
        else:
            yield t


def pooled_ts(kind, per_branch):
    """{branch key: [t, ...]}: a t for every combination of the blocks'
    readings, then one more per reading, round by round, until every
    decision branch holds at least per_branch."""
    g = graphs.graph_type(kind)
    cs = unit_parts(g.primes)
    supply = [representatives(g.blocks, reading, cs)
              for reading in product(*(readings(b) for b in g.blocks))]
    buckets = defaultdict(list)
    for i, ts in enumerate(zip(*supply)):
        for t in ts:
            pool = buckets[graphs.branch_key(kind, t)]
            if i == 0 or len(pool) < per_branch:
                pool.append(t)
        if all(len(buckets[key]) >= per_branch for key in g.decisions):
            break
    missing = {k: len(buckets[k]) for k in g.decisions if len(buckets[k]) < per_branch}
    assert not missing, f"{kind}: underfilled branches {missing}"
    return dict(buckets)


def squarefree_ds(p, divisible, n):
    """n square-free d on one side of a decision row's condition: with
    p | d when divisible, else with p not dividing d (every d when p is
    None).  The side is tested here, apart from ``FaltingsResult.matches``."""
    ds = (cand for d in count(1) for cand in (d, -d)
          if (p is None or (cand % p == 0) == divisible)
          and all(cand % (q * q) for q in prime_factors(cand)))
    return list(islice(ds, n))
