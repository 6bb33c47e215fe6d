"""Isogeny-graph types and the closed-form Faltings decision.

Each type is one ``GraphType`` spec in a single registry.  A spec holds
the graph with its volume vector, one block per prime at which the
branch or the twist matters (the branch classifier of the hauptmodul
value t and the u-vector exponents of each branch), the literal decision
rows keyed by the tuple of block branch keys, and the t values excluded
besides the cusp t = 0.  Genus >= 1 types are the degenerate case: no t,
one block, one branch.

Two independent encodings coexist on purpose:

* ``u_vectors`` + ``faltings_by_volumes`` re-derive the winning vertex
  as the exact argmax of u~_i^2 u_i^2 v_i from the blocks' exponents, in
  integers: every u is a power of an isogeny prime, and the volumes are
  scaled by the lcm of their denominators (``GraphType.weights``);
* ``faltings_by_theorem`` looks the answer up in the literal decision
  rows.

Their agreement over every branch is a test, not an assumption.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product
from typing import Callable, NamedTuple, Optional

from .exactnum import CuspError, RatLike, TieError, check_d, unit_residue, vp


class DCondition(NamedTuple):
    """The condition on d of one decision row: every d (p is None), or
    p | d (divisible) / p does not divide d."""
    p: Optional[int] = None
    divisible: bool = False

    def __str__(self) -> str:
        if self.p is None:
            return "all"
        return f"d=0({self.p})" if self.divisible else f"d!=0({self.p})"

    @property
    def probability(self) -> Fraction:
        """Density of the square-free d that satisfy the condition: by
        Lemma 1, 1/(1+p) for d = 0 (p) and p/(1+p) for d != 0 (p)."""
        if self.p is None:
            return Fraction(1)
        return Fraction(1 if self.divisible else self.p, 1 + self.p)

    def matches(self, d: int) -> bool:
        return self.p is None or (d % self.p == 0) == self.divisible


class PrimeBlock(NamedTuple):
    """One isogeny prime's share of the u-vectors.

    ``classify`` maps t to a branch key; it is None for genus >= 1 types,
    whose single branch is keyed "all".  ``rows`` maps each key to the
    exponents of p in u(E), and in u(E^d) when p | d (None: u(E^d) is 1
    at p for every d), one non-negative int per vertex.  When p does not
    divide d, u(E^d) is 1 at p.
    """
    p: int
    classify: Optional[Callable[[Fraction], str]]
    rows: dict

    def key(self, t: Optional[Fraction]) -> str:
        return "all" if self.classify is None else self.classify(t)


class GraphType:
    """One isogeny-graph type and every rule that decides its Faltings vertex."""

    def __init__(self, kind: str, vertices: tuple, volumes: tuple, edges: tuple,
                 primes: tuple, blocks: tuple, decisions: dict, excluded: tuple = ()) -> None:
        self.kind = kind
        self.vertices = vertices
        self.volumes = volumes      # projective, first entry 1
        self.edges = edges          # (label, label, isogeny degree)
        self.primes = primes        # isogeny primes
        self.blocks = blocks        # of PrimeBlock, by increasing prime
        self.decisions = decisions  # tuple of block keys -> ((DCondition, vertex), ...)
        self.excluded = excluded    # t values besides 0 where a branch is undefined
        # u-exponents are non-negative ints, one per vertex, so every u is
        # an int
        n = len(self.vertices)
        for block in self.blocks:
            for key, exps in block.rows.items():
                for exp in exps:
                    if exp is not None and (len(exp) != n or any(
                            type(e) is not int or e < 0 for e in exp)):
                        raise ValueError(f"{self.kind} {key}: u-exponents {exp} are not "
                                         f"{n} non-negative ints")
        # every combination of block keys has rows, and each row set
        # splits the square-free d on one prime exactly once
        keys = set(product(*(b.rows for b in self.blocks)))
        if set(self.decisions) != keys:
            raise ValueError(f"{self.kind}: decision keys differ from the block branches "
                             f"in {sorted(keys ^ set(self.decisions))}")
        for key, rows in self.decisions.items():
            conds = [cond for cond, _ in rows]
            if (len({c.p for c in conds}) != 1 or len(set(conds)) != len(conds)
                    or sum(c.probability for c in conds) != 1
                    or any(v not in self.vertices for _, v in rows)):
                raise ValueError(f"{self.kind} {key}: rows {[(str(c), v) for c, v in rows]} "
                                 f"do not partition the square-free d")
        # the volumes as ints: times the lcm of their denominators
        m = math.lcm(*(v.denominator for v in self.volumes))
        self.weights = tuple(v.numerator * (m // v.denominator) for v in self.volumes)

    @property
    def genus_ge_1(self) -> bool:
        return self.blocks[0].classify is None


# ---------------------------------------------------------------------------
# branch classifiers of t, one per prime block.  Each returns a key of its
# block's rows; the keys of one block are exclusive and exhaustive.  Every
# classifier is a threshold list on v_p(t) (_by_valuation), at one
# valuation split by the residue of t's p-free part; _by_offset, which
# reads v_p(t + p^c), is the one exception.

def _by_valuation(p: int, cuts, below: str):
    """Key of the first (k, key) in cuts with v_p(t) >= k, else below.

    A key may be a dict from the residue of t's p-free part (mod 4 at
    p = 2, mod p otherwise) to a key.  It is read only when v_p(t) = k;
    at a larger valuation the search goes on to the next cut.
    """
    k_res = 2 if p == 2 else 1

    def key(t):
        v = vp(t, p)
        for k, name in cuts:
            if isinstance(name, dict):
                if v == k:
                    return name[unit_residue(t, p, k_res)]
            elif v >= k:
                return name
        return below

    return key


def _by_offset(p: int, c: int, m: int):
    """L2_2 (p, c, m) = (2, 6, 4) and L2_3 (3, 3, 6): at v_p(t) = c the
    branch is fixed by v_p(t + p^c) mod m; t = -p^c is excluded."""
    def key(t):
        v = vp(t, p)
        if v == c:
            return "high" if vp(t + p**c, p) % m >= m // 2 else "low"
        if v >= c + 2:
            return f"v>={c + 2}"
        if v == c + 1:
            return "high"
        return "low" if v == c - 1 else f"v<={c - 2}"

    return key


# ---------------------------------------------------------------------------
# the registry
#
# Block rows: branch key -> (exponents of p in u(E), in u(E^d) for p | d).
# Decision rows: branch key (a tuple for two-prime types) -> the theorem's
# rows for that branch, built by _every or _split.

def _every(vertex):
    """The one row of a branch whose winner does not depend on d."""
    return ((DCondition(), vertex),)


def _split(p, ndiv, div):
    """Rows of a branch won by ndiv when p does not divide d, by div when it does."""
    return ((DCondition(p, False), ndiv), (DCondition(p, True), div))


_ONES2 = (0, 0)
_ONES3 = (0, 0, 0)
_ONES4 = (0, 0, 0, 0)
_ONES6 = (0,) * 6
_ONES8 = (0,) * 8

_TYPES: dict = {}


def _register(kind, vertices, inverse_volumes, edges, primes, blocks, decisions, excluded=()):
    _TYPES[kind] = GraphType(
        kind, tuple(vertices), tuple(Fraction(1, v) for v in inverse_volumes), tuple(edges),
        tuple(primes), tuple(blocks),
        {k if isinstance(k, tuple) else (k,): rows for k, rows in decisions.items()},
        tuple(Fraction(x) for x in excluded))


def _line(kind, p, length, blocks, decisions, excluded=()):
    """Chain E_1 -- p -- E_p -- p -- ... of the given number of vertices."""
    labels = [f"E_{p**i}" for i in range(length)]
    _register(kind, labels, [p**i for i in range(length)],
              [(labels[i], labels[i + 1], p) for i in range(length - 1)], (p,),
              blocks, decisions, excluded)


def _rect(p, q, blocks, decisions):
    """The square E_1, E_p, E_q, E_pq of R4_pq."""
    e1, ep, eq, epq = "E_1", f"E_{p}", f"E_{q}", f"E_{p * q}"
    _register(f"R4_{p * q}", (e1, ep, eq, epq), (1, p, q, p * q),
              ((e1, eq, q), (e1, ep, p), (ep, epq, q), (eq, epq, p)), (p, q),
              blocks, decisions)


_line("L2_2", 2, 2, [PrimeBlock(2, _by_offset(2, 6, 4), {
    "v>=8": ((0, 1), None),
    "high": ((0, 1), (1, 0)),
    "low": (_ONES2, (0, 1)),
    "v<=4": (_ONES2, None),
})], {"v>=8": _every("E_2"),
      "high": _split(2, "E_2", "E_1"),
      "low": _split(2, "E_1", "E_2"),
      "v<=4": _every("E_1")}, excluded=(-64,))

_line("L2_3", 3, 2, [PrimeBlock(3, _by_offset(3, 3, 6), {
    "v>=5": ((0, 1), None),
    "high": ((0, 1), (1, 0)),
    "low": (_ONES2, (0, 1)),
    "v<=1": (_ONES2, None),
})], {"v>=5": _every("E_3"),
      "high": _split(3, "E_3", "E_1"),
      "low": _split(3, "E_1", "E_3"),
      "v<=1": _every("E_1")}, excluded=(-27,))

_line("L2_5", 5, 2, [PrimeBlock(5, _by_valuation(5, [(3, "v>=3"), (2, "v=2"), (1, "v=1")],
                                                   "v<=0"), {
    "v>=3": ((0, 1), None),
    "v=2": ((0, 1), (1, 0)),
    "v=1": (_ONES2, (0, 1)),
    "v<=0": (_ONES2, None),
})], {"v>=3": _every("E_5"),
      "v=2": _split(5, "E_5", "E_1"),
      "v=1": _split(5, "E_1", "E_5"),
      "v<=0": _every("E_1")})

_line("L2_7", 7, 2, [PrimeBlock(7, _by_valuation(7, [(2, "v>=2"), (1, "v=1")], "v<=0"), {
    "v>=2": ((0, 1), None),
    "v=1": (_ONES2, (0, 1)),
    "v<=0": (_ONES2, None),
})], {"v>=2": _every("E_7"),
      "v=1": _split(7, "E_1", "E_7"),
      "v<=0": _every("E_1")})

_line("L2_13", 13, 2, [PrimeBlock(13, _by_valuation(13, [(1, "v>0")], "v<=0"), {
    "v>0": ((0, 1), None),
    "v<=0": (_ONES2, None),
})], {"v>0": _every("E_13"), "v<=0": _every("E_1")})

_line("L3_9", 3, 3, [PrimeBlock(3, _by_valuation(3, [(3, "v>=3"), (2, "v=2"), (1, "v=1")],
                                                   "v<=0"), {
    "v>=3": ((0, 1, 2), None),
    "v=2": ((0, 1, 1), (0, 0, 1)),
    "v=1": (_ONES3, (0, 1, 1)),
    "v<=0": (_ONES3, None),
})], {"v>=3": _every("E_9"),
      "v=2": _split(3, "E_3", "E_9"),
      "v=1": _split(3, "E_1", "E_3"),
      "v<=0": _every("E_1")})

_line("L3_25", 5, 3, [PrimeBlock(5, _by_valuation(5, [(1, "v>=1")], "v<=0"), {
    "v>=1": ((0, 1, 2), None),
    "v<=0": (_ONES3, None),
})], {"v>=1": _every("E_25"), "v<=0": _every("E_1")})

_register("T4", ("E_1", "E_2", "E_4", "E_12"), (1, 2, 4, 4),
          (("E_1", "E_2", 2), ("E_2", "E_4", 2), ("E_2", "E_12", 2)), (2,),
          [PrimeBlock(2, _by_valuation(2, [(6, "v>=6"), (5, "v=5"),
                                           (4, {1: "v=4,1(4)", 3: "v=4,3(4)"}), (3, "v=3")],
                                        "v<=2"), {
              "v>=6": ((0, 1, 2, 0), None),
              "v=5": ((0, 1, 1, 1), (0, 0, 1, 0)),
              "v=4,1(4)": ((0, 1, 1, 1), (0, 0, 0, 1)),
              "v=4,3(4)": ((0, 1, 1, 2), None),
              "v=3": (_ONES4, (0, 1, 1, 1)),
              "v<=2": (_ONES4, None),
          })],
          {"v>=6": _every("E_4"),
           "v=5": _split(2, "E_2", "E_4"),
           "v=4,1(4)": _split(2, "E_2", "E_12"),
           "v=4,3(4)": _every("E_12"),
           "v=3": _split(2, "E_1", "E_2"),
           "v<=2": _every("E_1")})

_register("T6", ("E_1", "E_2", "E_12", "E_4", "E_8", "E_22"), (1, 2, 4, 4, 8, 8),
          (("E_1", "E_2", 2), ("E_12", "E_2", 2), ("E_2", "E_4", 2),
           ("E_4", "E_8", 2), ("E_4", "E_22", 2)), (2,),
          [PrimeBlock(2, _by_valuation(2, [(3, "v>=3"), (2, {1: "v=2,1(4)", 3: "v=2,3(4)"})],
                                        "v<=1"), {
              "v>=3": ((0, 1, 2, 1, 1, 1), None),
              "v=2,3(4)": ((0, 1, 1, 2, 3, 2), None),
              "v=2,1(4)": ((0, 1, 1, 2, 2, 3), None),
              "v<=1": (_ONES6, None),
          })],
          {"v>=3": _every("E_12"),
           "v=2,3(4)": _every("E_8"),
           "v=2,1(4)": _every("E_22"),
           "v<=1": _every("E_1")})

_register("T8", ("E_1", "E_2", "E_21", "E_4", "E_41", "E_8", "E_81", "E_16"),
          (1, 2, 4, 4, 8, 8, 16, 16),
          (("E_1", "E_2", 2), ("E_21", "E_2", 2), ("E_2", "E_4", 2), ("E_4", "E_41", 2),
           ("E_4", "E_8", 2), ("E_8", "E_81", 2), ("E_8", "E_16", 2)), (2,),
          [PrimeBlock(2, _by_valuation(2, [(2, "v>=2"), (1, {1: "v=1,1(4)", 3: "v=1,3(4)"})],
                                        "v<=0"), {
              "v>=2": ((0, 1, 2, 1, 1, 1, 1, 1), None),
              "v=1,3(4)": ((0, 1, 1, 2, 2, 3, 4, 3), None),
              "v=1,1(4)": ((0, 1, 1, 2, 2, 3, 3, 4), None),
              "v<=0": ((0, 1, 1, 1, 1, 1, 1, 1), None),
          })],
          {"v>=2": _every("E_21"),
           "v=1,3(4)": _every("E_81"),
           "v=1,1(4)": _every("E_16"),
           "v<=0": _every("E_2")})

_rect(2, 3, [
    PrimeBlock(2, _by_valuation(2, [(2, "v2>=2")], "v2<=1"), {
        "v2>=2": ((0, 1, 0, 1), None),
        "v2<=1": (_ONES4, None)}),
    PrimeBlock(3, _by_valuation(3, [(2, "v3>=2"), (1, "v3=1")], "v3<=0"), {
        "v3>=2": ((0, 0, 1, 1), None),
        "v3=1": ((0, 0, 1, 1), (1, 1, 0, 0)),
        "v3<=0": (_ONES4, None)}),
], {("v2>=2", "v3>=2"): _every("E_6"),
    ("v2>=2", "v3=1"): _split(3, "E_6", "E_2"),
    ("v2>=2", "v3<=0"): _every("E_2"),
    ("v2<=1", "v3>=2"): _every("E_3"),
    ("v2<=1", "v3=1"): _split(3, "E_3", "E_1"),
    ("v2<=1", "v3<=0"): _every("E_1")})

_rect(2, 5, [
    PrimeBlock(2, _by_valuation(2, [(2, "v2>1"), (1, "v2=1")], "v2<=0"), {
        "v2>1": ((0, 1, 0, 1), None),
        "v2=1": ((0, 1, 0, 1), (1, 0, 1, 0)),
        "v2<=0": (_ONES4, None)}),
    PrimeBlock(5, _by_valuation(5, [(1, "other"),
                                     (0, {1: "other", 2: "other", 3: "other", 4: "t=4(5)"})],
                                "other"), {
        "t=4(5)": ((0, 0, 1, 1), None),
        "other": (_ONES4, None)}),
], {("v2>1", "other"): _every("E_2"),
    ("v2>1", "t=4(5)"): _every("E_10"),
    ("v2=1", "other"): _split(2, "E_2", "E_1"),
    ("v2=1", "t=4(5)"): _split(2, "E_10", "E_5"),
    ("v2<=0", "other"): _every("E_1"),
    ("v2<=0", "t=4(5)"): _every("E_5")})

_register("R6", ("E_1", "E_2", "E_3", "E_6", "E_9", "E_18"), (1, 2, 3, 6, 9, 18),
          (("E_1", "E_3", 3), ("E_3", "E_9", 3), ("E_2", "E_6", 3), ("E_6", "E_18", 3),
           ("E_1", "E_2", 2), ("E_3", "E_6", 2), ("E_9", "E_18", 2)), (2, 3),
          [PrimeBlock(2, _by_valuation(2, [(1, "v2>0")], "v2<=0"), {
              "v2>0": ((0, 1, 0, 1, 0, 1), None),
              "v2<=0": (_ONES6, None)}),
           PrimeBlock(3, _by_valuation(3, [(1, "v3!=0"), (0, "v3=0")], "v3!=0"), {
               "v3=0": ((0, 0, 1, 1, 2, 2), None),
               "v3!=0": (_ONES6, None)})],
          {("v2>0", "v3!=0"): _every("E_2"),
           ("v2>0", "v3=0"): _every("E_18"),
           ("v2<=0", "v3!=0"): _every("E_1"),
           ("v2<=0", "v3=0"): _every("E_9")})

_register("S8", ("E_1", "E_3", "E_2", "E_6", "E_21", "E_12", "E_4", "E_31"),
          (1, 3, 2, 6, 4, 12, 4, 12),
          (("E_1", "E_3", 3), ("E_1", "E_2", 2), ("E_3", "E_6", 2), ("E_2", "E_6", 3),
           ("E_2", "E_21", 2), ("E_2", "E_4", 2), ("E_6", "E_12", 2), ("E_6", "E_31", 2),
           ("E_21", "E_12", 3), ("E_4", "E_31", 3)), (2, 3),
          [PrimeBlock(2, _by_valuation(2, [(1, "v2!=0"),
                                            (0, {1: "v2=0,1(4)", 3: "v2=0,3(4)"})], "v2!=0"), {
              "v2!=0": (_ONES8, None),
              "v2=0,3(4)": ((0, 0, 1, 1, 1, 2, 2, 1), None),
              "v2=0,1(4)": ((0, 0, 1, 1, 2, 1, 1, 2), None)}),
           PrimeBlock(3, _by_valuation(3, [(1, "v3>=1")], "v3<=0"), {
               "v3>=1": ((0, 1, 0, 1, 0, 1, 0, 1), None),
               "v3<=0": (_ONES8, None)})],
          {("v2!=0", "v3>=1"): _every("E_3"),
           ("v2=0,3(4)", "v3>=1"): _every("E_12"),
           ("v2=0,1(4)", "v3>=1"): _every("E_31"),
           ("v2!=0", "v3<=0"): _every("E_1"),
           ("v2=0,3(4)", "v3<=0"): _every("E_4"),
           ("v2=0,1(4)", "v3<=0"): _every("E_21")})

# genus >= 1: no t, one branch; u(E) = ones except for L4
for _p in (11, 17, 19, 43, 67, 163):
    _line(f"L2_{_p}", _p, 2, [PrimeBlock(_p, None, {"all": (_ONES2, (0, 1))})],
          {"all": _split(_p, "E_1", f"E_{_p}")})
_line("L2_37", 37, 2, [PrimeBlock(37, None, {"all": (_ONES2, None)})], {"all": _every("E_1")})
_line("L4", 3, 4, [PrimeBlock(3, None, {"all": ((0, 1, 1, 1), (0, 0, 1, 1))})],
      {"all": _split(3, "E_3", "E_9")})
_rect(2, 7, [PrimeBlock(7, None, {"all": (_ONES4, (0, 0, 1, 1))})],
      {"all": _split(7, "E_1", "E_7")})
_rect(3, 5, [PrimeBlock(5, None, {"all": (_ONES4, (0, 0, 1, 1))})],
      {"all": _split(5, "E_1", "E_5")})
_rect(3, 7, [PrimeBlock(3, None, {"all": (_ONES4, (0, 1, 0, 1))})],
      {"all": _split(3, "E_1", "E_3")})

GENUS0 = {kind for kind, g in _TYPES.items() if not g.genus_ge_1}
GENUS_GE1 = {kind for kind, g in _TYPES.items() if g.genus_ge_1}
ALL_TYPES = sorted(_TYPES)


def graph_type(kind: str) -> GraphType:
    try:
        return _TYPES[kind]
    except KeyError:
        raise ValueError(f"unknown graph type {kind!r}") from None


# ---------------------------------------------------------------------------
# lookups

def check_t(kind: str, t: Optional[RatLike]) -> Optional[Fraction]:
    """t as a Fraction for a genus-0 type, None for a genus >= 1 type.

    Raises ValueError when a genus-0 type gets no t or a genus >= 1 type
    gets one, and CuspError at the cusp t = 0 or an excluded value.
    """
    g = graph_type(kind)
    if g.genus_ge_1:
        if t is not None:
            raise ValueError(f"type {kind} has no hauptmodul value t; omit it")
        return None
    if t is None:
        raise ValueError(f"type {kind} needs a hauptmodul value t")
    t = Fraction(t)
    if t == 0:
        raise CuspError("t = 0 is a cusp")
    if t in g.excluded:
        raise CuspError(f"t = {t} is excluded for {kind}")
    return t


def branch_key(kind: str, t: Optional[RatLike]) -> tuple:
    """The branch of t: one key per prime block."""
    t = check_t(kind, t)
    return tuple(b.key(t) for b in graph_type(kind).blocks)


def decision_rows(kind: str, t: Optional[RatLike]) -> tuple:
    """The theorem's ((DCondition, vertex), ...) rows for the branch of t."""
    return graph_type(kind).decisions[branch_key(kind, t)]


class UVectors(NamedTuple):
    uE: tuple   # of int
    uEd: tuple  # of int


def u_vectors(kind: str, t: Optional[RatLike], d: int) -> UVectors:
    """Table pair ([u(E)], [u(E^d)]) for the branch selected by (t, d):
    the componentwise product of the prime blocks' powers of p."""
    g = graph_type(kind)
    d = check_d(d)
    t = check_t(kind, t)
    n = len(g.vertices)
    uE = [1] * n
    uEd = [1] * n
    for block in g.blocks:
        uE_exp, uEd_exp = block.rows[block.key(t)]
        p = block.p
        for i in range(n):
            uE[i] *= p ** uE_exp[i]
        if uEd_exp is not None and d % p == 0:
            for i in range(n):
                uEd[i] *= p ** uEd_exp[i]
    return UVectors(tuple(uE), tuple(uEd))


class FaltingsResult(NamedTuple):
    vertex: str
    d_condition: str
    probability: Fraction


def faltings_by_theorem(kind: str, t: Optional[RatLike], d: int) -> FaltingsResult:
    """The decision-table row matching (type, t, d)."""
    d = check_d(d)
    # the registry checked at import that each branch's rows partition d
    cond, vertex = next(row for row in decision_rows(kind, t) if row[0].matches(d))
    return FaltingsResult(vertex, str(cond), cond.probability)


def faltings_by_volumes(kind: str, t: Optional[RatLike], d: int) -> str:
    """Re-derivation: argmax vertex of u~_i^2 u_i^2 v_i, in exact integers
    (the volumes scaled by one positive factor, ``GraphType.weights``)."""
    g = graph_type(kind)
    uv = u_vectors(kind, t, d)
    scores = [ue * ue * ud * ud * w for ue, ud, w in zip(uv.uE, uv.uEd, g.weights)]
    best = max(scores)
    winners = [lbl for lbl, sc in zip(g.vertices, scores) if sc == best]
    if len(winners) != 1:
        raise TieError(f"{kind}: tie among {winners} (table-data bug)")
    return winners[0]


def prob_table(kind: str, t: Optional[RatLike]) -> list[FaltingsResult]:
    """All d-branches for a fixed (type, t); probabilities sum to 1."""
    return [FaltingsResult(v, str(c), c.probability) for c, v in decision_rows(kind, t)]
