"""Isogeny-graph types and the closed-form Faltings decision.

Each type is one ``GraphType`` spec in a single registry.  A spec holds
the graph, its edges nearer end first (they give the volume vector: 1
over each vertex's isogeny degree from the first), one ``PrimeBlock``
per prime at which the branch or the twist matters (a table from t to
its branch, which also gives the excluded t besides the cusp t = 0, and
the u-exponents of each branch), and the literal decision rows keyed by
the block keys.  A decision row is a ``FaltingsResult``: the winning
vertex and its condition on d, also the answer of ``faltings_by_theorem``
and ``prob_table``.  Genus >= 1 types are the degenerate case: no t, one
block, and a one-entry table, so one branch.

Two independent encodings coexist on purpose:

* ``GraphType.u`` + ``GraphType.argmax`` re-derive the winning vertex as
  the exact argmax of u~_i^2 u_i^2 v_i from the blocks' exponents, in
  integers: every u is a power of an isogeny prime, and the volumes are
  scaled by the lcm of their denominators (``GraphType.weights``);
* ``faltings_by_theorem`` looks the answer up in the literal rows.

A row or u(E^d) reads d only as the block primes with v_p(d) odd, so a
decision answers for Q(sqrt d), any nonzero int d, and factors nothing.
Each ``GraphType`` checks at import that the two encodings agree on every
branch and every such set of primes; a query runs the lookup alone.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product
from typing import NamedTuple, Optional

from .exactnum import RatLike, TableMissError, check_field, residue, vp


class FaltingsResult(NamedTuple):
    """A decision row: vertex wins for all d (p None), or for v_p(d) odd (divisible) / even."""
    vertex: str
    p: Optional[int] = None
    divisible: bool = False

    @property
    def d_condition(self) -> str:
        """The condition as printed: all, d=0(p) for v_p(d) odd, d!=0(p) for even."""
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
        """Whether the nonzero int d meets the condition: v_p(d) odd or even."""
        return self.p is None or (vp(d, self.p) & 1) == self.divisible


class PrimeBlock(NamedTuple):
    """One isogeny prime's branch table and share of the u-vectors.

    ``keys[i]`` is the branch of the t with v_p(t) = lo + i, the first
    entry also that of every smaller valuation and the last that of every
    larger one.  An entry is a key; or a dict from the residue of t's
    p-free part (mod 4 at p = 2, mod p otherwise) to a key; or a tuple of
    m >= 1 keys indexed by v_p(t + p^v) mod m at v = v_p(t), which leaves
    t = -p^v undefined (``GraphType.excluded``).  A genus >= 1 type has no
    t: its one block's table is the one key "all".

    ``rows`` maps each key to the exponents of p in u(E), and in u(E^d)
    when v_p(d) is odd (else u(E^d) is 1 at p), one non-negative int per
    vertex; None on either side means no power of p, for every d.
    """
    p: int
    lo: int
    keys: tuple
    rows: dict

    def key(self, t: Optional[Fraction]) -> str:
        # t comes from ``check_t``: None for a genus >= 1 type, else a
        # nonzero Fraction; p is a registry prime (test_graph_shapes checks
        # each), as ``vp`` does not test it
        p, keys = self.p, self.keys
        if t is None:
            return keys[0]
        v = vp(t, p)
        i = v - self.lo
        entry = keys[0] if i <= 0 else keys[i] if i < len(keys) else keys[-1]
        if type(entry) is str:
            return entry
        if type(entry) is dict:
            return entry[residue(t, p, 2 if p == 2 else 1, v)]
        return entry[vp(t + p**v, p) % len(entry)]


class UVectors(NamedTuple):
    uE: tuple   # of int
    uEd: tuple  # of int


class GraphType:
    """One isogeny-graph type and every rule that decides its Faltings vertex."""

    def __init__(self, kind: str, vertices: tuple, edges: tuple, blocks: tuple,
                 decisions: dict) -> None:
        self.kind = kind
        self.vertices = vertices
        # (nearer label, farther label, isogeny degree), each edge's nearer
        # end the first vertex or an end of an edge before it
        self.edges = edges
        # isogeny primes: the edge degrees
        self.primes = tuple(sorted({deg for _, _, deg in edges}))
        self.blocks = blocks        # of PrimeBlock, by increasing prime
        self.decisions = decisions  # tuple of block keys -> (FaltingsResult, ...)
        # each vertex's isogeny degree from the first, read off the edges in
        # one pass: an edge gives its farther end its nearer end's degree
        # times its own, and no vertex may get two degrees
        degree = {vertices[0]: 1}
        for a, b, p in edges:
            if a not in degree or degree.setdefault(b, degree[a] * p) != degree[a] * p:
                raise TableMissError(f"{kind}: {a}-{b} is out of order or gives {b} two degrees")
        if set(degree) != set(vertices):
            raise TableMissError(f"{kind}: the edges reach {sorted(degree)}, not {vertices}")
        # u-exponents are non-negative ints, one per vertex, so every u is
        # an int.  Each table reaches exactly its block's keys, each residue
        # dict reads every unit, and an offset entry at v, neither empty nor
        # the first or last, leaves t = -p^v undefined.
        excluded = []
        for block in self.blocks:
            for key, exps in block.rows.items():
                for exp in exps:
                    if exp is not None and (len(exp) != len(vertices) or any(
                            type(e) is not int or e < 0 for e in exp)):
                        raise TableMissError(f"{self.kind} {key}: u-exponents {exp} are not "
                                             f"{len(vertices)} non-negative ints")
            p, keys, reached = block.p, block.keys, set()
            for v, entry in enumerate(keys, block.lo):
                if type(entry) is dict:
                    if set(entry) != ({1, 3} if p == 2 else set(range(1, p))):
                        raise TableMissError(f"{self.kind} at {p}: residues {sorted(entry)} "
                                             f"are not the units mod {4 if p == 2 else p}")
                    entry = tuple(entry.values())
                elif type(entry) is tuple:
                    excluded.append(Fraction(-p**v))
                reached.update(entry if type(entry) is tuple else (entry,))
            if reached != {*block.rows} or () in keys or tuple in (type(keys[0]), type(keys[-1])):
                raise TableMissError(f"{self.kind} at {p}: the table {keys} must reach exactly "
                                     f"the rows {sorted(block.rows)} and have no offset "
                                     f"entry empty or at an end")
        self.excluded = tuple(excluded)  # t values besides 0 where a branch is undefined
        # no block reads t: a genus >= 1 type
        self.genus_ge_1 = all(len(b.keys) == 1 for b in self.blocks)
        # the volume vector: the Neron volumes, 1 / degree with the first at 1
        # (an isogeny of prime degree p changes the volume by p or 1/p),
        # as ints: times the lcm of the degrees
        m = math.lcm(*degree.values())
        self.weights = tuple(m // degree[v] for v in vertices)
        # every combination of block keys has rows, each row splits d at a
        # block prime if at all, and for every set of block primes with
        # v_p(d) odd (all that a row or u(E^d) reads of d) exactly one row
        # matches d and names the volume argmax
        keys = set(product(*(b.rows for b in self.blocks)))
        if set(self.decisions) != keys:
            raise TableMissError(f"{self.kind}: decision keys differ from the block "
                                 f"branches in {sorted(keys ^ set(self.decisions))}")
        block_primes = [b.p for b in self.blocks]
        for key, rows in self.decisions.items():
            if any(r.p not in (None, *block_primes) for r in rows):
                raise TableMissError(f"{self.kind} {key}: a row splits d off the block primes")
            for divides in product((False, True), repeat=len(block_primes)):
                d = math.prod(p for p, div in zip(block_primes, divides) if div)
                best = self.argmax(self.u(key, d))
                if [r.vertex for r in rows if r.matches(d)] != [best]:
                    raise TableMissError(f"{self.kind} {key}: at d = {d} the rows do not "
                                         f"give exactly the volume argmax {best}")

    def u(self, keys: tuple, d: int) -> UVectors:
        """([u(E)], [u(E^d)]) on the branch with these block keys: the product
        of the blocks' powers of p.  d, read only as v_p(d) odd, is not checked."""
        uE = uEd = (1,) * len(self.vertices)
        for block, key in zip(self.blocks, keys):
            uE_exp, uEd_exp = block.rows[key]
            if uE_exp is not None:
                uE = tuple([u * block.p**e for u, e in zip(uE, uE_exp)])
            if uEd_exp is not None and vp(d, block.p) & 1:
                uEd = tuple([u * block.p**e for u, e in zip(uEd, uEd_exp)])
        return UVectors(uE, uEd)

    def argmax(self, uv: UVectors) -> str:
        """The vertex of largest u~_i^2 u_i^2 v_i, in exact integers (the volumes
        times one positive factor, ``weights``); TableMissError if two share it."""
        scores = [ue * ue * ud * ud * w for ue, ud, w in zip(uv.uE, uv.uEd, self.weights)]
        best = max(scores)
        winners = [lbl for lbl, sc in zip(self.vertices, scores) if sc == best]
        if len(winners) != 1:
            raise TableMissError(f"{self.kind}: tie among {winners} (table-data bug)")
        return winners[0]


# ---------------------------------------------------------------------------
# the registry
#
# Blocks: PrimeBlock(p, lo, keys, rows), keys[i] the branch at v_p(t) = lo + i.
# Block rows: branch key -> (exponents of p in u(E), in u(E^d) for p | d),
# None where there is no power of p.
# Decision rows: branch key (a tuple for two-prime types) -> the theorem's
# rows for that branch, built by _every or _split.

def _every(vertex):
    """The one row of a branch whose winner does not depend on d."""
    return (FaltingsResult(vertex),)


def _split(p, ndiv, div):
    """Rows of a branch won by ndiv when p does not divide d, by div when it does."""
    return (FaltingsResult(ndiv, p, False), FaltingsResult(div, p, True))


_TYPES: dict = {}


def _register(kind, vertices, edges, blocks, decisions):
    _TYPES[kind] = GraphType(kind, tuple(vertices), tuple(edges), tuple(blocks), {
        k if isinstance(k, tuple) else (k,): rows for k, rows in decisions.items()})


def _line(kind, p, length, blocks, decisions):
    """Chain E_1 -- p -- E_p -- p -- ... of the given number of vertices."""
    labels = [f"E_{p**i}" for i in range(length)]
    _register(kind, labels, [(a, b, p) for a, b in zip(labels, labels[1:])], blocks, decisions)


def _rect(p, q, blocks, decisions):
    """The square E_1, E_p, E_q, E_pq of R4_pq."""
    e1, ep, eq, epq = "E_1", f"E_{p}", f"E_{q}", f"E_{p * q}"
    _register(f"R4_{p * q}", (e1, ep, eq, epq),
              ((e1, eq, q), (e1, ep, p), (ep, epq, q), (eq, epq, p)), blocks, decisions)


_line("L2_2", 2, 2, [PrimeBlock(2, 4, ("v<=4", "low", ("low", "low", "high", "high"),
                                         "high", "v>=8"), {
    "v>=8": ((0, 1), None),
    "high": ((0, 1), (1, 0)),
    "low": (None, (0, 1)),
    "v<=4": (None, None),
})], {"v>=8": _every("E_2"),
      "high": _split(2, "E_2", "E_1"),
      "low": _split(2, "E_1", "E_2"),
      "v<=4": _every("E_1")})

_line("L2_3", 3, 2, [PrimeBlock(3, 1, ("v<=1", "low", ("low",) * 3 + ("high",) * 3,
                                         "high", "v>=5"), {
    "v>=5": ((0, 1), None),
    "high": ((0, 1), (1, 0)),
    "low": (None, (0, 1)),
    "v<=1": (None, None),
})], {"v>=5": _every("E_3"),
      "high": _split(3, "E_3", "E_1"),
      "low": _split(3, "E_1", "E_3"),
      "v<=1": _every("E_1")})

_line("L2_5", 5, 2, [PrimeBlock(5, 0, ("v<=0", "v=1", "v=2", "v>=3"), {
    "v>=3": ((0, 1), None),
    "v=2": ((0, 1), (1, 0)),
    "v=1": (None, (0, 1)),
    "v<=0": (None, None),
})], {"v>=3": _every("E_5"),
      "v=2": _split(5, "E_5", "E_1"),
      "v=1": _split(5, "E_1", "E_5"),
      "v<=0": _every("E_1")})

_line("L2_7", 7, 2, [PrimeBlock(7, 0, ("v<=0", "v=1", "v>=2"), {
    "v>=2": ((0, 1), None),
    "v=1": (None, (0, 1)),
    "v<=0": (None, None),
})], {"v>=2": _every("E_7"),
      "v=1": _split(7, "E_1", "E_7"),
      "v<=0": _every("E_1")})

_line("L2_13", 13, 2, [PrimeBlock(13, 0, ("v<=0", "v>0"), {
    "v>0": ((0, 1), None),
    "v<=0": (None, None),
})], {"v>0": _every("E_13"), "v<=0": _every("E_1")})

_line("L3_9", 3, 3, [PrimeBlock(3, 0, ("v<=0", "v=1", "v=2", "v>=3"), {
    "v>=3": ((0, 1, 2), None),
    "v=2": ((0, 1, 1), (0, 0, 1)),
    "v=1": (None, (0, 1, 1)),
    "v<=0": (None, None),
})], {"v>=3": _every("E_9"),
      "v=2": _split(3, "E_3", "E_9"),
      "v=1": _split(3, "E_1", "E_3"),
      "v<=0": _every("E_1")})

_line("L3_25", 5, 3, [PrimeBlock(5, 0, ("v<=0", "v>=1"), {
    "v>=1": ((0, 1, 2), None),
    "v<=0": (None, None),
})], {"v>=1": _every("E_25"), "v<=0": _every("E_1")})

_register("T4", ("E_1", "E_2", "E_4", "E_12"),
          (("E_1", "E_2", 2), ("E_2", "E_4", 2), ("E_2", "E_12", 2)),
          [PrimeBlock(2, 2, ("v<=2", "v=3", {1: "v=4,1(4)", 3: "v=4,3(4)"}, "v=5",
                               "v>=6"), {
              "v>=6": ((0, 1, 2, 1), None),
              "v=5": ((0, 1, 1, 1), (0, 0, 1, 0)),
              "v=4,1(4)": ((0, 1, 1, 1), (0, 0, 0, 1)),
              "v=4,3(4)": ((0, 1, 1, 2), None),
              "v=3": (None, (0, 1, 1, 1)),
              "v<=2": (None, None),
          })],
          {"v>=6": _every("E_4"),
           "v=5": _split(2, "E_2", "E_4"),
           "v=4,1(4)": _split(2, "E_2", "E_12"),
           "v=4,3(4)": _every("E_12"),
           "v=3": _split(2, "E_1", "E_2"),
           "v<=2": _every("E_1")})

_register("T6", ("E_1", "E_2", "E_12", "E_4", "E_8", "E_22"),
          (("E_1", "E_2", 2), ("E_2", "E_12", 2), ("E_2", "E_4", 2),
           ("E_4", "E_8", 2), ("E_4", "E_22", 2)),
          [PrimeBlock(2, 1, ("v<=1", {1: "v=2,1(4)", 3: "v=2,3(4)"}, "v>=3"), {
              "v>=3": ((0, 1, 2, 1, 1, 1), None),
              "v=2,3(4)": ((0, 1, 1, 2, 3, 2), None),
              "v=2,1(4)": ((0, 1, 1, 2, 2, 3), None),
              "v<=1": (None, None),
          })],
          {"v>=3": _every("E_12"),
           "v=2,3(4)": _every("E_8"),
           "v=2,1(4)": _every("E_22"),
           "v<=1": _every("E_1")})

_register("T8", ("E_1", "E_2", "E_21", "E_4", "E_41", "E_8", "E_81", "E_16"),
          (("E_1", "E_2", 2), ("E_2", "E_21", 2), ("E_2", "E_4", 2), ("E_4", "E_41", 2),
           ("E_4", "E_8", 2), ("E_8", "E_81", 2), ("E_8", "E_16", 2)),
          [PrimeBlock(2, 0, ("v<=0", {1: "v=1,1(4)", 3: "v=1,3(4)"}, "v>=2"), {
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
    PrimeBlock(2, 1, ("v2<=1", "v2>=2"), {
        "v2>=2": ((0, 1, 0, 1), None),
        "v2<=1": (None, None)}),
    PrimeBlock(3, 0, ("v3<=0", "v3=1", "v3>=2"), {
        "v3>=2": ((0, 0, 1, 1), None),
        "v3=1": ((0, 0, 1, 1), (1, 1, 0, 0)),
        "v3<=0": (None, None)}),
], {("v2>=2", "v3>=2"): _every("E_6"),
    ("v2>=2", "v3=1"): _split(3, "E_6", "E_2"),
    ("v2>=2", "v3<=0"): _every("E_2"),
    ("v2<=1", "v3>=2"): _every("E_3"),
    ("v2<=1", "v3=1"): _split(3, "E_3", "E_1"),
    ("v2<=1", "v3<=0"): _every("E_1")})

_rect(2, 5, [
    PrimeBlock(2, 0, ("v2<=0", "v2=1", "v2>1"), {
        "v2>1": ((0, 1, 0, 1), None),
        "v2=1": ((0, 1, 0, 1), (1, 0, 1, 0)),
        "v2<=0": (None, None)}),
    PrimeBlock(5, -1, ("other", {1: "other", 2: "other", 3: "other", 4: "t=4(5)"},
                       "other"), {
        "t=4(5)": ((0, 0, 1, 1), None),
        "other": (None, None)}),
], {("v2>1", "other"): _every("E_2"),
    ("v2>1", "t=4(5)"): _every("E_10"),
    ("v2=1", "other"): _split(2, "E_2", "E_1"),
    ("v2=1", "t=4(5)"): _split(2, "E_10", "E_5"),
    ("v2<=0", "other"): _every("E_1"),
    ("v2<=0", "t=4(5)"): _every("E_5")})

_register("R6", ("E_1", "E_2", "E_3", "E_6", "E_9", "E_18"),
          (("E_1", "E_3", 3), ("E_3", "E_9", 3), ("E_1", "E_2", 2), ("E_2", "E_6", 3),
           ("E_6", "E_18", 3), ("E_3", "E_6", 2), ("E_9", "E_18", 2)),
          [PrimeBlock(2, 0, ("v2<=0", "v2>0"), {
              "v2>0": ((0, 1, 0, 1, 0, 1), None),
              "v2<=0": (None, None)}),
           PrimeBlock(3, -1, ("v3!=0", "v3=0", "v3!=0"), {
               "v3=0": ((0, 0, 1, 1, 2, 2), None),
               "v3!=0": (None, None)})],
          {("v2>0", "v3!=0"): _every("E_2"),
           ("v2>0", "v3=0"): _every("E_18"),
           ("v2<=0", "v3!=0"): _every("E_1"),
           ("v2<=0", "v3=0"): _every("E_9")})

_register("S8", ("E_1", "E_3", "E_2", "E_6", "E_21", "E_12", "E_4", "E_31"),
          (("E_1", "E_3", 3), ("E_1", "E_2", 2), ("E_3", "E_6", 2), ("E_2", "E_6", 3),
           ("E_2", "E_21", 2), ("E_2", "E_4", 2), ("E_6", "E_12", 2), ("E_6", "E_31", 2),
           ("E_21", "E_12", 3), ("E_4", "E_31", 3)),
          [PrimeBlock(2, -1, ("v2!=0", {1: "v2=0,1(4)", 3: "v2=0,3(4)"}, "v2!=0"), {
              "v2!=0": (None, None),
              "v2=0,3(4)": ((0, 0, 1, 1, 1, 2, 2, 1), None),
              "v2=0,1(4)": ((0, 0, 1, 1, 2, 1, 1, 2), None)}),
           PrimeBlock(3, 0, ("v3<=0", "v3>=1"), {
               "v3>=1": ((0, 1, 0, 1, 0, 1, 0, 1), None),
               "v3<=0": (None, None)})],
          {("v2!=0", "v3>=1"): _every("E_3"),
           ("v2=0,3(4)", "v3>=1"): _every("E_12"),
           ("v2=0,1(4)", "v3>=1"): _every("E_31"),
           ("v2!=0", "v3<=0"): _every("E_1"),
           ("v2=0,3(4)", "v3<=0"): _every("E_4"),
           ("v2=0,1(4)", "v3<=0"): _every("E_21")})

# genus >= 1: no t, one branch; u(E) has no power of p except for L4
for _p in (11, 17, 19, 43, 67, 163):
    _line(f"L2_{_p}", _p, 2, [PrimeBlock(_p, 0, ("all",), {"all": (None, (0, 1))})],
          {"all": _split(_p, "E_1", f"E_{_p}")})
_line("L2_37", 37, 2, [PrimeBlock(37, 0, ("all",), {"all": (None, None)})],
      {"all": _every("E_1")})
_line("L4", 3, 4, [PrimeBlock(3, 0, ("all",), {"all": ((0, 1, 1, 1), (0, 0, 1, 1))})],
      {"all": _split(3, "E_3", "E_9")})
_rect(2, 7, [PrimeBlock(7, 0, ("all",), {"all": (None, (0, 0, 1, 1))})],
      {"all": _split(7, "E_1", "E_7")})
_rect(3, 5, [PrimeBlock(5, 0, ("all",), {"all": (None, (0, 0, 1, 1))})],
      {"all": _split(5, "E_1", "E_5")})
_rect(3, 7, [PrimeBlock(3, 0, ("all",), {"all": (None, (0, 1, 0, 1))})],
      {"all": _split(3, "E_1", "E_3")})

GENUS0 = {kind for kind, g in _TYPES.items() if not g.genus_ge_1}
GENUS_GE1 = {kind for kind, g in _TYPES.items() if g.genus_ge_1}
ALL_TYPES = sorted(_TYPES)


def graph_type(kind: str) -> GraphType:
    try:
        return _TYPES[kind]
    except (KeyError, TypeError):  # TypeError: an unhashable kind
        raise ValueError(f"unknown graph type {kind!r}; the types are "
                         f"{', '.join(ALL_TYPES)}") from None


# ---------------------------------------------------------------------------
# lookups

def check_t(kind: str, t: Optional[RatLike]) -> Optional[Fraction]:
    """t as a Fraction for a genus-0 type (a Fraction is returned as is,
    an int converted), None for a genus >= 1 type.

    Raises ValueError when a genus-0 type gets no t, one that is neither an
    int nor a Fraction (a bool, a float or a string), the cusp t = 0 or an
    excluded value, or when a genus >= 1 type gets one."""
    g = graph_type(kind)
    if g.genus_ge_1:
        if t is not None:
            raise ValueError(f"type {kind} has no hauptmodul value t; omit it")
        return None
    if t is None:
        raise ValueError(f"type {kind} needs a hauptmodul value t")
    if type(t) is int:
        t = Fraction(t)
    elif not isinstance(t, Fraction):
        raise ValueError(f"t = {t!r} is not an integer or a Fraction")
    if t == 0:
        raise ValueError("t = 0 is a cusp")
    if t in g.excluded:
        raise ValueError(f"t = {t} is excluded for {kind}")
    return t


def branch_key(kind: str, t: Optional[RatLike]) -> tuple:
    """The branch of t: one key per prime block."""
    t = check_t(kind, t)
    return tuple(b.key(t) for b in graph_type(kind).blocks)


def u_vectors(kind: str, t: Optional[RatLike], d: int) -> UVectors:
    """Table pair ([u(E)], [u(E^d)]) for the branch of t and the field Q(sqrt d)."""
    check_field(d)
    return graph_type(kind).u(branch_key(kind, t), d)


def faltings_by_theorem(kind: str, t: Optional[RatLike], d: int) -> FaltingsResult:
    """The decision row matching (type, t, d), for any nonzero int d."""
    check_field(d)
    # the registry checked at import that exactly one row of each branch
    # matches d, and that it names the volume argmax
    return next(r for r in prob_table(kind, t) if r.matches(d))


def faltings_by_volumes(kind: str, t: Optional[RatLike], d: int) -> str:
    """The volume argmax of the u-vectors of (t, d): a test oracle, no query runs it."""
    return graph_type(kind).argmax(u_vectors(kind, t, d))


def prob_table(kind: str, t: Optional[RatLike]) -> tuple:
    """The theorem's decision rows for the branch of t, one per d-branch;
    their probabilities sum to 1."""
    return graph_type(kind).decisions[branch_key(kind, t)]
