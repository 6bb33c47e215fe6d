import itertools
import math
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qtwist import exactnum, graphs
from qtwist.graphs import (
    ALL_TYPES,
    GENUS0,
    GENUS_GE1,
    FaltingsResult,
    GraphType,
    PrimeBlock,
    faltings_by_theorem,
    faltings_by_volumes,
    graph_type,
    branch_key,
    check_t,
    prob_table,
    u_vectors,
)
from qtwist.exactnum import TableMissError, is_prime, prime_factors, residue, vp
from qtwist.families import class_signatures

from pools import entry, pooled_ts, representatives, squarefree_ds, unit_parts
from reference import fricke_w9

SAMPLE_T = {kind: (None if kind in GENUS_GE1 else Fraction(1)) for kind in ALL_TYPES}

# each type's volume vector times the lcm of its denominators, vertex by
# vertex: 1 over the isogeny degree from the first vertex, so a line of
# degree p reads (p^k, ..., p, 1)
WEIGHTS = {
    **{f"L2_{p}": (p, 1) for p in (2, 3, 5, 7, 11, 13, 17, 19, 37, 43, 67, 163)},
    "L3_9": (9, 3, 1), "L3_25": (25, 5, 1), "L4": (27, 9, 3, 1),
    "R4_6": (6, 3, 2, 1), "R4_10": (10, 5, 2, 1), "R4_14": (14, 7, 2, 1),
    "R4_15": (15, 5, 3, 1), "R4_21": (21, 7, 3, 1),
    "R6": (18, 9, 6, 3, 2, 1),
    "S8": (12, 4, 6, 2, 3, 1, 3, 1),
    "T4": (4, 2, 1, 1),
    "T6": (8, 4, 2, 2, 1, 1),
    "T8": (16, 8, 4, 4, 2, 2, 1, 1),
}


def cases(g):
    """(branch key, d) for every branch and every set of block primes
    dividing d, all that a row or u(E^d) reads of d: the cases that each
    GraphType checks at import."""
    for key in g.decisions:
        for divides in itertools.product((False, True), repeat=len(g.blocks)):
            yield key, math.prod(b.p for b, div in zip(g.blocks, divides) if div)


def edge_ratios(g):
    """(edge, key, d, score of the farther end over the nearer) for every
    edge and case of g, the score u~^2 u^2 v in the integer weights."""
    index = {v: i for i, v in enumerate(g.vertices)}
    for key, d in cases(g):
        uv = g.u(key, d)
        score = [ue * ue * ud * ud * w for ue, ud, w in zip(uv.uE, uv.uEd, g.weights)]
        for edge in g.edges:
            yield edge, key, d, Fraction(score[index[edge[1]]], score[index[edge[0]]])


class TestRegistry:
    def test_no_power_of_p_is_none(self):
        # None is the one way a block row says "no power of p", on either side
        for kind in ALL_TYPES:
            for block in graph_type(kind).blocks:
                for key, exps in block.rows.items():
                    assert all(exp is None or any(exp) for exp in exps), (kind, key)

    def test_type_count(self):
        # 12 two-vertex line types plus 13 larger shapes
        assert len(ALL_TYPES) == 25
        assert len(GENUS0) == 14 and len(GENUS_GE1) == 11

    def test_graph_shapes(self):
        for kind in ALL_TYPES:
            g = graph_type(kind)
            # the first vertex has volume 1, so its weight is the lcm of
            # all of them, and the weights have no common factor
            assert len(g.weights) == len(g.vertices)
            assert g.weights[0] == math.lcm(*g.weights) and math.gcd(*g.weights) == 1
            labels = set(g.vertices)
            for a, b, deg in g.edges:
                assert a in labels and b in labels and is_prime(deg)
            # every prime block sits at an isogeny prime
            assert {block.p for block in g.blocks} <= set(g.primes)
            # a connected isogeny graph on n vertices has >= n-1 edges
            assert len(g.edges) >= len(g.vertices) - 1

    def test_primes_examples(self):
        # the edge degrees, in increasing order
        assert graph_type("L2_11").primes == (11,)
        assert graph_type("L4").primes == (3,)
        assert graph_type("T8").primes == (2,)
        assert graph_type("R4_15").primes == (3, 5)
        assert graph_type("S8").primes == (2, 3)

    def test_volume_examples(self):
        assert graph_type("L2_11").weights == (11, 1)
        assert graph_type("L3_9").weights == (9, 3, 1)
        assert graph_type("T6").weights == (8, 4, 2, 2, 1, 1)
        # every type's weights against literals that the edges must reproduce
        assert {kind: graph_type(kind).weights for kind in ALL_TYPES} == WEIGHTS

    @pytest.mark.parametrize("kind", [kind for kind in ALL_TYPES if kind != "S8"])
    def test_edges_change_the_score_by_their_degree(self, kind):
        # an isogeny of prime degree p changes the Neron volume, and so the
        # score u~^2 u^2 v, by exactly p or 1/p (Faltings 1983, section 2,
        # Lemma 5); S8 fails this and is pinned by the test below
        g = graph_type(kind)
        bad = [(edge, key, d) for edge, key, d, ratio in edge_ratios(g)
               if ratio not in (edge[2], Fraction(1, edge[2]))]
        assert bad == []
        if kind == "T4":  # 6 branches, 2 d-classes, 3 edges
            assert len(list(edge_ratios(g))) == 36

    def test_s8_edge_ratios_are_open(self):
        # S8's 3-edges E_21-E_12 and E_4-E_31 change the score by 12, 3/4,
        # 4/3 or 1/12 on the four branches with v2(t) = 0, at every d: the
        # edges and the rows disagree on which of E_12 and E_31 is
        # 3-isogenous to E_21, which no source in the repository settles
        bad = [(edge[:2], ratio) for edge, key, d, ratio in edge_ratios(graph_type("S8"))
               if ratio not in (edge[2], Fraction(1, edge[2]))]
        assert len(bad) == 32
        assert {edge for edge, _ in bad} == {("E_21", "E_12"), ("E_4", "E_31")}
        assert {ratio for _, ratio in bad} == {12, Fraction(3, 4), Fraction(4, 3),
                                               Fraction(1, 12)}

    def test_unknown_type(self):
        with pytest.raises(ValueError):
            graph_type("L2_9")

    def test_excluded_from_the_tables(self):
        # each offset entry, at v_p(t) = v, excludes t = -p^v
        assert {kind: graph_type(kind).excluded for kind in ALL_TYPES
                if graph_type(kind).excluded} == {"L2_2": (-64,), "L2_3": (-27,)}


# every public reader that takes t, as read(kind, t)
T_READERS = {
    "faltings_by_theorem": lambda kind, t: faltings_by_theorem(kind, t, 1),
    "prob_table": prob_table,
    "u_vectors": lambda kind, t: u_vectors(kind, t, 1),
    "class_signatures": class_signatures,
}


def refusal(read, kind, t) -> str:
    """The message of the plain ValueError (no subclass) that read raises."""
    with pytest.raises(ValueError) as e:
        read(kind, t)
    assert type(e.value) is ValueError, (kind, t, type(e.value))
    return str(e.value)


class TestCusps:
    def test_t_zero(self):
        for kind in sorted(GENUS0):
            for name, read in T_READERS.items():
                for t in (0, Fraction(0)):
                    assert refusal(read, kind, t) == "t = 0 is a cusp", (kind, name)

    def test_type_specific_exclusions(self):
        for kind, t in (("L2_2", -64), ("L2_3", -27), ("L2_2", Fraction(-64))):
            for name, read in T_READERS.items():
                assert refusal(read, kind, t) == f"t = {int(t)} is excluded for {kind}", name
        # fine for other types
        assert u_vectors("L2_5", -64, 1)

    def test_missing_t(self):
        with pytest.raises(ValueError):
            faltings_by_theorem("L3_9", None, 1)

    def test_t_for_genus_ge1(self):
        for fn in (faltings_by_theorem, faltings_by_volumes, u_vectors):
            with pytest.raises(ValueError, match="no hauptmodul"):
                fn("L2_11", 45, 1)
        with pytest.raises(ValueError, match="no hauptmodul"):
            prob_table("L2_11", 45)

    def test_bad_d(self):
        with pytest.raises(ValueError):
            faltings_by_theorem("L3_9", 3, 12)

    def test_fraction_t_as_is(self):
        t = Fraction(45)
        assert check_t("L3_9", t) is t
        assert type(check_t("L3_9", 45)) is Fraction and check_t("L3_9", 45) == t


# t is a non-bool int or a Fraction, through every public reader that takes
# it: a float would be read as its binary value, a bool as 0 or 1
@pytest.mark.parametrize("x", [0.1, 4.5, True, "45", Decimal("4.5")],
                         ids=["float", "float_4.5", "bool", "str", "Decimal"])
@pytest.mark.parametrize("read", list(T_READERS.values()), ids=list(T_READERS))
def test_t_not_an_int_or_fraction_refused(read, x):
    read("L3_9", 45)
    with pytest.raises(ValueError, match=f"^t = {re.escape(repr(x))} is not an integer or a Fraction$"):
        read("L3_9", x)


# (type, t, branch key) worked out by hand from the paper's branch
# conditions, one key per prime block (a plain string for one-block types).
# At least one t per genus-0 branch, plus the boundary cases of the
# residue splits.
BRANCH_TABLE = [
    # L2_2: v2(t) = 6 splits on v2(t + 64) mod 4
    ("L2_2", 256, "v>=8"), ("L2_2", 128, "high"), ("L2_2", 64, "high"),
    ("L2_2", 192, "low"), ("L2_2", 32, "low"), ("L2_2", 16, "v<=4"), ("L2_2", 1, "v<=4"),
    # L2_3: v3(t) = 3 splits on v3(t + 27) mod 6
    ("L2_3", 243, "v>=5"), ("L2_3", 81, "high"), ("L2_3", 27, "high"),
    ("L2_3", 702, "low"), ("L2_3", 9, "low"), ("L2_3", 3, "v<=1"),
    ("L2_5", 125, "v>=3"), ("L2_5", 25, "v=2"), ("L2_5", 5, "v=1"),
    ("L2_5", Fraction(1, 5), "v<=0"),
    ("L2_7", 49, "v>=2"), ("L2_7", 7, "v=1"), ("L2_7", 1, "v<=0"),
    ("L2_13", 13, "v>0"), ("L2_13", Fraction(1, 13), "v<=0"),
    ("L3_9", 27, "v>=3"), ("L3_9", 9, "v=2"), ("L3_9", 3, "v=1"), ("L3_9", 1, "v<=0"),
    ("L3_25", 5, "v>=1"), ("L3_25", 2, "v<=0"),
    # T4, T6, T8: at one v2(t), the odd part of t mod 4
    ("T4", 64, "v>=6"), ("T4", 32, "v=5"), ("T4", 16, "v=4,1(4)"),
    ("T4", 48, "v=4,3(4)"), ("T4", -16, "v=4,3(4)"), ("T4", Fraction(16, 3), "v=4,3(4)"),
    ("T4", 8, "v=3"), ("T4", 4, "v<=2"),
    ("T6", 8, "v>=3"), ("T6", 4, "v=2,1(4)"), ("T6", 12, "v=2,3(4)"),
    ("T6", -4, "v=2,3(4)"), ("T6", 2, "v<=1"), ("T6", Fraction(1, 2), "v<=1"),
    ("T8", 4, "v>=2"), ("T8", 2, "v=1,1(4)"), ("T8", 6, "v=1,3(4)"),
    ("T8", Fraction(2, 3), "v=1,3(4)"), ("T8", 1, "v<=0"), ("T8", 3, "v<=0"),
    ("R4_6", 36, ("v2>=2", "v3>=2")), ("R4_6", 12, ("v2>=2", "v3=1")),
    ("R4_6", 4, ("v2>=2", "v3<=0")), ("R4_6", 9, ("v2<=1", "v3>=2")),
    ("R4_6", 3, ("v2<=1", "v3=1")), ("R4_6", 1, ("v2<=1", "v3<=0")),
    # R4_10 at 5: t a 5-adic unit = 4 mod 5
    ("R4_10", 4, ("v2>1", "t=4(5)")), ("R4_10", 8, ("v2>1", "other")),
    ("R4_10", 14, ("v2=1", "t=4(5)")), ("R4_10", 2, ("v2=1", "other")),
    ("R4_10", -1, ("v2<=0", "t=4(5)")), ("R4_10", 9, ("v2<=0", "t=4(5)")),
    ("R4_10", Fraction(2, 3), ("v2=1", "t=4(5)")), ("R4_10", 1, ("v2<=0", "other")),
    ("R4_10", 20, ("v2>1", "other")), ("R4_10", Fraction(4, 5), ("v2>1", "other")),
    ("R6", 2, ("v2>0", "v3=0")), ("R6", 6, ("v2>0", "v3!=0")),
    ("R6", 1, ("v2<=0", "v3=0")), ("R6", 3, ("v2<=0", "v3!=0")),
    ("R6", Fraction(1, 3), ("v2<=0", "v3!=0")),
    # S8 at 2: t a 2-adic unit, mod 4
    ("S8", 2, ("v2!=0", "v3<=0")), ("S8", Fraction(1, 2), ("v2!=0", "v3<=0")),
    ("S8", 6, ("v2!=0", "v3>=1")), ("S8", 1, ("v2=0,1(4)", "v3<=0")),
    ("S8", 9, ("v2=0,1(4)", "v3>=1")), ("S8", 3, ("v2=0,3(4)", "v3>=1")),
    ("S8", 7, ("v2=0,3(4)", "v3<=0")), ("S8", -1, ("v2=0,3(4)", "v3<=0")),
    ("S8", Fraction(1, 3), ("v2=0,3(4)", "v3<=0")),
]


class TestBranchTable:
    """The classifiers against the hand-written table, not against
    themselves (the pools in pools.py take their keys from the classifiers)."""

    def test_classifiers_read_exactnum_vp(self, monkeypatch):
        # every branch classifier reads its valuations through the one vp,
        # looked up in graphs' globals, so a tracer that rebinds it there
        # counts them
        calls = []
        real = graphs.vp

        def counting(x, p):
            calls.append(p)
            return real(x, p)

        monkeypatch.setattr(graphs, "vp", counting)
        for kind in sorted(GENUS0):
            calls.clear()
            branch_key(kind, Fraction(7, 5))
            assert set(calls) >= set(graph_type(kind).primes), kind

    @staticmethod
    def key(k):
        return k if isinstance(k, tuple) else (k,)

    @pytest.mark.parametrize("kind,t,key", BRANCH_TABLE)
    def test_branch_key(self, kind, t, key):
        assert branch_key(kind, t) == self.key(key)

    def test_table_covers_every_branch(self):
        covered = {}
        for kind, _, key in BRANCH_TABLE:
            covered.setdefault(kind, set()).add(self.key(key))
        assert set(covered) == GENUS0
        for kind in GENUS0:
            assert covered[kind] == set(graph_type(kind).decisions), kind


def rebuilt(g, decisions=None, blocks=None):
    """A new GraphType from g's own fields, with its decisions or blocks replaced."""
    return GraphType(g.kind, g.vertices, g.edges, blocks or g.blocks, decisions or g.decisions)


def row_mutations():
    """(kind, key, rows) for each decision row of each type with its vertex
    swapped for each other vertex of the type."""
    for kind in ALL_TYPES:
        g = graph_type(kind)
        for key, rows in g.decisions.items():
            for i, row in enumerate(rows):
                for vertex in g.vertices:
                    if vertex != row.vertex:
                        yield kind, key, rows[:i] + (row._replace(vertex=vertex),) + rows[i + 1:]


class TestSpecValidation:
    """Each spec checks at construction that its decision rows cover every
    branch and that, for every set of block primes dividing d, exactly one
    row matches d and names the volume argmax.  A broken spec, a tie
    included, is an internal error (TableMissError), not bad input."""

    WELL_FORMED = {("all",): (FaltingsResult("E_1", 3, False), FaltingsResult("E_3", 3, True))}

    @staticmethod
    def spec(decisions, exponents=((0, 0), (0, 1)), vertices=("E_1", "E_3"),
             edges=(("E_1", "E_3", 3),)):
        block = PrimeBlock(3, 0, ("all",), {"all": exponents})
        return GraphType("L2_3x", vertices, edges, (block,), decisions)

    def test_well_formed(self):
        g = self.spec(self.WELL_FORMED)
        assert g.weights == (3, 1)

    # the edges, each nearer end first, give every vertex one degree
    @pytest.mark.parametrize("vertices,edges,message", [
        # E_3 gets degree 3 and then 2
        (("E_1", "E_3"), (("E_1", "E_3", 3), ("E_1", "E_3", 2)), "gives E_3 two degrees"),
        # a triangle 1 -3- 3 -3- 9 closed by a 3-edge 1 - 9
        (("E_1", "E_3", "E_9"), (("E_1", "E_3", 3), ("E_3", "E_9", 3), ("E_1", "E_9", 3)),
         "gives E_9 two degrees"),
        # farther end first
        (("E_1", "E_3"), (("E_3", "E_1", 3),), "E_3-E_1 is out of order"),
        # E_9 is reached by no edge
        (("E_1", "E_3", "E_9"), (("E_1", "E_3", 3),), "the edges reach"),
        # an edge to, and one from, a vertex the type does not have
        (("E_1", "E_3"), (("E_1", "E_3", 3), ("E_3", "E_9", 3)), "the edges reach"),
        (("E_1", "E_3"), (("E_0", "E_3", 3),), "E_0-E_3 is out of order"),
    ], ids=["second_degree", "cycle", "far_end_first", "unreached", "unknown_far_end",
            "unknown_near_end"])
    def test_broken_edges_raise(self, vertices, edges, message):
        with pytest.raises(TableMissError, match=f"L2_3x: .*{message}"):
            self.spec(self.WELL_FORMED, vertices=vertices, edges=edges)

    @pytest.mark.parametrize("decisions", [
        {},                                                       # branch without rows
        {("all",): (FaltingsResult("E_1", 3, False),)},           # p | d uncovered
        {("all",): (FaltingsResult("E_1", 3, False), FaltingsResult("E_3", 2, True))},
        {("all",): (FaltingsResult("E_1"), FaltingsResult("E_3"))},
        {("all",): (FaltingsResult("E_9"),)},                     # no such vertex
        # a split at 7, where the type has no block
        {("all",): (FaltingsResult("E_1", 7, False), FaltingsResult("E_3", 7, True))},
    ])
    def test_broken_spec_raises(self, decisions):
        with pytest.raises(TableMissError):
            self.spec(decisions)

    def test_every_case_checked(self, monkeypatch):
        # one argmax per branch and set of block primes dividing d, 184 in
        # all; and each type rebuilds unmutated, the mutation tests' start
        calls = []
        real = GraphType.argmax

        def counting(g, uv):
            calls.append(g.kind)
            return real(g, uv)

        monkeypatch.setattr(GraphType, "argmax", counting)
        for kind in ALL_TYPES:
            rebuilt(graph_type(kind))
        assert len(calls) == 184
        assert all(calls.count(kind) == len(graph_type(kind).decisions)
                   * 2 ** len(graph_type(kind).blocks) for kind in ALL_TYPES)

    def test_every_row_mutation_raises(self):
        # a decision row that names another vertex never builds
        mutations = list(row_mutations())
        assert len(mutations) == 262
        built = []
        for kind, key, rows in mutations:
            g = graph_type(kind)
            try:
                rebuilt(g, decisions={**g.decisions, key: rows})
            except TableMissError:
                continue
            built.append((kind, key, rows))
        assert built == []

    def test_exponent_mutation_raises(self):
        # L3_9 at v3(t) >= 3 with u(E) = (1, 3, 1): E_3 wins, not the row's E_9
        g = graph_type("L3_9")
        block = g.blocks[0]
        blocks = (block._replace(rows={**block.rows, "v>=3": ((0, 1, 0), None)}),)
        with pytest.raises(TableMissError, match="volume argmax E_3"):
            rebuilt(g, blocks=blocks)

    def test_tie_raises(self):
        # the chain E_1 -3- E_3 -3- E_9 with u(E) = (1, 1, 3): the scores
        # are 1, 1/3 and 3^2 / 9, a tie of E_1 and E_9
        with pytest.raises(TableMissError, match=r"tie among \['E_1', 'E_9'\]"):
            self.spec(self.WELL_FORMED, ((0, 0, 1), None), ("E_1", "E_3", "E_9"),
                      (("E_1", "E_3", 3), ("E_3", "E_9", 3)))

    # u-exponents must be non-negative ints, one per vertex, so that every
    # u-vector entry is an exact int
    @pytest.mark.parametrize("exponents", [
        ((0, -1), None),              # u = 1/3
        ((0, Fraction(1, 2)), None),  # u = sqrt 3
        ((0, 1.0), None),             # a float
        ((0, 0), (0, True)),          # a bool
        ((0,), (0, 1)),               # too short
        ((0, 0), (0, 1, 1)),          # too long
    ])
    def test_broken_exponents_raise(self, exponents):
        with pytest.raises(TableMissError, match="u-exponents"):
            self.spec(self.WELL_FORMED, exponents)

    # each block's table must reach exactly its rows' keys
    @classmethod
    def tabled(cls, lo, entries, keys):
        block = PrimeBlock(3, lo, entries, {key: ((0, 0), (0, 1)) for key in keys})
        return GraphType("L2_3x", ("E_1", "E_3"), (("E_1", "E_3", 3),), (block,),
                         {(key,): cls.WELL_FORMED[("all",)] for key in keys})

    def test_well_formed_table(self):
        g = self.tabled(1, ("lo", {1: "lo", 2: "hi"}, ("lo", "hi"), "hi"), ("lo", "hi"))
        # the offset entry at v = 3 leaves t = -27 undefined
        assert g.excluded == (-27,)
        assert [g.blocks[0].key(Fraction(t)) for t in (3, 9, 18, 27, 54, 81)] == [
            "lo", "lo", "hi", "hi", "lo", "hi"]

    # cuts: the table's (lo, entries); None, the genus >= 1 table "all"
    @pytest.mark.parametrize("cuts,keys", [
        ((0, ("all", "other")), ("all",)),                   # a key with no row
        ((0, ("all",)), ("all", "other")),                   # a row no entry reaches
        ((0, ({1: "all"},)), ("all",)),                      # a dict missing a unit
        ((0, ({0: "all", 1: "all", 2: "all"},)), ("all",)),  # a non-unit residue
        ((0, (("all", "all"), "all")), ("all",)),            # an offset entry first
        ((0, ("all", ("all", "all"))), ("all",)),            # an offset entry last
        (None, ("other",)),                                  # genus >= 1 reaches "all"
        ((0, ("all", (), "all")), ("all",)),                 # an empty offset entry
    ])
    def test_broken_table_raises(self, cuts, keys):
        with pytest.raises(TableMissError, match="L2_3x at 3: "):
            self.tabled(*(cuts or (0, ("all",))), keys)


class TestProbabilities:
    def test_branch_densities(self):
        assert FaltingsResult("E_3", 3, True).probability == Fraction(1, 4)
        assert FaltingsResult("E_1", 3, False).probability == Fraction(3, 4)
        assert FaltingsResult("E_11", 11, True).probability == Fraction(1, 12)
        assert FaltingsResult("E_1").probability == 1

    def test_tables_sum_to_one(self):
        for kind in ALL_TYPES:
            for t in ([None] if kind in GENUS_GE1 else [1, 6, 12, 45, Fraction(3, 7)]):
                rows = prob_table(kind, t)
                assert sum(r.probability for r in rows) == 1


class TestDecisions:
    def test_l39_regimes(self):
        # v3(t): <=0 -> E_1 always; 1 -> split at 3; 2 -> split; >=3 -> E_9
        assert faltings_by_theorem("L3_9", 1, 5).vertex == "E_1"
        assert faltings_by_theorem("L3_9", 1, 3).vertex == "E_1"
        r = faltings_by_theorem("L3_9", 3, 5)
        assert (r.vertex, r.probability) == ("E_1", Fraction(3, 4))
        r = faltings_by_theorem("L3_9", 3, 3)
        assert (r.vertex, r.probability) == ("E_3", Fraction(1, 4))
        r = faltings_by_theorem("L3_9", 45, 3)
        assert (r.vertex, r.probability) == ("E_9", Fraction(1, 4))
        # the answer is the branch's stored row
        assert r == FaltingsResult("E_9", 3, True) and r in prob_table("L3_9", 45)
        assert repr(r) == "FaltingsResult(vertex='E_9', p=3, divisible=True)"
        assert faltings_by_theorem("L3_9", 27, 7).vertex == "E_9"

    def test_l211(self):
        r = faltings_by_theorem("L2_11", None, 5)
        assert (r.vertex, r.probability) == ("E_1", Fraction(11, 12))
        r = faltings_by_theorem("L2_11", None, 11)
        assert (r.vertex, r.probability) == ("E_11", Fraction(1, 12))

    def test_uvector_example(self):
        uv = u_vectors("L3_9", 9, 1)
        assert uv.uE == (1, 3, 3)

    def test_query_factors_d_once(self, monkeypatch):
        # a query (faltings) checks d once, through the lookup; a caller that
        # also runs the volume argmax on the same d, as the oracle tests and
        # the two-path benchmark do, factors it once, as the d check
        # remembers the last d
        calls = []
        real = exactnum.prime_factors

        def counting(n):
            calls.append(n)
            return real(n)

        monkeypatch.setattr(exactnum, "prime_factors", counting)
        exactnum._squarefree_primes.cache_clear()  # an earlier test may have checked d
        d = -999999937 * 1000000007
        r = faltings_by_theorem("L3_9", 45, d)
        assert faltings_by_volumes("L3_9", 45, d) == r.vertex
        assert calls == [d]

    def test_theorem_matches_volumes_sampled(self):
        for kind in ALL_TYPES:
            t = SAMPLE_T[kind]
            for d in (1, -1, 2, 3, 5, -6, 7, 11, -13, 30):
                r = faltings_by_theorem(kind, t, d)
                assert faltings_by_volumes(kind, t, d) == r.vertex, (kind, d)


class TestIntegerScores:
    """faltings_by_volumes scores in ints; the Fraction scores built here
    from the volumes, the weights over the first, must have the same unique
    argmax."""

    @staticmethod
    def ds(g, rows):
        # both sides of every row's d-condition and of every type prime
        conds = {(r.p, r.divisible) for r in rows}
        conds |= {(p, div) for p in g.primes for div in (False, True)}
        return {d for p, div in conds for d in squarefree_ds(p, div, 2)}

    @pytest.mark.parametrize("kind", ALL_TYPES)
    def test_int_argmax_equals_fraction_argmax(self, kind):
        g = graph_type(kind)
        volumes = [Fraction(w, g.weights[0]) for w in g.weights]
        if kind in GENUS_GE1:
            ts = [None]
        else:
            ts = [t for pool in pooled_ts(kind, 2).values() for t in pool]
        for t in ts:
            for d in self.ds(g, prob_table(kind, t)):
                uv = u_vectors(kind, t, d)
                assert all(type(u) is int for u in uv.uE + uv.uEd), (kind, t, d, uv)
                scores = [Fraction(ue) ** 2 * Fraction(ud) ** 2 * v
                          for ue, ud, v in zip(uv.uE, uv.uEd, volumes)]
                best = max(scores)
                winners = [lbl for lbl, sc in zip(g.vertices, scores) if sc == best]
                assert [faltings_by_volumes(kind, t, d)] == winners, (kind, t, d)

    def test_weights(self):
        for kind in ALL_TYPES:
            g = graph_type(kind)
            assert all(type(w) is int for w in g.weights)
            assert "weights" in vars(g)  # set once in __init__, not derived per read


class TestBranchSweep:
    """Light version of the exhaustive sweep: 5 t per branch, 4 d per class."""

    @pytest.mark.parametrize("kind", sorted(GENUS0))
    def test_theorem_equals_volumes(self, kind):
        for key, ts in pooled_ts(kind, 5).items():
            for t in ts:
                for row in prob_table(kind, t):
                    for d in squarefree_ds(row.p, row.divisible, 4):
                        assert faltings_by_theorem(kind, t, d) == row
                        assert faltings_by_volumes(kind, t, d) == row.vertex, (kind, t, d)


BLOCKS = [block for kind in sorted(GENUS0) for block in graph_type(kind).blocks]
OFFSETS = [(block, v) for block in BLOCKS
           for v, e in enumerate(block.keys, block.lo) if type(e) is tuple]


class TestReadings:
    """The readings a table lists decide its key: a t gets the key of the
    representative that pools.py builds for t's reading."""

    @staticmethod
    def same_key(block, t, reading):
        rep = next(representatives((block,), (reading,), unit_parts([block.p])))
        assert block.key(t) == block.key(rep), (block.p, t, reading, rep)

    # t = +-u/den p^k, u and den prime to p
    @given(st.sampled_from(BLOCKS), st.integers(1, 10**6), st.integers(1, 10**4),
           st.sampled_from((1, -1)), st.integers(-20, 20))
    @settings(max_examples=600, deadline=None)
    def test_unit_times_power(self, block, u, den, s, k):
        p = block.p
        assume(u % p and den % p)
        c = s * Fraction(u, den)
        e = entry(block, k)
        assume(type(e) is not tuple or c != -1)  # t = -p^k is excluded
        r = (None if type(e) is str else residue(c, p, 2 if p == 2 else 1)
             if type(e) is dict else (k + vp(c + 1, p)) % len(e))
        # readings run from lo - 2 to two past the last entry
        v = min(max(k, block.lo - 2), block.lo + len(block.keys) + 1)
        self.same_key(block, c * Fraction(p) ** k, (v, r))

    # t = p^v (+-u/den p^j - 1) at an offset entry: v_p(t + p^v) = v + j
    @given(st.sampled_from(OFFSETS), st.integers(1, 10**6), st.integers(1, 10**4),
           st.sampled_from((1, -1)), st.integers(1, 30))
    @settings(max_examples=300, deadline=None)
    def test_offset_family(self, where, u, den, s, j):
        block, v = where
        p = block.p
        assume(u % p and den % p)
        t = Fraction(p) ** v * (s * Fraction(u, den) * p**j - 1)
        self.same_key(block, t, (v, (v + j) % len(entry(block, v))))


def sqf(x: Fraction) -> int:
    """The signed square-free part of a nonzero rational."""
    sign = 1 if x > 0 else -1
    return sign * math.prod(p for p in prime_factors(abs(x.numerator * x.denominator))
                            if vp(x, p) % 2)


def l39_delta(t: Fraction):
    """The twist δ(t) with E_1(27/t) = E_9(t)^δ, read off the signatures
    (a rescale multiplies c6/c4 by a square); None where a c4 or c6 is 0,
    at j = 0 or 1728."""
    e1, e9 = class_signatures("L3_9", fricke_w9(t))[0], class_signatures("L3_9", t)[2]
    if 0 in (e1.c4, e1.c6, e9.c4, e9.c6):
        return None
    return sqf(e1.c6 * e9.c4 / (e9.c6 * e1.c4))


class TestAtkinLehner:
    """The Atkin-Lehner involution t -> W/t swaps the ends of a chain up to
    the twist δ(t): E_1(W/t) = E_N(t)^δ.  So the decision rows alone must
    satisfy faltings(W/t, d) = mirror(faltings(t, sqf(d δ(t)))), where the
    mirror reverses the chain."""

    # kind: (the prime of N, W, δ(t))
    PRIME_LEVEL = {
        "L2_2": (2, 2**12, lambda t: -2 * t),
        "L2_3": (3, 3**6, lambda t: -t),
        "L2_5": (5, 5**3, lambda t: -1),
        "L2_7": (7, 7**2, lambda t: -7),
        "L2_13": (13, 13, lambda t: -13),
    }

    @pytest.mark.parametrize("kind", sorted(PRIME_LEVEL) + ["L3_9"])
    def test_mirror(self, kind):
        g = graph_type(kind)
        mirror = dict(zip(g.vertices, reversed(g.vertices)))
        hit_t, hit_w, deltas = set(), set(), set()
        for ts in pooled_ts(kind, 5).values():
            for t in ts:
                if kind == "L3_9":
                    p, w, delta = 3, fricke_w9(t), l39_delta(t)
                    if delta is None:
                        continue
                    deltas.add(delta)
                else:
                    p, W, delta_of = self.PRIME_LEVEL[kind]
                    w, delta = W / t, delta_of(t)
                # no excluded-t refusal: the pools hold no excluded t, and each
                # excluded t (-64 for L2_2, -27 for L2_3) is its own image
                for d in squarefree_ds(p, True, 10) + squarefree_ds(p, False, 10):
                    there = faltings_by_theorem(kind, w, d)
                    here = faltings_by_theorem(kind, t, sqf(d * delta))
                    assert there.vertex == mirror[here.vertex], (kind, t, d, there, here)
                    hit_t.add(branch_key(kind, t))
                    hit_w.add(branch_key(kind, w))
        assert hit_t == hit_w == set(g.decisions), (kind, hit_t, hit_w)
        if kind == "L3_9":
            assert deltas == {-3}
