import math
from fractions import Fraction

import pytest

from qtwist.graphs import (
    ALL_TYPES,
    GENUS0,
    GENUS_GE1,
    CuspError,
    DCondition,
    GraphType,
    PrimeBlock,
    faltings_by_theorem,
    faltings_by_volumes,
    graph_type,
    branch_key,
    prob_table,
    u_vectors,
)
from qtwist import families, graphs

from pools import pooled_ts, squarefree_ds

SAMPLE_T = {kind: (None if kind in GENUS_GE1 else Fraction(1)) for kind in ALL_TYPES}


class TestRegistry:
    def test_type_count(self):
        # 12 two-vertex line types plus 13 larger shapes
        assert len(ALL_TYPES) == 25
        assert len(GENUS0) == 14 and len(GENUS_GE1) == 11

    def test_graph_shapes(self):
        for kind in ALL_TYPES:
            g = graph_type(kind)
            assert g.volumes[0] == 1
            assert len(g.volumes) == len(g.vertices)
            labels = set(g.vertices)
            for a, b, deg in g.edges:
                assert a in labels and b in labels
                assert deg in g.primes
            # a connected isogeny graph on n vertices has >= n-1 edges
            assert len(g.edges) >= len(g.vertices) - 1

    def test_volume_examples(self):
        assert graph_type("L2_11").volumes == (1, Fraction(1, 11))
        assert graph_type("L3_9").volumes == (1, Fraction(1, 3), Fraction(1, 9))
        assert graph_type("T6").volumes == (
            1, Fraction(1, 2), Fraction(1, 4), Fraction(1, 4),
            Fraction(1, 8), Fraction(1, 8),
        )

    def test_unknown_type(self):
        with pytest.raises(ValueError):
            graph_type("L2_9")


class TestCusps:
    def test_t_zero(self):
        for kind in sorted(GENUS0):
            with pytest.raises(CuspError):
                faltings_by_theorem(kind, 0, 1)

    def test_type_specific_exclusions(self):
        with pytest.raises(CuspError):
            u_vectors("L2_2", -64, 1)
        with pytest.raises(CuspError):
            u_vectors("L2_3", -27, 1)
        # fine for other types
        assert u_vectors("L2_5", -64, 1)

    def test_one_cusp_error(self):
        assert CuspError is families.CuspError

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


class TestSpecValidation:
    """Each spec checks at construction that its decision rows cover every
    branch and split the square-free d exactly once."""

    WELL_FORMED = {("all",): ((DCondition(3, False), "E_1"), (DCondition(3, True), "E_3"))}

    @staticmethod
    def spec(decisions, exponents=((0, 0), (0, 1))):
        block = PrimeBlock(3, None, {"all": exponents})
        return GraphType("L2_3x", ("E_1", "E_3"), (Fraction(1), Fraction(1, 3)),
                         (("E_1", "E_3", 3),), (3,), (block,), decisions)

    def test_well_formed(self):
        assert self.spec(self.WELL_FORMED)

    @pytest.mark.parametrize("decisions", [
        {},                                                       # branch without rows
        {("all",): ((DCondition(3, False), "E_1"),)},             # p | d uncovered
        {("all",): ((DCondition(3, False), "E_1"), (DCondition(2, True), "E_3"))},
        {("all",): ((DCondition(), "E_1"), (DCondition(), "E_3"))},
        {("all",): ((DCondition(), "E_9"),)},                     # no such vertex
    ])
    def test_broken_spec_raises(self, decisions):
        with pytest.raises(ValueError):
            self.spec(decisions)

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
        with pytest.raises(ValueError, match="u-exponents"):
            self.spec(self.WELL_FORMED, exponents)


class TestProbabilities:
    def test_branch_densities(self):
        assert DCondition(3, True).probability == Fraction(1, 4)
        assert DCondition(3, False).probability == Fraction(3, 4)
        assert DCondition(11, True).probability == Fraction(1, 12)
        assert DCondition().probability == 1

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
        assert faltings_by_theorem("L3_9", 27, 7).vertex == "E_9"

    def test_l211(self):
        r = faltings_by_theorem("L2_11", None, 5)
        assert (r.vertex, r.probability) == ("E_1", Fraction(11, 12))
        r = faltings_by_theorem("L2_11", None, 11)
        assert (r.vertex, r.probability) == ("E_11", Fraction(1, 12))

    def test_uvector_example(self):
        uv = u_vectors("L3_9", 9, 1)
        assert uv.uE == (1, 3, 3)

    def test_theorem_matches_volumes_sampled(self):
        for kind in ALL_TYPES:
            t = SAMPLE_T[kind]
            for d in (1, -1, 2, 3, 5, -6, 7, 11, -13, 30):
                r = faltings_by_theorem(kind, t, d)
                assert faltings_by_volumes(kind, t, d) == r.vertex, (kind, d)


class TestIntegerScores:
    """faltings_by_volumes scores in ints; the Fraction scores built here
    from ``volumes`` must have the same unique argmax."""

    @staticmethod
    def ds(g, rows):
        # both sides of every row's d-condition and of every type prime
        conds = {cond for cond, _ in rows}
        conds |= {DCondition(p, div) for p in g.primes for div in (False, True)}
        return {d for cond in conds for d in squarefree_ds(cond, 2)}

    @pytest.mark.parametrize("kind", ALL_TYPES)
    def test_int_argmax_equals_fraction_argmax(self, kind):
        g = graph_type(kind)
        if kind in GENUS_GE1:
            ts = [None]
        else:
            ts = [t for pool in pooled_ts(kind, 2).values() for t in pool]
        for t in ts:
            for d in self.ds(g, graphs.decision_rows(kind, t)):
                uv = u_vectors(kind, t, d)
                assert all(type(u) is int for u in uv.uE + uv.uEd), (kind, t, d, uv)
                scores = [Fraction(ue) ** 2 * Fraction(ud) ** 2 * v
                          for ue, ud, v in zip(uv.uE, uv.uEd, g.volumes)]
                best = max(scores)
                winners = [lbl for lbl, sc in zip(g.vertices, scores) if sc == best]
                assert [faltings_by_volumes(kind, t, d)] == winners, (kind, t, d)

    def test_weights(self):
        for kind in ALL_TYPES:
            g = graph_type(kind)
            assert all(type(w) is int for w in g.weights)
            assert g.weights[0] == math.lcm(*(v.denominator for v in g.volumes))
            assert all(Fraction(w, g.weights[0]) == v for w, v in zip(g.weights, g.volumes))
            assert g.weights is g.weights  # derived once per type


class TestBranchSweep:
    """Light version of the exhaustive sweep: 5 t per branch, 4 d per class."""

    @pytest.mark.parametrize("kind", sorted(GENUS0))
    def test_theorem_equals_volumes(self, kind):
        for key, ts in pooled_ts(kind, 5).items():
            for t in ts:
                for cond, vertex in graphs.decision_rows(kind, t):
                    for d in squarefree_ds(cond, 4):
                        r = faltings_by_theorem(kind, t, d)
                        assert r.vertex == vertex
                        assert faltings_by_volumes(kind, t, d) == r.vertex, (kind, t, d)
