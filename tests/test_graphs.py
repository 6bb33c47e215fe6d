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
    prob_table,
    probability_of_branch,
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


class TestSpecValidation:
    """Each spec checks at construction that its decision rows cover every
    branch and split the square-free d exactly once."""

    @staticmethod
    def spec(decisions):
        block = PrimeBlock(3, None, {"all": ((0, 0), (0, 1))})
        return GraphType("L2_3x", ("E_1", "E_3"), (Fraction(1), Fraction(1, 3)),
                         (("E_1", "E_3", 3),), (3,), (block,), decisions)

    def test_well_formed(self):
        assert self.spec({("all",): ((DCondition(3, False), "E_1"),
                                     (DCondition(3, True), "E_3"))})

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


class TestProbabilities:
    def test_branch_densities(self):
        assert probability_of_branch(3, True) == Fraction(1, 4)
        assert probability_of_branch(3, False) == Fraction(3, 4)
        assert probability_of_branch(11, True) == Fraction(1, 12)

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
