from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtwist import graphs
from qtwist.families import FAMILIES, CuspError, class_signatures, l39_signatures
from qtwist.localdata import classify, global_minimal, global_pal
from qtwist.weierstrass import AInvariants, j_invariant, signature_of, twist_sig

from pools import pooled_ts, squarefree_ds
from reference import (
    L211_CURVES,
    X011_J_AT_16_60,
    fricke_w9,
    l39_j,
    x011_j,
    x011_on_curve,
)

ts = st.fractions(min_value=-80, max_value=80).filter(
    lambda t: t != 0 and t * t + 9 * t + 27 != 0
)


class TestL39:
    def test_cusp(self):
        with pytest.raises(CuspError):
            l39_signatures(0)

    @given(ts)
    @settings(max_examples=100, deadline=None)
    def test_signature_identity_and_j(self, t):
        sigs = l39_signatures(t)
        assert len(sigs) == 3
        for s, i in zip(sigs, (1, 3, 9)):
            assert s.c4**3 - s.c6**2 == 1728 * s.delta
            assert j_invariant(s) == l39_j(i, t)

    @given(ts)
    @settings(max_examples=100, deadline=None)
    def test_three_isogeny_chain_discriminants(self, t):
        # Delta ratios along the chain are cubes of rationals times 3-powers
        s1, s3, s9 = l39_signatures(t)
        q = t * t + 9 * t + 27
        assert s1.delta == t * q
        assert s3.delta == t**3 * q**3
        assert s9.delta == t**9 * q

    @given(ts)
    @settings(max_examples=60, deadline=None)
    def test_fricke_swaps_chain_ends(self, t):
        # j_1(27/t) = j_9(t)  and  j_9(27/t) = j_1(t)
        w = fricke_w9(t)
        assert l39_j(1, w) == l39_j(9, t)
        assert l39_j(9, w) == l39_j(1, t)
        assert fricke_w9(w) == t

    def test_integral_example(self):
        s1, s3, s9 = l39_signatures(45)
        assert s1.delta == 45 * (45**2 + 9 * 45 + 27)
        # middle curve: same j-denominator prime support
        assert j_invariant(s3) == l39_j(3, 45)


class TestRegistry:
    def test_one_signature_per_vertex(self):
        for kind, variants in FAMILIES.items():
            t = None if graphs.graph_type(kind).genus_ge_1 else Fraction(7, 2)
            for variant in variants:
                sigs = class_signatures(kind, t, variant)
                assert len(sigs) == len(graphs.graph_type(kind).vertices)
        assert class_signatures("L3_9", 45) == l39_signatures(45)

    def test_refusals(self):
        with pytest.raises(ValueError, match="no family"):
            class_signatures("T4", 8)
        with pytest.raises(ValueError, match="no family"):
            class_signatures("L3_9", 45, "b")
        with pytest.raises(ValueError, match="omit it"):
            class_signatures("L2_11", 45)
        with pytest.raises(ValueError, match="needs a hauptmodul value"):
            class_signatures("L3_9")
        with pytest.raises(CuspError):
            class_signatures("L3_9", 0)
        with pytest.raises(CuspError):
            fricke_w9(0)


class TestLocalTables:
    """The block rows and decision rows of ``graphs`` against the local
    tables of ``localdata`` on the registry's curves, with no mpmath: for
    each vertex model E_i, u(E_i) is ``global_minimal(E_i)[1]``, u(E_i^d)
    is ``global_pal`` of E_i's minimal model, and the Faltings vertex of
    the twisted class is the argmax of u(twist_sig(E_i, d))^2 * v_i."""

    @staticmethod
    def _cases():
        """(kind, variant, t, [d, ...]): t from every branch, d on both
        sides of every isogeny prime, so of every row's DCondition."""
        for kind, variants in FAMILIES.items():
            g = graphs.graph_type(kind)
            ts = [None] if g.genus_ge_1 else [
                t for pool in pooled_ts(kind, 5).values() for t in pool]
            ds = [d for p in g.primes for divisible in (True, False)
                  for d in squarefree_ds(graphs.DCondition(p, divisible), 16)]
            for variant in variants:
                for t in ts:
                    yield kind, variant, t, ds

    def test_argmax_is_the_theorem(self):
        checked = 0
        for kind, variant, t, ds in self._cases():
            g = graphs.graph_type(kind)
            sigs = class_signatures(kind, t, variant)
            for d in ds:
                scores = [global_minimal(twist_sig(s, d))[1] ** 2 * v
                          for s, v in zip(sigs, g.volumes)]
                winners = [v for v, sc in zip(g.vertices, scores) if sc == max(scores)]
                assert winners == [graphs.faltings_by_theorem(kind, t, d).vertex], (
                    kind, variant, t, d, scores)
                checked += 1
        assert checked >= 700

    def test_block_rows_are_the_local_scales(self):
        def ratios(us):
            return [Fraction(u) / us[0] for u in us]

        for kind, variant, t, ds in self._cases():
            minimal = [global_minimal(s) for s in class_signatures(kind, t, variant)]
            for d in ds:
                uv = graphs.u_vectors(kind, t, d)
                assert ratios([u for _, u in minimal]) == ratios(uv.uE), (kind, variant, t)
                assert ratios([global_pal(m, d) for m, _ in minimal]) == ratios(uv.uEd), (
                    kind, variant, t, d)


class TestL211:
    def test_variants(self):
        assert [label for label, _ in L211_CURVES["a"]] == ["121.a2", "121.a1"]
        assert [label for label, _ in L211_CURVES["b"]] == ["121.b2", "121.b1"]
        for variant, curves in L211_CURVES.items():
            sigs = class_signatures("L2_11", variant=variant)
            for (_, ainvs), s in zip(curves, sigs, strict=True):
                assert signature_of(AInvariants(*ainvs)) == s

    def test_bad_variant(self):
        with pytest.raises(ValueError):
            class_signatures("L2_11", variant="c")

    def test_kodaira_at_11(self):
        expected = {"a": ("II", "II*"), "b": ("III", "III*")}
        for variant, syms in expected.items():
            for s, sym in zip(class_signatures("L2_11", variant=variant), syms):
                assert str(classify(s, 11).kodaira) == sym

    def test_eleven_isogeny(self):
        # both classes consist of 11-isogenous curves: same conductor support,
        # j-invariants are the two CM-free values with Delta = -11-power
        for variant in ("a", "b"):
            e1, e11 = class_signatures("L2_11", variant=variant)
            assert e1.delta * e11.delta > 0
            assert (e1.delta * e11.delta).numerator % 11 == 0

    def test_class_b_is_twist_of_class_a_twist(self):
        # the two classes are not twists of each other by any square-free d:
        # their j-invariants differ
        ja = j_invariant(class_signatures("L2_11", variant="a")[0])
        jb = j_invariant(class_signatures("L2_11", variant="b")[0])
        assert ja != jb


class TestX011:
    def test_on_curve(self):
        assert x011_on_curve(5, 5)
        assert x011_on_curve(16, 60)
        assert x011_on_curve(16, -61)
        assert x011_on_curve(5, -6)
        assert not x011_on_curve(5, 6)

    def test_five_torsion_values(self):
        assert x011_j(5, 5) == -(2**15)
        assert x011_j(5, -6) == -(11**2)

    def test_indeterminate_point(self):
        with pytest.raises(ValueError):
            x011_j(16, 60)
        assert X011_J_AT_16_60 == -11 * 131**3
        assert X011_J_AT_16_60 == j_invariant(class_signatures("L2_11", variant="a")[0])

    def test_off_curve_rejected(self):
        with pytest.raises(ValueError):
            x011_j(0, 0)

    def test_rational_point_gives_class_j(self):
        # values at the x=5 torsion points are the j-invariants of the
        # conductor-11 curves (up to the 11-isogeny structure)
        assert x011_j(5, -6) == Fraction(-(11**2))
