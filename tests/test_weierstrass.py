from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtwist.weierstrass import (
    AInvariants,
    Signature,
    j_invariant,
    p_signature,
    signature_of,
    transform,
    twist_sig,
)

# y^2 + y = x^3 - x^2 - 10x - 20, conductor 11
E11 = AInvariants(0, -1, 1, -10, -20)
S11 = Signature(496, 20008, -161051)

small_rats = st.fractions(min_value=-50, max_value=50)


class TestSignatureOf:
    def test_conductor_11(self):
        assert signature_of(E11) == S11

    def test_121a2(self):
        s = signature_of(AInvariants(1, 1, 1, -30, -76))
        assert s == Signature(11 * 131, 11 * 4973, -(11**2))

    def test_identity_enforced(self):
        with pytest.raises(ValueError):
            Signature(1, 1, 1)

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            signature_of(AInvariants(0, 0, 0, 0, 0))

    @given(st.integers(-20, 20), st.integers(-20, 20), st.integers(-20, 20),
           st.integers(-20, 20), st.integers(-20, 20))
    @settings(max_examples=200, deadline=None)
    def test_discriminant_identity(self, a1, a2, a3, a4, a6):
        try:
            s = signature_of(AInvariants(a1, a2, a3, a4, a6))
        except ValueError:
            return  # singular
        assert s.c4**3 - s.c6**2 == 1728 * s.delta


class TestTransform:
    @given(small_rats, small_rats, small_rats, st.integers(1, 12))
    @settings(max_examples=200, deadline=None)
    def test_scaling_law(self, c4, c6, u_num, u_den):
        u = u_num + Fraction(1, u_den + 1)  # nonzero-ish rational
        if u == 0:
            return
        delta = Fraction(c4**3 - c6**2, 1728)
        if delta == 0:
            return
        s = Signature(c4, c6, delta)
        t = transform(s, u)
        assert t.c4 == c4 / u**4
        assert t.c6 == c6 / u**6
        assert t.delta == delta / u**12
        assert transform(t, 1 / u) == s

    def test_j_invariance(self):
        s = Signature(48, 216, Fraction(48**3 - 216**2, 1728))
        assert j_invariant(transform(s, Fraction(7, 3))) == j_invariant(s)

    def test_zero_u_rejected(self):
        with pytest.raises(ValueError, match="u must be nonzero"):
            transform(S11, 0)


class TestTwist:
    def test_values(self):
        t = twist_sig(S11, 2)
        assert (t.c4, t.c6, t.delta) == (496 * 4, 20008 * 8, -161051 * 64)

    def test_spec_of_twist_by_11(self):
        s = signature_of(AInvariants(1, 1, 1, -30, -76))
        t = twist_sig(s, 11)
        assert (t.c4, t.c6, t.delta) == (174361, 72809693, -214358881)

    @given(st.sampled_from([-1, 3, 7, 11, -11, 13]),
           st.sampled_from([-1, 2, 10]))
    def test_composition(self, d, e):
        # d, e coprime and square-free, so d*e is a valid twisting factor
        assert twist_sig(twist_sig(S11, d), e) == twist_sig(S11, d * e)

    def test_non_squarefree_rejected(self):
        with pytest.raises(ValueError):
            twist_sig(S11, 12)
        with pytest.raises(ValueError):
            twist_sig(S11, 0)

    def test_twist_square_is_transform(self):
        # twisting twice by d rescales the model by u = 1/d
        t = twist_sig(twist_sig(S11, 3), 3)
        assert t == transform(S11, Fraction(1, 3))


class TestDerived:
    def test_j_invariant(self):
        assert j_invariant(S11) == Fraction(496**3, -161051)

    def test_p_signature(self):
        # c4 = 16*31, c6 = 8*41*61, Delta = -11^5
        assert p_signature(S11, 11) == (0, 0, 5)
        assert p_signature(S11, 2) == (4, 3, 0)

    def test_short_model(self):
        # y^2 = x^3 + Ax + B with A = -c4/48, B = -c6/864
        m = AInvariants(0, 0, 0, -S11.c4 / 48, -S11.c6 / 864)
        assert m.a4 == Fraction(-496, 48)
        assert m.a6 == Fraction(-20008, 864)
        # the short model reproduces the signature up to the identity check
        s = signature_of(m)
        assert (s.c4, s.c6) == (S11.c4, S11.c6)
