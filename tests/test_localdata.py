import random
from fractions import Fraction

import pytest

from qtwist import exactnum, localdata
from qtwist.localdata import (
    KodairaSymbol,
    classify,
    global_minimal,
    global_pal,
    pal_u,
    realizable,
    row_pal_value,
)
from qtwist.weierstrass import AInvariants, Signature, signature_of, transform, twist_sig

S11 = signature_of(AInvariants(0, -1, 1, -10, -20))       # conductor 11, I5 at 11
S121A2 = signature_of(AInvariants(1, 1, 1, -30, -76))     # II at 11
S121A1 = signature_of(AInvariants(1, 1, 1, -305, 7888))   # II* at 11
S121B2 = signature_of(AInvariants(0, -1, 1, -7, 10))      # III at 11
S121B1 = signature_of(AInvariants(0, -1, 1, -887, -10143))  # III* at 11
S32 = signature_of(AInvariants(0, 0, 0, -1, 0))           # y^2 = x^3 - x, III at 2


class TestKodairaSymbol:
    def test_str(self):
        assert str(KodairaSymbol("I0")) == "I0"
        assert str(KodairaSymbol("In", 5)) == "I5"
        assert str(KodairaSymbol("In*", 3)) == "I3*"
        assert str(KodairaSymbol("II*")) == "II*"

    def test_starred(self):
        assert KodairaSymbol("In*", 2).starred
        assert KodairaSymbol("IV*").starred
        assert not KodairaSymbol("III").starred


class TestClassifyKnownCurves:
    def test_multiplicative(self):
        c = classify(S11, 11)
        assert str(c.kodaira) == "I5"
        assert c.u_p == 1
        assert c.minimal_psig.as_tuple() == (0, 0, 5)

    def test_additive_at_11(self):
        expected = {
            "II": (S121A2, (1, 1, 2)),
            "II*": (S121A1, (4, 5, 10)),
            "III": (S121B2, (1, 2, 3)),
            "III*": (S121B1, (3, 5, 9)),
        }
        for sym, (s, psig) in expected.items():
            c = classify(s, 11)
            assert str(c.kodaira) == sym, sym
            assert c.minimal_psig.as_tuple() == psig
            assert c.u_p == 1

    def test_ramified_twist_of_multiplicative(self):
        # twisting I_n by a d ramified at p yields I_n*
        c = classify(twist_sig(S11, -11), 11)
        assert str(c.kodaira) == "I5*"

    def test_additive_at_2(self):
        c = classify(S32, 2)
        assert str(c.kodaira) == "III"
        assert c.u_p == 1

    def test_good_reduction(self):
        c = classify(S11, 7)
        assert str(c.kodaira) == "I0"
        assert c.minimal_psig.vdelta == 0


class TestClassifyScaling:
    def test_non_minimal_input(self):
        s = transform(S11, Fraction(1, 6))  # blow up by u = 1/6
        c2, c3 = classify(s, 2), classify(s, 3)
        assert c2.u_p == 2 and c3.u_p == 3
        assert str(c2.kodaira) == str(classify(S11, 2).kodaira)

    def test_global_minimal(self):
        s = transform(S11, Fraction(1, 6))
        mini, u = global_minimal(s)
        assert u == 6
        assert mini == S11

    def test_minimal_is_fixed_point(self):
        for s in (S11, S121A2, S121B1, S32):
            mini, u = global_minimal(s)
            assert u == 1 and mini == s

    def test_idempotence(self):
        for s in (S11, S121A2, S32):
            for p in (2, 3, 11):
                c = classify(s, p)
                again = classify(c.minimal_sig, p)
                assert again.u_p == 1
                assert str(again.kodaira) == str(c.kodaira)

    def test_denominator_scale(self):
        # s with p-denominators classifies via a negative power of p
        s = transform(S11, 5)
        c = classify(s, 5)
        assert c.u_p == Fraction(1, 5)
        assert str(c.kodaira) == str(classify(S11, 5).kodaira)


class TestPal:
    def test_rejects_bad_d(self):
        c = classify(S11, 11)
        with pytest.raises(ValueError):
            pal_u(c, 12)
        with pytest.raises(ValueError):
            pal_u(c, 0)

    def test_odd_p_values(self):
        c = classify(S121A2, 11)  # II, unstarred
        assert pal_u(c, 11) == 1
        assert pal_u(c, 5) == 1
        cstar = classify(S121A1, 11)  # II*, starred
        assert pal_u(cstar, 11) == 11
        assert pal_u(cstar, 5) == 1

    def test_predicts_minimality_scale_of_twist(self):
        # global_pal(s, d) must be exactly the rescaling that minimizes
        # the twisted signature, for minimal s
        curves = (S11, S121A2, S121B2, S32)
        ds = (-1, 2, -2, 3, -3, 5, 6, -7, 10, 11, -11, 13, -15)
        for s in curves:
            for d in ds:
                mini, u = global_minimal(twist_sig(s, d))
                assert global_pal(s, d) == u, (s, d)

    def test_reads_the_minimal_model(self):
        # pal_u reads the p-minimal model that c was classified to, so any
        # model of the curve gives the minimal model's u(E^d)
        for s in (S11, S121A2, S32):
            for u in (2, 3, 6, Fraction(1, 2), Fraction(1, 6)):
                for d in (-1, 2, 3, -6, 7, 10):
                    assert global_pal(transform(s, u), d) == global_pal(s, d), (s, u, d)

    def test_factors_d_once(self, monkeypatch):
        # one factoring for check_d (through is_squarefree), one for the
        # primes of d; none per prime
        calls = []
        real = exactnum.prime_factors

        def counting(n, *args, **kwargs):
            calls.append(n)
            return real(n, *args, **kwargs)

        monkeypatch.setattr(exactnum, "prime_factors", counting)
        monkeypatch.setattr(localdata, "prime_factors", counting)
        d = -999999937 * 1000000007  # 1 mod 4
        for dd, wanted in ((d, 1), (-d, Fraction(1, 2))):
            calls.clear()
            assert global_pal(S121A2, dd) == wanted
            assert len(calls) <= 2, calls

    def test_row_pal_matches_table_one(self):
        for s in (S11, S121A2, S121B1, S32):
            for p in (2, 3, 11):
                c = classify(s, p)
                for d in (1, -1, 2, 3, -5, 6, 11, -11):
                    assert row_pal_value(c, d) == pal_u(c, d), (s, p, d)


def _mod(x: Fraction, m: int) -> int:
    """Residue mod m of a rational whose denominator is prime to m."""
    return x.numerator * pow(x.denominator, -1, m) % m


def _realizable_by_search(s: Signature, p: int) -> bool:
    """Reference for Kraus' criterion: search the b-invariants of a
    p-integral model with these (c4, c6), with b2 below 81 at p = 3, and at
    p = 2 with a1, a3 in {0, 1} and b2 = a1^2 mod 4 below 128."""
    if p == 3:
        for b2 in range(81):
            b4 = (Fraction(b2) ** 2 - s.c4) / 24
            if b4.denominator % 3 == 0:
                continue
            b6 = (-(Fraction(b2) ** 3) + 36 * b2 * b4 - s.c6) / 216
            if b6.denominator % 3:
                return True
        return False
    for a1 in (0, 1):
        for a3 in (0, 1):
            for b2 in range(a1 * a1, 128, 4):
                b4 = (Fraction(b2) ** 2 - s.c4) / 24
                if b4.denominator % 2 == 0 or _mod(b4, 2) != a1 * a3 % 2:
                    continue
                b6 = (-(Fraction(b2) ** 3) + 36 * b2 * b4 - s.c6) / 216
                if b6.denominator % 2 and _mod(b6, 4) == a3 * a3 % 4:
                    return True
    return False


def _p_integral_pairs(p: int, count: int, rng: random.Random):
    """Signatures with p-integral c4, c6 and Delta, denominators prime to
    p, c4 = 0 in about one in eight."""
    q = 64 if p == 2 else 27  # Delta is p-integral iff c4^3 = c6^2 mod q
    dens = (1, 5, 7) if p == 3 else (1, 3, 5)
    while count:
        c6 = rng.choice((1, -1)) * rng.randrange(1, 10**6) * p ** rng.randrange(11)
        roots = [r for r in range(q) if (r**3 - c6**2) % q == 0]
        if not roots:
            continue
        if 0 in roots and rng.random() < 0.125:
            c4 = 0
        else:
            c4 = rng.choice(roots) + q * rng.randrange(-10**4, 10**4)
        den = rng.choice(dens)
        c4, c6 = Fraction(c4, den**2), Fraction(c6, den**3)
        delta = (c4**3 - c6**2) / 1728
        if delta != 0:
            count -= 1
            yield Signature(c4, c6, delta)


class TestRealizable:
    @pytest.mark.parametrize("p", [2, 3])
    def test_kraus_equals_search(self, p):
        rng = random.Random(1989 + p)
        outcomes = {True: 0, False: 0}
        c4_zero = 0
        for s in _p_integral_pairs(p, 2000, rng):
            got = realizable(s, p)
            assert got == _realizable_by_search(s, p), (p, s)
            outcomes[got] += 1
            c4_zero += s.c4 == 0
        assert min(outcomes.values()) >= 100 and c4_zero >= 100, (outcomes, c4_zero)

    def test_rejects_non_integral(self):
        with pytest.raises(ValueError):
            realizable(transform(S11, 2), 2)
