import random
from fractions import Fraction

import mpmath
import pytest
from mpmath import mp

from qtwist import families
from qtwist.oracle import (
    lattice_volume,
    neron_volume,
    verify_class,
)
from qtwist.graphs import prob_table
from qtwist.localdata import global_minimal
from qtwist.sieve import empirical_prob, squarefree_density
from qtwist.weierstrass import AInvariants, Signature, signature_of, transform, twist_sig

S11 = signature_of(AInvariants(0, -1, 1, -10, -20))   # Delta < 0
S32 = Signature(48, 0, 64)                             # y^2 = x^3 - x, Delta > 0
S27 = Signature(0, -864, -432)                         # y^2 = x^3 + 1, Delta < 0


def _cubic(s):
    """A, B of y^2 = x^3 + Ax + B, as mpf at the working precision."""
    return (mp.mpf(Fraction(-s.c4, 48).numerator) / mp.mpf(Fraction(-s.c4, 48).denominator),
            mp.mpf(Fraction(-s.c6, 864).numerator) / mp.mpf(Fraction(-s.c6, 864).denominator))


def quad_volume(s):
    """Lattice covolume by direct numerical period integrals."""
    A, B = _cubic(s)
    f = lambda x: x**3 + A * x + B
    roots = mp.polyroots([1, 0, A, B])
    if s.delta > 0:
        e1, e2, e3 = sorted((mp.re(r) for r in roots), reverse=True)
        om_re = mp.quad(lambda x: 1 / mp.sqrt(f(x)), [e1, mp.inf])
        om_im = mp.quad(lambda x: 1 / mp.sqrt(-f(x)), [e2, e1])
        return om_re * om_im
    r = min(roots, key=lambda z: abs(mp.im(z)))
    r = mp.re(r)
    om_re = mp.quad(lambda x: 1 / mp.sqrt(f(x)), [r, mp.inf])
    nu = mp.quad(lambda x: 1 / mp.sqrt(-f(x)), [-mp.inf, r])
    return om_re * nu / 2


def reference_volume(s, bits):
    """Reference for lattice_volume, sharing none of its root or period
    formulas: all three roots from polyroots (at doubled precision, steps
    raised), then the AGM for Delta > 0 and Carlson's symmetric integral
    R_F for Delta < 0; run at bits + 400."""
    with mp.workprec(bits + 400):
        A, B = _cubic(s)
        roots = mp.polyroots([1, 0, A, B], maxsteps=5000, extraprec=mp.prec)
        if s.delta > 0:
            e1, e2, e3 = sorted((mp.re(r) for r in roots), reverse=True)
            om_re = mp.pi / mp.agm(mp.sqrt(e1 - e3), mp.sqrt(e1 - e2))
            om_im = mp.pi / mp.agm(mp.sqrt(e1 - e3), mp.sqrt(e2 - e3))
            return om_re * om_im
        r = min(roots, key=lambda z: abs(mp.im(z)))
        e2, e3 = [z for z in roots if z != r]
        om1 = mp.re(2 * mp.elliprf(0, r - e2, r - e3))
        half = 2 * mp.elliprf(0, e2 - e3, e2 - r)  # = +-(om1/2 - i vol/om1)
        return om1 * abs(mp.im(half))


def _of_cubic(A, B):
    c4, c6 = -48 * Fraction(A), -864 * Fraction(B)
    return Signature(c4, c6, (c4**3 - c6**2) / 1728)


def _minimal_twists(kind, t, d, variant="a"):
    return [global_minimal(twist_sig(s, d))[0]
            for s in families.class_signatures(kind, t, variant)]


def _corpus():
    rng = random.Random(20240611)
    out = []
    while len(out) < 16:  # generic A, B; both signs of Delta come up
        A = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 1000))
        B = Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 1000))
        if 4 * A**3 + 27 * B**2:
            out.append(_of_cubic(A, B))
    out += [_of_cubic(0, 5), _of_cubic(0, Fraction(-7, 3)),      # c4 = 0
            _of_cubic(-3, 0), _of_cubic(Fraction(-1, 3), 0),     # c6 = 0, c4 > 0
            _of_cubic(5, 0), _of_cubic(Fraction(2, 9), 0)]       # c6 = 0, c4 < 0
    # roots 2^-60 apart: a real pair (either end) and a complex pair
    eps = Fraction(1, 2**60)
    for r in (1, -1):
        e = (r, r + eps, -2 * r - eps)
        out.append(_of_cubic(e[0] * e[1] + e[0] * e[2] + e[1] * e[2], -e[0] * e[1] * e[2]))
        out.append(_of_cubic(r * r + eps * eps - 4 * r * r, 2 * r * (r * r + eps * eps)))
    for _ in range(4):
        t = Fraction(rng.choice((-1, 1)) * rng.randint(1, 400), rng.randint(1, 40))
        d = rng.choice((1, -1, 2, -3, 5, 6, -7, 15, 221, -4201))
        out += _minimal_twists("L3_9", t, d)
    for variant in "ab":
        out += _minimal_twists("L2_11", None, rng.choice((-1, 3, -11, 33)), variant)
    return out


CORPUS = _corpus()


class TestLatticeVolume:
    def test_against_quadrature(self):
        with mp.workprec(80):
            for s in (S32, S11, S27):
                got = lattice_volume(s, 80).volume
                want = quad_volume(s)
                assert abs(got - want) < mp.mpf(10) ** -10, s

    def test_lemniscatic_closed_form(self):
        # y^2 = x^3 - x has a square period lattice; the covolume is
        # (Gamma(1/4) Gamma(1/2) / (2 Gamma(3/4)))^2
        with mp.workprec(100):
            om = mp.gamma(0.25) * mp.sqrt(mp.pi) / (2 * mp.gamma(0.75))
            got = lattice_volume(S32, 96).volume
            assert abs(got - om**2) < mp.mpf(2) ** -80

    def test_claimed_error(self):
        la = lattice_volume(S11, 128)
        assert la.claimed_error < mp.mpf(2) ** -120

    def test_corpus_covers_its_cases(self):
        assert {s.delta > 0 for s in CORPUS} == {True, False}
        assert any(s.c4 == 0 for s in CORPUS)
        assert {s.c4 > 0 for s in CORPUS if s.c6 == 0} == {True, False}

    @pytest.mark.parametrize("bits", (64, 128, 512))
    def test_against_reference(self, bits):
        for s in CORPUS:
            la = lattice_volume(s, bits)
            ref = reference_volume(s, bits)
            with mp.workprec(bits + 400):
                ulp = mp.mpf(2) ** (mp.mag(ref) - bits - 30)
                assert abs(la.volume - ref) <= 2 * la.claimed_error + ulp, (s, bits)

    @pytest.mark.parametrize("bits", (64, 128, 512))
    def test_claimed_error_never_rounds_to_zero(self, bits):
        # the error is taken at the check's precision, not at the volume's
        for s in CORPUS:
            assert lattice_volume(s, bits).claimed_error > 0, (s, bits)

    def test_no_polyroots_no_carlson(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("not part of the kernel")

        monkeypatch.setattr(mpmath, "polyroots", refuse)
        monkeypatch.setattr(mpmath, "elliprf", refuse)
        for s in CORPUS:
            lattice_volume(s, 128)

    def test_scaling_law(self):
        base = lattice_volume(S11, 128).volume
        for u in (Fraction(2), Fraction(1, 3), Fraction(7, 5)):
            scaled = lattice_volume(transform(S11, u), 128).volume
            ratio = scaled / base
            assert abs(ratio - mp.mpf(u.numerator) ** 2 / mp.mpf(u.denominator) ** 2) \
                < mp.mpf(2) ** -100


class TestNeronVolume:
    def test_model_independence(self):
        v0 = neron_volume(S11, 96).volume
        v1 = neron_volume(transform(S11, Fraction(5, 7)), 96).volume
        assert abs(v0 - v1) < mp.mpf(2) ** -80

    def test_faltings_height_definition(self):
        # h = -log(Néron volume) / 2, on the heights verify_class computes
        rep = verify_class("L3_9", 45, 3, precision_bits=96)
        for v, s in zip(rep.vertices, families.class_signatures("L3_9", 45), strict=True):
            assert v.neron_volume == neron_volume(twist_sig(s, 3), 96).volume
            with mp.workprec(96):
                assert abs(v.faltings_height + mp.log(v.neron_volume) / 2) < mp.mpf(2) ** -80


class TestVerifyClass:
    def test_l39(self):
        for t, d in ((45, 3), (45, 5), (3, 1), (9, -2), (Fraction(3, 4), 7)):
            rep = verify_class("L3_9", t, d, precision_bits=96)
            assert rep.match, (t, d, rep)

    def test_l211_both_variants(self):
        for variant in ("a", "b"):
            for d in (1, -1, 2, 11, -11, 33):
                rep = verify_class("L2_11", None, d, precision_bits=96,
                                   variant=variant)
                assert rep.match, (variant, d)

    def test_volume_margin(self):
        # winner beats runner-up by at least the isogeny-degree factor
        rep = verify_class("L3_9", 45, 3, precision_bits=96)
        vols = sorted((v.neron_volume for v in rep.vertices), reverse=True)
        assert vols[0] / vols[1] > 3 - 1e-6

    def test_report_carries_precision_error_and_margin(self):
        rep = verify_class("L3_9", 45, 3, precision_bits=96)
        assert rep.bits == 96
        with mp.workprec(126):
            vols = sorted((v.neron_volume for v in rep.vertices), reverse=True)
            assert rep.margin == vols[0] / vols[1]
            for v, s in zip(rep.vertices, _minimal_twists("L3_9", 45, 3)):
                la = lattice_volume(s, 96)
                assert v.claimed_error == la.claimed_error / la.volume

    # Inputs on which the earlier kernel (polyroots, Carlson R_F, a check
    # run at 2p+30 bits) raised NoConvergence or lost more than 8 bits
    @pytest.mark.parametrize("t, d, bits", [
        (216, 3746, 128), (-783, 1, 128), (-567, 1, 128), (783, 1, 128),
        (171, -4201, 128), (216, -4201, 128), (540, -4201, 128),
        (Fraction(-693, 26), 221, 128), (Fraction(354, 35), 7333, 256),
        (Fraction(-351, 14), 673, 512),
        (135, 3, 128), (216, 3, 128), (Fraction(1, 2), -9679, 128),
        (Fraction(-1, 16), 1, 128), (Fraction(-135, 2), 3, 512),
    ])
    def test_former_defects(self, t, d, bits):
        rep = verify_class("L3_9", t, d, precision_bits=bits)
        assert rep.match
        with mp.workprec(bits + 30):
            tol = mp.mpf(2) ** (8 - bits)
            assert rep.margin >= 3 * (1 - tol)
            assert max(v.claimed_error for v in rep.vertices) <= tol

    def test_no_family(self):
        with pytest.raises(ValueError):
            verify_class("T4", 8, 1)


class TestDensities:
    def test_squarefree_density(self):
        rep = squarefree_density(3, 10**4)
        assert abs(rep.divisible_fraction - 0.25) < 0.01
        assert abs(rep.squarefree_density - 6 / mp.pi**2) < 0.01

    def test_bound_floor(self):
        with pytest.raises(ValueError):
            squarefree_density(3, 100)

    def test_empirical_matches_exact(self):
        freqs = empirical_prob("L3_9", 3, 10**4)
        assert abs(sum(freqs.values()) - 1) < 1e-12
        for row in prob_table("L3_9", 3):
            assert abs(freqs[row.vertex] - float(row.probability)) < 0.01
