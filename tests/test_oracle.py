import random
from fractions import Fraction

import mpmath
import pytest
from mpmath import libmp, mp

from qtwist import families, localdata, oracle
from qtwist.exactnum import TableMissError, check_d
from qtwist.oracle import (
    lattice_volume,
    neron_volume,
    verify_class,
)
from qtwist.graphs import FaltingsResult, prob_table
from qtwist.localdata import global_minimal
from qtwist.sieve import empirical_prob, squarefree_density
from qtwist.weierstrass import AInvariants, Signature, signature_of, transform, twist_sig

from reference import mpf_lattice_volume, mpf_volume_once

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

    @pytest.mark.parametrize("bits", [128.0, Fraction(128), True, "128"])
    def test_precision_not_an_int_refused(self, bits):
        # 128.0 and Fraction(128) lie in the range, True (1) and "128" do not
        with pytest.raises(ValueError, match=r"is not an int in 64\.\.4096$"):
            lattice_volume(S11, bits)

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


def _ulps(got, want, prec):
    """|got - want| in units of the last place of want at precision prec
    (raw mpf tuples, want nonzero)."""
    with mp.workprec(2 * prec):
        diff = abs(mp.make_mpf(got) - mp.make_mpf(want))
        return diff / mp.mpf(2) ** (want[2] + want[3] - prec)


def _q(s):
    """The exact inputs of oracle._volume_once, as lattice_volume builds them."""
    return (-s.c4 / 48, -s.c6 / 864, -s.delta / 1728, s.delta / 16)


def _raw_corpus():
    """S11, S32 (c6 = 0), S27 (c4 = 0) and the minimal twisted class
    models: L3_9 at seeded t of both signs (Delta has the sign of t),
    twisted by d of both signs (d < 0 flips the sign of c6), and both L2_11
    variants."""
    rng = random.Random(20261019)
    out = [S11, S32, S27]
    for t_sign, d in ((1, 1), (1, -3), (-1, 7), (-1, -4201), (1, 15), (-1, -2)):
        t = t_sign * Fraction(rng.randint(1, 400), rng.randint(1, 40))
        out += _minimal_twists("L3_9", t, d)
    for variant in "ab":
        out += _minimal_twists("L2_11", None, rng.choice((1, -1, 3, -11, 33)), variant)
    return out


RAW_CORPUS = _raw_corpus()
RAW_BITS = (64, 128, 256, 512, 1024, 4096)


def _near_singular():
    """Curves with two roots 2^-k apart (a real pair, either sign of the
    pair, or a complex pair), so that c6^2 is close to c4^3."""
    rng = random.Random(20261020)
    out = []
    for k in (40, 125, 259, 430, 600):
        for _ in range(4):
            r = Fraction(rng.choice((1, -1)) * rng.randint(1, 50), rng.randint(1, 9))
            eps = Fraction(rng.randint(1, 7), 2**k)
            e = (r, r + eps, -2 * r - eps)
            out.append(_of_cubic(e[0] * e[1] + e[0] * e[2] + e[1] * e[2], -e[0] * e[1] * e[2]))
            out.append(_of_cubic(r * r + eps * eps - 4 * r * r, 2 * r * (r * r + eps * eps)))
    return out


class TestRawKernel:
    """oracle's kernel on mpmath's raw layer against the same kernel on mpf
    objects (tests/reference.py)."""

    def test_corpus_covers_its_cases(self):
        # both signs of Delta, each with both signs of c6: for Delta > 0,
        # c6 < 0 takes the root at theta + 2 pi
        assert {(s.delta > 0, s.c6 > 0) for s in RAW_CORPUS} == {(True, True), (True, False),
                                                                  (False, True), (False, False)}
        assert any(s.c4 == 0 for s in RAW_CORPUS) and any(s.c6 == 0 for s in RAW_CORPUS)

    @pytest.mark.parametrize("bits", RAW_BITS)
    def test_same_bits_as_mpf_kernel(self, bits):
        for s in RAW_CORPUS:
            got = lattice_volume(s, bits)
            vol, err = mpf_lattice_volume(s, bits)
            assert got.volume._mpf_ == vol._mpf_, (s, bits)
            assert got.claimed_error._mpf_ == err._mpf_, (s, bits)

    def test_near_singular_within_a_few_ulps(self):
        # The AGM's fixed-point roots are the exact floor (math.isqrt), where
        # mpmath's pure-Python isqrt_fast may give floor - 1, so an AGM may
        # end one ulp apart (see test_agm_within_one_ulp); one product and
        # one quotient of two AGMs carry that to at most 8 ulps of the run's
        # precision. Only nearly singular curves were seen to differ: by 1
        # to 3 ulps, on about one run in 80 of them.
        rng = random.Random(20261021)
        for s in _near_singular():
            bits = rng.choice((64, 128, 256, 512, 1024))
            for prec in (bits + 30, bits + 60):
                got = oracle._volume_once(_q(s), prec)
                want = mpf_volume_once(s, prec)._mpf_
                assert _ulps(got, want, prec) <= 8, (s, prec)
        # two inputs on which the sides are known to differ, by 1 and 3 ulps
        for r, k, prec, ulps in ((Fraction(9, 7), 259, 124, 1), (Fraction(-20, 3), 125, 158, 3)):
            eps = Fraction(1, 2**k)
            e = (r, r + eps, -2 * r - eps)
            s = _of_cubic(e[0] * e[1] + e[0] * e[2] + e[1] * e[2], -e[0] * e[1] * e[2])
            got = oracle._volume_once(_q(s), prec)
            assert _ulps(got, mpf_volume_once(s, prec)._mpf_, prec) == ulps

    def test_sqrt_same_bits_as_mpf_sqrt(self):
        rng = random.Random(20261022)
        cases = []
        for _ in range(2400):
            prec = rng.randint(53, 4200)
            kind = rng.randrange(4)
            if kind == 0:  # a mantissa of 1
                man = 1
            elif kind == 1:  # an exact square
                man = rng.getrandbits(rng.randint(1, prec // 2)) | 1
                man *= man
            else:
                man = rng.getrandbits(rng.randint(1, 2 * prec)) | 1
            exp = rng.randint(-3000, 3000)
            if kind == 1:
                exp &= ~1
            cases.append((prec, libmp.from_man_exp(man, exp)))
        assert any(x[2] & 1 for _, x in cases) and any(x[1] == 1 for _, x in cases)
        for prec, x in cases:
            for rnd in (libmp.round_nearest, libmp.round_down):
                assert oracle._sqrt(x, prec, rnd) == libmp.mpf_sqrt(x, prec, rnd), (x, prec, rnd)
        assert oracle._sqrt(libmp.fzero, 53) == libmp.fzero

    def test_agm_within_one_ulp(self):
        rng = random.Random(20261023)
        seen = set()
        for i in range(400):
            prec = rng.randint(53, 1100)
            ma = rng.randint(-40, 40)
            mb = ma if i % 10 == 0 else rng.randint(-40, 40)
            a = libmp.from_man_exp(rng.getrandbits(prec) | 1 << (prec - 1), ma - prec)
            b = a if i % 10 == 0 else libmp.from_man_exp(rng.getrandbits(prec) | 1 << (prec - 1),
                                                         mb - prec)
            seen |= {abs(ma - mb) > 10 and "reduced", min(ma, mb) < -8 and "small",
                     max(ma, mb) > 20 and "large", a == b and "equal"}
            want = libmp.mpf_agm(a, b, prec, libmp.round_nearest)
            assert _ulps(oracle._agm(a, b, prec), want, prec) <= 1, (a, b, prec)
        assert {"reduced", "small", "large", "equal"} <= seen

    def test_negative_arguments_raise(self):
        minus, one = libmp.from_int(-2), libmp.fone
        with pytest.raises(ValueError):
            oracle._sqrt(minus, 53)
        with pytest.raises(ValueError):
            oracle._agm(minus, one, 53)
        with pytest.raises(ValueError):
            oracle._agm(one, minus, 53)

    @pytest.mark.parametrize("bits", RAW_BITS)
    def test_one_lattice_volume_call_per_vertex(self, bits, monkeypatch):
        # the benchmark rebinds oracle.lattice_volume to capture each result
        # and checks their number against the vertices
        calls = []
        real = oracle.lattice_volume

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(oracle, "lattice_volume", counting)
        verify_class("L3_9", Fraction(45, 7), 3, precision_bits=bits)
        assert len(calls) == 3
        calls.clear()
        verify_class("L2_11", None, -11, precision_bits=bits, variant="b")
        assert len(calls) == 2


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

    def test_shares_no_table_with_localdata(self, monkeypatch):
        # the minimal model comes from valuations and Kraus' criterion
        # alone: with no table row to read, classify fails, while the
        # scales and the Néron volumes stay as they were
        cases = [twist_sig(s, d) for t, d in ((Fraction(7, 2), -15), (45, 3), (-6, 2))
                 for s in families.class_signatures("L3_9", t)]
        want = [(global_minimal(s), neron_volume(s, 64)) for s in cases]
        assert any(u != 1 for (_m, u), _v in want)
        monkeypatch.setattr(localdata, "_row", lambda p, psig: None)
        for s, (minimal, volume) in zip(cases, want, strict=True):
            for p in (2, 3):
                with pytest.raises(TableMissError):
                    localdata.classify(s, p)
            assert global_minimal(s) == minimal
            assert neron_volume(s, 64) == volume


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

    @staticmethod
    def _sweep(n=200):
        """Seeded (type, t, d, bits, variant): L3_9 at t = +-(u/v) 10^e 3^k
        with u, v <= 40, |e| <= 40, |k| <= 6, one call in ten L2_11;
        square-free |d| <= 10^4; 64 to 1024 bits."""
        rng = random.Random(20261018)
        out = []
        while len(out) < n:
            bits = rng.choice((64, 128, 256, 512, 1024))
            d = rng.choice((1, -1)) * rng.randint(1, 10**4)
            try:
                check_d(d)
            except ValueError:
                continue
            if rng.random() < 0.1:
                out.append(("L2_11", None, d, bits, rng.choice("ab")))
                continue
            t = (rng.choice((1, -1)) * Fraction(rng.randint(1, 40), rng.randint(1, 40))
                 * Fraction(10) ** rng.randint(-40, 40) * Fraction(3) ** rng.randint(-6, 6))
            out.append(("L3_9", t, d, bits, "a"))
        return out

    def test_sweep_over_heights_and_signs(self):
        # Delta < 0 at many t < 0: Cardano's radicand read off Delta stays
        # >= 0, where a floating-point sum could round below 0
        for kind, t, d, bits, variant in self._sweep():
            rep = verify_class(kind, t, d, precision_bits=bits, variant=variant)
            assert rep.match, (kind, t, d, bits)
            with mp.workprec(bits + 30):
                tol = mp.mpf(2) ** (8 - bits)
                assert max(v.claimed_error for v in rep.vertices) <= tol, (kind, t, d, bits)

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

    @pytest.mark.parametrize("kind, t, vertex", [("L3_9", 1, "E_1"), ("T6", 8, "E_12")])
    def test_empirical_without_d_condition(self, kind, t, vertex):
        # a branch whose one row holds for every d counts every d
        assert prob_table(kind, t) == (FaltingsResult(vertex),)
        assert empirical_prob(kind, t, 10**4) == {vertex: 1.0}
