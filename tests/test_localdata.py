import itertools
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qtwist import exactnum, localdata
from qtwist.exactnum import TableMissError
from qtwist.families import class_signatures
from qtwist.localdata import (
    KodairaSymbol,
    classify,
    cond_2a,
    cond_2b,
    cond_2c,
    cond_2d,
    cond_2e,
    cond_2f,
    cond_2g,
    cond_3a,
    cond_3b,
    global_minimal,
    global_pal,
    pal_u,
)
from qtwist.weierstrass import (
    AInvariants,
    PSignature,
    Signature,
    p_signature,
    signature_of,
    transform,
    twist_sig,
)

from reference import L211_CURVES, pal_u_rules

S11 = signature_of(AInvariants(0, -1, 1, -10, -20))       # conductor 11, I5 at 11
# 121.a2, 121.a1: II, II* at 11; 121.b2, 121.b1: III, III* at 11
S121A2, S121A1 = (signature_of(AInvariants(*ainvs)) for _, ainvs in L211_CURVES["a"])
S121B2, S121B1 = (signature_of(AInvariants(*ainvs)) for _, ainvs in L211_CURVES["b"])
S32 = signature_of(AInvariants(0, 0, 0, -1, 0))           # y^2 = x^3 - x, III at 2


class TestKodairaSymbol:
    def test_str(self):
        assert str(KodairaSymbol("I0")) == "I0"
        assert str(KodairaSymbol("In", 5)) == "I5"
        assert str(KodairaSymbol("In*", 3)) == "I3*"
        assert str(KodairaSymbol("II*")) == "II*"


class TestClassifyKnownCurves:
    def test_multiplicative(self):
        c = classify(S11, 11)
        assert str(c.kodaira) == "I5"
        assert c.u_p == 1
        assert c.minimal_psig == (0, 0, 5)

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
            assert c.minimal_psig == psig
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

    def test_checks_p_once(self, monkeypatch):
        # one primality test of p per classify, however many valuations
        # it takes (a 1000-digit p takes about 0.5 s to test)
        calls = []
        real = exactnum.is_prime

        def counting(n, *args, **kwargs):
            calls.append(n)
            return real(n, *args, **kwargs)

        monkeypatch.setattr(exactnum, "is_prime", counting)
        big = 10**999 + 7
        for s, p in ((S121A2, big), (S121A2, 11), (transform(S11, Fraction(1, 6)), 2),
                     (transform(S11, Fraction(1, 6)), 3), (S32, 2)):
            calls.clear()
            c = classify(s, p)
            assert len(calls) <= 1, (p, len(calls))
        assert str(c.kodaira) == "III"
        calls.clear()
        assert str(classify(S121A2, big).kodaira) == "I0" and calls == [big]


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
                again = classify(transform(c.sig, c.u_p), p)
                assert again.u_p == 1
                assert str(again.kodaira) == str(c.kodaira)

    def test_step_back_at_every_scale(self):
        # Kraus fails at the largest p-integral scale of these models
        # ((1, 2, 0) at 3; (0, 0, 0) with c6 = 1 mod 4 at 2), so classify
        # steps back one, at whatever scale the curve is given
        c4, c6 = 16 * 65, 64
        for s, p, psig in ((Signature(3**5, 3**8, Fraction(3**15 - 3**16, 1728)), 3, (5, 8, 12)),
                           (Signature(c4, c6, Fraction(c4**3 - c6**2, 1728)), 2, (4, 6, 12))):
            for e in (-2, -1, 0, 1):
                c = classify(transform(s, Fraction(p) ** e), p)
                assert c.u_p == Fraction(p) ** -e and transform(c.sig, c.u_p) == s, (p, e)
                assert c.minimal_psig == psig, (p, e)

    def test_denominator_scale(self):
        # s with p-denominators classifies via a negative power of p
        s = transform(S11, 5)
        c = classify(s, 5)
        assert c.u_p == Fraction(1, 5)
        assert str(c.kodaira) == str(classify(S11, 5).kodaira)


class TestPal:
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
        # one factoring in all: the d check returns the primes of d
        calls = []
        real = exactnum.prime_factors

        def counting(n, *args, **kwargs):
            calls.append(n)
            return real(n, *args, **kwargs)

        monkeypatch.setattr(exactnum, "prime_factors", counting)
        monkeypatch.setattr(localdata, "prime_factors", counting)
        d = -999999937 * 1000000007  # 1 mod 4
        for dd, wanted in ((d, 1), (-d, Fraction(1, 2))):
            exactnum._squarefree_primes.cache_clear()  # an earlier test may have checked dd
            calls.clear()
            assert global_pal(S121A2, dd) == wanted
            assert len(calls) == 1, calls

    def test_global_pal_reads_pal_u_per_prime(self, monkeypatch):
        # global_pal looks pal_u up in localdata's globals, once per prime
        # of 2d, so a tracer that rebinds it there counts every call
        calls = []
        real = localdata.pal_u

        def counting(c, d):
            calls.append(c.p)
            return real(c, d)

        monkeypatch.setattr(localdata, "pal_u", counting)
        for d, primes in ((1, [2]), (-1, [2]), (11, [2, 11]), (-15, [2, 3, 5]), (6, [2, 3])):
            calls.clear()
            global_pal(S121A2, d)
            assert calls == primes, d

    def test_row_pal_matches_table_one(self):
        for s in (S11, S121A2, S121B1, S32):
            for p in (2, 3, 11):
                c = classify(s, p)
                for d in (1, -1, 2, 3, -5, 6, 11, -11):
                    assert pal_u(c, d) == pal_u_rules(c, d), (s, p, d)
        # every row's printed column, at k = 0 and at k = -1, against the
        # rules; d = 0 mod 4 lies outside pal_u's contract, and both read
        # the 3 mod 4 value there
        rng = random.Random(35)
        rule_values = {}
        for p, table in ((2, localdata.TABLE_P2), (3, localdata.TABLE_P3),
                         (5, localdata.TABLE_P_GE5), (7, localdata.TABLE_P_GE5),
                         (11, localdata.TABLE_P_GE5)):
            ds = [d for d in range(-12, 13) if d] + [m * p for m in (-4, -3, -2, -1, 1, 2, 3, 4)]
            hits = [0] * len(table)
            for i, (pattern, _outcome, pal) in enumerate(table):
                for s in itertools.islice(_sigs_of_pattern(p, pattern, rng), 200):
                    c0 = classify(s, p)
                    if c0.k != 0 or _match_row(table, c0.minimal_psig) is not table[i]:
                        continue
                    hits[i] += 1
                    for c in (c0, classify(transform(s, p), p)):
                        for d in ds:
                            got = pal_u(c, d)
                            assert got == pal_u_rules(c, d), (p, i, s, c.k, d)
                            if p == 2 and type(entry := pal[d % 4 - 1]) is tuple:
                                rule_values.setdefault(entry, set()).add(got)
                    if hits[i] == 4:
                        break
            assert all(hits), (p, hits)
        # each rule cell gives both its values
        assert rule_values == {(6, 2, 1): {1, 2}, (9, 2, 4): {2, 4}}, rule_values
        # global_pal skips the odd primes that do not divide d
        for table in (localdata.TABLE_P3, localdata.TABLE_P_GE5):
            assert all(pal[1] == 0 for _pattern, _outcome, pal in table)


def _sigs_of_pattern(p: int, pattern, rng):
    """Signatures whose p-signature matches a table row's pattern, without
    end.  Where 3 v(c4) = 2 v(c6) and v(Delta) is above the generic value,
    c4 and c6 are built near z^2 and z^3 so that c4^3 - c6^2 cancels to
    the wanted power of p."""
    v1728 = {2: 6, 3: 3}.get(p, 0)
    while True:
        a, b, vd = (k if op == "e" else k + rng.randrange(3) for op, k in pattern)
        if 3 * a != 2 * b:
            if vd + v1728 != min(3 * a, 2 * b):
                continue
            x, y = rng.randrange(1, p**4), rng.randrange(1, p**4)
        else:
            e = vd + v1728 - 3 * a
            z = rng.randrange(1, p ** (e + 3))
            j = rng.randrange(max(0, e - 2), e + 1)
            x = z * z + p**j * rng.randrange(-p**4, p**4)
            y = z**3 + p**j * rng.randrange(-p**4, p**4)
        c4, c6 = p**a * x, rng.choice((1, -1)) * p**b * y
        if c4**3 != c6**2:
            s = Signature(c4, c6, Fraction(c4**3 - c6**2, 1728))
            if p_signature(s, p) == (a, b, vd):
                yield s


def _mod(x: Fraction, m: int) -> int:
    """Residue mod m of a rational whose denominator is prime to m."""
    return x.numerator * pow(x.denominator, -1, m) % m


def realizable(s: Signature, p: int) -> bool:
    """Kraus' criterion, ``localdata._kraus``, on a p-integral s."""
    vc4, vc6, _ = p_signature(s, p)
    return localdata._kraus(s, p, vc4, vc6, 0)


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


# ---------------------------------------------------------------------------
# the table index against the linear scan it replaced

def _match_row(table, psig):
    """The first row of the table whose pattern matches psig, scanning top
    to bottom: the reference for the index."""
    for row in table:
        if all(v == k if op == "e" else v >= k for (op, k), v in zip(row[0], psig)):
            return row
    return None


TABLES = {2: localdata.TABLE_P2, 3: localdata.TABLE_P3, 5: localdata.TABLE_P_GE5}


class TestIndex:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_equals_scan(self, p):
        # every capped key, plus values past the cap and inf, which lookups
        # cap first
        table, (caps, index) = TABLES[p], localdata._INDEX[p]
        for key in itertools.product(*(list(range(cap + 1)) + [cap + 5, math.inf] for cap in caps)):
            assert localdata._row(p, key) is _match_row(table, key), (p, key)
        # the index holds only the keys that match a row
        capped = itertools.product(*(range(cap + 1) for cap in caps))
        assert set(index) == {key for key in capped if _match_row(table, key)}

    def test_sizes(self):
        assert {p: localdata._INDEX[p][0] for p in TABLES} == {
            2: (9, 12, 19), 3: (7, 9, 14), 5: (5, 6, 11)}
        assert sum(len(localdata._INDEX[p][1]) for p in TABLES) == 275

    def test_negative_valuation_misses(self):
        # classify never looks up a negative valuation; the index has none
        assert localdata._row(2, (-1, 0, 0)) is None is _match_row(TABLES[2], (-1, 0, 0))


class TestOutcomeCheck:
    """Each table's outcomes are checked when it is indexed, at import, so
    every symbol classify builds is valid and ``KodairaSymbol`` checks
    nothing."""

    def test_outcomes_are_plain_tuples(self):
        outcomes = [o for table in TABLES.values() for _pattern, row, _pal in table for o in row]
        assert all(type(o) is tuple and len(o) == 3 and type(o[0]) in (str, type(None))
                   and type(o[1]) is str and type(o[2]) is int for o in outcomes)
        assert {o[1] for o in outcomes} == set(localdata.KINDS)

    # a one-row table whose outcome classify could not turn into a valid symbol
    @pytest.mark.parametrize("vdelta, outcome", [
        (("g", 1), (None, "In")),
        (("g", 1), (None, "In", 0)),
        (("g", 6), (None, "In*", -1)),
        (("e", 0), (None, "I5", 0)),
        (("g", 2), (None, "II", 0)),
        (("e", 2), (None, "II", 1)),
        (("g", 1), (None, "In", 1.0)),
        (("e", 3), ("2h", "III", 0)),
    ], ids=["In_no_n", "In_0", "In*_-1", "unknown_kind", "II_at_least", "II_1", "n_not_int",
            "unknown_condition"])
    def test_refuses(self, vdelta, outcome):
        with pytest.raises(TableMissError, match=re.escape(f": outcome {outcome} is not a valid")):
            localdata._index([((("g", 0), ("g", 0), vdelta), [outcome], (0, 0))])


# ---------------------------------------------------------------------------
# the conditions against a reference that evaluates them in Fractions on
# the rescaled model, as localdata did before it used residues at scale k

def _ref_res(x: Fraction, k: int, p: int = 2) -> int:
    m = p**k
    return x.numerator * pow(x.denominator, -1, m) % m


def _ref_psi2(r, A, B):
    return r**3 + A * r + B


def _ref_psi3(r, A, B):
    return 3 * r**4 + 6 * A * r**2 + 12 * B * r - A**2


def _ref_AB(s: Signature):
    return -s.c4 / 48, -s.c6 / 864


def _ref_roots(s: Signature):
    A, B = _ref_AB(s)
    return [r for r in range(32) if _ref_res(Fraction(_ref_psi3(r, A, B)), 5) == 0]


def _ref_2a(s):
    A, B = _ref_AB(s)
    a, b = _ref_res(A, 2), _ref_res(B, 2)
    return (a == 1 and b in (0, 1)) or (a != 1 and b in (2, 3))


def _ref_2b(s):
    A, B = _ref_AB(s)
    return _ref_res(_ref_psi3(A, A, B), 3) != 0


def _ref_2c(s):
    A, B = _ref_AB(s)
    return all(_ref_res(Fraction(_ref_psi2(r, A, B)), 4) in (1, 8, 9, 12) for r in _ref_roots(s))


def _ref_2d(s):
    return all(r % 4 in (1, 2) for r in _ref_roots(s))


def _ref_2e(s):
    return _ref_res(s.c4 / 2**6, 2) == 3


def _ref_2f(s):
    return _ref_res(s.c6 / 2**6, 2) == 1


def _ref_2g(s):
    return _ref_res(s.c6 / 2**9, 2) == 3


def _ref_3a(s):
    return _ref_res((s.c6 / 27) ** 2 + 2 - 3 * (s.c4 / 9), 2, 3) == 0


def _ref_3b(s):
    return _ref_res((s.c6 / 3**6) ** 2 + 2 - 3 * (s.c4 / 3**4), 2, 3) == 0


CONDITIONS_2 = ((cond_2a, _ref_2a), (cond_2b, _ref_2b), (cond_2c, _ref_2c), (cond_2d, _ref_2d))

# (condition, reference, p, least v_p(c4), least v_p(c6)): the reference is
# p-integral at these valuations and above (2a-2d need A and B 2-integral)
CONDITIONS = tuple((cond, ref, 2, 4, 5) for cond, ref in CONDITIONS_2) + (
    (cond_2e, _ref_2e, 2, 6, 0), (cond_2f, _ref_2f, 2, 0, 6), (cond_2g, _ref_2g, 2, 0, 9),
    (cond_3a, _ref_3a, 3, 2, 3), (cond_3b, _ref_3b, 3, 4, 6),
)
DENS = {2: (1, 3, 5, 7, 9, 15), 3: (1, 2, 4, 5, 7, 10)}


def _sig(c4: Fraction, c6: Fraction) -> Signature:
    return Signature(c4, c6, (c4**3 - c6**2) / 1728)


def _scaled_case(case, di, u, dj, w, den, k):
    """(s, sk): sk is s given at scale -k, so that transform(sk, p^k) is s,
    where s has v_p(c4) and v_p(c6) di and dj above the case's least."""
    _cond, _ref, p, i, j = case
    c4, c6 = Fraction(p ** (i + di) * u, den**2), Fraction(p ** (j + dj) * w, den**3)
    if c4**3 == c6**2:
        return None
    s = _sig(c4, c6)
    # Fraction: a negative power of a plain int is a float
    return s, transform(s, Fraction(p) ** -k)


class TestConditions2:
    @given(st.sampled_from(CONDITIONS), st.integers(0, 6), st.integers(-10**6, 10**6),
           st.integers(0, 7), st.integers(-10**6, 10**6), st.integers(0, 5), st.integers(-2, 2))
    @settings(max_examples=600, deadline=None)
    def test_equal_to_fraction_reference(self, case, di, u, dj, w, den, k):
        # the integer version at scale k reads the model the reference
        # evaluates, transform(sk, p^k), at k < 0, k = 0 and k > 0
        cond, ref, p = case[:3]
        pair = _scaled_case(case, di, u, dj, w, DENS[p][den], k)
        assume(pair is not None)
        s, sk = pair
        assert cond(sk, k) == ref(transform(sk, Fraction(p) ** k)), (cond.__name__, s, k)

    @pytest.mark.parametrize("case", CONDITIONS, ids=[c[0].__name__ for c in CONDITIONS])
    def test_both_outcomes_at_every_scale(self, case):
        cond, ref, p = case[:3]
        rng = random.Random(cond.__name__)
        seen = set()
        for _ in range(300):
            k = rng.randrange(-2, 3)
            pair = _scaled_case(case, rng.randrange(3), rng.randrange(-10**4, 10**4),
                                rng.randrange(3), rng.randrange(-10**4, 10**4),
                                rng.choice(DENS[p]), k)
            if pair is None:
                continue
            s, sk = pair
            got = cond(sk, k)
            assert got == ref(s), (cond.__name__, s, k)
            seen.add((k, got))
        assert seen == {(k, b) for k in range(-2, 3) for b in (True, False)}, seen

    # the rows of TABLE_P2 that try 2c or 2d, with the least v(c4) of a
    # ">= 7" pattern; c4 = 2^i u, c6 = 2^j w with u, w odd
    @pytest.mark.parametrize("row,labels", [
        ((4, 6, 8), {"2c", "2d"}), ((6, 7, 8), {"2c"}), ((7, 7, 8), {"2c"}),
        ((4, 6, 10), {"2d"}), ((4, 6, 11), {"2d"}),
    ])
    def test_rows(self, row, labels):
        rng = random.Random(str(row))
        i, j, vd = row
        outcomes = {label: set() for label in labels}
        count = 0
        while count < 100:
            u, w = rng.randrange(-10**4, 10**4) | 1, rng.randrange(-10**4, 10**4) | 1
            ii = i + rng.randrange(3) if row == (7, 7, 8) else i
            den = rng.choice((1, 3, 5, 7))
            c4, c6 = Fraction(2**ii * u, den**2), Fraction(2**j * w, den**3)
            if c4**3 == c6**2:
                continue
            s = _sig(c4, c6)
            if p_signature(s, 2) != (ii, j, vd):
                continue
            count += 1
            c = classify(s, 2)
            assert c.u_p == 1 and c.conditions_fired and c.conditions_fired <= labels
            for cond, ref in CONDITIONS_2[2:]:
                assert cond(s, 0) == ref(s), (cond.__name__, row, s)
            for label in labels:
                outcomes[label].add(localdata._CONDITIONS[label](s, 0))
        # each condition is seen both to hold and to fail on the row
        assert all(seen == {True, False} for seen in outcomes.values()), outcomes


# ---------------------------------------------------------------------------
# classify's output is the model it claims

PRIMES = (2, 3, 5, 7, 11)


@st.composite
def signatures(draw):
    """Rescaled integral a-invariants, or a member of the L3_9 chain, each
    twisted by a small d."""
    if draw(st.booleans()):
        a = [draw(st.integers(-60, 60)) for _ in range(5)]
        try:
            s = signature_of(AInvariants(*a))
        except ValueError:  # singular
            assume(False)
    else:
        t = draw(st.fractions(min_value=-300, max_value=300, max_denominator=60))
        assume(t != 0)
        s = class_signatures("L3_9", t)[draw(st.integers(0, 2))]
    u = math.prod(Fraction(p) ** draw(st.integers(-2, 2)) for p in PRIMES)
    d = draw(st.sampled_from((1, -1, 2, -2, 3, -3, 6, -6, 5, -7, 11, -15)))
    return twist_sig(transform(s, u), d)


class TestModelCount:
    """Classifying builds no model: classify builds none, global_minimal
    one for the product of the scales when u != 1, and global_pal none."""

    @given(signatures(), st.sampled_from((1, -1, 2, -3, 5, 6, -7, 10, -15)))
    @settings(max_examples=100, deadline=None)
    def test_transform_calls(self, s, d):
        calls = []
        real = localdata.transform

        def counting(sig, u):
            calls.append(u)
            return real(sig, u)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(localdata, "transform", counting)
            for p in PRIMES:
                calls.clear()
                classify(s, p)
                assert calls == [], (p, calls)
            calls.clear()
            m, u = global_minimal(s)
            assert calls == ([u] if u != 1 else []) and (u != 1 or m is s)
            # the minimal model itself has u = 1: no model, m comes back
            calls.clear()
            assert global_minimal(m) == (m, 1) and global_minimal(m)[0] is m
            assert calls == []
            global_pal(s, d)
            assert calls == []


class TestClassifyInvariants:
    @given(signatures())
    @settings(max_examples=150, deadline=None)
    def test_minimal_model_is_s_rescaled(self, s):
        for p in PRIMES:
            c = classify(s, p)
            assert type(c.minimal_psig) is PSignature and c.sig is s
            m = transform(c.sig, c.u_p)
            assert c.minimal_psig == p_signature(m, p), p
            assert realizable(m, p), p
