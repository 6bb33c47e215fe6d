import math
import random
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from qtwist.exactnum import (
    D_MAX,
    _strong_lucas,
    check_d,
    check_d_primes,
    check_prime,
    fmt_rat,
    is_prime,
    parse_rat,
    prime_factors,
    unit_residue,
    vp,
)

# Miller-Rabin with the prime bases 2..41 is proven below PSI_13 (Sorenson
# and Webster 2015); is_prime switches to Baillie-PSW at it
PSI_13 = 3317044064679887385961981
# strong pseudoprimes to base 2; the last three are the least strong
# pseudoprimes to all prime bases up to 23, 37 and 41 (psi_9, psi_12, psi_13)
STRONG_PSP_2 = (2047, 3215031751, 3825123056546413051,
                318665857834031151167461, PSI_13)
# Carmichael numbers below 10^6 (OEIS A002997)
CARMICHAEL = (561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341,
              41041, 46657, 52633, 62745, 63973, 75361, 101101, 115921,
              126217, 162401, 172081, 188461, 252601, 278545, 294409, 314821,
              334153, 340561, 399001, 410041, 449065, 488881, 512461)
# strong Lucas pseudoprimes with Selfridge's parameters below 10^5 (OEIS A217255)
STRONG_LUCAS_PSP = (5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199,
                    40309, 58519, 75077, 97439)


def _chernick(rng, lo, hi):
    """(6k+1)(12k+1)(18k+1) with all three factors prime, k in [lo, hi):
    a Carmichael number."""
    while True:
        k = rng.randrange(lo, hi)
        if all(sympy.isprime(m * k + 1) for m in (6, 12, 18)):
            return (6 * k + 1) * (12 * k + 1) * (18 * k + 1)


def _randprime(rng, a, b):
    """A prime in [a, b), drawn as ``sympy.randprime`` draws it but from rng
    (sympy's own draws come from its unseeded global generator)."""
    p = sympy.nextprime(rng.randint(a - 1, b))
    return p if p < b else sympy.prevprime(b)


def _corpus() -> list:
    """Hard cases for both sides of PSI_13, each checked against sympy; the
    same list in every process, since every draw comes from one seeded rng."""
    rng = random.Random(20251)
    out = list(STRONG_PSP_2) + list(CARMICHAEL)
    for n in STRONG_PSP_2:
        out += [sympy.prevprime(n), sympy.nextprime(n)]
    # Chernick numbers from 10^9 to 10^31, one on either side of PSI_13
    # (1296 k^3 = PSI_13 at k = 1.368 * 10^7)
    for lo, hi in ((10**2, 2 * 10**2), (10**4, 2 * 10**4), (10**6, 2 * 10**6),
                   (12 * 10**6, 13.6 * 10**6), (13.8 * 10**6, 15 * 10**6),
                   (10**8, 2 * 10**8), (10**9, 2 * 10**9)):
        out.append(_chernick(rng, int(lo), int(hi)))
    # p^2, p^3 and two-prime products on either side of PSI_13
    r2, r3 = math.isqrt(PSI_13), round(PSI_13 ** (1 / 3))
    for p in (sympy.prevprime(r2), sympy.nextprime(r2)):
        out.append(p * p)
    for p in (sympy.prevprime(r3), sympy.nextprime(r3)):
        out += [p**3, p**3 * 1009]
    for small in (1009, 10**6 + 3, 10**9 + 7):
        q = PSI_13 // small
        out += [small * sympy.prevprime(q), small * sympy.nextprime(q)]
    # smooth parts times a large prime (or 1), up to 300 bits; a smooth
    # part past 298 bits leaves no room for the large prime
    for _ in range(100):
        n = 1
        for _ in range(rng.randint(0, 6)):
            n *= _randprime(rng, 2, 10 ** rng.randint(1, 7)) ** rng.randint(1, 3)
        room = 300 - n.bit_length()
        if rng.random() < 0.7 and room >= 2:
            n *= _randprime(rng, 2, 2 ** rng.randint(2, room))
        out.append(n)
    return out


CORPUS = _corpus()


class TestVp:
    def test_integers(self):
        assert vp(12, 2) == 2
        assert vp(12, 3) == 1
        assert vp(12, 5) == 0
        assert vp(-8, 2) == 3

    def test_rationals(self):
        assert vp(Fraction(3, 8), 2) == -3
        assert vp(Fraction(9, 2), 3) == 2

    def test_zero(self):
        assert vp(0, 7) == math.inf

    def test_rejects_nonprime(self):
        with pytest.raises(ValueError):
            vp(10, 6)
        with pytest.raises(ValueError):
            vp(10, 1)

    @given(st.integers(min_value=-10**6, max_value=10**6).filter(lambda n: n != 0),
           st.sampled_from([2, 3, 5, 7, 11]))
    def test_defining_property(self, n, p):
        v = vp(n, p)
        assert n % p**v == 0 and (n // p**v) % p != 0


class TestUnitResidue:
    def test_basic(self):
        assert unit_residue(12, 2, 2) == 3   # 12 = 4*3
        assert unit_residue(Fraction(1, 3), 2, 3) == 3  # 3^-1 mod 8
        assert unit_residue(-1, 2, 2) == 3

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            unit_residue(0, 2)

    @given(st.fractions(min_value=-100, max_value=100).filter(lambda x: x != 0),
           st.sampled_from([2, 3, 5]), st.integers(min_value=1, max_value=4))
    def test_is_a_unit(self, x, p, k):
        r = unit_residue(x, p, k)
        assert 0 < r < p**k and r % p != 0


def is_squarefree(n: int) -> bool:
    """The square-free test of ``check_d``, for 0 < |n| <= D_MAX."""
    try:
        return check_d(n) == n
    except ValueError as e:
        assert "square-free" in str(e), e
        return False


class TestSquarefree:
    def test_values(self):
        assert is_squarefree(1)
        assert is_squarefree(-1)
        assert is_squarefree(2)
        assert is_squarefree(30)
        assert is_squarefree(-105)
        assert not is_squarefree(4)
        assert not is_squarefree(12)
        assert not is_squarefree(-49)
        assert not is_squarefree(8 * 121)

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="d = 0 is not"):
            check_d(0)

    @given(st.integers(min_value=2, max_value=1000),
           st.integers(min_value=1, max_value=1000))
    def test_square_multiples_rejected(self, k, m):
        assert not is_squarefree(k * k * m)

    def test_below_2e5(self):
        for n in range(1, 2 * 10**5):
            assert is_squarefree(n) == _sympy_squarefree(n), n

    def test_corpus(self):
        # check_d refuses the rest; TestPrimeFactors.test_corpus checks
        # their factorizations
        corpus = [n for n in CORPUS if n <= D_MAX]
        assert len(corpus) >= 50
        for n in corpus:
            assert is_squarefree(n) == _sympy_squarefree(n), n

    def test_near_d_max(self):
        p, q = sympy.prevprime(10**9), sympy.nextprime(10**9)
        a, b = sympy.prevprime(10**6), sympy.nextprime(10**6)
        cases = {
            p * q: True,  # 999999937 * 1000000007, the hardest split below D_MAX
            sympy.prevprime(D_MAX): True,
            D_MAX - 2: True,  # 2 * 223 * 208513 * 10753058401
            a * a * b: False,
            a * b * b: False,
            p * p: False,
        }
        for n, want in cases.items():
            assert n < D_MAX and _sympy_squarefree(n) == want, n
            for m in (n, -n):
                assert is_squarefree(m) == want, m


def _sympy_squarefree(n: int) -> bool:
    return all(e == 1 for e in sympy.factorint(n).values())


class TestIsPrime:
    def test_below_2e5(self):
        got = [n for n in range(-10, 2 * 10**5) if is_prime(n)]
        assert got == list(sympy.primerange(2, 2 * 10**5))

    def test_random_up_to_300_bits(self):
        rng = random.Random(7)
        for _ in range(3000):
            n = rng.getrandbits(rng.randint(2, 300)) | 1
            assert is_prime(n) == sympy.isprime(n), n

    def test_random_primes_above_psi13(self):
        rng = random.Random(8)
        for _ in range(200):
            p = sympy.randprime(PSI_13, 2 ** rng.randint(82, 300))
            assert is_prime(p)
            assert not is_prime(p * sympy.nextprime(rng.randrange(2, 10**6)))

    def test_corpus(self):
        for n in CORPUS:
            assert is_prime(n) == sympy.isprime(n), n

    def test_around_pseudoprimes(self):
        for n0 in STRONG_PSP_2:
            for n in range(n0 - 200, n0 + 201):
                assert is_prime(n) == sympy.isprime(n), n

    def test_strong_lucas_kernel(self):
        # the Lucas step alone, against the published pseudoprime list
        for n in range(3, 10**5, 2):
            if math.isqrt(n) ** 2 != n:
                want = sympy.isprime(n) or n in STRONG_LUCAS_PSP
                assert _strong_lucas(n) == want, n

    def test_check_prime(self):
        for p in (2, 997, 1009, 10**9 + 7, sympy.nextprime(PSI_13)):
            check_prime(p)
        for n in (-7, 0, 1, 4, 1001, *STRONG_PSP_2, *CARMICHAEL):
            with pytest.raises(ValueError, match="not prime"):
                check_prime(n)


class TestPrimeFactors:
    def test_below_2e5(self):
        for n in range(1, 2 * 10**5):
            assert prime_factors(n) == set(sympy.factorint(n)), n

    def test_corpus(self):
        for n in CORPUS:
            assert prime_factors(n) == set(sympy.factorint(n)), n

    def test_sign_units_and_powers(self):
        assert prime_factors(1) == prime_factors(-1) == set()
        assert prime_factors(-12) == {2, 3}
        p = sympy.nextprime(10**15)
        for k in (2, 3, 5, 6, 15):
            assert prime_factors(-(p**k)) == {p}
        q = sympy.nextprime(10**6)
        assert prime_factors(p**3 * q**3) == {p, q}
        assert prime_factors(2**100 * 3**7) == {2, 3}
        with pytest.raises(ValueError):
            prime_factors(0)

    def test_just_past_trial_division(self):
        # cofactors around 1009^2, the least with no prime factor below 1000
        # that is not prime
        primes = list(sympy.primerange(990, 1100))
        for n in {p * q for p in primes for q in primes} | set(range(1009**2 - 50, 1009**2 + 50)):
            assert prime_factors(n) == set(sympy.factorint(n)), n
            assert is_squarefree(n) == _sympy_squarefree(n), n

    def test_every_d_splits(self):
        # the hardest |d| <= D_MAX for rho: two primes near 10^9
        p = sympy.prevprime(10**9)
        q = sympy.prevprime(D_MAX // p)
        assert prime_factors(-p * q) == {p, q}

    def test_work_budget(self):
        # two 20-digit primes: rho would need about 10^10 steps
        n = sympy.nextprime(10**19) * sympy.nextprime(3 * 10**19)
        with pytest.raises(ValueError, match="39-digit number found within the Pollard-rho budget"):
            prime_factors(7 * n)

    def test_work_budget_scales_with_size(self):
        # two 151-digit primes: 2^22 rho steps at that size would take about
        # 50 s, but a step there counts 16 times, so this gives up in about 0.5 s
        n = (10**150 + 67) * (3 * 10**150 + 61)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="301-digit"):
            prime_factors(n)
        assert time.perf_counter() - start < 20


class TestDigitLimit:
    # Mersenne primes of 969, 1332 and 3376 digits
    M3217, M4423, M11213 = 2**3217 - 1, 2**4423 - 1, 2**11213 - 1

    def test_below_the_limit(self):
        assert is_prime(self.M3217)
        assert not is_prime(10**1000 - 1)  # 1000 digits, divisible by 3
        assert prime_factors(3 * self.M3217) == {3, self.M3217}

    def test_past_the_limit(self):
        start = time.perf_counter()
        for n in (10**1000, 10**1000 + 1, self.M4423, self.M11213):
            message = f"a {len(str(n))}-digit number is past the 1000-digit limit"
            for f in (is_prime, check_prime):
                with pytest.raises(ValueError, match=message):
                    f(n)
        for n in (self.M4423, self.M11213):
            # trial division strips the 7 first; the prime cofactor is refused
            for m in (n, -7 * n):
                with pytest.raises(ValueError, match=f"a {len(str(n))}-digit number"):
                    prime_factors(m)
        # at 3376 digits the primality test alone would take about 6 s
        assert time.perf_counter() - start < 5


class TestCheckD:
    def test_size_limit(self):
        # 2 * 223 * 208513 * 10753058401, square-free, just inside the limit
        assert check_d(-(D_MAX - 2)) == -(D_MAX - 2)
        for d in (D_MAX + 1, -(10**24 + 7)):  # 10^24 + 7 is prime
            with pytest.raises(ValueError, match="exceeds 10\\^18"):
                check_d(d)

    def test_not_squarefree(self):
        for d in (0, 12, -D_MAX):
            with pytest.raises(ValueError, match="square-free"):
                check_d(d)

    def test_primes_form(self):
        # check_d_primes is check_d returning the primes of d: the same
        # messages for every bad d
        for d in (1, -1, 2, -30, 10**9 + 7, -(D_MAX - 2)):
            assert check_d_primes(d) == set(sympy.factorint(d)) - {-1}, d
        for d in (0, 12, -D_MAX, D_MAX + 1, -(10**24 + 7)):
            with pytest.raises(ValueError) as want:
                check_d(d)
            with pytest.raises(ValueError) as got:
                check_d_primes(d)
            assert str(got.value) == str(want.value), d


class TestRatIO:
    def test_round_trip(self):
        for s in ["3", "-7", "22/7", "-1/27"]:
            assert fmt_rat(parse_rat(s)) == s

    def test_fmt_integer(self):
        assert fmt_rat(Fraction(8, 4)) == "2"
