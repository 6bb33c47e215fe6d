"""Exact rational arithmetic helpers: p-adic valuations, residues mod p^k,
primality and factoring, rational I/O, and the input checks shared by
every module (the twist parameter d and a prime p); an input check raises
``ValueError``.  The package's one exception class, ``TableMissError``, the
internal table-data error, lives here too, so that the CLI can catch it
without importing ``localdata`` or ``graphs``.

Rationals are plain ``fractions.Fraction`` (eagerly reduced, positive
denominator), which is exactly the representation the valuation and table
lookups downstream rely on.  The valuation of 0 is ``math.inf``.

Primality and factoring are pure Python.  ``is_prime`` looks primes below
1000 up in a set, runs deterministic Miller-Rabin with the thirteen prime
bases 2..41 below 3.317*10^24 (Sorenson and Webster 2015), and the
Baillie-PSW test (a base-2 strong test plus a strong Lucas test) above,
which has no known counterexample; it refuses numbers of more than
``PRIME_MAX_DIGITS`` digits.  ``prime_factors`` trial-divides by the
primes below 1000, takes roots of perfect powers and splits what is left
with Brent's variant of Pollard's rho (Brent 1980) within a fixed budget,
``RHO_MAX_STEPS``.  Past either limit they raise ``ValueError``, so that
neither runs for more than a few seconds.  ``prime_factors`` is the only
routine that takes an integer apart: ``check_d``, the square-free test,
factors d; ``check_field`` asks only for a nonzero int d, for Q(sqrt d).

``vp`` is the one p-adic valuation, of an int or a Fraction alike, and
``_vp_int`` the one place that divides a prime out of an integer, in
O(log(v)^2) divisions for valuation v.  ``residue`` is the one residue mod
p^k: of x / p^e for any integer e, so that a table condition reads the
residue of a rescaled number without building it, and with e = vp(x) the
residue of x's p-free part.  Neither tests that p is prime: the input checks
(``check_prime`` in ``weierstrass.p_signature``) do that where p enters.

``parse_rat`` and ``fmt_rat`` keep to the digits Python converts between
an integer and a string (``sys.get_int_max_str_digits()``, 4300 by
default); ``parse_rat`` checks each typed digit run and the exponent first.
"""

from __future__ import annotations

import functools
import math
import re
import sys
from fractions import Fraction
from typing import Union

RatLike = Union[Fraction, int]

_PRIMES_BELOW_1000 = tuple(p for p in range(2, 1000)
                           if all(p % q for q in range(2, math.isqrt(p) + 1)))
_PRIME_SET = frozenset(_PRIMES_BELOW_1000)
_PRIMORIAL_1000 = math.prod(_PRIMES_BELOW_1000)

# Miller-Rabin with these bases is deterministic below _PSI_13, the least
# strong pseudoprime to all of them (Sorenson and Webster 2015), and with
# the first four below _PSI_4 (Jaeschke 1993)
_MR_BASES = _PRIMES_BELOW_1000[:13]  # 2, 3, 5, ..., 41
_PSI_4 = 3215031751
_PSI_13 = 3317044064679887385961981

# is_prime refuses longer numbers, because its cost grows about as digits^3
# (2-core Xeon, Python 3.11): at 1000 digits 0.1 s for a composite and
# 0.5 s for the prime 10^999 + 7, at 3376 digits 6 s for the prime
# 2^11213 - 1, at 4300 digits 8.2 s for a composite
PRIME_MAX_DIGITS = 1000
_PRIME_LIMIT = 10**PRIME_MAX_DIGITS


class TableMissError(Exception):
    """A table-data bug: no classification row matched, an entry is malformed,
    or a graph-type spec's volume argmax ties or disagrees with its decision rows."""


def _vp_int(n: int, p: int) -> int:
    """Valuation of a nonzero integer: its lowest set bit at p = 2, else
    passes by p, p^2, p^4, ... while they divide; each halves what is left."""
    if p == 2:
        return (n & -n).bit_length() - 1
    v = 0
    while n % p == 0:
        q, e = p, 1
        while n % q == 0:
            n //= q
            v += e
            q, e = q * q, 2 * e
    return v


def _strong_probable_prime(n: int, a: int, d: int, s: int) -> bool:
    """n odd, n - 1 = d * 2^s with d odd: the strong test to base a."""
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        s = _vp_int(a, 2)
        a >>= s
        if s % 2 and n % 8 in (3, 5):
            result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _half(x: int, n: int) -> int:
    """x / 2 mod n, for odd n."""
    return (x if x % 2 == 0 else x + n) // 2 % n


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test of an odd n > 1 that is not a
    square, with Selfridge's parameters: D the first of 5, -7, 9, -11, ...
    with (D/n) = -1, P = 1, Q = (1 - D)/4."""
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0 and abs(D) != n:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4 % n
    s = _vp_int(n + 1, 2)
    d = (n + 1) >> s
    # U_k, V_k and Q^k from k = 1 up the bits of d (P = 1)
    U, V, Qk = 1, 1, Q
    for bit in bin(d)[3:]:
        U, V = U * V % n, (V * V - 2 * Qk) % n
        Qk = Qk * Qk % n
        if bit == "1":
            U, V = _half(U + V, n), _half(D * U + V, n)
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V = (V * V - 2 * Qk) % n
        Qk = Qk * Qk % n
        if V == 0:
            return True
    return False


def _digits(n: int) -> int:
    """Decimal digits of n > 0, without str() (which refuses more than
    4300 digits)."""
    e = int(n.bit_length() * math.log10(2))
    return e + (n >= 10**e)


def is_prime(n: int) -> bool:
    """True iff n is prime: proven below 3.317*10^24; above, n passed the
    Baillie-PSW test, which no composite is known to pass.  ValueError if
    n has more than ``PRIME_MAX_DIGITS`` digits."""
    if n < 1000:
        return n in _PRIME_SET
    if n >= _PRIME_LIMIT:
        raise ValueError(f"a {_digits(n)}-digit number is past the "
                         f"{PRIME_MAX_DIGITS}-digit limit of the primality test")
    for p in _MR_BASES:
        if n % p == 0:
            return False
    s = _vp_int(n - 1, 2)
    d = (n - 1) >> s
    if n < _PSI_13:
        bases = _MR_BASES[:4] if n < _PSI_4 else _MR_BASES
        return all(_strong_probable_prime(n, a, d, s) for a in bases)
    if not _strong_probable_prime(n, 2, d, s):
        return False
    r = math.isqrt(n)
    return r * r != n and _strong_lucas(n)


def check_prime(p: int) -> None:
    """ValueError unless p is a prime int (a bool or a float is not one)."""
    if type(p) is not int or not is_prime(p):
        raise ValueError(f"p = {p!r} is not prime")


def vp(x: RatLike, p: int) -> Union[int, float]:
    """p-adic valuation of an int or a Fraction; inf for x = 0.  p must be
    prime and is not checked: the callers pass a checked or a registry prime."""
    num = x.numerator
    return _vp_int(num, p) - _vp_int(x.denominator, p) if num else math.inf


def residue(x: Fraction, p: int, k: int, e: int = 0) -> int:
    """Residue mod p^k of x / p^e (0 if its valuation is at least k), for
    any integer e, read without building x / p^e; ValueError unless
    x / p^e is p-integral.  With e = vp(x) it is the residue of the
    p-free part of x, a unit mod p^k.  p is not checked to be prime."""
    num, den = x.numerator, x.denominator
    if e > 0:
        q = p**e
        g = math.gcd(num, q)
        num, den = num // g, den * (q // g)
    elif e < 0:
        q = p**-e
        g = math.gcd(den, q)
        num, den = num * (q // g), den // g
    if den % p == 0:
        raise ValueError("not p-integral")
    m = p**k
    return num * pow(den, -1, m) % m


# largest |d| that check_d accepts: the second-largest prime of such a d is
# below 10^9, so prime_factors splits it within about 6*10^4 rho steps
# (test_every_d_splits), at most about 12 ms
D_MAX = 10**18

# Pollard-rho steps prime_factors may take on one number of up to 160 bits
# (about 3 s at 45 digits on a 2-core Xeon, Python 3.11): far more than any
# |d| <= D_MAX needs, and enough for nearly every cofactor whose
# second-largest prime is below 10^12 (median 1.6*10^6 steps, largest seen
# 3.3*10^6).  A step costs about (bits/160)^1.5 times more on a larger
# number, so it is charged (bits/160)^2 rounded up: at most a few seconds
# at any size (a step at 1000 digits takes 80 us, at 4300 digits 1 ms)
RHO_MAX_STEPS = 1 << 22


def _rho(n: int, c: int, steps: int) -> tuple[int, int]:
    """(g, steps left): g > 1 is a divisor of n found by Brent's cycle
    search on y -> y^2 + c mod n (a proper factor, or n itself, when the
    caller retries with another c); g = 1 when the steps ran out."""
    y, q, g, r = 2, 1, 1, 1
    x = ys = y
    while g == 1:
        x = y
        steps -= r
        if steps < 0:
            return 1, 0
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            if steps <= 0:
                return 1, 0
            ys = y
            batch = min(128, r - k)
            for _ in range(batch):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            g = math.gcd(q, n)
            k += batch
            steps -= batch
        r *= 2
    if g == n:  # the batch overshot: redo it one gcd at a time
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = math.gcd(abs(x - ys), n)
    return g, steps


def _prime_power_root(m: int) -> int:
    """r if m = r^k for some prime k, else 0; m has no prime factor below
    1000 (rho splits a power of a prime p only after about sqrt(p) steps)."""
    for k in _PRIMES_BELOW_1000:
        if 1009**k > m:
            return 0
        r = math.isqrt(m) if k == 2 else _iroot(m, k)
        if r**k == m:
            return r
    return 0


def _iroot(m: int, k: int) -> int:
    """floor(m^(1/k)) by Newton's method from above."""
    r = 1 << -(-m.bit_length() // k)
    while True:
        s = ((k - 1) * r + m // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def prime_factors(n: int) -> set:
    """The set of primes dividing n (sign ignored; empty for n = +-1).

    Trial division by the primes below 1000, then a primality test, a
    perfect-power check and Pollard-Brent rho on what is left.  ValueError
    if n is 0, if rho needs more than ``RHO_MAX_STEPS`` steps in all
    (steps on numbers above 160 bits count more; see ``RHO_MAX_STEPS``),
    or if a cofactor is past the digit limit of ``is_prime``.
    """
    if n == 0:
        raise ValueError("0 has no prime factorization")
    n = abs(n)
    primes = set()
    g = math.gcd(n, _PRIMORIAL_1000)  # the primes below 1000 that divide n
    for p in _PRIMES_BELOW_1000:
        if g == 1 or p * p > n:
            break
        if g % p == 0:
            g //= p
            primes.add(p)
            n //= p
            if n % p == 0:  # v >= 2: rare on the square-free d of a query
                n //= p ** _vp_int(n, p)
    steps = RHO_MAX_STEPS
    todo = [n] if n > 1 else []
    while todo:
        m = todo.pop()
        # m has no prime factor below 1000, and the next prime is 1009
        if m < 1009 * 1009 or is_prime(m):
            primes.add(m)
            continue
        r = _prime_power_root(m)
        if r:
            todo.append(r)
            continue
        cost = ((m.bit_length() + 159) // 160) ** 2
        c = 1
        while True:
            g, left = _rho(m, c, steps // cost)
            steps = left * cost
            if g == 1:
                raise ValueError(f"no factor of a {_digits(m)}-digit number found "
                                 "within the Pollard-rho budget")
            if g != m:
                break
            c += 1
        todo += [g, m // g]
    return primes


def check_d(d: int) -> frozenset:
    """The primes of d, a frozenset that no caller can change, if d is a
    nonzero square-free int (not a bool; its primes multiply to |d|) with
    |d| <= D_MAX, else ValueError: a non-int here, the rest in ``_squarefree_primes``."""
    if type(d) is not int:
        raise ValueError(f"d = {d!r} is not an integer")
    return _squarefree_primes(d)


def check_field(d: int) -> None:
    """ValueError, in ``check_d``'s words, unless d is a nonzero int (not a bool)."""
    if type(d) is not int or not d:
        check_d(d)


@functools.lru_cache(maxsize=1)
def _squarefree_primes(d: int) -> frozenset:
    """``check_d`` past its type check, memoized for the last d."""
    if abs(d) > D_MAX:
        raise ValueError(f"d = {d} exceeds 10^18 in absolute value")
    primes = prime_factors(d) if d else set()
    if d == 0 or math.prod(primes) != abs(d):
        raise ValueError(f"d = {d} is not a nonzero square-free integer")
    return frozenset(primes)


# the decimal exponent of a string that Fraction reads, as in "1.5e-7"
_EXPONENT = re.compile(r"[eE][-+]?(\d+(?:_\d+)*)\Z")
# a run of digits that int() reads as one number, as in "1_000"
_DIGIT_RUN = re.compile(r"\d+(?:_\d+)*")


def parse_rat(s: str) -> Fraction:
    """Parse a "num/den", integer or decimal string.  ValueError if den is
    0, or if the exponent, a typed run of digits or a part of the number is
    past the digit limit, which counts every digit typed, leading zeros
    included, as int() does; the first two are checked before any parsing."""
    s = s.strip()
    # 0 switches Python's limit off; the input limit stays at the default
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    digits = max((len(run.replace("_", "")) for run in _DIGIT_RUN.findall(s)), default=0)
    if digits <= limit:  # else int() would refuse a run in its own words
        exp = _EXPONENT.search(s)
        if exp and int(exp[1]) > limit:
            raise ValueError(f"an exponent past {limit} makes a number past the "
                             f"{limit}-digit input limit")
        try:
            x = Fraction(s)
        except ZeroDivisionError:
            raise ValueError(f"{s!r} has a zero denominator") from None
        digits = max(_digits(abs(x.numerator)), _digits(x.denominator))
    if digits > limit:
        raise ValueError(f"the input has a {digits}-digit number, which is past the "
                         f"{limit}-digit input limit")
    return x


def fmt_rat(x: RatLike) -> str:
    """Serialize as "num/den" (or plain integer) for JSON output.

    ValueError if a part is longer than Python prints an integer
    (``sys.get_int_max_str_digits()``, 4300 digits by default)."""
    x = Fraction(x)
    try:
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"
    except ValueError:
        digits = max(_digits(abs(x.numerator)), _digits(x.denominator))
        raise ValueError(f"the output has a {digits}-digit number, which is past the "
                         f"{sys.get_int_max_str_digits()}-digit print limit") from None
