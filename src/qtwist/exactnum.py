"""Exact rational arithmetic helpers: p-adic valuations, unit residues,
square-free tests, and the input checks shared by every module (the twist
parameter d, and the ``CuspError`` of a hauptmodul value t).

Rationals are plain ``fractions.Fraction`` (eagerly reduced, positive
denominator), which is exactly the representation the valuation and table
lookups downstream rely on.  The valuation of 0 is ``math.inf``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

Rat = Fraction
RatLike = Union[Fraction, int]

INFINITY = math.inf


class CuspError(ValueError):
    """t hits a cusp / excluded value of the parametrizing hauptmodul."""


def _check_prime(p: int) -> None:
    if p < 2 or not sympy_isprime(p):
        raise ValueError(f"p = {p} is not prime")


def sympy_isprime(n: int) -> bool:
    # local import keeps startup light for CLI paths that never factor
    from sympy import isprime

    return bool(isprime(n))


def vp_int(n: int, p: int) -> int:
    """Valuation of a nonzero integer (no primality check, internal)."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def vp(x: RatLike, p: int) -> Union[int, float]:
    """p-adic valuation of a rational; inf for x = 0."""
    _check_prime(p)
    x = Fraction(x)
    if x == 0:
        return INFINITY
    return vp_int(x.numerator, p) - vp_int(x.denominator, p)


def unit_residue(x: RatLike, p: int, k: int = 1) -> int:
    """Residue mod p^k of the p-free part of x, i.e. of p^(-vp(x))*x.

    The p-free part of the denominator is inverted mod p^k, so the result
    is well defined for any nonzero rational.
    """
    _check_prime(p)
    if k < 1:
        raise ValueError("k must be positive")
    x = Fraction(x)
    if x == 0:
        raise ValueError("unit_residue undefined at 0")
    num, den = x.numerator, x.denominator
    num //= p ** vp_int(num, p)
    den //= p ** vp_int(den, p)
    m = p**k
    return num * pow(den, -1, m) % m


def is_squarefree(n: int) -> bool:
    """True iff no prime square divides n (sign ignored)."""
    if n == 0:
        raise ValueError("0 is neither square-free nor square-full")
    n = abs(n)
    # trial divide up to the cube root; the remaining cofactor has at most
    # two prime factors, so it is square-full only if a perfect square
    d = 2
    while d * d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return False
        d += 1
    if n == 1:
        return True
    r = math.isqrt(n)
    return r * r != n


# is_squarefree trial-divides up to |d|^(1/3): about 0.14 s at 10^18
D_MAX = 10**18


def check_d(d: int) -> int:
    """d itself if it is a nonzero square-free integer with |d| <= D_MAX,
    else ValueError."""
    if abs(d) > D_MAX:
        raise ValueError(f"d = {d} exceeds 10^18 in absolute value")
    if d == 0 or not is_squarefree(d):
        raise ValueError(f"d = {d} is not a nonzero square-free integer")
    return d


def parse_rat(s: str) -> Fraction:
    """Parse a "num/den" or integer string."""
    return Fraction(s.strip())


def fmt_rat(x: RatLike) -> str:
    """Serialize as "num/den" (or plain integer) for JSON output."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"
