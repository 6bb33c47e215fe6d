"""Curve descriptors: a-invariants, signatures (c4, c6, Delta),
p-signatures, scaling transformations, quadratic twists.

The canonical internal object is the signature; a-invariants are an
input/oracle convenience.  All constructors check the defining identity
c4^3 - c6^2 = 1728*Delta.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .exactnum import RatLike, check_d, check_prime, vp


class AInvariants(NamedTuple):
    a1: RatLike
    a2: RatLike
    a3: RatLike
    a4: RatLike
    a6: RatLike


class _Signature(NamedTuple):
    c4: Fraction
    c6: Fraction
    delta: Fraction


class Signature(_Signature):
    __slots__ = ()

    def __new__(cls, c4: RatLike, c6: RatLike, delta: RatLike) -> "Signature":
        if not isinstance(c4, Fraction):
            c4 = Fraction(c4)
        if not isinstance(c6, Fraction):
            c6 = Fraction(c6)
        if not isinstance(delta, Fraction):
            delta = Fraction(delta)
        self = tuple.__new__(cls, (c4, c6, delta))
        # through the class, so that a hook rebound there sees every construction
        cls.__post_init__(self)
        return self

    @classmethod
    def _make(cls, iterable) -> "Signature":
        # through __new__, so that _replace runs the checks too
        return cls(*iterable)

    def __post_init__(self) -> None:
        c4, c6, delta = self
        if not delta:
            raise ValueError("singular: Delta = 0")
        # c4^3 - c6^2 = 1728*Delta times the common denominator, in integers
        den4, den6 = c4.denominator**3, c6.denominator**2
        lhs = (c4.numerator**3 * den6 - c6.numerator**2 * den4) * delta.denominator
        if lhs != 1728 * delta.numerator * den4 * den6:
            raise ValueError("c4^3 - c6^2 != 1728*Delta")


class PSignature(NamedTuple):
    vc4: float  # int, or inf when c4 = 0
    vc6: float
    vdelta: int


def signature_of(a: AInvariants) -> Signature:
    """(c4, c6, Delta) via the standard b-invariant formulas."""
    b2 = a.a1**2 + 4 * a.a2
    b4 = 2 * a.a4 + a.a1 * a.a3
    b6 = a.a3**2 + 4 * a.a6
    b8 = a.a1**2 * a.a6 + 4 * a.a2 * a.a6 - a.a1 * a.a3 * a.a4 + a.a2 * a.a3**2 - a.a4**2
    c4 = b2**2 - 24 * b4
    c6 = -(b2**3) + 36 * b2 * b4 - 216 * b6
    delta = -(b2**2) * b8 - 8 * b4**3 - 27 * b6**2 + 9 * b2 * b4 * b6
    return Signature(c4, c6, delta)


def p_signature(s: Signature, p: int) -> PSignature:
    """The p-adic valuations of (c4, c6, Delta); ValueError unless p is prime."""
    check_prime(p)
    return PSignature(vp(s.c4, p), vp(s.c6, p), vp(s.delta, p))


def transform(s: Signature, u: RatLike) -> Signature:
    """Weierstrass rescaling: u^4 c4' = c4 etc."""
    u = Fraction(u)
    if u == 0:
        raise ValueError("u must be nonzero")
    return Signature(s.c4 / u**4, s.c6 / u**6, s.delta / u**12)


def twist_sig(s: Signature, d: int) -> Signature:
    """Signature of the quadratic twist by Q(sqrt(d))."""
    check_d(d)
    return Signature(d**2 * s.c4, d**3 * s.c6, d**6 * s.delta)


def j_invariant(s: Signature) -> Fraction:
    return s.c4**3 / s.delta
