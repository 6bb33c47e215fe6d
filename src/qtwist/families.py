"""Curves behind the graph types: ``FAMILIES`` maps a graph type and a
variant to one (c4, c6, Δ) model per vertex, each a triple of integer
polynomials in the hauptmodul value t (constants for a type without t),
read by ``class_signatures``.  It holds the level-9 three-curve chain on
its genus-0 modular curve and the two fixed 11-isogeny classes of
conductor 121.  Besides: the chain's j and Fricke involution, and the
j-map on the rank-0 elliptic modular curve of level 11.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .exactnum import CuspError, RatLike  # noqa: F401  CuspError: what check_t raises at a cusp
from .graphs import check_t
from .weierstrass import Signature


# ---------------------------------------------------------------------------
# level-9 chain E_1 -- 3 -- E_3 -- 3 -- E_9, hauptmodul t
#
# (c4, c6, Delta) of each vertex as integer polynomials in t (coefficients
# low to high).  Of the cusps, only t = 0 is rational: the roots of
# t^2+9t+27 (discriminant -27) are not.

_L39_POLYS = (
    (   # E_1
        [9, 84, 54, 12, 1],  # (t+3)(t^3+9t^2+27t+3)
        [-27, 486, 891, 504, 135, 18, 1],
        [0, 27, 9, 1],  # t(t^2+9t+27)
    ),
    (   # E_3
        [729, 324, 54, 12, 1],  # (t+3)(t+9)(t^2+27)
        [-19683, -13122, -3645, 0, 135, 18, 1],  # (t^2-27)(t^4+18t^3+162t^2+486t+729)
        [0, 0, 0, 19683, 19683, 8748, 2187, 324, 27, 1],  # t^3(t^2+9t+27)^3
    ),
    (   # E_9
        [59049, 26244, 4374, 252, 1],  # (t+9)(t^3+243t^2+2187t+6561)
        [-14348907, -9565938, -2657205, -367416, -24057, -486, 1],
        [0] * 9 + [27, 9, 1],  # t^9(t^2+9t+27)
    ),
)

L39_INDICES = (1, 3, 9)


# ---------------------------------------------------------------------------
# the two 11-isogeny classes of conductor 121, (E_1, E_11) each:
# labels and a-invariants, and the same curves' signatures in FAMILIES

L211_CURVES = {
    "a": (("121.a2", (1, 1, 1, -30, -76)), ("121.a1", (1, 1, 1, -305, 7888))),
    "b": (("121.b2", (0, -1, 1, -7, 10)), ("121.b1", (0, -1, 1, -887, -10143))),
}

FAMILIES = {
    "L3_9": {"a": _L39_POLYS},
    "L2_11": {
        "a": (([11 * 131], [11 * 4973], [-(11**2)]),
              ([11**4], [-(11**5) * 43], [-(11**10)])),
        "b": (([2**5 * 11], [-(2**3) * 7 * 11**2], [-(11**3)]),
              ([2**5 * 11**3], [2**3 * 7 * 11**5], [-(11**9)])),
    },
}


def _poly_eval(coeffs, t: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def class_signatures(kind: str, t: Optional[RatLike] = None,
                     variant: str = "a") -> tuple[Signature, ...]:
    """Exact signatures of the curves at the vertices of ``kind``, in the
    order of ``graph_type(kind).vertices``.

    t is checked by ``graphs.check_t``; ValueError when the type or the
    variant has no entry in ``FAMILIES``.
    """
    t = check_t(kind, t)
    try:
        models = FAMILIES[kind][variant]
    except KeyError:
        raise ValueError(f"no family of curves for type {kind}, variant {variant!r}") from None
    # a type without t has constant polynomials
    x = Fraction(0) if t is None else t
    return tuple(Signature(*(_poly_eval(c, x) for c in model)) for model in models)


def l39_signatures(t: RatLike) -> tuple[Signature, Signature, Signature]:
    """Exact signatures of (E_1, E_3, E_9) at hauptmodul value t."""
    return class_signatures("L3_9", t)


def l39_j(i: int, t: RatLike) -> Fraction:
    """Closed-form j of the chain member with index i in {1, 3, 9}."""
    if i not in L39_INDICES:
        raise ValueError(f"index must be one of {L39_INDICES}, got {i}")
    t = check_t("L3_9", t)
    q = t * t + 9 * t + 27
    if i == 1:
        return (t + 3) ** 3 * (t**3 + 9 * t**2 + 27 * t + 3) ** 3 / (t * q)
    if i == 3:
        return (t + 3) ** 3 * (t + 9) ** 3 * (t * t + 27) ** 3 / (t**3 * q**3)
    return (t + 9) ** 3 * (t**3 + 243 * t**2 + 2187 * t + 6561) ** 3 / (t**9 * q)


def fricke_w9(t: RatLike) -> Fraction:
    """The involution t -> 27/t; swaps the chain ends up to twist by -3.
    CuspError at t = 0."""
    return 27 / check_t("L3_9", t)


# ---------------------------------------------------------------------------
# j-map on the level-11 modular curve  y^2 + y = x^3 - x^2 - 10x - 20
#
# j(x, y) = (A(x) + y B(x)) / (x - 16), where A, B were solved exactly from
# q-expansions: x(q), y(q) from the weight-2 newform of level 11, matched
# against j(q^11) in the 13-dimensional space of functions with poles only
# at the origin of the curve.  The fit is overdetermined and closes to
# high order; tests re-run the derivation.

X011_NUM_A = [3308, 1781, -6780, -2704, 643, 148, -11]   # coefficients of x^k
X011_NUM_B = [-353, -2170, -1031, 697, -23, -1]          # coefficients of x^k * y

#: Value of the j-map at (16, 60), where the displayed fraction is the
#: indeterminate form 0/0; the limit along the curve is -11 * 131^3.
X011_J_AT_16_60 = Fraction(-11 * 131**3)


def x011_on_curve(x: RatLike, y: RatLike) -> bool:
    x, y = Fraction(x), Fraction(y)
    return y * y + y == x**3 - x**2 - 10 * x - 20


def x011_j(x: RatLike, y: RatLike) -> Fraction:
    """j of the 11-isogeny class attached to a point of the level-11 curve."""
    x, y = Fraction(x), Fraction(y)
    if not x011_on_curve(x, y):
        raise ValueError(f"({x}, {y}) is not on y^2 + y = x^3 - x^2 - 10x - 20")
    if x == 16:
        raise ValueError(
            "indeterminate at x=16 (known value at (16, 60): -11*131^3; "
            "(16, -61) is a cusp)")
    num = _poly_eval(X011_NUM_A, x) + y * _poly_eval(X011_NUM_B, x)
    return num / (x - 16)
