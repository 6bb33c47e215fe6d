"""Curves behind the graph types: ``FAMILIES`` maps a graph type and a
variant to one (c4, c6, Δ) model per vertex, each a triple of integer
polynomials in the hauptmodul value t (constants for a type without t),
read by ``class_signatures``.  It holds the level-9 three-curve chain on
its genus-0 modular curve and the two fixed 11-isogeny classes of
conductor 121.  The tests check these polynomials against the chain's
closed-form j, and the constants against the classes' a-invariants.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .exactnum import RatLike
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


# ---------------------------------------------------------------------------
# the two 11-isogeny classes of conductor 121 as L2_11's variants: (E_1,
# E_11) is (121.a2, 121.a1) in "a" and (121.b2, 121.b1) in "b"

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
    """P(t) for t = a/b as sum(c_i a^i b^(n-i)) / b^n: Horner on the
    homogeneous form in integers, one Fraction at the end."""
    a, b = t.numerator, t.denominator
    acc, bpow = 0, 1
    for c in reversed(coeffs):
        acc = acc * a + c * bpow
        bpow *= b
    return Fraction(acc, bpow // b)


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
    except (KeyError, TypeError):  # TypeError: an unhashable variant
        raise ValueError(f"no family of curves for type {kind}, variant {variant!r}") from None
    # a type without t has constant polynomials
    x = Fraction(0) if t is None else t
    return tuple(Signature(*(_poly_eval(c, x) for c in model)) for model in models)


def l39_signatures(t: RatLike) -> tuple[Signature, Signature, Signature]:
    """``class_signatures("L3_9", t)``, the signatures of (E_1, E_3, E_9) at
    t, under the name that the benchmark (``perfbench/``) calls."""
    return class_signatures("L3_9", t)
