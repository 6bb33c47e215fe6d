"""Independent references for the curves of ``qtwist.families``.

``FAMILIES`` stores each vertex's (c4, c6, Δ) as polynomials in t, or as
constants.  The tests check those against what is kept here, outside the
package: the closed-form j of the level-9 chain and its Fricke
involution, the a-invariants of the two 11-isogeny classes of conductor
121, and the j-map on the level-11 modular curve.
"""

from fractions import Fraction

from qtwist.graphs import check_t


def _poly(coeffs, x) -> Fraction:
    return sum(Fraction(c) * x**k for k, c in enumerate(coeffs))


# ---------------------------------------------------------------------------
# level-9 chain E_1 -- 3 -- E_3 -- 3 -- E_9, hauptmodul t

L39_INDICES = (1, 3, 9)


def l39_j(i: int, t) -> Fraction:
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


def fricke_w9(t) -> Fraction:
    """The involution t -> 27/t; swaps the chain ends up to twist by -3.
    CuspError at t = 0."""
    return 27 / check_t("L3_9", t)


# ---------------------------------------------------------------------------
# the two 11-isogeny classes of conductor 121, (E_1, E_11) each: LMFDB
# labels and a-invariants, in the order of L2_11's variants "a" and "b"

L211_CURVES = {
    "a": (("121.a2", (1, 1, 1, -30, -76)), ("121.a1", (1, 1, 1, -305, 7888))),
    "b": (("121.b2", (0, -1, 1, -7, 10)), ("121.b1", (0, -1, 1, -887, -10143))),
}


# ---------------------------------------------------------------------------
# j-map on the level-11 modular curve  y^2 + y = x^3 - x^2 - 10x - 20
#
# j(x, y) = (A(x) + y B(x)) / (x - 16), where A, B were solved exactly from
# q-expansions: x(q), y(q) from the weight-2 newform of level 11, matched
# against j(q^11) in the 13-dimensional space of functions with poles only
# at the origin of the curve.  The fit is overdetermined and closes to
# high order; test_jmap_derivation.py re-runs the derivation.

X011_NUM_A = [3308, 1781, -6780, -2704, 643, 148, -11]   # coefficients of x^k
X011_NUM_B = [-353, -2170, -1031, 697, -23, -1]          # coefficients of x^k * y

#: Value of the j-map at (16, 60), where the displayed fraction is the
#: indeterminate form 0/0; the limit along the curve is -11 * 131^3.
X011_J_AT_16_60 = Fraction(-11 * 131**3)


def x011_on_curve(x, y) -> bool:
    return y * y + y == x**3 - x**2 - 10 * x - 20


def x011_j(x, y) -> Fraction:
    """j of the 11-isogeny class attached to a point of the level-11 curve."""
    if not x011_on_curve(x, y):
        raise ValueError(f"({x}, {y}) is not on y^2 + y = x^3 - x^2 - 10x - 20")
    if x == 16:
        raise ValueError(
            "indeterminate at x=16 (known value at (16, 60): -11*131^3; "
            "(16, -61) is a cusp)")
    return (_poly(X011_NUM_A, x) + y * _poly(X011_NUM_B, x)) / (x - 16)
