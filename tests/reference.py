"""Independent references for the curves of ``qtwist.families``.

``FAMILIES`` stores each vertex's (c4, c6, Δ) as polynomials in t, or as
constants.  The tests check those against what is kept here, outside the
package: the closed-form j of the level-9 chain and its Fricke
involution, the a-invariants of the two 11-isogeny classes of conductor
121, and the j-map on the level-11 modular curve.

It keeps ``pal_u_rules``, the u_p(E^d) rules derived by hand from the
valuations of the minimal model, against which the tests check the
printed pal column of every row of ``localdata``'s tables; the program
reads that column through ``localdata.pal_u``.

It also keeps the lattice-volume kernel that ``oracle`` ran on mpmath's
``mpf`` objects before it moved to the raw layer, so the tests can hold
the raw kernel to the same bits, and the byte mask of square-free numbers
that ``sieve`` counted before it counted by formula.
"""

from fractions import Fraction

import mpmath as mp

from qtwist.exactnum import residue
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
    ValueError at the cusp t = 0."""
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


# ---------------------------------------------------------------------------
# u_p(E^d) by rules on the minimal model's valuations and Kodaira symbol,
# derived apart from the printed pal column that ``localdata.pal_u`` reads

def pal_u_rules(c, d: int) -> Fraction:
    """Twist rescaling value u_p(E^d) of the minimal model, at p = c.p, for
    a ``localdata.LocalClassification`` c; no table column is read.  d must
    be a square-free integer.  c6 of the minimal model is read off sig at
    scale k."""
    p, k, (vc4, vc6, vd), kodaira, _fired, _row_pal, s = c
    if p != 2:
        if d % p == 0 and kodaira.kind.endswith("*"):
            return Fraction(p)
        return Fraction(1)
    if d % 4 == 1:
        return Fraction(1)
    if d % 4 == 2:  # square-free even d; d/2 is an odd integer
        if (vc4, vc6) == (0, 0):
            return Fraction(1, 2)
        if (vc4, vc6) == (6, 9) and vd >= 18 and residue(s.c6 * d, 2, 2, 6 * k + 10) == 3:
            return Fraction(4)
        if vc4 in (4, 5):
            return Fraction(1)
        if vc6 in (3, 5, 7):
            return Fraction(1)
        if vc4 >= 6 and (vc6, vd) == (6, 6) and residue(s.c6 * d, 2, 2, 6 * k + 7) == 3:
            return Fraction(1)
        return Fraction(2)
    # d = 3 mod 4
    if (vc4, vc6) == (0, 0) or (vc4 >= 4 and (vc6, vd) == (3, 0)):
        return Fraction(1, 2)
    if (vc4 == 4 and vc6 == 6 and vd >= 12) or (vc4 >= 8 and (vc6, vd) == (9, 12)):
        return Fraction(2)
    return Fraction(1)


# ---------------------------------------------------------------------------
# the lattice-volume kernel on mpf objects, as ``oracle`` had it before it
# called ``mpmath.libmp`` directly; the volume and the claimed error of
# ``mpf_lattice_volume`` are those ``oracle.lattice_volume`` gave then


def _mpf_of(x: Fraction) -> mp.mpf:
    return mp.mpf(x.numerator) / mp.mpf(x.denominator)


def _volume_once(s) -> mp.mpf:
    """Fundamental-domain area of the period lattice of dx/(2y) on
    y^2 = x^3 + Ax + B with A = -c4/48, B = -c6/864, at the working
    precision.

    One root r is taken in closed form: the one isolated from the other
    two, x and y, so that prod = (r - x)(r - y) = 3r^2 + A does not
    cancel. For Delta < 0, Cardano's radicand B^2/4 + A^3/27 is read from
    Delta as the exact -Delta/1728, which a floating-point sum could
    round below 0. The gap between x and y comes from the exact discriminant
    prod^2 (x - y)^2 = -4A^3 - 27B^2 = Delta/16, so nearly equal roots
    cost no precision. Both AGM products below are symmetric in the two
    gaps of r, so which of x, y is larger never matters.
    """
    A = _mpf_of(-s.c4 / 48)
    B = _mpf_of(-s.c6 / 864)
    if s.delta > 0:
        # trigonometric form. B = -e1 e2 e3 is negative when e2, e3 are
        # close (both below 0) and positive when e1, e2 are, so e1 is
        # isolated when B <= 0, else e3
        R = 2 * mp.sqrt(-A / 3)
        theta = mp.acos(max(-1, min(1, 3 * B / (A * R))))
        r = R * mp.cos((theta if B <= 0 else theta + 2 * mp.pi) / 3)
    else:
        # Cardano with the larger-magnitude real cube root, so that
        # u - A/(3u) does not cancel; the radicand is -Delta/1728
        u = mp.cbrt(abs(B) / 2 + mp.sqrt(_mpf_of(-s.delta / 1728)))
        if B >= 0:
            u = -u
        r = u - A / (3 * u)
    prod = 3 * r * r + A
    gap2 = _mpf_of(s.delta / 16) / (prod * prod)  # (x - y)^2
    if s.delta > 0:
        gap = mp.sqrt(gap2)
        far = (abs(3 * r) + gap) / 2  # e1 - e3; the other gap of r is prod/far
        m = mp.sqrt(far)
        return mp.pi**2 / (mp.agm(m, mp.sqrt(prod / far)) * mp.agm(m, mp.sqrt(gap)))
    # real-AGM form for one real root (Cohen, Alg. 7.4.7): with b = |r - x|
    # and a = 3r, the two AGMs take 2b + a and 2b - a; their product is
    # 4b^2 - a^2 = -gap2, so the smaller one is taken as -gap2 / (2b + |a|)
    b = mp.sqrt(prod)
    hi = 2 * b + abs(3 * r)
    m = 2 * mp.sqrt(b)
    return 2 * mp.pi**2 / (mp.agm(m, mp.sqrt(hi)) * mp.agm(m, mp.sqrt(-gap2 / hi)))


def mpf_lattice_volume(s, precision_bits: int = 128):
    """(volume at precision_bits + 30, |it - the volume at
    precision_bits + 60| taken at precision_bits + 60)."""
    with mp.workprec(precision_bits + 30):
        vol = _volume_once(s)
    with mp.workprec(precision_bits + 60):
        err = abs(_volume_once(s) - vol)
    return vol, err


def mpf_volume_once(s, prec: int) -> mp.mpf:
    """The kernel above, run once at precision prec."""
    with mp.workprec(prec):
        return _volume_once(s)


# ---------------------------------------------------------------------------
# the square-free mask that ``sieve`` counted before it counted by formula,
# kept as it was, upper bound included


def squarefree_mask(n: int) -> bytearray:
    """mask[i] = 1 for the square-free i in 0..n, else 0 (mask[0] = 0).

    The mask takes n + 1 bytes, hence the upper bound."""
    if not 10**4 <= n <= 10**8:
        raise ValueError(f"bound = {n} is outside 10^4..10^8")
    mask = bytearray(b"\x01") * (n + 1)
    mask[0] = 0
    k = 2
    while k * k <= n:
        mask[k * k:: k * k] = bytes(n // (k * k))
        k += 1
    return mask
