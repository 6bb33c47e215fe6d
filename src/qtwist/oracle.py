"""Independent numeric verification of the exact decision machinery:
period-lattice volumes (closed-form cubic roots and the real AGM for both
signs of Δ; error from a p+60 re-run), Néron volumes and Faltings heights,
and argmin cross-checks against the rule tables. The only module of the
package that imports mpmath. The volume kernel calls mpmath's raw layer,
``mpmath.libmp``, with ``math.isqrt`` for its square roots, because
mpmath's pure-Python backend makes ``mpf`` objects slow; it keeps their
bits (see ``_volume_once``).
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import NamedTuple, Optional

from . import families, graphs
from .exactnum import RatLike
from .localdata import global_minimal
from .weierstrass import Signature, twist_sig

# after the package modules: a module compiled while mpmath is resident
# raises the peak memory of `qtwist verify`
import mpmath as mp  # noqa: E402
from mpmath.libmp import (  # noqa: E402
    fnone, fone, from_int, from_man_exp, fzero, mpf_abs, mpf_acos, mpf_add,
    mpf_cbrt, mpf_cos, mpf_div, mpf_ge, mpf_le, mpf_mul, mpf_mul_int, mpf_neg, mpf_pi,
    mpf_pow_int, mpf_shift, mpf_sub, round_down, round_nearest as _RND, to_fixed,
)


class LatticeApprox(NamedTuple):
    volume: mp.mpf  # at precision_bits + 30
    claimed_error: mp.mpf  # absolute: |volume - the same volume at precision_bits + 60|


class VertexHeight(NamedTuple):
    label: str
    neron_volume: mp.mpf
    faltings_height: mp.mpf
    claimed_error: mp.mpf  # relative to neron_volume


class HeightReport(NamedTuple):
    vertices: tuple  # of VertexHeight
    argmin_label: str
    theorem_label: str
    match: bool
    bits: int
    margin: mp.mpf  # best Néron volume over the second best


def _mpf_of(x: Fraction, prec: int) -> tuple:
    return mpf_div(from_int(x.numerator, prec, _RND), from_int(x.denominator, prec, _RND),
                   prec, _RND)


def _sqrt(x: tuple, prec: int, rnd: str = _RND) -> tuple:
    """``libmp.mpf_sqrt(x, prec, rnd)`` on ``math.isqrt``: the exponent made
    even, the mantissa shifted to 2*prec + 4 bits, the root perturbed up
    when the remainder is not 0. Both integer roots are the exact floor, so
    the bits are the same. ValueError for a negative x."""
    sign, man, exp, bc = x
    if sign:
        raise ValueError("square root of a negative number")
    if exp & 1:
        exp, man, bc = exp - 1, man << 1, bc + 1
    elif man == 1:
        return (0, 1, exp >> 1, 1)
    shift = max(4, 2 * prec - bc + 4)
    shift += shift & 1
    man <<= shift
    root = isqrt(man)
    if root * root != man:
        root = (root << 1) + 1
        shift += 2
    return from_man_exp(root, (exp - shift) >> 1, prec, rnd)


def _agm(a: tuple, b: tuple, prec: int) -> tuple:
    """``libmp.mpf_agm(a, b, prec, round_nearest)`` on ``math.isqrt``:
    floating-point steps while the magnitudes differ by more than 10, a
    shift to unit magnitude, then the fixed-point loop at prec + 20 with the
    same stopping rule. mpmath's pure-Python ``isqrt_fast`` may return
    floor - 1, so the two can end one ulp of prec apart. ValueError for a
    negative argument."""
    if a[0] or b[0]:
        raise ValueError("agm of a negative number")
    wp = prec + 20
    delta = abs(a[2] + a[3] - b[2] - b[3])
    while delta > 10:  # halved, not re-measured, as mpmath does
        a, b = (mpf_shift(mpf_add(a, b, wp, round_down), -1),
                _sqrt(mpf_mul(a, b, wp, round_down), wp, round_down))
        delta //= 2
    lo, hi = sorted((a[2] + a[3], b[2] + b[3]))  # magnitudes
    n = -lo if lo < -8 else -hi if hi > 20 else 0
    a, b = to_fixed(a, wp + n), to_fixed(b, wp + n)
    i = 0
    while True:
        mean = (a + b) >> 1
        if i > 4 and abs(a - mean) < 8:
            return from_man_exp(a, -wp - n, prec, _RND)
        a, b = mean, isqrt(a * b)
        i += 1


def _volume_once(q: tuple, prec: int) -> tuple:
    """Fundamental-domain area of the period lattice of dx/(2y) on
    y^2 = x^3 + Ax + B, as a raw mpf at precision prec; q holds the exact
    A = -c4/48, B = -c6/864, -Delta/1728 and Delta/16.

    One root r is taken in closed form: the one isolated from the other
    two, x and y, so that prod = (r - x)(r - y) = 3r^2 + A does not
    cancel. For Delta < 0, Cardano's radicand B^2/4 + A^3/27 is read from
    Delta as the exact -Delta/1728, which a floating-point sum could
    round below 0. The gap between x and y comes from the exact discriminant
    prod^2 (x - y)^2 = -4A^3 - 27B^2 = Delta/16, so nearly equal roots
    cost no precision. Both AGM products below are symmetric in the two
    gaps of r, so which of x, y is larger never matters.

    On mpmath's pure-Python backend (no gmpy2), mpf dispatch and a Newton
    square root in Python per AGM step cost more than the arithmetic, so
    this calls ``mpmath.libmp`` itself: the calls that ``mpf`` arithmetic,
    ``mp.sqrt``, ``mp.acos`` and the rest make, in the same order, at the
    same precision, rounded to nearest, hence the same bits; halving and
    doubling are exact shifts. Only ``_agm`` may end an ulp apart, which
    was seen only on nearly singular curves (up to 3 ulps of the volume).
    """
    A, B = _mpf_of(q[0], prec), _mpf_of(q[1], prec)
    positive = q[3] > 0
    if positive:
        # trigonometric form. B = -e1 e2 e3 is negative when e2, e3 are
        # close (both below 0) and positive when e1, e2 are, so e1 is
        # isolated when B <= 0, else e3
        R = mpf_shift(_sqrt(mpf_div(mpf_neg(A), from_int(3), prec, _RND), prec), 1)
        c = mpf_div(mpf_mul_int(B, 3, prec, _RND), mpf_mul(A, R, prec, _RND), prec, _RND)
        c = fone if mpf_ge(c, fone) else fnone if mpf_le(c, fnone) else c
        theta = mpf_acos(c, prec, _RND)
        if not mpf_le(B, fzero):
            theta = mpf_add(theta, mpf_shift(mpf_pi(prec, _RND), 1), prec, _RND)
        r = mpf_mul(R, mpf_cos(mpf_div(theta, from_int(3), prec, _RND), prec, _RND), prec, _RND)
    else:
        # Cardano with the larger-magnitude real cube root, so that
        # u - A/(3u) does not cancel; the radicand is -Delta/1728
        u = mpf_add(mpf_shift(mpf_abs(B), -1), _sqrt(_mpf_of(q[2], prec), prec), prec, _RND)
        u = mpf_cbrt(u, prec, _RND)
        if mpf_ge(B, fzero):
            u = mpf_neg(u)
        r = mpf_sub(u, mpf_div(A, mpf_mul_int(u, 3, prec, _RND), prec, _RND), prec, _RND)
    r3 = mpf_mul_int(r, 3, prec, _RND)
    prod = mpf_add(mpf_mul(r3, r, prec, _RND), A, prec, _RND)
    gap2 = mpf_div(_mpf_of(q[3], prec), mpf_mul(prod, prod, prec, _RND), prec, _RND)  # (x - y)^2
    pi2 = mpf_pow_int(mpf_pi(prec, _RND), 2, prec, _RND)
    if positive:
        gap = _sqrt(gap2, prec)
        # e1 - e3; the other gap of r is prod/far
        far = mpf_shift(mpf_add(mpf_abs(r3), gap, prec, _RND), -1)
        m = _sqrt(far, prec)
        agms = mpf_mul(_agm(m, _sqrt(mpf_div(prod, far, prec, _RND), prec), prec),
                       _agm(m, _sqrt(gap, prec), prec), prec, _RND)
        return mpf_div(pi2, agms, prec, _RND)
    # real-AGM form for one real root (Cohen, Alg. 7.4.7): with b = |r - x|
    # and a = 3r, the two AGMs take 2b + a and 2b - a; their product is
    # 4b^2 - a^2 = -gap2, so the smaller one is taken as -gap2 / (2b + |a|)
    b = _sqrt(prod, prec)
    hi = mpf_add(mpf_shift(b, 1), mpf_abs(r3), prec, _RND)
    m = mpf_shift(_sqrt(b, prec), 1)
    agms = mpf_mul(_agm(m, _sqrt(hi, prec), prec),
                   _agm(m, _sqrt(mpf_div(mpf_neg(gap2), hi, prec, _RND), prec), prec), prec, _RND)
    return mpf_div(mpf_shift(pi2, 1), agms, prec, _RND)


def lattice_volume(s: Signature, precision_bits: int = 128) -> LatticeApprox:
    """Period-lattice volume at precision_bits + 30, with its error claimed
    from a second run at precision_bits + 60."""
    if type(precision_bits) is not int or not 64 <= precision_bits <= 4096:
        raise ValueError(f"precision_bits = {precision_bits!r} is not an int in 64..4096")
    q = (-s.c4 / 48, -s.c6 / 864, -s.delta / 1728, s.delta / 16)
    vol = _volume_once(q, precision_bits + 30)
    # subtract at the check's precision: rounding it to vol's first
    # would make the claim 0 whenever vol is correctly rounded
    prec = precision_bits + 60
    err = mpf_abs(mpf_sub(_volume_once(q, prec), vol, prec, _RND))
    return LatticeApprox(mp.make_mpf(vol), mp.make_mpf(err))


def neron_volume(s: Signature, precision_bits: int = 128) -> LatticeApprox:
    """Volume of the minimal-model (Néron) lattice, u(E)^2 * vol(Lambda),
    with its claimed error."""
    minimal, _u = global_minimal(s)
    return lattice_volume(minimal, precision_bits)


def verify_class(kind: str, t: Optional[RatLike], d: int,
                 precision_bits: int = 128, variant: str = "a") -> HeightReport:
    """Numeric argmin of Faltings heights over the twisted class vs the
    closed-form decision, over the curves of ``families.class_signatures``."""
    sigs = families.class_signatures(kind, t, variant)
    rows = []
    with mp.workprec(precision_bits + 30):
        for label, sig in zip(graphs.graph_type(kind).vertices, sigs):
            lat = neron_volume(twist_sig(sig, d), precision_bits)
            rows.append(VertexHeight(label, lat.volume, -mp.log(lat.volume) / 2,
                                     lat.claimed_error / lat.volume))
        vols = sorted((r.neron_volume for r in rows), reverse=True)
        margin = vols[0] / vols[1]
    argmin = min(rows, key=lambda r: r.faltings_height).label
    theorem = graphs.faltings_by_theorem(kind, t, d).vertex
    return HeightReport(tuple(rows), argmin, theorem, argmin == theorem,
                        precision_bits, margin)
