"""Independent numeric verification of the exact decision machinery:
period-lattice volumes (closed-form cubic roots and the real AGM for both
signs of Δ; error from a p+60 re-run), Néron volumes and Faltings heights,
and argmin cross-checks against the rule tables. The only module of the
package that imports mpmath.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from . import families, graphs
from .exactnum import RatLike
from .localdata import global_minimal
from .weierstrass import Signature, twist_sig

# after the package modules: a module compiled while mpmath is resident
# raises the peak memory of `qtwist verify`
import mpmath as mp  # noqa: E402


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


def _mpf_of(x: Fraction) -> mp.mpf:
    x = Fraction(x)
    return mp.mpf(x.numerator) / mp.mpf(x.denominator)


def _volume_once(s: Signature) -> mp.mpf:
    """Fundamental-domain area of the period lattice of dx/(2y) on
    y^2 = x^3 + Ax + B with A = -c4/48, B = -c6/864, at the working
    precision.

    One root r is taken in closed form: the one isolated from the other
    two, x and y, so that prod = (r - x)(r - y) = 3r^2 + A does not
    cancel. The gap between x and y comes from the exact discriminant
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
        # u - A/(3u) does not cancel
        u = mp.cbrt(abs(B) / 2 + mp.sqrt(B * B / 4 + A**3 / 27))
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


def lattice_volume(s: Signature, precision_bits: int = 128) -> LatticeApprox:
    """Period-lattice volume at precision_bits + 30, with its error claimed
    from a second run at precision_bits + 60."""
    if not 64 <= precision_bits <= 4096:
        raise ValueError(f"precision_bits = {precision_bits} is outside 64..4096")
    with mp.workprec(precision_bits + 30):
        vol = _volume_once(s)
    with mp.workprec(precision_bits + 60):
        # subtract at the check's precision: rounding it to vol's first
        # would make the claim 0 whenever vol is correctly rounded
        err = abs(_volume_once(s) - vol)
    return LatticeApprox(vol, err)


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
