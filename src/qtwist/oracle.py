"""Independent numeric verification of the exact decision machinery:
period-lattice volumes (AGM / Carlson symmetric integrals), Néron
volumes and Faltings heights, argmin cross-checks against the rule
tables, and sieved density / probability estimates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import mpmath as mp

from . import families, graphs
from .exactnum import RatLike, _check_prime
from .localdata import global_minimal
from .weierstrass import Signature, twist_sig


@dataclass(frozen=True)
class LatticeApprox:
    volume: mp.mpf
    claimed_error: mp.mpf


@dataclass(frozen=True)
class VertexHeight:
    label: str
    neron_volume: mp.mpf
    faltings_height: mp.mpf


@dataclass(frozen=True)
class HeightReport:
    vertices: tuple  # of VertexHeight
    argmin_label: str
    theorem_label: str
    match: bool


def _mpf_of(x: Fraction) -> mp.mpf:
    x = Fraction(x)
    return mp.mpf(x.numerator) / mp.mpf(x.denominator)


def _volume_once(s: Signature) -> mp.mpf:
    """Fundamental-domain area of the period lattice of dx/(2y) on
    y^2 = x^3 + Ax + B with A = -c4/48, B = -c6/864."""
    A = _mpf_of(-s.c4 / 48)
    B = _mpf_of(-s.c6 / 864)
    roots = mp.polyroots([mp.mpf(1), mp.mpf(0), A, B], extraprec=mp.mp.prec)
    if s.delta > 0:
        e1, e2, e3 = sorted((mp.re(r) for r in roots), reverse=True)
        om_re = mp.pi / mp.agm(mp.sqrt(e1 - e3), mp.sqrt(e1 - e2))
        om_im = mp.pi / mp.agm(mp.sqrt(e1 - e3), mp.sqrt(e2 - e3))
        return om_re * om_im
    # one real root r and a conjugate pair e2, e3
    r = max(roots, key=lambda z: -abs(mp.im(z)))
    e2, e3 = [z for z in roots if z != r]
    om1 = mp.re(2 * mp.elliprf(0, r - e2, r - e3))
    half = 2 * mp.elliprf(0, e2 - e3, e2 - r)  # = +-(om1/2 - i vol/om1)
    return om1 * abs(mp.im(half))


def lattice_volume(s: Signature, precision_bits: int = 128) -> LatticeApprox:
    if not 64 <= precision_bits <= 4096:
        raise ValueError(f"precision_bits = {precision_bits} is outside 64..4096")
    with mp.workprec(2 * precision_bits + 30):
        check = _volume_once(s)
    with mp.workprec(precision_bits + 30):
        vol = _volume_once(s)
        err = abs(mp.mpf(check) - vol)
        return LatticeApprox(vol, err)


def neron_volume(s: Signature, precision_bits: int = 128) -> mp.mpf:
    """Volume of the minimal-model (Néron) lattice: u(E)^2 * vol(Lambda)."""
    minimal, _u = global_minimal(s)
    return lattice_volume(minimal, precision_bits).volume


def faltings_height(s: Signature, precision_bits: int = 128) -> mp.mpf:
    with mp.workprec(precision_bits + 30):
        return -mp.log(neron_volume(s, precision_bits)) / 2


def _class_signatures(kind: str, t: Optional[RatLike], variant: str):
    if kind == "L3_9":
        sigs = families.l39_signatures(t)
        return list(zip(("E_1", "E_3", "E_9"), sigs))
    if kind == "L2_11":
        cls = families.l211_class(variant)
        return [("E_1", cls.curves[0].sig), ("E_11", cls.curves[1].sig)]
    raise ValueError(
        f"no model-level family for {kind}; pass explicit signatures")


def verify_class(kind: str, t: Optional[RatLike], d: int,
                 precision_bits: int = 128, variant: str = "a",
                 signatures=None) -> HeightReport:
    """Numeric argmin of Faltings heights over the twisted class vs the
    closed-form decision."""
    graphs.check_t(kind, t)
    labelled = signatures or _class_signatures(kind, t, variant)
    rows = []
    for label, sig in labelled:
        tw = twist_sig(sig, d)
        vol = neron_volume(tw, precision_bits)
        with mp.workprec(precision_bits + 30):
            h = -mp.log(vol) / 2
        rows.append(VertexHeight(label, vol, h))
    argmin = min(rows, key=lambda r: r.faltings_height).label
    theorem = graphs.faltings_by_theorem(kind, t, d).vertex
    return HeightReport(tuple(rows), argmin, theorem, argmin == theorem)


# ---------------------------------------------------------------------------
# sieved densities

def _squarefree_mask(n: int) -> bytearray:
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


@dataclass(frozen=True)
class DensityReport:
    p: int
    bound: int
    divisible_fraction: float
    squarefree_density: float


def squarefree_density(p: int, bound: int) -> DensityReport:
    """Among square-free n <= bound: fraction divisible by p, plus the
    overall square-free density (expected 1/(1+p) and 6/pi^2)."""
    _check_prime(p)
    mask = _squarefree_mask(bound)
    total_sf = mask.count(1)
    div = mask[p::p].count(1)
    return DensityReport(p, bound, div / total_sf, total_sf / bound)


def empirical_prob(kind: str, t: Optional[RatLike], bound: int) -> dict:
    """Frequencies, over square-free |d| <= bound, of the vertex chosen
    by the closed-form decision.

    The decision depends on d only through divisibility by the table's
    primes, so each branch is counted with one sieve pass; counting
    positive d suffices because every condition is sign-blind.
    """
    rows = graphs.decision_rows(kind, t)
    mask = _squarefree_mask(bound)
    total = mask.count(1)
    freq: dict = {}
    for cond, vertex in rows:
        if cond.p is None:
            count = total
        else:
            div = mask[cond.p::cond.p].count(1)
            count = div if cond.divisible else total - div
        freq[vertex] = freq.get(vertex, 0.0) + count / total
    return freq
