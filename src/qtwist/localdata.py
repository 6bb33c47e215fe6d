"""Per-prime reduction engine.

Covers: realizability of a (c4, c6) pair by a p-integral Weierstrass model
(Kraus' criterion: Kraus 1989, Acta Arith. 54; Cremona, Algorithms for
Modular Elliptic Curves, section 3.2), the minimal-model scale u_p and
Kodaira symbol via the signature classification tables for p >= 5, p = 3
and p = 2, and the per-prime twist rescaling values u_p(E^d).

The tables are stored as literal row data, the only encoding of the
classification.  At import each table gets an index: a dict from the
capped p-signature to the first row that matches it, so a lookup is one
dict access.  The p-signature is read off the valuations of s at the
largest realizable scale k.  That model is p-minimal by construction, so no
row rescales; a row's 2f/2g condition (which would mean "not minimal" when
false) always holds there.  The conditions read their residues off the
integers of s at scale k, so classifying builds no model: ``classify``
builds the model at scale k for its caller, and ``global_minimal`` builds
one model, for the product of the per-prime scales.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple

from .exactnum import TableMissError, check_d, check_d_primes, prime_factors
from .weierstrass import PSignature, Signature, p_signature, transform


class _KodairaSymbol(NamedTuple):
    kind: str  # one of I0, In, II, III, IV, I0*, In*, IV*, III*, II*
    n: int = 0


class KodairaSymbol(_KodairaSymbol):
    __slots__ = ()

    def __new__(cls, kind: str, n: int = 0) -> "KodairaSymbol":
        if kind == "In" and n < 1:
            raise ValueError("In requires n >= 1")
        if kind == "In*" and n < 0:
            raise ValueError("In* requires n >= 0")
        return tuple.__new__(cls, (kind, n))

    @classmethod
    def _make(cls, iterable) -> "KodairaSymbol":
        # through __new__, so that _replace runs the checks too
        return cls(*iterable)

    @property
    def starred(self) -> bool:
        return self.kind.endswith("*")

    def __str__(self) -> str:
        if self.kind == "In":
            return f"I{self.n}"
        if self.kind == "In*":
            return f"I{self.n}*"
        return self.kind


class LocalClassification(NamedTuple):
    p: int
    u_p: Fraction  # p^k, k in Z
    minimal_psig: PSignature
    kodaira: KodairaSymbol
    conditions_fired: frozenset
    minimal_sig: Signature
    # the matched table row's printed u_p(E^d) columns (its pal entry, see
    # the row format); cross-checked against pal_u in the tests
    row_pal: tuple


# ---------------------------------------------------------------------------
# residues of rationals, read without building the rescaled number

def _res(x: Fraction, p: int, k: int, e: int) -> int:
    """Residue mod p^k of x / p^e (0 if its valuation is at least k), for
    any integer e; ValueError unless x / p^e is p-integral."""
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


# ---------------------------------------------------------------------------
# extra conditions distinguishing Kodaira symbols at p = 3 and p = 2
#
# Each reads the model transform(s, p^k) without building it: c4 and c6 of
# that model are c4 / p^(4k) and c6 / p^(6k), so their residues come off
# the integers of s by _res with the exponent shifted by 4k or 6k.

def cond_3a(s: Signature, k: int) -> bool:
    # (c6/27)^2 + 2 - 3 c4/9 = 0 mod 9
    return (_res(s.c6, 3, 2, 6 * k + 3) ** 2 + 2 - _res(s.c4, 3, 2, 4 * k + 1)) % 9 == 0


def cond_3b(s: Signature, k: int) -> bool:
    # (c6/3^6)^2 + 2 - 3 c4/3^4 = 0 mod 9
    return (_res(s.c6, 3, 2, 6 * k + 6) ** 2 + 2 - _res(s.c4, 3, 2, 4 * k + 3)) % 9 == 0


# -1/3 and -1/27 mod 32: A = -c4/48 = (c4/2^4) * (-1/3), B = -c6/864 = (c6/2^5) * (-1/27)
_MINUS_INV3, _MINUS_INV27 = pow(-3, -1, 32), pow(-27, -1, 32)


def _ab(s: Signature, k: int) -> tuple[int, int]:
    """Residues mod 32 of A = -c4/48 and B = -c6/864, the coefficients of
    the short model y^2 = x^3 + Ax + B at scale k (2-integral at every row
    that asks)."""
    return (_res(s.c4, 2, 5, 4 * k + 4) * _MINUS_INV3 % 32,
            _res(s.c6, 2, 5, 6 * k + 5) * _MINUS_INV27 % 32)


# division polynomials of the short model, evaluated on residues: their
# value mod 2^k depends only on r, A and B mod 2^k
def _psi2(r: int, a: int, b: int) -> int:
    return r**3 + a * r + b


def _psi3(r: int, a: int, b: int) -> int:
    return 3 * r**4 + 6 * a * r**2 + 12 * b * r - a * a


def cond_2a(s: Signature, k: int) -> bool:
    a, b = (x % 4 for x in _ab(s, k))
    return (a == 1 and b in (0, 1)) or (a != 1 and b in (2, 3))


def cond_2b(s: Signature, k: int) -> bool:
    a, b = _ab(s, k)
    return _psi3(a, a, b) % 8 != 0


def _psi3_roots_mod32(a: int, b: int) -> list:
    return [r for r in range(32) if _psi3(r, a, b) % 32 == 0]


def cond_2c(s: Signature, k: int) -> bool:
    # no root of Psi3 mod 32, or every root r has Psi2(r) in {1,8,9,12} mod 16
    a, b = _ab(s, k)
    return all(_psi2(r, a, b) % 16 in (1, 8, 9, 12) for r in _psi3_roots_mod32(a, b))


def cond_2d(s: Signature, k: int) -> bool:
    return all(r % 4 in (1, 2) for r in _psi3_roots_mod32(*_ab(s, k)))


def cond_2e(s: Signature, k: int) -> bool:
    return _res(s.c4, 2, 2, 4 * k + 6) == 3


def cond_2f(s: Signature, k: int) -> bool:
    return _res(s.c6, 2, 2, 6 * k + 6) == 1


def cond_2g(s: Signature, k: int) -> bool:
    return _res(s.c6, 2, 2, 6 * k + 9) == 3


_CONDITIONS = {
    "3a": cond_3a, "3b": cond_3b,
    "2a": cond_2a, "2b": cond_2b, "2c": cond_2c, "2d": cond_2d,
    "2e": cond_2e, "2f": cond_2f, "2g": cond_2g,
}


# ---------------------------------------------------------------------------
# realizability by an integral model (Kraus)

def _kraus(s: Signature, p: int, vc4, vc6, k: int) -> bool:
    """Does the p-integral pair (c4, c6) of transform(s, p^k) come from a
    p-integral model?  vc4 and vc6 are v_p(c4) and v_p(c6) of s.

    Kraus' local criterion: always at p >= 5; at p = 3 iff v3(c6) != 2; at
    p = 2 iff c6 = 3 mod 4, or 16 | c4 and c6 = 0 or 8 mod 32.
    """
    if p >= 5:
        return True
    if p == 3:
        return vc6 - 6 * k != 2
    c6 = _res(s.c6, 2, 5, 6 * k)
    return c6 % 4 == 3 or (vc4 - 4 * k >= 4 and c6 in (0, 8))


# ---------------------------------------------------------------------------
# classification tables
#
# Row format: (pattern, outcome, pal)
#   pattern: component patterns for (v(c4), v(c6), v(Delta));
#            ("e", k) exact, ("g", k) at least k
#   outcome: list of (condition label or None, symbol factory) tried in
#            order -- factories take v(Delta) of the scaled signature, so
#            "6+n"-style rows recover n; a row whose conditions all fail
#            is a table miss
#   pal:     printed u_p(E^d) columns: for p != 2 a pair of exponents of p
#            for (d = 0 mod p, d != 0 mod p); for p = 2 a value triple
#            keyed on d mod 4 (entries may be callables of (sig, d))

def _fix(kind, n=0):
    sym = KodairaSymbol(kind, n)
    return lambda vd: sym


def _In(shift=0):
    return lambda vd: KodairaSymbol("In", vd + shift) if vd + shift else KodairaSymbol("I0")


def _Instar(shift):
    return lambda vd: KodairaSymbol("In*", vd + shift)


TABLE_P_GE5 = [
    ((("e", 0), ("g", 0), ("e", 0)), [(None, _fix("I0"))], (0, 0)),
    ((("g", 0), ("e", 0), ("e", 0)), [(None, _fix("I0"))], (0, 0)),
    ((("g", 0), ("e", 0), ("g", 1)), [(None, _In())], (0, 0)),
    ((("g", 1), ("e", 1), ("e", 2)), [(None, _fix("II"))], (0, 0)),
    ((("e", 1), ("g", 2), ("e", 3)), [(None, _fix("III"))], (0, 0)),
    ((("g", 2), ("e", 2), ("e", 4)), [(None, _fix("IV"))], (0, 0)),
    ((("e", 2), ("g", 3), ("e", 6)), [(None, _fix("In*", 0))], (1, 0)),
    ((("g", 2), ("e", 3), ("e", 6)), [(None, _fix("In*", 0))], (1, 0)),
    ((("e", 2), ("e", 3), ("g", 6)), [(None, _Instar(-6))], (1, 0)),
    ((("g", 3), ("e", 4), ("e", 8)), [(None, _fix("IV*"))], (1, 0)),
    ((("e", 3), ("g", 5), ("e", 9)), [(None, _fix("III*"))], (1, 0)),
    ((("g", 4), ("e", 5), ("e", 10)), [(None, _fix("II*"))], (1, 0)),
]

TABLE_P3 = [
    ((("e", 0), ("e", 0), ("g", 0)), [(None, _In())], (0, 0)),
    ((("e", 1), ("g", 3), ("e", 0)), [(None, _fix("I0"))], (0, 0)),
    ((("g", 2), ("e", 3), ("e", 3)), [("3a", _fix("III")), (None, _fix("II"))], (0, 0)),
    ((("e", 2), ("e", 3), ("e", 4)), [(None, _fix("II"))], (0, 0)),
    ((("e", 2), ("e", 3), ("e", 5)), [(None, _fix("IV"))], (0, 0)),
    ((("e", 2), ("e", 3), ("g", 6)), [(None, _Instar(-6))], (1, 0)),
    ((("e", 2), ("e", 4), ("e", 3)), [(None, _fix("II"))], (0, 0)),
    ((("e", 2), ("g", 5), ("e", 3)), [(None, _fix("III"))], (0, 0)),
    ((("g", 3), ("e", 4), ("e", 5)), [(None, _fix("II"))], (0, 0)),
    ((("e", 3), ("e", 5), ("e", 6)), [(None, _fix("IV"))], (0, 0)),
    ((("e", 3), ("g", 6), ("e", 6)), [(None, _fix("In*", 0))], (1, 0)),
    ((("g", 4), ("e", 5), ("e", 7)), [(None, _fix("IV"))], (0, 0)),
    ((("g", 4), ("e", 6), ("e", 9)), [("3b", _fix("III*")), (None, _fix("IV*"))], (1, 0)),
    ((("e", 4), ("e", 6), ("e", 10)), [(None, _fix("IV*"))], (1, 0)),
    ((("e", 4), ("e", 6), ("e", 11)), [(None, _fix("II*"))], (1, 0)),
    ((("e", 4), ("e", 7), ("e", 9)), [(None, _fix("IV*"))], (1, 0)),
    ((("e", 4), ("g", 8), ("e", 9)), [(None, _fix("III*"))], (1, 0)),
    ((("g", 5), ("e", 7), ("e", 11)), [(None, _fix("IV*"))], (1, 0)),
    ((("e", 5), ("e", 8), ("e", 12)), [(None, _fix("II*"))], (1, 0)),
    ((("g", 6), ("e", 8), ("e", 13)), [(None, _fix("II*"))], (1, 0)),
]


def _pal_666(sig: Signature, d: int) -> Fraction:
    # sig_2 = (>=6, 6, 6), d = 2 mod 4: keyed on c6/2^6 vs d/2 mod 4
    return Fraction(1) if _res(sig.c6, 2, 2, 6) != (d // 2) % 4 else Fraction(2)


def _pal_6918(sig: Signature, d: int) -> Fraction:
    # sig_2 = (6, 9, >=18), d = 2 mod 4: keyed on c6/2^9 vs d/2 mod 4
    return Fraction(4) if _res(sig.c6, 2, 2, 9) != (d // 2) % 4 else Fraction(2)


_H = Fraction(1, 2)

TABLE_P2 = [
    ((("e", 0), ("e", 0), ("g", 0)), [(None, _In())], (1, _H, _H)),
    ((("g", 4), ("e", 3), ("e", 0)), [(None, _fix("I0"))], (1, 1, _H)),
    ((("e", 4), ("e", 5), ("e", 4)),
     [("2a", _fix("II")), ("2b", _fix("III")), (None, _fix("IV"))], (1, 1, 1)),
    ((("e", 4), ("g", 6), ("e", 6)), [("2a", _fix("II")), (None, _fix("III"))], (1, 1, 1)),
    ((("e", 4), ("e", 6), ("e", 7)), [(None, _fix("II"))], (1, 1, 1)),
    ((("e", 4), ("e", 6), ("e", 8)),
     [("2c", _fix("In*", 0)), ("2d", _fix("In*", 1)), (None, _fix("IV*"))], (1, 1, 1)),
    ((("e", 4), ("e", 6), ("e", 9)), [(None, _fix("In*", 0))], (1, 1, 1)),
    ((("e", 4), ("e", 6), ("e", 10)), [("2d", _fix("In*", 2)), (None, _fix("III*"))], (1, 1, 1)),
    ((("e", 4), ("e", 6), ("e", 11)), [("2d", _fix("In*", 3)), (None, _fix("II*"))], (1, 1, 1)),
    ((("e", 4), ("e", 6), ("g", 12)), [("2f", _Instar(-8))], (1, 1, 2)),
    ((("e", 5), ("e", 5), ("e", 4)), [("2a", _fix("II")), (None, _fix("III"))], (1, 1, 1)),
    ((("e", 5), ("e", 6), ("e", 6)), [(None, _fix("II"))], (1, 1, 1)),
    ((("g", 6), ("e", 6), ("e", 6)), [(None, _fix("II"))], (1, _pal_666, 1)),
    ((("e", 5), ("e", 7), ("e", 8)), [(None, _fix("III"))], (1, 1, 1)),
    ((("e", 5), ("g", 8), ("e", 9)), [(None, _fix("III"))], (1, 1, 1)),
    ((("g", 6), ("e", 5), ("e", 4)), [("2a", _fix("II")), (None, _fix("IV"))], (1, 1, 1)),
    ((("e", 6), ("e", 7), ("e", 8)), [("2c", _fix("In*", 0)), (None, _fix("In*", 1))], (1, 1, 1)),
    ((("g", 6), ("e", 8), ("e", 10)), [(None, _fix("In*", 0))], (1, 2, 1)),
    ((("e", 6), ("e", 9), ("e", 13)), [(None, _fix("In*", 2))], (1, 2, 1)),
    ((("e", 6), ("e", 9), ("e", 14)), [(None, _Instar(-10))], (1, 2, 1)),  # (6,9,14+n), n<4
    ((("e", 6), ("e", 9), ("e", 15)), [(None, _Instar(-10))], (1, 2, 1)),
    ((("e", 6), ("e", 9), ("e", 16)), [(None, _Instar(-10))], (1, 2, 1)),
    ((("e", 6), ("e", 9), ("e", 17)), [(None, _Instar(-10))], (1, 2, 1)),
    ((("e", 6), ("e", 9), ("g", 18)), [(None, _Instar(-10))], (1, _pal_6918, 1)),
    ((("e", 6), ("g", 9), ("e", 12)), [("2e", _fix("In*", 2)), (None, _fix("In*", 3))], (1, 2, 1)),
    ((("g", 7), ("e", 7), ("e", 8)), [("2c", _fix("In*", 0)), (None, _fix("IV*"))], (1, 1, 1)),
    ((("e", 7), ("e", 9), ("e", 12)), [(None, _fix("III*"))], (1, 2, 1)),
    ((("e", 7), ("e", 10), ("e", 14)), [(None, _fix("III*"))], (1, 2, 1)),
    ((("e", 7), ("g", 11), ("e", 15)), [(None, _fix("III*"))], (1, 2, 1)),
    ((("g", 8), ("e", 9), ("e", 12)), [("2g", _fix("II*"))], (1, 2, 2)),
    ((("g", 8), ("e", 10), ("e", 14)), [(None, _fix("II*"))], (1, 2, 1)),
]


def _index(table) -> tuple:
    """(caps, index) of a table.  caps holds each valuation's largest
    threshold in the table + 1, and index maps each capped p-signature
    that a row matches to the first such row.  Capping keeps every match:
    an exact pattern is below the cap, and an "at least" pattern starts
    below it."""
    caps = tuple(max(row[0][i][1] for row in table) + 1 for i in range(3))
    index: dict = {}
    for row in table:
        for key in itertools.product(*((k,) if op == "e" else range(k, cap + 1)
                                        for (op, k), cap in zip(row[0], caps))):
            index.setdefault(key, row)
    return caps, index


# keyed by p, with 5 for every p >= 5
_INDEX = {2: _index(TABLE_P2), 3: _index(TABLE_P3), 5: _index(TABLE_P_GE5)}


def _row(p: int, psig: tuple):
    """The first row of p's table that matches the p-signature psig (inf
    for c4 = 0 or c6 = 0), or None."""
    caps, index = _INDEX[min(p, 5)]
    return index.get(tuple(map(min, psig, caps)))


# ---------------------------------------------------------------------------

def _local(s: Signature, p: int) -> tuple:
    """(k, p-signature at scale k as a tuple, row, Kodaira symbol,
    conditions evaluated) of s at p, with no model built.

    k is the largest scale whose model is realizable: the largest k keeping
    transform(s, p^k) p-integral, or one less when Kraus' criterion fails
    there.  One step back always suffices: it raises v3(c6) by 6, and at
    p = 2 it makes 16 | c4 and 64 | c6.  The valuations are taken once, and
    the p-signature at scale k is read off them.  It picks one table row,
    whose conditions are tried in order on the residues of s at scale k.
    """
    vc4, vc6, vd = p_signature(s, p)
    k = min(v // w for v, w in ((vc4, 4), (vc6, 6), (vd, 12)) if v != math.inf)
    if not _kraus(s, p, vc4, vc6, k):
        k -= 1
    # the p-signature at scale k (inf stays inf)
    psig = (vc4 - 4 * k, vc6 - 6 * k, vd - 12 * k)
    row = _row(p, psig)
    if row is None:
        raise TableMissError(f"p={p}: no row for sig_p = {psig}")
    fired: set[str] = set()
    for label, sym in row[1]:
        if label is not None:
            fired.add(label)
        if label is None or _CONDITIONS[label](s, k):
            return k, psig, row, sym(psig[2]), frozenset(fired)
    raise TableMissError(f"p={p}: no condition of the row for sig_p = {psig} holds")


def classify(s: Signature, p: int) -> LocalClassification:
    """Minimal-model scale u_p = p^k, Kodaira symbol, and condition trace.

    k, the matched row and its conditions are as in ``_local``; every
    condition evaluated is recorded in conditions_fired.  The model at
    scale k (s itself at k = 0) is built once, for minimal_sig.
    """
    k, psig, row, sym, fired = _local(s, p)
    u_p = Fraction(p) ** k
    return LocalClassification(
        p=p,
        u_p=u_p,
        minimal_psig=PSignature(*psig),
        kodaira=sym,
        conditions_fired=fired,
        minimal_sig=s if k == 0 else transform(s, u_p),
        row_pal=row[2],
    )


def row_pal_value(c: LocalClassification, d: int) -> Fraction:
    """The matched table row's printed u_p(E^d) entry for this d."""
    if c.p != 2:
        return Fraction(c.p) ** (c.row_pal[0] if d % c.p == 0 else c.row_pal[1])
    entry = c.row_pal[{1: 0, 2: 1, 3: 2}[d % 4]]
    return entry(c.minimal_sig, d) if callable(entry) else Fraction(entry)


def global_minimal(s: Signature) -> tuple[Signature, Fraction]:
    """(minimal signature, u) with u the product of the per-prime scales;
    the signature is s itself when u = 1, else the one model built.

    Only 2, 3, the primes of the denominators and those dividing both
    numerators can scale: at any other p >= 5, v_p(c4) or v_p(c6) is 0, so
    u_p = 1.  Delta is never factored.  ValueError if those numbers do not
    split within ``exactnum.RHO_MAX_STEPS`` (see ``prime_factors``).
    """
    # 2 and 3 always: a pair coprime to p can still fail realizability
    # there, forcing a scale-up (e.g. odd c4 with c6 = 1 mod 4)
    primes = {2, 3}
    primes |= prime_factors(math.gcd(s.c4.numerator, s.c6.numerator))
    primes |= prime_factors(s.c4.denominator * s.c6.denominator)
    u = Fraction(1)
    for p in sorted(primes):
        u *= Fraction(p) ** _local(s, p)[0]
    return (s, u) if u == 1 else (transform(s, u), u)


def pal_u(c: LocalClassification, d: int) -> Fraction:
    """Twist rescaling value u_p(E^d) of the minimal model, at p = c.p."""
    check_d(d)
    return _pal_u(c.p, c.minimal_psig, c.kodaira, c.minimal_sig, 0, d)


def _pal_u(p: int, psig: tuple, kodaira: KodairaSymbol, s: Signature, k: int, d: int) -> Fraction:
    """pal_u at p of the model transform(s, p^k), whose p-signature and
    Kodaira symbol are psig and kodaira, for a d already checked to be a
    square-free integer.  c6 of that model is read off s at scale k."""
    if p != 2:
        if d % p == 0 and kodaira.starred:
            return Fraction(p)
        return Fraction(1)
    vc4, vc6, vd = psig
    if d % 4 == 1:
        return Fraction(1)
    if d % 4 == 2:  # square-free even d; d/2 is an odd integer
        if (vc4, vc6) == (0, 0):
            return Fraction(1, 2)
        if (vc4, vc6) == (6, 9) and vd >= 18 and _res(s.c6 * d, 2, 2, 6 * k + 10) == 3:
            return Fraction(4)
        if vc4 in (4, 5):
            return Fraction(1)
        if vc6 in (3, 5, 7):
            return Fraction(1)
        if vc4 >= 6 and (vc6, vd) == (6, 6) and _res(s.c6 * d, 2, 2, 6 * k + 7) == 3:
            return Fraction(1)
        return Fraction(2)
    # d = 3 mod 4
    if (vc4, vc6) == (0, 0) or (vc4 >= 4 and (vc6, vd) == (3, 0)):
        return Fraction(1, 2)
    if (vc4 == 4 and vc6 == 6 and vd >= 12) or (vc4 >= 8 and (vc6, vd) == (9, 12)):
        return Fraction(2)
    return Fraction(1)


def global_pal(minimal_sig: Signature, d: int) -> Fraction:
    """u(E^d): product of pal_u over the primes dividing 2d (pal_u is 1 at
    every odd p not dividing d)."""
    primes = {2} | check_d_primes(d)
    u = Fraction(1)
    for p in sorted(primes):
        k, psig, _row, sym, _fired = _local(minimal_sig, p)
        u *= _pal_u(p, psig, sym, minimal_sig, k, d)
    return u
