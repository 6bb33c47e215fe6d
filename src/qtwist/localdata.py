"""Per-prime reduction engine.

Covers: realizability of a (c4, c6) pair by a p-integral Weierstrass model
(Kraus' criterion: Kraus 1989, Acta Arith. 54; Cremona, Algorithms for
Modular Elliptic Curves, section 3.2), the minimal-model scale u_p and
Kodaira symbol via the signature classification tables for p >= 5, p = 3
and p = 2, and the per-prime twist rescaling values u_p(E^d).

The tables are stored as literal row data, the only encoding of the
classification and of u_p(E^d), whose printed column ``pal_u`` reads (the
tests check it against ``pal_u_rules`` in ``tests/reference.py``).  Each
Kodaira outcome is a plain (condition label, kind, n) entry, checked at
import to give a valid ``KodairaSymbol`` (else TableMissError).  At import
each table gets an index: a dict from the capped p-signature to the first
row that matches it, so a lookup is one dict access.  ``_scale`` reads
the largest realizable scale k, and the p-signature there, off the
valuations of s and Kraus' criterion alone.  That model is p-minimal by
construction, so no row rescales; a row's 2f/2g condition (which would
mean "not minimal" when false) always holds there.  The conditions read
their residues off the integers of s at scale k with ``exactnum.residue``,
so classifying builds no model.  ``classify`` gives the answer at p as one
``LocalClassification``, which ``global_pal`` reads too.
``global_minimal`` reads only the scales, so it runs no table, and builds
one model, for the product of the per-prime scales.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple

from .exactnum import TableMissError, check_d, prime_factors, residue
from .weierstrass import PSignature, Signature, p_signature, transform


# I0* is ("In*", 0)
KINDS = ("I0", "In", "II", "III", "IV", "In*", "IV*", "III*", "II*")


class KodairaSymbol(NamedTuple):
    kind: str  # one of KINDS
    n: int = 0

    def __str__(self) -> str:
        if self.kind == "In":
            return f"I{self.n}"
        if self.kind == "In*":
            return f"I{self.n}*"
        return self.kind


class LocalClassification(NamedTuple):
    """The one answer of ``classify``: the minimal-model scale u_p = p^k
    of sig at p, its p-signature and Kodaira symbol, the conditions
    evaluated and the matched table row's pal entry (see the row format),
    which ``pal_u`` reads."""
    p: int
    k: int
    minimal_psig: PSignature
    kodaira: KodairaSymbol
    conditions_fired: frozenset
    row_pal: tuple
    sig: Signature

    @property
    def u_p(self) -> Fraction:
        return Fraction(self.p) ** self.k


# ---------------------------------------------------------------------------
# extra conditions distinguishing Kodaira symbols at p = 3 and p = 2
#
# Each reads the model transform(s, p^k) without building it: c4 and c6 of
# that model are c4 / p^(4k) and c6 / p^(6k), so their residues come off
# the integers of s by ``residue`` with the exponent shifted by 4k or 6k.

def cond_3a(s: Signature, k: int) -> bool:
    # (c6/27)^2 + 2 - 3 c4/9 = 0 mod 9
    return (residue(s.c6, 3, 2, 6 * k + 3) ** 2 + 2 - residue(s.c4, 3, 2, 4 * k + 1)) % 9 == 0


def cond_3b(s: Signature, k: int) -> bool:
    # (c6/3^6)^2 + 2 - 3 c4/3^4 = 0 mod 9
    return (residue(s.c6, 3, 2, 6 * k + 6) ** 2 + 2 - residue(s.c4, 3, 2, 4 * k + 3)) % 9 == 0


# -1/3 and -1/27 mod 32: A = -c4/48 = (c4/2^4) * (-1/3), B = -c6/864 = (c6/2^5) * (-1/27)
_MINUS_INV3, _MINUS_INV27 = pow(-3, -1, 32), pow(-27, -1, 32)


def _ab(s: Signature, k: int) -> tuple[int, int]:
    """Residues mod 32 of A = -c4/48 and B = -c6/864, the coefficients of
    the short model y^2 = x^3 + Ax + B at scale k (2-integral at every row
    that asks)."""
    return (residue(s.c4, 2, 5, 4 * k + 4) * _MINUS_INV3 % 32,
            residue(s.c6, 2, 5, 6 * k + 5) * _MINUS_INV27 % 32)


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
    return residue(s.c4, 2, 2, 4 * k + 6) == 3


def cond_2f(s: Signature, k: int) -> bool:
    return residue(s.c6, 2, 2, 6 * k + 6) == 1


def cond_2g(s: Signature, k: int) -> bool:
    return residue(s.c6, 2, 2, 6 * k + 9) == 3


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
    c6 = residue(s.c6, 2, 5, 6 * k)
    return c6 % 4 == 3 or (vc4 - 4 * k >= 4 and c6 in (0, 8))


# ---------------------------------------------------------------------------
# classification tables
#
# Row format: (pattern, outcome, pal)
#   pattern: component patterns for (v(c4), v(c6), v(Delta));
#            ("e", k) exact, ("g", k) at least k
#   outcome: list of (condition label or None, kind, n) tried in order;
#            n is the symbol's n at the row's least v(Delta), and classify
#            adds v(Delta) minus that least, which is 0 on an exact row, so
#            ("2d", "In*", 1) is I1* and (None, "In*", 0) on ("g", 6) is
#            I(v(Delta) - 6)*; a row whose conditions all fail is a table
#            miss.  ``_index`` checks every outcome at import.
#   pal:     printed u_p(E^d) columns, the values ``pal_u`` returns: for
#            p != 2 a pair of exponents of p for (d = 0 mod p,
#            d != 0 mod p); for p = 2 a value triple for d = 1, 2, 3 mod 4,
#            where a cell may be a rule (e, u_same, u_other): u_same if
#            c6/2^e of the model at scale k is d/2 mod 4, else u_other,
#            read off s as the conditions do; no cell is a function

TABLE_P_GE5 = [
    ((("e", 0), ("g", 0), ("e", 0)), [(None, "I0", 0)], (0, 0)),
    ((("g", 0), ("e", 0), ("e", 0)), [(None, "I0", 0)], (0, 0)),
    ((("g", 0), ("e", 0), ("g", 1)), [(None, "In", 1)], (0, 0)),
    ((("g", 1), ("e", 1), ("e", 2)), [(None, "II", 0)], (0, 0)),
    ((("e", 1), ("g", 2), ("e", 3)), [(None, "III", 0)], (0, 0)),
    ((("g", 2), ("e", 2), ("e", 4)), [(None, "IV", 0)], (0, 0)),
    ((("e", 2), ("g", 3), ("e", 6)), [(None, "In*", 0)], (1, 0)),
    ((("g", 2), ("e", 3), ("e", 6)), [(None, "In*", 0)], (1, 0)),
    ((("e", 2), ("e", 3), ("g", 6)), [(None, "In*", 0)], (1, 0)),
    ((("g", 3), ("e", 4), ("e", 8)), [(None, "IV*", 0)], (1, 0)),
    ((("e", 3), ("g", 5), ("e", 9)), [(None, "III*", 0)], (1, 0)),
    ((("g", 4), ("e", 5), ("e", 10)), [(None, "II*", 0)], (1, 0)),
]

TABLE_P3 = [
    ((("e", 0), ("e", 0), ("e", 0)), [(None, "I0", 0)], (0, 0)),
    ((("e", 0), ("e", 0), ("g", 1)), [(None, "In", 1)], (0, 0)),
    ((("e", 1), ("g", 3), ("e", 0)), [(None, "I0", 0)], (0, 0)),
    ((("g", 2), ("e", 3), ("e", 3)), [("3a", "III", 0), (None, "II", 0)], (0, 0)),
    ((("e", 2), ("e", 3), ("e", 4)), [(None, "II", 0)], (0, 0)),
    ((("e", 2), ("e", 3), ("e", 5)), [(None, "IV", 0)], (0, 0)),
    ((("e", 2), ("e", 3), ("g", 6)), [(None, "In*", 0)], (1, 0)),
    ((("e", 2), ("e", 4), ("e", 3)), [(None, "II", 0)], (0, 0)),
    ((("e", 2), ("g", 5), ("e", 3)), [(None, "III", 0)], (0, 0)),
    ((("g", 3), ("e", 4), ("e", 5)), [(None, "II", 0)], (0, 0)),
    ((("e", 3), ("e", 5), ("e", 6)), [(None, "IV", 0)], (0, 0)),
    ((("e", 3), ("g", 6), ("e", 6)), [(None, "In*", 0)], (1, 0)),
    ((("g", 4), ("e", 5), ("e", 7)), [(None, "IV", 0)], (0, 0)),
    ((("g", 4), ("e", 6), ("e", 9)), [("3b", "III*", 0), (None, "IV*", 0)], (1, 0)),
    ((("e", 4), ("e", 6), ("e", 10)), [(None, "IV*", 0)], (1, 0)),
    ((("e", 4), ("e", 6), ("e", 11)), [(None, "II*", 0)], (1, 0)),
    ((("e", 4), ("e", 7), ("e", 9)), [(None, "IV*", 0)], (1, 0)),
    ((("e", 4), ("g", 8), ("e", 9)), [(None, "III*", 0)], (1, 0)),
    ((("g", 5), ("e", 7), ("e", 11)), [(None, "IV*", 0)], (1, 0)),
    ((("e", 5), ("e", 8), ("e", 12)), [(None, "II*", 0)], (1, 0)),
    ((("g", 6), ("e", 8), ("e", 13)), [(None, "II*", 0)], (1, 0)),
]


_H = Fraction(1, 2)

TABLE_P2 = [
    ((("e", 0), ("e", 0), ("e", 0)), [(None, "I0", 0)], (1, _H, _H)),
    ((("e", 0), ("e", 0), ("g", 1)), [(None, "In", 1)], (1, _H, _H)),
    ((("g", 4), ("e", 3), ("e", 0)), [(None, "I0", 0)], (1, 1, _H)),
    ((("e", 4), ("e", 5), ("e", 4)),
     [("2a", "II", 0), ("2b", "III", 0), (None, "IV", 0)], (1, 1, 1)),
    ((("e", 4), ("g", 6), ("e", 6)), [("2a", "II", 0), (None, "III", 0)], (1, 1, 1)),
    ((("e", 4), ("e", 6), ("e", 7)), [(None, "II", 0)], (1, 1, 1)),
    ((("e", 4), ("e", 6), ("e", 8)),
     [("2c", "In*", 0), ("2d", "In*", 1), (None, "IV*", 0)], (1, 1, 1)),
    ((("e", 4), ("e", 6), ("e", 9)), [(None, "In*", 0)], (1, 1, 1)),
    ((("e", 4), ("e", 6), ("e", 10)), [("2d", "In*", 2), (None, "III*", 0)], (1, 1, 1)),
    ((("e", 4), ("e", 6), ("e", 11)), [("2d", "In*", 3), (None, "II*", 0)], (1, 1, 1)),
    ((("e", 4), ("e", 6), ("g", 12)), [("2f", "In*", 4)], (1, 1, 2)),
    ((("e", 5), ("e", 5), ("e", 4)), [("2a", "II", 0), (None, "III", 0)], (1, 1, 1)),
    ((("e", 5), ("e", 6), ("e", 6)), [(None, "II", 0)], (1, 1, 1)),
    ((("g", 6), ("e", 6), ("e", 6)), [(None, "II", 0)], (1, (6, 2, 1), 1)),
    ((("e", 5), ("e", 7), ("e", 8)), [(None, "III", 0)], (1, 1, 1)),
    ((("e", 5), ("g", 8), ("e", 9)), [(None, "III", 0)], (1, 1, 1)),
    ((("g", 6), ("e", 5), ("e", 4)), [("2a", "II", 0), (None, "IV", 0)], (1, 1, 1)),
    ((("e", 6), ("e", 7), ("e", 8)), [("2c", "In*", 0), (None, "In*", 1)], (1, 1, 1)),
    ((("g", 6), ("e", 8), ("e", 10)), [(None, "In*", 0)], (1, 2, 1)),
    ((("e", 6), ("e", 9), ("e", 13)), [(None, "In*", 2)], (1, 2, 1)),
    ((("e", 6), ("e", 9), ("e", 14)), [(None, "In*", 4)], (1, 2, 1)),
    ((("e", 6), ("e", 9), ("e", 15)), [(None, "In*", 5)], (1, 2, 1)),
    ((("e", 6), ("e", 9), ("e", 16)), [(None, "In*", 6)], (1, 2, 1)),
    ((("e", 6), ("e", 9), ("e", 17)), [(None, "In*", 7)], (1, 2, 1)),
    ((("e", 6), ("e", 9), ("g", 18)), [(None, "In*", 8)], (1, (9, 2, 4), 1)),
    ((("e", 6), ("g", 9), ("e", 12)), [("2e", "In*", 2), (None, "In*", 3)], (1, 2, 1)),
    ((("g", 7), ("e", 7), ("e", 8)), [("2c", "In*", 0), (None, "IV*", 0)], (1, 1, 1)),
    ((("e", 7), ("e", 9), ("e", 12)), [(None, "III*", 0)], (1, 2, 1)),
    ((("e", 7), ("e", 10), ("e", 14)), [(None, "III*", 0)], (1, 2, 1)),
    ((("e", 7), ("g", 11), ("e", 15)), [(None, "III*", 0)], (1, 2, 1)),
    ((("g", 8), ("e", 9), ("e", 12)), [("2g", "II*", 0)], (1, 2, 2)),
    ((("g", 8), ("e", 10), ("e", 14)), [(None, "II*", 0)], (1, 2, 1)),
]


def _index(table) -> tuple:
    """(caps, index) of a table.  caps holds each valuation's largest
    threshold in the table + 1, and index maps each capped p-signature
    that a row matches to the first such row.  Capping keeps every match:
    an exact pattern is below the cap, and an "at least" pattern starts
    below it.

    TableMissError unless each outcome is a triple of a known condition, a
    known kind and an int n: at least 1 for In, at least 0 for In*, else 0
    on an exact v(Delta) row.  So every symbol classify builds is valid.
    """
    caps = tuple(max(row[0][i][1] for row in table) + 1 for i in range(3))
    index: dict = {}
    for row in table:
        for outcome in row[1]:
            # not a triple: refused below as an unknown kind, not left to
            # the unpacking, whose ValueError the CLI reports as bad input
            label, kind, n = outcome if len(outcome) == 3 else (None, None, None)
            least = {"In": 1, "In*": 0}.get(kind)  # None: n is 0, v(Delta) exact
            if (label not in (None, *_CONDITIONS) or kind not in KINDS or type(n) is not int
                    or (n < least if least is not None else n != 0 or row[0][2][0] == "g")):
                raise TableMissError(f"row {row[0]}: outcome {outcome} is not a valid "
                                     f"Kodaira symbol")
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

def _scale(s: Signature, p: int) -> tuple[int, tuple]:
    """(k, p-signature at scale k) for the minimal-model scale u_p = p^k:
    the largest k keeping transform(s, p^k) p-integral, or one less when
    Kraus' criterion fails there.  One step back always suffices: it raises
    v3(c6) by 6, and at p = 2 it makes 16 | c4 and 64 | c6.  The valuations
    are taken once, and no table is read."""
    vc4, vc6, vd = p_signature(s, p)
    k = min(v // w for v, w in ((vc4, 4), (vc6, 6), (vd, 12)) if v != math.inf)
    if not _kraus(s, p, vc4, vc6, k):
        k -= 1
    # the p-signature at scale k (inf stays inf)
    return k, (vc4 - 4 * k, vc6 - 6 * k, vd - 12 * k)


def classify(s: Signature, p: int) -> LocalClassification:
    """Minimal-model scale u_p = p^k and p-signature from ``_scale``, Kodaira
    symbol, and condition trace.  The p-signature picks one table row, whose
    conditions are tried in order on the residues of s at scale k; every
    condition evaluated is recorded in conditions_fired.  No model is built
    (transform(c.sig, c.u_p) is the one at scale k)."""
    k, psig = _scale(s, p)
    row = _row(p, psig)
    if row is None:
        raise TableMissError(f"p={p}: no row for sig_p = {psig}")
    fired: set[str] = set()
    for label, kind, n in row[1]:
        if label is not None:
            fired.add(label)
        if label is None or _CONDITIONS[label](s, k):
            sym = KodairaSymbol(kind, n + psig[2] - row[0][2][1])
            return LocalClassification(p, k, PSignature(*psig), sym, frozenset(fired), row[2], s)
    raise TableMissError(f"p={p}: no condition of the row for sig_p = {psig} holds")


def global_minimal(s: Signature) -> tuple[Signature, Fraction]:
    """(minimal signature, u) with u the product of the per-prime scales;
    the signature is s itself when u = 1, else the one model built.

    Each u_p comes from ``_scale``, so no table row is read.  Only 2, 3,
    the primes of the denominators and those dividing both numerators can
    scale: at any other p >= 5, v_p(c4) or v_p(c6) is 0, so u_p = 1.
    Delta is never factored.  ValueError if those numbers do not split
    within ``exactnum.RHO_MAX_STEPS`` (see ``prime_factors``).
    """
    # 2 and 3 always: a pair coprime to p can still fail realizability
    # there, forcing a scale-up (e.g. odd c4 with c6 = 1 mod 4)
    primes = {2, 3}
    primes |= prime_factors(math.gcd(s.c4.numerator, s.c6.numerator))
    primes |= prime_factors(s.c4.denominator * s.c6.denominator)
    num = den = 1  # of u, in integers
    for p in sorted(primes):
        k = _scale(s, p)[0]
        num, den = (num * p**k, den) if k >= 0 else (num, den * p**-k)
    u = Fraction(num, den)
    return (s, u) if num == den else (transform(s, u), u)


def pal_u(c: LocalClassification, d: int) -> Fraction:
    """Twist rescaling value u_p(E^d) of the minimal model, at p = c.p: the
    matched row's printed pal entry for d, which must be a square-free
    integer (``global_pal`` checks it; d = 0 mod 4 reads the 3 mod 4 entry)."""
    if c.p != 2:
        return Fraction(c.p ** (c.row_pal[0] if d % c.p == 0 else c.row_pal[1]))
    entry = c.row_pal[d % 4 - 1]
    if type(entry) is tuple:
        e, same, other = entry
        entry = same if residue(c.sig.c6, 2, 2, 6 * c.k + e) == d // 2 % 4 else other
    return Fraction(entry)


def global_pal(minimal_sig: Signature, d: int) -> Fraction:
    """u(E^d): product of pal_u over the primes dividing 2d (every odd-p
    row prints 1 for p not dividing d)."""
    u = Fraction(1)
    for p in sorted({2} | check_d(d)):
        u *= pal_u(classify(minimal_sig, p), d)
    return u
