"""End-to-end acceptance checks, one test per shipped claim.

Covers: exact equivalence of the decision tables with the volume argmax
across every branch; the two worked family propositions; numeric height
verification; sieved densities; local-table cross-checks; the level-11
j-map spot values; and the algebraic identity suites.
"""

import math
import random
import time
from fractions import Fraction

import pytest
from mpmath import mp

from qtwist import families, graphs, localdata, oracle, sieve
from qtwist.exactnum import check_d
from qtwist.weierstrass import (
    AInvariants,
    Signature,
    j_invariant,
    signature_of,
    transform,
    twist_sig,
)

from pools import pooled_ts, squarefree_ds
from reference import L211_CURVES, fricke_w9, l39_j, pal_u_rules, x011_j


def test_1_theorem_equals_volume_argmax_everywhere():
    start = time.monotonic()
    checked = 0
    for kind in sorted(graphs.GENUS0):
        for ts in pooled_ts(kind, 50).values():
            for t in ts:
                for row in graphs.prob_table(kind, t):
                    for d in squarefree_ds(row.p, row.divisible, 20):
                        assert graphs.faltings_by_theorem(kind, t, d) == row
                        assert graphs.faltings_by_volumes(kind, t, d) == row.vertex, \
                            (kind, t, d)
                        checked += 1
    for kind in sorted(graphs.GENUS_GE1):
        for row in graphs.prob_table(kind, None):
            for d in squarefree_ds(row.p, row.divisible, 20):
                assert graphs.faltings_by_theorem(kind, None, d) == row
                assert graphs.faltings_by_volumes(kind, None, d) == row.vertex, (kind, d)
                checked += 1
    elapsed = time.monotonic() - start
    assert checked > 50_000
    assert elapsed < 120, f"sweep took {elapsed:.1f}s"


def test_2_l39_proposition():
    expected = {
        1: [("all", "E_1", Fraction(1))],                       # v3(t) <= 0
        3: [("d!=0(3)", "E_1", Fraction(3, 4)),                 # v3(t) = 1
            ("d=0(3)", "E_3", Fraction(1, 4))],
        9: [("d!=0(3)", "E_3", Fraction(3, 4)),                 # v3(t) = 2
            ("d=0(3)", "E_9", Fraction(1, 4))],
        27: [("all", "E_9", Fraction(1))],                      # v3(t) >= 3
    }
    for t, rows in expected.items():
        got = [(r.d_condition, r.vertex, r.probability)
               for r in graphs.prob_table("L3_9", t)]
        assert got == rows, t


def test_3_l211_proposition():
    rows = [(r.d_condition, r.vertex, r.probability)
            for r in graphs.prob_table("L2_11", None)]
    assert rows == [("d!=0(11)", "E_1", Fraction(11, 12)),
                    ("d=0(11)", "E_11", Fraction(1, 12))]
    # printed models: signatures and Kodaira symbols at 11
    expected = {
        "a": (("II", (1, 1, 2)), ("II*", (4, 5, 10))),
        "b": (("III", (1, 2, 3)), ("III*", (3, 5, 9))),
    }
    for variant, pairs in expected.items():
        sigs = families.class_signatures("L2_11", variant=variant)
        for (_, ainvs), sig, (sym, psig) in zip(L211_CURVES[variant], sigs, pairs):
            assert signature_of(AInvariants(*ainvs)) == sig
            c = localdata.classify(sig, 11)
            assert str(c.kodaira) == sym
            assert c.minimal_psig == psig
            assert c.u_p == 1


def test_4_numeric_heights_match_theorem():
    start = time.monotonic()
    regimes = {
        0: [Fraction(n) for n in (1, 2, 4, 5, 7, 8)] + [Fraction(1, 2), Fraction(5, 7)],
        1: [3 * Fraction(n) for n in (1, 2, 4, 5, 7, 8)] + [Fraction(3, 2), Fraction(3, 7)],
        2: [9 * Fraction(n) for n in (1, 2, 4, 5, 7, 8)] + [Fraction(9, 2), Fraction(9, 7)],
        3: [27 * Fraction(n) for n in (1, 2, 4, 5, 7, 8)] + [Fraction(27, 2), Fraction(27, 7)],
    }
    ds = [1, -1, 2, 3, -3, 5, 6, -7, 10, 11, -2, 13, -5, 15, -11]
    min_margin = mp.inf
    for regime_ts in regimes.values():
        pairs = [(t, d) for t in regime_ts for d in ds][:30]
        assert len(pairs) == 30
        for t, d in pairs:
            rep = oracle.verify_class("L3_9", t, d, precision_bits=128)
            assert rep.match, (t, d)
            vols = sorted((v.neron_volume for v in rep.vertices), reverse=True)
            min_margin = min(min_margin, vols[0] / vols[1])
    for variant in ("a", "b"):
        for d in (1, -1, 2, -3, 5, 7, 11, -11, 22, 33):
            rep = oracle.verify_class("L2_11", None, d, precision_bits=128,
                                      variant=variant)
            assert rep.match, (variant, d)
            vols = sorted((v.neron_volume for v in rep.vertices), reverse=True)
            min_margin = min(min_margin, vols[0] / vols[1])
    elapsed = time.monotonic() - start
    assert min_margin >= 3 - 1e-6, f"margin {min_margin}"
    assert elapsed < 60, f"verification took {elapsed:.1f}s"


def test_5_lemma1_densities():
    bound = 10**6
    for p in (2, 3, 5, 7, 11):
        rep = sieve.squarefree_density(p, bound)
        target = 1 / (1 + p)
        assert abs(rep.divisible_fraction - target) <= 0.005 * target, p
    rep = sieve.squarefree_density(2, bound)
    target = float(6 / mp.pi**2)
    assert abs(rep.squarefree_density - target) <= 0.005 * target


def test_6_empirical_probabilities():
    # five cells together exhibiting the printed 2/3, 3/4, 5/6, 11/12, 1/4
    cells = [
        ("T4", 8, Fraction(2, 3)),
        ("L3_9", 3, Fraction(3, 4)),
        ("L3_9", 45, Fraction(1, 4)),
        ("L2_5", 5, Fraction(5, 6)),
        ("L2_11", None, Fraction(11, 12)),
    ]
    for kind, t, wanted in cells:
        rows = graphs.prob_table(kind, t)
        matching = [r for r in rows if r.probability == wanted]
        assert matching, (kind, t, wanted, rows)
        freqs = sieve.empirical_prob(kind, t, 10**5)
        for r in rows:
            assert abs(freqs[r.vertex] - float(r.probability)) <= 0.01, (kind, t, r)


def _random_signatures(p, count, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        alpha, beta = rng.randrange(0, 9), rng.randrange(0, 10)
        a = rng.randrange(1, 500)
        b = rng.randrange(1, 500)
        if a % p == 0 or b % p == 0:
            continue
        c4 = rng.choice((1, -1)) * p**alpha * a
        c6 = rng.choice((1, -1)) * p**beta * b
        delta = Fraction(c4**3 - c6**2, 1728)
        if delta == 0:
            continue
        out.append(Signature(c4, c6, delta))
    return out


def test_7_pal_table_cross_checks():
    ds_by_p = {
        2: (1, 5, -3, 2, -2, 6, 3, -1, 7),
        3: (3, -3, 6, 1, -1, 2, 5, 7),
        5: (5, -5, 10, 1, 2, -3, 7),
        7: (7, -7, 14, 1, 2, 3, -5),
        13: (13, -13, 26, 1, 2, -3, 5),
    }
    for block, primes in (("p>=5", (5, 7, 13)), ("p=3", (3,)), ("p=2", (2,))):
        per_prime = max(1, 200 // len(primes)) + 1
        total = 0
        for p in primes:
            for i, s in enumerate(_random_signatures(p, per_prime, seed=1000 + p)):
                c = localdata.classify(s, p)
                # the row-embedded u_p(E^d) columns against the derived rules
                for d in ds_by_p[p]:
                    # square-free: the distinct primes of d multiply to |d|
                    assert math.prod(check_d(d)) == abs(d)
                    got = localdata.pal_u(c, d)
                    want = pal_u_rules(c, d)
                    assert got == want, (block, p, s, d, got, want)
                # Kodaira idempotence on the same corpus
                again = localdata.classify(transform(c.sig, c.u_p), p)
                assert again.u_p == 1, (p, s)
                assert str(again.kodaira) == str(c.kodaira), (p, s)
                total += 1
        assert total >= 200, block


def test_8_x011_spot_values():
    assert x011_j(5, 5) == -(2**15)
    assert x011_j(5, -6) == -(11**2)
    label, ainvs = L211_CURVES["a"][0]
    assert label == "121.a2"
    assert j_invariant(signature_of(AInvariants(*ainvs))) == -11 * 131**3


def test_9_identity_suites():
    rng = random.Random(99)
    seen = 0
    while seen < 50:
        t = Fraction(rng.randrange(-10**4, 10**4), rng.randrange(1, 200))
        if t == 0:
            continue
        seen += 1
        for s in families.class_signatures("L3_9", t):
            assert s.c4**3 - s.c6**2 == 1728 * s.delta
        # Fricke symmetry: j_1(27/t) = j_9(t)
        assert l39_j(1, fricke_w9(t)) == l39_j(9, t)
    for variant in ("a", "b"):
        for s in families.class_signatures("L2_11", variant=variant):
            assert s.c4**3 - s.c6**2 == 1728 * s.delta
    # volume transformation law
    s = signature_of(AInvariants(0, -1, 1, -10, -20))
    base = oracle.lattice_volume(s, 96).volume
    for u in (Fraction(2), Fraction(1, 3), Fraction(7, 5), Fraction(11)):
        scaled = oracle.lattice_volume(transform(s, u), 96).volume
        target = base * mp.mpf(u.numerator) ** 2 / mp.mpf(u.denominator) ** 2
        assert abs(scaled - target) <= 1e-9
