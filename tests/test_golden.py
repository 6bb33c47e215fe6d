"""Golden outputs of the local tables' public readers.

A SHA-256 over the canonical outputs of ``classify``, ``global_minimal``
and ``global_pal`` on a seeded corpus pins them, raised exceptions
included (type and message).  The digest was computed before the readers
moved from rescaled models and a linear table scan to an index and
residues at scale k; a change to any output, or to any message, changes
it.  If an output changes on purpose, recompute the digest with
``python tests/test_golden.py`` and say why in the change.
"""

import hashlib
import math
import random
from fractions import Fraction

from qtwist.families import l39_signatures
from qtwist.localdata import KodairaSymbol, classify, global_minimal, global_pal
from qtwist.weierstrass import AInvariants, PSignature, Signature, signature_of, transform, twist_sig

DIGEST = "34fb51dc7a8d872da4312bb4f7b278cf610fc049a9b93d0c97070d66fe6a15e8"

N_SIGNATURES = 2000
CLASSIFY_PRIMES = (2, 3, 5, 7, 11)
# every 40th signature is also classified at one of these, for the messages
ODD_P = (1, 4, 9, 13, 10**9 + 7, 0, -3)
SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
                67, 71, 73, 79, 83, 89, 97, 101, 997, 7919, 104729, 999983)
TWISTS = (1, -1, 2, -2, 3, -3, 5, 6, -6, -7, 10, -15)


def _signature(rng: random.Random) -> Signature:
    """A small integral model, an integral (c4, c6) pair of high 2- and
    3-adic valuation, a pair on the rare 2-adic rows (4, 6, *) and
    (6, 9, *), or a member of the level-9 chain; rescaled at 2, 3, 5 and 7
    half the time, and twisted by a small d."""
    while True:
        kind = rng.randrange(5)
        if kind == 0:
            try:
                s = signature_of(AInvariants(*(rng.randint(-60, 60) for _ in range(5))))
            except ValueError:  # singular
                continue
        elif kind < 3:
            a, b = rng.randrange(1, 500, 2), rng.randrange(1, 500, 2)
            if a % 3 == 0 or b % 3 == 0:
                continue
            c4 = rng.choice((1, -1, 0)) * 2 ** rng.randrange(11) * 3 ** rng.randrange(7) * a
            c6 = rng.choice((1, -1)) * 2 ** rng.randrange(15) * 3 ** rng.randrange(10) * b
            if rng.random() < 0.25:
                c4, c6 = c4 * 5 ** rng.randrange(6), c6 * 5 ** rng.randrange(8)
            if c4**3 == c6**2:
                continue
            s = Signature(Fraction(c4), Fraction(c6), Fraction(c4**3 - c6**2, 1728))
        elif kind == 3:
            i, j = rng.choice(((4, 6), (6, 9)))
            c4 = 2**i * rng.randrange(-10**4, 10**4, 2) + 2**i
            c6 = 2**j * rng.randrange(-10**4, 10**4, 2) + 2**j
            if c4**3 == c6**2:
                continue
            s = Signature(Fraction(c4), Fraction(c6), Fraction(c4**3 - c6**2, 1728))
        else:
            t = Fraction(rng.randint(-300, 300), rng.randint(1, 60))
            if t == 0:
                continue
            s = l39_signatures(t)[rng.randrange(3)]
        if rng.random() < 0.5:
            s = transform(s, math.prod(Fraction(p) ** rng.randint(-2, 2) for p in (2, 3, 5, 7)))
        return twist_sig(s, rng.choice(TWISTS))


def _d(rng: random.Random) -> int:
    """Mostly a square-free d with up to four primes, either sign; else any
    integer up to 10^19 in size, which is often not a valid d."""
    if rng.random() < 0.85:
        return rng.choice((1, -1)) * math.prod(rng.sample(SMALL_PRIMES, rng.randrange(5)))
    return rng.choice((1, -1)) * rng.randrange(0, 10 ** rng.randint(1, 19))


def corpus(seed: int = 2024) -> list:
    """[(s, ps, ds)]: each signature with the p to classify it at and the
    four d to give global_pal."""
    rng = random.Random(seed)
    out = []
    for i in range(N_SIGNATURES):
        s = _signature(rng)
        ps = CLASSIFY_PRIMES + ((ODD_P[i // 40 % len(ODD_P)],) if i % 40 == 0 else ())
        out.append((s, ps, [_d(rng) for _ in range(4)]))
    return out


def _canon(x) -> str:
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, Signature):
        return f"sig({x.c4},{x.c6},{x.delta})"
    if isinstance(x, PSignature):
        return f"psig{tuple(x)}"
    if isinstance(x, KodairaSymbol):
        return f"{x.kind}:{x.n}"
    if isinstance(x, frozenset):
        return "{" + ",".join(sorted(x)) + "}"
    if isinstance(x, tuple):
        return "(" + ",".join(_canon(y) for y in x) + ")"
    if callable(x):
        return x.__name__
    return repr(x)


def _outcome(f, *args) -> str:
    try:
        return _canon(f(*args))
    except Exception as e:  # noqa: BLE001  the exception is the output
        return f"!{type(e).__name__}: {e}"


def _classification(s, p):
    c = classify(s, p)
    return (c.p, c.u_p, c.minimal_psig, c.kodaira, c.conditions_fired, c.minimal_sig, c.row_pal)


def outputs(items) -> list:
    """One line per output, in corpus order."""
    lines = []
    for s, ps, ds in items:
        for p in ps:
            lines.append(f"classify {p} " + _outcome(_classification, s, p))
        lines.append("global_minimal " + _outcome(global_minimal, s))
        for d in ds:
            lines.append(f"global_pal {d} " + _outcome(global_pal, s, d))
    return lines


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_outputs_match_the_pinned_digest():
    items = corpus()
    lines = outputs(items)
    counts = {name: sum(line.startswith(name + " ") for line in lines)
              for name in ("classify", "global_minimal", "global_pal")}
    assert counts["classify"] >= 10_000 and counts["global_pal"] == 4 * counts["global_minimal"]
    assert counts["global_minimal"] == N_SIGNATURES
    # the corpus reaches every kind of outcome: each raised exception type,
    # conditions, rescaled models and the row_pal callables
    text = "\n".join(lines)
    for needle in ("!ValueError: p = ", "!ValueError: d = ", "exceeds 10^18", "{2f}", "{3a}", "{3b}",
                   "_pal_666", "_pal_6918"):
        assert needle in text, needle
    assert digest(lines) == DIGEST


if __name__ == "__main__":
    print(digest(outputs(corpus())))
