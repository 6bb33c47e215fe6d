"""The four benchmark workloads: seeded input generators, the timed
operation, the correctness check run after it, and the input properties
each run reports.

Every workload produces its inputs in fixed-size blocks. Block ``b`` of a
run is a pure function of ``(seed, b)``, so two commits measured with the
same seed and length see identical inputs. Each block mixes its input
classes in fixed proportions, which keeps the cost of a run from swinging
with the luck of the draw.

Generators never call sympy: ``sympy.factorint`` caches factors in a
process-wide LRU, and factoring an input before it is measured would make
the measured call cheaper than it is for a user.
"""

from __future__ import annotations

import functools
import io
import json
import math
import random
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# ---------------------------------------------------------------------------
# helpers shared by the generators

_SMALL_PRIMES = [p for p in range(2, 1001) if all(p % q for q in range(2, math.isqrt(p) + 1))]


def is_squarefree(n: int) -> bool:
    """Square-free test for 1 <= |n| <= 10^9, independent of the library.

    Strips every prime up to 1000 (the cube root of 10^9); what is left has
    at most two prime factors, so it is square-full only if it is a square.
    """
    n = abs(n)
    if not 1 <= n <= 10**9:
        raise ValueError("is_squarefree handles 1 <= |n| <= 10^9")
    for p in _SMALL_PRIMES:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return False
    r = math.isqrt(n)
    return n == 1 or r * r != n


def log_uniform_d(rng: random.Random, hi: float, factor: int = 1, coprime_to: int = 1) -> int:
    """Square-free d = factor * d', sign random, |d'| log-uniform in [1, hi/factor]."""
    while True:
        core = int(10 ** rng.uniform(0, math.log10(hi / factor)))
        if core < 1 or math.gcd(core, coprime_to * factor) != 1:
            continue
        d = factor * core
        if is_squarefree(d):
            return d * rng.choice((1, -1))


def strip(n: int, primes) -> int:
    for p in primes:
        while n % p == 0:
            n //= p
    return n


def height_digits(x: Fraction) -> int:
    """Decimal digits of max(|numerator|, denominator)."""
    return len(str(max(abs(x.numerator), x.denominator)))


def d_bucket(d: int) -> str:
    a = abs(d)
    return "d_lt1e3" if a < 10**3 else "d_lt1e6" if a < 10**6 else "d_le1e9"


def delta_bucket(digits: int) -> str:
    return "delta_le12" if digits <= 12 else "delta_13_24" if digits <= 24 else "delta_25plus"


def shares(counts: dict) -> dict:
    total = sum(counts.values())
    return {k: round(v / total, 4) for k, v in sorted(counts.items())}


class Workload:
    """One workload. Subclasses define the block generator, the operation
    and its check. A run of ``--seconds s`` makes ``rate * s`` operations
    (in whole blocks), so the operation count and the inputs stay fixed
    when the program gets faster or slower. ``rate`` is the throughput at
    the commit that defined the benchmark, raised where the tail
    percentile needs more samples, and set below it where the checks
    take long, so that the benchmark's runs fit its time budget."""

    name = ""
    block_size = 1
    rate = 1.0
    tail_pct = 90.0  # fixed so that a faster program keeps the same percentile

    def __init__(self, seed: int):
        self.seed = seed
        self._used: set = set()

    def rng(self, block: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{block}")

    def n_blocks(self, seconds: float) -> int:
        return max(1, round(self.rate * seconds / self.block_size))

    def setup(self) -> None:
        """Imports plus one warm-up operation on an input no block can produce."""
        raise NotImplementedError

    def block(self, b: int) -> list:
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> str | None:
        """None if the output is right, else a one-line reason."""
        raise NotImplementedError

    def tag(self, inp) -> dict:
        """Size-bucket labels of one input, reported as shares per run."""
        return {}

    def finish(self) -> dict:
        """Run-level properties, computed after the last check."""
        return {}


# ---------------------------------------------------------------------------
# decide: the closed-form Faltings decision and its volume re-derivation

# Number of decision branches per genus-0 type (distinct rows of prob_table).
DECIDE_BRANCHES = {
    "L2_2": 4, "L2_3": 4, "L2_5": 4, "L2_7": 3, "L2_13": 2, "L3_9": 4, "L3_25": 2,
    "T4": 6, "T6": 4, "T8": 4, "R4_6": 6, "R4_10": 6, "R6": 4, "S8": 6,
}


class Decide(Workload):
    name = "decide"
    block_size = 250
    rate = 7000.0
    # p99.9 (about 150 samples beyond) moved 20-50 % between runs of one
    # seed on a shared 2-core machine; p99 stays within the bound
    tail_pct = 99.0

    def setup(self):
        from qtwist import graphs
        self.graphs = graphs
        self.genus0 = sorted(graphs.GENUS0)
        self.genus1 = sorted(graphs.GENUS_GE1)
        self.primes = {k: graphs.graph_type(k).primes for k in self.genus0}
        self._covered: dict = {}
        self._genus1_seen: set = set()
        self.warmup = ("L3_9", Fraction(45), 3)  # excluded from every block
        self.run(self.warmup)

    def _draw_t(self, rng, kind) -> Fraction:
        primes = self.primes[kind]
        while True:
            if kind == "L2_2" and rng.random() < 0.25:
                # v_2(t) = 6 with v_2(t + 64) = 6 + j pins the ambiguous branch
                t = Fraction(64 * (rng.randrange(1, 200, 2) * 2 ** rng.randrange(1, 10) - 1))
            elif kind == "L2_3" and rng.random() < 0.25:
                c = rng.choice([c for c in range(1, 60) if c % 3])
                t = Fraction(27 * (c * 3 ** rng.randrange(1, 13) - 1))
            else:
                num = strip(rng.randrange(1, 10 ** rng.randint(1, 6)), primes)
                den = strip(rng.randrange(1, 10 ** rng.randint(1, 3)), primes)
                t = Fraction(num * rng.choice((1, -1)), den)
                # half the draws keep every valuation in -1..2, where the
                # two-prime types need v_p = 0 or 1 at both primes at once
                lo, hi = (-1, 2) if rng.random() < 0.5 else (-3, 10)
                for p in primes:
                    t *= Fraction(p) ** rng.randint(lo, hi)
            if t != 0 and not (kind == "L2_2" and t == -64) and not (kind == "L2_3" and t == -27):
                return t

    def block(self, b):
        rng = self.rng(b)
        out = []
        while len(out) < self.block_size:
            if len(out) < self.block_size * 4 // 5:
                kind = rng.choice(self.genus0)
                t = self._draw_t(rng, kind)
                primes = self.primes[kind]
            else:
                kind, t = rng.choice(self.genus1), None
                primes = self.graphs.graph_type(kind).primes
            # every other query twists by a type prime, so both sides of
            # each d-condition are hit
            factor = rng.choice(primes) if rng.random() < 0.5 else 1
            d = log_uniform_d(rng, 1e9, factor)
            if (kind, t, d) != self.warmup:
                out.append((kind, t, d))
        rng.shuffle(out)
        return out

    def run(self, inp):
        kind, t, d = inp
        return (self.graphs.faltings_by_theorem(kind, t, d).vertex,
                self.graphs.faltings_by_volumes(kind, t, d))

    def check(self, inp, out):
        theorem, volumes = out
        if theorem != volumes:
            return f"{inp}: decision row {theorem} != volume argmax {volumes}"
        # branch coverage bookkeeping (prob_table rows identify the branch)
        kind, t, _d = inp
        if kind not in DECIDE_BRANCHES:
            self._genus1_seen.add(kind)
        elif len(self._covered.get(kind, ())) < DECIDE_BRANCHES[kind]:
            rows = tuple((r.vertex, r.d_condition) for r in self.graphs.prob_table(kind, t))
            self._covered.setdefault(kind, set()).add(rows)
        return None

    def tag(self, inp):
        kind, _t, d = inp
        return {"genus": "genus0" if kind in DECIDE_BRANCHES else "genus_ge1",
                "abs_d": d_bucket(d), "sign_d": "neg" if d < 0 else "pos"}

    def finish(self):
        covered = sum(len(v) for v in self._covered.values())
        return {"genus0_branches_covered": f"{covered}/{sum(DECIDE_BRANCHES.values())}",
                "genus_ge1_types": len(self._genus1_seen)}


# ---------------------------------------------------------------------------
# minimal: global minimal model, then the twist scale of a fresh twist

# log10 of the height of t per chain member, chosen so that Delta spans
# about 5 to 35 digits. E_1 and E_9 have an irreducible sextic c6, which
# sympy must factor whole. For E_1 its numerator has twice the digits of
# Delta, and at Delta ~ 33 digits single global_minimal calls took 22-23 s,
# longer than a whole run; so E_1 stops at height 10^5 (c6 ~ 30 digits)
# and E_9 at 10^3 (c6 ~ 22 digits), where the slowest calls take ~0.5 s.
MINIMAL_LOGH = {1: (1.0, 5.0), 3: (1.0, 3.9), 9: (1.0, 3.0)}


class Minimal(Workload):
    name = "minimal"
    block_size = 12
    rate = 45.0
    # p95 sits where the cost of the tall strata climbs steeply (p90 ~ 12 ms,
    # p98 ~ 100 ms) and moved 70 % between seeds; p90 is on the flat part
    tail_pct = 90.0

    def setup(self):
        from qtwist import families, localdata, weierstrass
        self.families, self.localdata, self.weierstrass = families, localdata, weierstrass
        # the warm-up t is excluded from every block
        self._used.add(Fraction(7, 2))
        s = families.l39_signatures(Fraction(7, 2))[0]
        self.run(("E_1", s, 5))

    def _chain_member(self, rng, index, stratum):
        # one third of the log-height range per stratum, so every block
        # holds the same spread of heights
        lo, hi = MINIMAL_LOGH[index]
        step = (hi - lo) / 3
        while True:
            h = int(10 ** rng.uniform(lo + stratum * step, lo + (stratum + 1) * step))
            a, b = rng.randrange(1, h + 1) * rng.choice((1, -1)), rng.randrange(1, h + 1)
            if math.gcd(a, b) != 1:
                continue
            t = Fraction(a, b)
            if t in self._used:
                continue
            self._used.add(t)
            return self.families.l39_signatures(t)[(1, 3, 9).index(index)]

    def _adic_pair(self, rng):
        # integral (c4, c6) with high 2- and 3-adic valuation, as in the
        # table cross-check tests
        while True:
            a, b = rng.randrange(1, 500), rng.randrange(1, 500)
            if math.gcd(a, 6) != 1 or math.gcd(b, 6) != 1:
                continue
            c4 = rng.choice((1, -1)) * 2 ** rng.randrange(0, 11) * 3 ** rng.randrange(0, 7) * a
            c6 = rng.choice((1, -1)) * 2 ** rng.randrange(0, 15) * 3 ** rng.randrange(0, 10) * b
            if c4**3 == c6**2 or (c4, c6) in self._used:
                continue
            self._used.add((c4, c6))
            return self.weierstrass.Signature(Fraction(c4), Fraction(c6), Fraction(c4**3 - c6**2, 1728))

    def block(self, b):
        rng = self.rng(b)
        out = []
        for stratum in range(3):
            for index in (1, 3, 9):
                out.append((f"E_{index}", self._chain_member(rng, index, stratum), log_uniform_d(rng, 1e9)))
            out.append(("adic", self._adic_pair(rng), log_uniform_d(rng, 1e9)))
        rng.shuffle(out)
        return out

    def run(self, inp):
        _kind, s, d = inp
        m, u = self.localdata.global_minimal(s)
        return m, u, self.localdata.global_pal(m, d)

    def check(self, inp, out):
        _kind, s, d = inp
        m, u, pal = out
        if self.weierstrass.transform(s, u) != m:
            return f"{s}: minimal model is not s rescaled by u = {u}"
        again = self.localdata.global_minimal(m)[1]
        if again != 1:
            return f"{s}: global_minimal not idempotent (second u = {again})"
        direct = self.localdata.global_minimal(self.weierstrass.twist_sig(m, d))[1]
        if direct != pal:
            return f"{s}, d={d}: global_pal {pal} != minimal scale of the twist {direct}"
        return None

    def tag(self, inp):
        kind, s, d = inp
        return {"delta_digits": delta_bucket(height_digits(s.delta)), "input": kind,
                "abs_d": d_bucket(d)}


# ---------------------------------------------------------------------------
# verify: numeric Faltings-height argmin against the decision table

# Per block of 20: 14 operations at 128 bits, 2 at 256 and 4 at 512. Each
# L3_9 t runs one of its four d at 256 or 512 bits: both t < 0 at 512, one
# t > 0 at 512 and one at 256. The four L2_11 operations run at 128, 128,
# 256 and 512 bits. So every block holds the same class mix per precision:
# L3_9 at t < 0 and 512 bits costs 2-3 times any other operation, and the
# tail percentile sits inside that class rather than on its edge.
VERIFY_L211_BITS = (128, 128, 256, 512)

# The oracle's working range at the commit that defined the benchmark.
# L3_9 at t = +-3^e * u/v (u, v <= 40, prime to 3 and to each other) with
# |t| / sqrt(27) in [1/4, 4], and square-free |d| <= 1000. Outside it
# verify_class raises mpmath NoConvergence or claims more than 2^(8-bits)
# relative error on part of the inputs: |t| far from sqrt(27) in either
# direction (t -> 27/t swaps the chain ends), t of height > 40, or |d|
# up to 10^4 (e.g. t = 216, d = 3746; t = 135, d = 3; t = 1/2, d = -9679).
# Inside it, 3116 probe operations, weighted to the edges of the range
# and to 512 bits, all passed the check below; every claimed relative
# error was at most 2^(-3-bits), 11 bits inside the check's 2^(8-bits).
VERIFY_MAX_UV = 40
VERIFY_T_SPAN = 4
VERIFY_SMALL_D = 30
VERIFY_MAX_D = 1000


def _verify_t(e: int) -> list:
    out = []
    for u in range(1, VERIFY_MAX_UV + 1):
        for v in range(1, VERIFY_MAX_UV + 1):
            if u % 3 and v % 3 and math.gcd(u, v) == 1:
                t = Fraction(u * 3**e, v)
                if 1 / VERIFY_T_SPAN <= t / math.sqrt(27) <= VERIFY_T_SPAN:
                    out.append(t)
    return out


# positive t for each v_3(t) = 0, 1, 2, 3: the four decision branches
VERIFY_T = [_verify_t(e) for e in range(4)]


class Verify(Workload):
    name = "verify"
    block_size = 20
    # 200 operations per 20 s run (about 25 s at this commit). p95 leaves
    # 10 operations beyond it, about the middle of the 20 L3_9 operations
    # at t < 0 and 512 bits
    rate = 10.0
    tail_pct = 95.0

    def setup(self):
        from qtwist import oracle
        self.oracle = oracle
        self.captured: list = []
        self.t_uses: dict = {}  # L3_9 t -> operations using it (None: L2_11)
        self.worst_bits_lost = -math.inf  # bits + log2(claimed relative error)
        self.install_capture()
        # warm-up on t = 1/4, which no block produces (|t| / sqrt(27) < 1/4)
        self.run(("L3_9", Fraction(1, 4), 2, 128, "a"))

    def install_capture(self):
        """Keep each lattice_volume result, so the check can read the claimed
        error without recomputing the volume. Costs one list append per
        lattice volume (three per operation)."""
        original = self.oracle.lattice_volume
        sink = self.captured

        @functools.wraps(original)
        def lattice_volume(*args, **kwargs):
            res = original(*args, **kwargs)
            sink.append(res)
            return res

        self.oracle.lattice_volume = lattice_volume

    def block(self, b):
        rng = self.rng(b)
        # a seeded order of each regime's t, walked by block, so t does not
        # repeat across blocks (each regime has at least 175 t; a 20 s run
        # makes 10 blocks)
        out = []
        signs = rng.sample((1, 1, -1, -1), 4)  # two t of each sign
        high = iter(rng.sample((512, 256), 2))  # for the two t > 0
        for regime, ts in enumerate(VERIFY_T):
            order = random.Random(f"{self.name}:{self.seed}:{regime}").sample(ts, len(ts))
            t = order[b % len(order)] * signs[regime]
            bits = [128, 128, 128, 512 if t < 0 else next(high)]
            rng.shuffle(bits)
            # d divisible by 3 or prime to it, each small and wide
            for (factor, coprime, hi), bits_ in zip(((3, 1, VERIFY_SMALL_D), (3, 1, VERIFY_MAX_D),
                                                     (1, 3, VERIFY_SMALL_D), (1, 3, VERIFY_MAX_D)), bits):
                d = log_uniform_d(rng, hi, factor, coprime_to=coprime)
                out.append(("L3_9", t, d, bits_, "a"))
        l211_bits = rng.sample(VERIFY_L211_BITS, 4)
        for i, variant in enumerate("aabb"):  # one d divisible by 11 per variant
            d = log_uniform_d(rng, VERIFY_MAX_D, 11 if i % 2 else 1, coprime_to=1 if i % 2 else 11)
            out.append(("L2_11", None, d, l211_bits[i], variant))
        rng.shuffle(out)
        return out

    def run(self, inp):
        kind, t, d, bits, variant = inp
        self.captured.clear()  # a raising call may have left volumes behind
        rep = self.oracle.verify_class(kind, t, d, precision_bits=bits, variant=variant)
        lattices = self.captured[:]
        self.captured.clear()
        return rep, lattices

    def check(self, inp, out):
        import mpmath as mp

        _kind, _t, _d, bits, _variant = inp
        rep, lattices = out
        if not rep.match:
            return f"{inp}: numeric argmin {rep.argmin_label} != theorem {rep.theorem_label}"
        # the working precision is bits + 30; at most 8 of the requested
        # bits may be lost
        tol = mp.mpf(2) ** (8 - bits)
        vols = sorted((v.neron_volume for v in rep.vertices), reverse=True)
        if vols[0] / vols[1] < 3 * (1 - tol):
            return f"{inp}: best/second volume margin {mp.nstr(vols[0] / vols[1], 8)} < 3"
        if len(lattices) != len(rep.vertices):
            return f"{inp}: expected {len(rep.vertices)} lattice volumes, saw {len(lattices)}"
        rel = max(lat.claimed_error / lat.volume for lat in lattices)
        if rel > 0:
            self.worst_bits_lost = max(self.worst_bits_lost, float(mp.log(rel, 2)) + bits)
        if rel > tol:
            return f"{inp}: claimed relative error {mp.nstr(rel, 3)} above 2^{8 - bits}"
        return None

    def tag(self, inp):
        kind, t, d, bits, _variant = inp
        self.t_uses[t] = self.t_uses.get(t, 0) + 1
        height = "L2_11" if t is None else f"t_digits{height_digits(t)}"
        return {"bits": f"bits{bits}", "class": kind, "t_height": height,
                "abs_d": "d_le30" if abs(d) <= VERIFY_SMALL_D else "d_gt30"}

    def finish(self):
        repeated = sum(n for t, n in self.t_uses.items() if t is not None and n > 1)
        return {"t_repeat_share": round(repeated / max(1, sum(self.t_uses.values())), 4),
                "worst_bits_lost": round(self.worst_bits_lost, 2)}


# ---------------------------------------------------------------------------
# cli_cold: one fresh `python -m qtwist.cli` process per operation

CLI_KEYS = {
    "classify": {"p", "kodaira", "u_p", "minimal_p_signature", "conditions"},
    "minimal": {"input", "minimal", "u"},
    "twist": {"d", "twist", "twist_minimal", "u"},
    "faltings": {"type", "t", "d", "vertex", "d_condition", "probability"},
    "prob": {"type", "t", "branches"},
    "family": {"family"},
    "verify": {"type", "t", "d", "vertices", "argmin", "theorem", "match"},
    "density": {"p", "bound", "divisible_fraction", "squarefree_density"},
    "empirical": {"type", "t", "bound", "frequencies"},
}

CLI_TYPES = ("L2_2", "L2_3", "L2_5", "L3_9", "T4", "T8", "R4_6", "S8")


def cli_env() -> dict:
    import os

    env = {k: v for k, v in os.environ.items() if k not in ("QTWIST_BITS", "PYTHONPATH")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


class CliCold(Workload):
    name = "cli_cold"
    block_size = 12
    # 36 calls (three cycles) per 20 s run, so that p70 has 10 calls beyond
    # it; at this commit that takes about 19 s
    rate = 1.8
    tail_pct = 70.0

    # the command each operation runs; the traced run swaps in a wrapper
    # that installs the tracer in the child before calling qtwist.cli.run
    command = (sys.executable, "-m", "qtwist.cli")

    def setup(self):
        from qtwist import cli
        self.cli = cli
        self.env = cli_env()
        with redirect_stdout(io.StringIO()):
            if cli.run(["faltings", "--type", "L3_9", "--t", "45", "--d", "3"]) != 0:
                raise RuntimeError("cli warm-up failed")

    @staticmethod
    def _t(rng) -> str:
        t = Fraction(rng.randrange(1, 200) * rng.choice((1, -1)), rng.randrange(1, 20))
        t *= Fraction(rng.choice((2, 3, 5))) ** rng.randrange(0, 6)
        return str(t)

    def block(self, b):
        rng = self.rng(b)
        from qtwist import families  # signatures as CLI text inputs

        def sig(t):
            m = families.l39_signatures(Fraction(t))[rng.randrange(3)]
            return ",".join(str(x) for x in (m.c4, m.c6, m.delta))

        small_t = lambda: str(Fraction(rng.randrange(1, 60), rng.randrange(1, 8)))  # noqa: E731
        d = lambda: log_uniform_d(rng, 1e6)  # noqa: E731
        # "--opt=value" keeps negative numbers from reading as options
        ops = [
            (["classify", f"--sig={sig(small_t())}", f"--p={rng.choice((2, 3, 5, 7))}"], 0),
            (["minimal", f"--sig={sig(small_t())}"], 0),
            (["twist", "--ainvs=1,1,1,-30,-76", f"--d={d()}"], 0),
            (["faltings", f"--type={rng.choice(CLI_TYPES)}", f"--t={self._t(rng)}", f"--d={d()}"], 0),
            (["prob", f"--type={rng.choice(CLI_TYPES)}", f"--t={self._t(rng)}"], 0),
            (["family", "l39", f"--t={small_t()}"], 0),
            (["family", "l211", f"--variant={rng.choice('ab')}"], 0),
            (["verify", "--type=L3_9", f"--t={rng.choice(VERIFY_T[rng.randrange(4)])}",
              f"--d={log_uniform_d(rng, VERIFY_SMALL_D)}", "--bits=128"], 0),
            (["density", f"--p={rng.choice((2, 3, 5, 7))}", f"--n={rng.randrange(10**4, 3 * 10**4)}"], 0),
            (["empirical", f"--type={rng.choice(CLI_TYPES)}", f"--t={self._t(rng)}",
              f"--n={rng.randrange(10**4, 3 * 10**4)}"], 0),
            # invalid input must exit 2: a cusp, and a d that is not square-free
            (["faltings", "--type=L3_9", "--t=0", f"--d={d()}"], 2),
            (["twist", "--ainvs=1,1,1,-30,-76", f"--d={4 * rng.randrange(1, 10**4)}"], 2),
        ]
        rng.shuffle(ops)
        return ops

    def run(self, inp):
        argv, _expect = inp
        proc = subprocess.run([*self.command, *argv], capture_output=True, text=True,
                              env=self.env, cwd=ROOT, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, inp, out):
        argv, expect = inp
        code, stdout, stderr = out
        if code != expect:
            return f"{argv}: exit {code}, expected {expect}: {stderr.strip()[-200:]}"
        if expect != 0:
            lines = [ln for ln in stderr.splitlines() if ln.startswith("{")]
            if not lines or not json.loads(lines[0]).get("error"):
                return f"{argv}: no JSON error message on stderr"
            return None
        try:
            obj = json.loads(stdout)
        except ValueError:
            return f"{argv}: stdout is not JSON"
        cmd = argv[0]
        missing = (CLI_KEYS[cmd] | {"schema_version", "command"}) - set(obj)
        if missing or obj["command"] != cmd:
            return f"{argv}: missing keys {sorted(missing)}"
        if cmd == "verify" and obj["match"] is not True:
            return f"{argv}: verify reports no match"
        return None

    def tag(self, inp):
        argv, expect = inp
        return {"subcommand": argv[0] if expect == 0 else "invalid"}


WORKLOADS = {w.name: w for w in (Decide, Minimal, Verify, CliCold)}
