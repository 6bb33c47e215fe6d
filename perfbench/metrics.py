"""Metric names and units, and how each is computed from worker summaries.

``END_TO_END`` is printed by a run with ``--trace 0`` and ``PER_LAYER`` by
a run with ``--trace 1``; BENCHMARK.json lists the same names.
"""

from __future__ import annotations

import math
import statistics

from tracing import KERNELS, MODULES

# error_rate is printed with every run but is not a BENCHMARK.json metric:
# it is 0 on a correct program, and regressions are judged as ratios of
# medians. The result line carries it as "attempted"/"failed".
END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
PRINTED_ONLY = {"ops_per_s_uncapped": "1/s", "error_rate": "ratio"}

_COUNT, _S, _RATIO = "count", "s", "ratio"
PER_LAYER = {
    "exactnum.vp.calls": _COUNT,
    "exactnum.vp.self_s": _S,
    "exactnum.sympy_isprime.calls": _COUNT,
    "exactnum.unit_residue.calls": _COUNT,
    "exactnum.is_squarefree.calls": _COUNT,
    "exactnum.is_squarefree.self_s": _S,
    "exactnum.is_squarefree.self_s.d_le1e6": _S,
    "exactnum.is_squarefree.self_s.d_gt1e6": _S,
    "weierstrass.Signature.calls": _COUNT,
    "weierstrass.Signature.self_s": _S,
    "weierstrass.transform.calls": _COUNT,
    "weierstrass.p_signature.calls": _COUNT,
    "weierstrass.p_signature.self_s": _S,
    "weierstrass.twist_sig.calls": _COUNT,
    "localdata.classify.p2.calls": _COUNT,
    "localdata.classify.p2.self_s": _S,
    "localdata.classify.p3.calls": _COUNT,
    "localdata.classify.p3.self_s": _S,
    "localdata.classify.p5plus.calls": _COUNT,
    "localdata.classify.p5plus.self_s": _S,
    "localdata.realizable.calls": _COUNT,
    "localdata.realizable.self_s": _S,
    "localdata.global_minimal.calls": _COUNT,
    "localdata.global_minimal.self_s": _S,
    "localdata.global_minimal.self_s.delta_le12": _S,
    "localdata.global_minimal.self_s.delta_13_24": _S,
    "localdata.global_minimal.self_s.delta_25plus": _S,
    "localdata.global_minimal.nontrivial_ratio": _RATIO,
    "localdata.global_pal.calls": _COUNT,
    "localdata.global_pal.self_s": _S,
    "localdata.global_pal.nontrivial_ratio": _RATIO,
    "localdata.factorint.calls": _COUNT,
    "localdata.factorint.self_s": _S,
    "localdata.factorint.share": _RATIO,
    "localdata.factor_cache.size_end": _COUNT,
    "graphs.u_vectors.calls": _COUNT,
    "graphs.u_vectors.self_s": _S,
    "graphs.faltings_by_theorem.self_s": _S,
    "graphs.faltings_by_volumes.self_s": _S,
    "graphs.prob_table.self_s": _S,
    "families.l39_signatures.self_s": _S,
    "families.l211_class.self_s": _S,
    "oracle.verify_class.self_s": _S,
    "oracle.neron_volume.self_s": _S,
    "oracle.lattice_volume.calls": _COUNT,
    "oracle.lattice_volume.self_s": _S,
    "oracle.lattice_volume.self_s.bits128": _S,
    "oracle.lattice_volume.self_s.bits256": _S,
    "oracle.lattice_volume.self_s.bits512": _S,
    "oracle.polyroots.calls": _COUNT,
    "oracle.polyroots.self_s": _S,
    "oracle.polyroots.share": _RATIO,
    "cli.interpreter_s": _S,
    "cli.import_s": _S,
    "cli.import.numpy_s": _S,
    "cli.import.sympy_s": _S,
    "cli.import.mpmath_s": _S,
    "cli.run.self_s": _S,
    **{f"{m}.share": _RATIO for m in MODULES},
    "trace.overhead_ratio": _RATIO,
}


def percentile(sorted_values: list, pct: float) -> tuple:
    """Nearest-rank percentile: (value, number of samples beyond it)."""
    n = len(sorted_values)
    rank = max(1, math.ceil(pct / 100 * n))
    return sorted_values[rank - 1], n - rank


def end_to_end(summary: dict, setups: list, wl) -> tuple:
    """(metrics, notes) for one untraced pass of workload class ``wl`` and
    its set-up samples."""
    tail_pct = wl.tail_pct
    lat = sorted(summary["latencies_s"])
    tail, beyond = percentile(lat, tail_pct)
    # sympy factoring gives minimal a heavy tail: its slowest 5 % of
    # operations (up to 1.5 s each) took about half of a run and changed
    # with the seed, so they count at the p95 latency
    cap, _ = percentile(lat, 95.0)
    ok = summary["attempted"] - summary["failed"]
    values = {
        "ops_per_s": ok / sum(min(x, cap) for x in lat),
        "ops_per_s_uncapped": ok / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": summary["peak_rss_mb"],
        "error_rate": summary["failed"] / summary["attempted"],
    }
    notes = {
        "ops_per_s": f"{ok} checked operations, the slowest 5 % counted at p95 = {cap * 1e3:.4g} ms",
        "ops_per_s_uncapped": "every operation at its own latency",
        "latency_tail_ms": f"p{tail_pct:g}, {beyond} of n={len(lat)} samples beyond"
                           + ("" if beyond >= 10 else " (fewer than 10: run longer)"),
        "setup_s": f"median of {len(setups)} fresh interpreters",
        "error_rate": f"{summary['failed']} of {summary['attempted']} attempted",
    }
    return values, notes


def per_layer(traced: dict, plain: dict, cli_probe: dict) -> dict:
    """Per-layer metrics from a traced pass and an untraced pass over the
    same operations, plus the CLI start-up probe."""
    agg = traced["trace"]
    calls: dict = {}
    self_s: dict = {}
    for key, n in agg["calls"].items():
        base, _, bucket = key.partition("[")
        for k in ({base, f"{base}.{bucket.rstrip(']')}"} if bucket else {base}):
            calls[k] = calls.get(k, 0) + n
            self_s[k] = self_s.get(k, 0.0) + agg["self_s"][key]
    wall = traced["wall_s"]
    out = {}
    for name in PER_LAYER:
        if name.endswith(".calls"):
            out[name] = calls.get(name[: -len(".calls")], 0)
        elif ".self_s" in name:
            base, _, bucket = name.partition(".self_s")
            out[name] = self_s.get(base + bucket, 0.0)
    for name, (hit, total) in agg["ratios"].items():
        out[name] = hit / total if total else 0.0
    for name in ("localdata.global_minimal.nontrivial_ratio", "localdata.global_pal.nontrivial_ratio"):
        out.setdefault(name, 0.0)
    for kernel in KERNELS:
        out[f"{kernel}.share"] = self_s.get(kernel, 0.0) / wall
    for mod in MODULES:
        own = sum(v for k, v in agg["self_s"].items()
                  if k.split(".")[0] == mod and k.partition("[")[0] not in KERNELS)
        out[f"{mod}.share"] = own / wall
    out["localdata.factor_cache.size_end"] = plain["sympy_end"]["factor_cache"]
    out.update(cli_probe)
    out["trace.overhead_ratio"] = plain["wall_s"] / wall  # traced over untraced ops/s
    return {name: out[name] for name in PER_LAYER}
