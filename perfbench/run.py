"""qtwist benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads: decide, minimal, verify, cli_cold (see README.md). Each run is a
closed loop with one client: one operation at a time in one process. The
run makes a fixed number of operations, ``rate * S`` rounded to whole
blocks, where ``rate`` is the workload's throughput at the commit that
defined the benchmark; the inputs come from the seed alone.

--trace 0 prints the end-to-end metrics: set-up is timed in fresh
interpreters (several probes plus the measuring process itself), then one
fresh process times the operations.
--trace 1 prints the per-layer metrics: an untraced pass and a traced pass
over the same first half of the operations, each in a fresh process, plus
CLI start-up probes. Their ratio is trace.overhead_ratio.

Human-readable lines come first; the last line of stdout is the JSON result.
Exits non-zero, printing no result, if the source tree or a pass fails.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import metrics
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 4
BUDGET_S = 170.0  # the whole run, set-up included


class BenchError(RuntimeError):
    pass


def run_worker(job: dict, deadline: float) -> tuple:
    """Start worker.py fresh; return (summary or None, seconds to "ready")."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), json.dumps(job)],
                            stdout=subprocess.PIPE, text=True,
                            env=workloads.cli_env(), cwd=ROOT)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest, _ = proc.communicate()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or ready.strip() != "ready":
        raise BenchError(f"worker {job['mode']} exited with {proc.returncode}")
    return (json.loads(rest.splitlines()[-1]) if job["mode"] == "pass" else None), setup


def _median_wall(cmd: list, times: int) -> float:
    walls = []
    for _ in range(times):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, capture_output=True, env=workloads.cli_env(), cwd=ROOT,
                       timeout=60)
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


_IMPORT_LINE = re.compile(r"import time:\s+\d+ \|\s+(\d+) \|(\s*)(\S+)")


def cli_probe() -> dict:
    """Interpreter start, and import cost of qtwist.cli and of the three
    heavy dependencies, from fresh ``python -X importtime`` processes."""
    out = {"cli.interpreter_s": _median_wall([sys.executable, "-c", "pass"], 5)}
    samples: dict = {}
    for _ in range(3):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import qtwist.cli, sympy"],
                              check=True, capture_output=True, text=True,
                              env=workloads.cli_env(), cwd=ROOT, timeout=60)
        seen = set()
        for m in _IMPORT_LINE.finditer(proc.stderr):
            name = m.group(3)
            if name in ("qtwist.cli", "numpy", "sympy", "mpmath") and name not in seen:
                seen.add(name)
                samples.setdefault(name, []).append(int(m.group(1)) / 1e6)
    for name, key in (("qtwist.cli", "cli.import_s"), ("numpy", "cli.import.numpy_s"),
                      ("sympy", "cli.import.sympy_s"), ("mpmath", "cli.import.mpmath_s")):
        out[key] = statistics.median(samples.get(name, [0.0]))
    return out


def _print_lines(title: str, values: dict, units: dict, notes: dict) -> None:
    print(title)
    for name, value in values.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<46} {value:>14.6g} {units[name]}{note}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "qtwist" / "__init__.py").is_file():
        print(f"no qtwist source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    wl = workloads.WORKLOADS[args.workload]
    blocks = wl(args.seed).n_blocks(args.seconds)
    job = {"workload": args.workload, "seed": args.seed, "blocks": blocks,
           "mode": "pass", "trace": False, "spans": None}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace == 0:
            setups = [run_worker({**job, "mode": "probe"}, deadline)[1] for _ in range(SETUP_PROBES)]
            summary, own_setup = run_worker(job, deadline)
            setups.append(own_setup)
            values, notes = metrics.end_to_end(summary, setups, wl)
            passes = [summary]
            units = {**metrics.END_TO_END, **metrics.PRINTED_ONLY}
            result = {k: values[k] for k in metrics.END_TO_END}
        else:
            half = {**job, "blocks": max(1, blocks // 2)}
            plain, _ = run_worker(half, deadline)
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz"
            traced, _ = run_worker({**half, "trace": True, "spans": str(spans)}, deadline)
            values = metrics.per_layer(traced, plain, cli_probe())
            notes = {"trace.overhead_ratio": "traced over untraced ops/s, same operations"}
            passes = [plain, traced]
            units = metrics.PER_LAYER
            result = values
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"operations={attempted} failed={failed}")
    for p in passes:
        for reason in p["failures"]:
            print(f"  FAILED: {reason}")
    _print_lines("metrics:", values, units, notes)
    print("input properties:", json.dumps(passes[0]["properties"], sort_keys=True))
    print("sympy state (start -> end of timed region):",
          json.dumps(passes[0]["sympy_start"]), "->", json.dumps(passes[0]["sympy_end"]))
    record = {"args": vars(args), "metrics": values, "notes": notes,
              "passes": [{k: v for k, v in p.items() if k not in ("latencies_s", "trace")}
                         for p in passes]}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in result.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
