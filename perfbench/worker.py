"""One measurement process, started fresh by run.py for every pass.

Takes a job as one JSON argument:
  {"workload": str, "seed": int, "blocks": int, "mode": "probe"|"pass",
   "trace": bool, "spans": path or null}

Both modes import what the workload needs and run its warm-up operation,
then print "ready" (run.py times set-up up to that line). A probe stops
there. A pass then runs ``blocks`` blocks: generate the block's inputs,
time its operations, then check their outputs. It prints one JSON summary
line. Peak memory covers the whole pass; the checks run the same library
code on inputs of the same size as the operations.

sympy's factor cache and prime sieve are process-global. Every pass starts
in a fresh interpreter, so both start at their import-time state; the
warm-up uses an input no block produces, and a block's checks, which
refactor its numbers, run after its timed region and before the next
block, whose inputs are new.
"""

from __future__ import annotations

import json
import resource
import sys
import time

import tracing
import workloads


def _sympy_state() -> dict:
    mod = sys.modules.get("sympy.ntheory.factor_")
    gen = sys.modules.get("sympy.ntheory.generate")
    return {"factor_cache": len(mod.factor_cache) if mod else 0,
            "sieve": len(gen.sieve._list) if gen else 0}


def run_pass(wl: workloads.Workload, blocks: int, trace: bool = False) -> dict:
    tracer = tracing.Tracer() if trace else None
    if tracer:
        tracer.install()
        tracer.enabled = False  # on only inside timed regions
    if isinstance(wl, workloads.CliCold) and trace:
        wl.command = (sys.executable, str(workloads.ROOT / "perfbench" / "clitrace.py"))
    latencies: list = []
    tags: dict = {}  # category -> label -> count
    failures: list = []
    child_agg: dict = {}
    wall = 0.0
    sympy_start = _sympy_state()
    clock = time.perf_counter
    for b in range(blocks):
        block = wl.block(b)
        outs = []
        if tracer:
            tracer.enabled = True
        block_start = clock()
        for inp in block:
            if tracer:
                tracer.op_id = len(latencies)
            t0 = clock()
            try:
                out, err = wl.run(inp), None
            except Exception as exc:  # an operation that raises counts as failed
                out, err = None, f"{inp}: {type(exc).__name__}: {exc}"
            latencies.append(clock() - t0)
            outs.append((out, err))
        wall += clock() - block_start
        if tracer:
            tracer.enabled = False
        sympy_end = _sympy_state()  # as the timed region ends, before checks
        first = len(latencies) - len(block)
        for i, (inp, (out, err)) in enumerate(zip(block, outs)):
            if err is None:
                if tracer and isinstance(wl, workloads.CliCold):
                    out = _split_child_trace(out, child_agg, tracer, first + i)
                err = wl.check(inp, out)
            if err is not None:
                failures.append(str(err)[:300])
            for k, v in wl.tag(inp).items():
                counts = tags.setdefault(k, {})
                counts[v] = counts.get(v, 0) + 1
    who = resource.RUSAGE_CHILDREN if isinstance(wl, workloads.CliCold) else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()
    summary = {
        "attempted": len(latencies),
        "failed": len(failures),
        "failures": failures[:10],
        "wall_s": wall,
        "latencies_s": latencies,
        "peak_rss_mb": peak_rss_mb,
        "sympy_start": sympy_start,
        "sympy_end": sympy_end,
        "properties": {**{k: workloads.shares(v) for k, v in tags.items()}, **wl.finish()},
    }
    if tracer:
        agg = tracer.aggregate()
        tracing.merge(agg, child_agg)
        summary["trace"] = agg
        summary["tracer"] = tracer
    return summary


def _split_child_trace(out, agg: dict, tracer: tracing.Tracer, op_id: int):
    """Move a traced CLI child's spans and aggregate off its stderr."""
    code, stdout, stderr = out
    keep = []
    for line in stderr.splitlines():
        if line.startswith(tracing.CHILD_TAG):
            part = json.loads(line[len(tracing.CHILD_TAG):])
            tracer.add_spans(part.pop("spans"), op_id)
            tracing.merge(agg, part)
        else:
            keep.append(line)
    return code, stdout, "\n".join(keep)


def main() -> None:
    job = json.loads(sys.argv[1])
    wl = workloads.WORKLOADS[job["workload"]](job["seed"])
    wl.setup()
    print("ready", flush=True)
    if job["mode"] == "probe":
        return
    summary = run_pass(wl, job["blocks"], job["trace"])
    tracer = summary.pop("tracer", None)
    if tracer is not None and job.get("spans"):
        tracer.write(job["spans"])
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
