"""Smoke tests of the benchmark itself, at one block per workload.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import metrics  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

TINY = "0.001"  # rounds up to one block


def _run(workload, trace, cwd=ROOT, root=ROOT):
    return subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
                           "--seed", "1", "--seconds", TINY, "--trace", str(trace)],
                          capture_output=True, text=True, cwd=cwd, timeout=300)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_printed_with_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    want = metrics.END_TO_END if trace == 0 else metrics.PER_LAYER
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    printed = want if trace else {**want, **metrics.PRINTED_ONLY}
    text = "\n".join(lines[:-1])
    for name, unit in printed.items():
        assert any(ln.split()[:1] == [name] and ln.split()[2] == unit for ln in lines[:-1]), (name, text)


def test_benchmark_json_matches_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_wrong_expected_vertex_counts_in_error_rate(monkeypatch):
    wl = workloads.Decide(1)
    wl.setup()
    real = wl.graphs.faltings_by_volumes
    calls = []

    def wrong_once(kind, t, d):
        calls.append(1)
        return "E_nowhere" if len(calls) == 1 else real(kind, t, d)

    monkeypatch.setattr(wl.graphs, "faltings_by_volumes", wrong_once)
    summary = worker.run_pass(wl, blocks=1)
    values, _ = metrics.end_to_end(summary, [1.0], wl)
    assert summary["failed"] == 1
    assert values["error_rate"] == 1 / wl.block_size


def test_wrong_expected_exit_code_counts_as_failure(monkeypatch):
    wl = workloads.CliCold(1)
    wl.setup()
    monkeypatch.setattr(wl, "block", lambda b: [(["family", "l211", "--variant=a"], 2),
                                                (["family", "l211", "--variant=b"], 0)])
    summary = worker.run_pass(wl, blocks=1)
    assert (summary["attempted"], summary["failed"]) == (2, 1)


def test_raising_verify_leaves_no_volumes_for_the_next(monkeypatch):
    wl = workloads.Verify(1)
    wl.setup()
    real = wl.oracle.neron_volume
    calls = []

    def raise_on_second(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:  # after the first vertex's lattice volume
            raise RuntimeError("injected")
        return real(*args, **kwargs)

    monkeypatch.setattr(wl.oracle, "neron_volume", raise_on_second)
    monkeypatch.setattr(wl, "block", lambda b: [("L3_9", Fraction(2), 3, 128, "a"),
                                                ("L3_9", Fraction(2), 6, 128, "a")])
    summary = worker.run_pass(wl, blocks=1)
    assert (summary["attempted"], summary["failed"]) == (2, 1), summary["failures"]

def test_blocks_depend_on_seed_only():
    def inputs(seed):
        wl = workloads.Minimal(seed)
        wl.setup()
        return [(k, s.c4, s.c6, d) for k, s, d in wl.block(0) + wl.block(1)]

    assert inputs(5) == inputs(5)
    assert inputs(5) != inputs(6)


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("decide", 0, cwd=tmp_path, root=tmp_path)
    assert proc.returncode != 0
    assert not any(ln.startswith("{") for ln in proc.stdout.splitlines())
