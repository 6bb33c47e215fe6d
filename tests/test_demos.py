"""The scripts in demos/ run as subprocesses and exit 0."""

import importlib.util
import subprocess
import sys

import pytest

from subprocs import ROOT, src_env

DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_three_demos():
    assert [p.name for p in DEMOS] == [
        "density_experiment.py", "faltings_tour.py", "height_verification.py"]


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_0(script):
    proc = subprocess.run([sys.executable, str(script)], capture_output=True,
                          text=True, env=src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert "MISMATCH" not in proc.stdout


def test_height_verification_exits_1_on_mismatch(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(
        "height_verification", ROOT / "demos" / "height_verification.py")
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    verify_class = demo.oracle.verify_class

    def mismatched(*args, **kwargs):
        return verify_class(*args, **kwargs)._replace(match=False)

    monkeypatch.setattr(demo.oracle, "verify_class", mismatched)
    assert demo.main() == 1
    assert capsys.readouterr().out.splitlines()[-1] == "SOME MISMATCHES"
