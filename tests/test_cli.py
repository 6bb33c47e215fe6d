import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from qtwist.cli import run
from qtwist.weierstrass import AInvariants, signature_of

from reference import L211_CURVES, l39_j

README = Path(__file__).resolve().parent.parent / "README.md"

# modules of the package that every subcommand loads: qtwist/__init__.py
# imports weierstrass
BASE_MODULES = {"cli", "exactnum", "weierstrass"}
# a call of each subcommand, and the modules it loads besides those
SUBCOMMAND_MODULES = [
    (["classify", "--ainvs", "1,1,1,-30,-76", "--p", "11"], {"localdata"}),
    (["minimal", "--sig", "642816,933493248,-350572971995136"], {"localdata"}),
    (["twist", "--ainvs", "1,1,1,-30,-76", "--d", "11"], {"localdata"}),
    (["faltings", "--type", "L3_9", "--t", "45", "--d", "3"], {"graphs"}),
    (["prob", "--type", "L3_9", "--t", "3"], {"graphs"}),
    (["family", "l39", "--t", "45"], {"families", "graphs"}),
    (["family", "L2_11"], {"families", "graphs"}),
    (["density", "--p", "3", "--n", "10000"], {"sieve", "graphs"}),
    (["empirical", "--type", "L3_9", "--t", "3", "--n", "10000"], {"sieve", "graphs"}),
    (["verify", "--type", "L3_9", "--t", "45", "--d", "3", "--bits", "64"],
     {"localdata", "graphs", "families", "oracle"}),
]


# nextprime(10^22) * nextprime(3 * 10^22)
N_HARD = 10000000000000000000009 * 30000000000000000000029
# a Mersenne prime of 1332 digits, past is_prime's 1000-digit limit
M4423 = 2**4423 - 1


def invoke(*args, capsys=None):
    """Run the CLI in-process; returns (exit_code, parsed JSON or raw text,
    stderr)."""
    code = run(list(args))
    captured = capsys.readouterr()
    try:
        return code, json.loads(captured.out), captured.err
    except json.JSONDecodeError:
        return code, captured.out, captured.err


def ok(*args, capsys):
    """The JSON output of a call that must exit 0."""
    code, out, err = invoke(*args, capsys=capsys)
    assert code == 0, err
    return out


def refused(*args, capsys):
    """The JSON error of a call that must exit 2 and print nothing on stdout."""
    code, out, err = invoke(*args, capsys=capsys)
    assert (code, out) == (2, ""), err
    return json.loads(err)["error"]


class TestGoldenExamples:
    def test_faltings(self, capsys):
        out = ok("faltings", "--type", "L3_9", "--t", "45", "--d", "3", capsys=capsys)
        assert out["vertex"] == "E_9"
        assert out["probability"] == "1/4"

    def test_classify(self, capsys):
        out = ok("classify", "--ainvs", "1,1,1,-30,-76", "--p", "11", capsys=capsys)
        assert out["kodaira"] == "II"
        assert out["u_p"] == "1"

    def test_cusp_exit_2(self, capsys):
        assert "cusp" in refused("faltings", "--type", "L3_9", "--t", "0", "--d", "5",
                                 capsys=capsys)

    def test_faltings_near_d_max(self, capsys):
        # d = -999999937 * 1000000007, the hardest square-free test below 10^18
        d = -999999937 * 1000000007
        out = ok("faltings", "--type", "L3_9", "--t", "45", "--d", str(d), capsys=capsys)
        assert (out["d"], out["vertex"], out["d_condition"], out["probability"]) == (
            d, "E_3", "d!=0(3)", "3/4")

    def test_twist(self, capsys):
        out = ok("twist", "--ainvs", "1,1,1,-30,-76", "--d", "11", capsys=capsys)
        assert out["twist"]["c4"] == "174361"
        assert out["twist"]["c6"] == "72809693"
        assert out["twist"]["delta"] == "-214358881"


class TestValidation:
    def test_non_squarefree_d(self, capsys):
        refused("faltings", "--type", "L3_9", "--t", "45", "--d", "12", capsys=capsys)

    @pytest.mark.parametrize("argv", [
        ["empirical", "--type", "L3_9", "--t", "3", "--n", "10"],
        ["empirical", "--type", "L3_9", "--t", "3", "--n", "-5"],
        ["density", "--p", "4", "--n", "10000"],
        ["faltings", "--type", "L2_11", "--t", "45", "--d", "1"],
        ["prob", "--type", "L2_11", "--t", "45"],
        ["verify", "--type", "L2_11", "--t", "45", "--d", "1"],
        *(["verify", "--type", "L3_9", "--t", "45", "--d", "3", "--bits", bits]
          for bits in ("-5", "0", "16", "5000")),
        ["density", "--p", "3", "--n", "10000000000"],
        ["empirical", "--type", "L3_9", "--t", "3", "--n", "10000000000"],
        ["faltings", "--type", "L3_9", "--t", "45", "--d", str(10**24 + 7)],
        # the curve 11a1 scaled by u = 1/n, n a product of two 23-digit
        # primes: global_minimal must split n, beyond the factoring budget
        ["minimal", "--sig", ",".join(str(c * N_HARD**k) for c, k in
                                      ((496, 4), (20008, 6), (-161051, 12)))],
        # L3_9 has one family, "a": a variant is refused, not ignored
        ["verify", "--type", "L3_9", "--t", "45", "--d", "3", "--variant", "b"],
        ["family", "l39", "--t", "45", "--variant", "b"],
        ["family", "l211", "--t", "45"],
        # a zero denominator is named, not left to Fraction's "Fraction(1, 0)"
        ["faltings", "--type", "L3_9", "--t", "1/0", "--d", "1"],
        ["minimal", "--ainvs=1/0,1,1,1,1"],
        # FAMILIES alone knows the variants: argparse has no second list
        ["family", "l211", "--variant", "c"],
        ["verify", "--type", "L2_11", "--d", "1", "--variant", "c"],
    ])
    def test_bad_input_exit_2(self, argv, capsys):
        error = refused(*argv, capsys=capsys)
        assert error
        if any("1/0" in arg for arg in argv):
            assert error == "'1/0' has a zero denominator"
        if "c" in argv:
            assert error == "no family of curves for type L2_11, variant 'c'"

    @pytest.mark.parametrize("t", ["1e-100000", "1e-2000000000", "1." + "1" * 4000 + "e-1000"],
                             ids=["1e-100000", "1e-2000000000", "5001_digits"])
    def test_past_input_digit_limit_exit_2(self, t, capsys):
        # an exponent is refused before 10^exponent is built
        start = time.perf_counter()
        error = refused("prob", "--type=T4", f"--t={t}", capsys=capsys)
        assert time.perf_counter() - start < 1
        assert error.endswith(f"past the {sys.get_int_max_str_digits()}-digit input limit")

    @pytest.mark.parametrize("d", [12, 0, 10**24 + 7])
    @pytest.mark.parametrize("argv", [
        ["faltings", "--type", "L3_9", "--t", "45"],
        ["twist", "--ainvs", "1,1,1,-30,-76"],
        ["verify", "--type", "L3_9", "--t", "45"],
    ], ids=["faltings", "twist", "verify"])
    def test_bad_d_exit_2(self, argv, d, capsys):
        # the library checks d; the CLI passes it through unchecked
        assert f"d = {d} " in refused(*argv, "--d", str(d), capsys=capsys)

    @pytest.mark.parametrize("argv", [
        ["classify", "--ainvs", "1,1,1,-30,-76", "--p", str(M4423)],
        ["classify", "--ainvs", "1,1,1,-30,-76", "--p", str(2**11213 - 1)],
        # c4 = 1/M4423, c6 = 0: global_minimal must test the denominator
        ["minimal", "--sig", f"1/{M4423},0,1/{1728 * M4423**3}"],
        ["twist", "--sig", f"1/{M4423},0,1/{1728 * M4423**3}", "--d", "5"],
    ], ids=["p_1332_digits", "p_3376_digits", "minimal_sig", "twist_sig"])
    def test_past_digit_limit_exit_2(self, argv, capsys):
        start = time.perf_counter()
        error = refused(*argv, capsys=capsys)
        assert time.perf_counter() - start < 5
        assert "past the 1000-digit limit" in error

    def test_output_past_print_limit_exit_2(self, capsys):
        # the answer exists, but one of its numbers is longer than Python
        # prints an integer
        assert refused("family", "l39", "--t", f"1/{10**400}", capsys=capsys) == (
            "the output has a 4803-digit number, which is past the "
            f"{sys.get_int_max_str_digits()}-digit print limit")

    def test_unknown_type(self, capsys):
        from qtwist.graphs import ALL_TYPES

        with pytest.raises(SystemExit) as exc:
            run(["faltings", "--type", "L2_9", "--t", "1", "--d", "1"])
        assert exc.value.code == 2
        # the choices are read from the registry only when --type is parsed
        assert "invalid choice: 'L2_9' (choose from {})".format(
            ", ".join(map(repr, ALL_TYPES))) in capsys.readouterr().err

    def test_schema_version(self, capsys):
        assert ok("prob", "--type", "L2_11", capsys=capsys)["schema_version"] == 2


class TestSubcommands:
    def test_minimal(self, capsys):
        # non-minimal input scaled by u = 1/6 comes back with u = 6
        out = ok("minimal", "--sig", "642816,933493248,-350572971995136", capsys=capsys)
        assert out["u"] == "6"
        assert out["minimal"]["c4"] == "496"

    def test_prob_rows_sum(self, capsys):
        out = ok("prob", "--type", "L3_9", "--t", "3", capsys=capsys)
        from fractions import Fraction
        total = sum(Fraction(r["probability"]) for r in out["branches"])
        assert total == 1

    def test_family_l39(self, capsys):
        out = ok("family", "l39", "--t", "45", capsys=capsys)
        assert out == {"schema_version": 2, "command": "family", "family": "l39",
                       "type": "L3_9", "variant": "a", "t": "45", "members": [
            {"label": f"E_{i}", "c4": c4, "c6": c6, "delta": delta, "j": str(l39_j(i, 45))}
            for i, c4, c6, delta in ((1, "5307264", "12226609368", "110565"),
                                     (3, "5318784", "12170864952", "1351615024612125"),
                                     (9, "37161504", "-219332077992", "1859164338814453125"))]}
        assert ok("family", "L3_9", "--t", "45", capsys=capsys) == {**out, "family": "L3_9"}

    def test_family_l211(self, capsys):
        out = ok("family", "l211", "--variant", "b", capsys=capsys)
        assert out == {"schema_version": 2, "command": "family", "family": "l211",
                       "type": "L2_11", "variant": "b", "t": None, "members": [
            {"label": "E_1", "c4": "352", "c6": "-6776", "delta": "-1331", "j": "-32768"},
            {"label": "E_11", "c4": "42592", "c6": "9018856", "delta": "-2357947691",
             "j": "-32768"}]}
        for variant, curves in L211_CURVES.items():
            out = ok("family", "L2_11", "--variant", variant, capsys=capsys)
            sigs = [signature_of(AInvariants(*ainvs)) for _, ainvs in curves]
            assert [[m["c4"], m["c6"], m["delta"]] for m in out["members"]] == [
                [str(x) for x in s] for s in sigs]

    def test_verify(self, capsys):
        out = ok("verify", "--type", "L3_9", "--t", "45", "--d", "3", "--bits", "64",
                 capsys=capsys)
        assert out["match"] is True
        assert out["bits"] == 64
        assert float(out["margin"]) >= 3 - 1e-9
        for v in out["vertices"]:
            assert 0 < float(v["claimed_error"]) <= 2.0 ** (8 - 64)

    def test_density(self, capsys):
        ok("density", "--p", "3", "--n", "10000", capsys=capsys)

    def test_empirical(self, capsys):
        ok("empirical", "--type", "L3_9", "--t", "3", "--n", "10000", capsys=capsys)

    def test_pretty(self, capsys):
        out = ok("--pretty", "faltings", "--type", "L3_9", "--t", "45", "--d", "3",
                 capsys=capsys)
        assert isinstance(out, str) and "E_9" in out


def _readme_commands():
    """The ``qtwist ...`` lines of README's "Command line" code block."""
    block = re.search(r"## Command line.*?```sh\n(.*?)```", README.read_text(), re.DOTALL)[1]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("qtwist ")]


class TestReadme:
    def test_commands_found(self):
        assert len(_readme_commands()) == 10

    @pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
    def test_command_exits_0(self, argv, capsys):
        assert ok(*argv, capsys=capsys)["command"] == argv[0]


class TestEntryPoint:
    def test_import_leaves_numpy_out(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, qtwist.cli; print('numpy' in sys.modules)"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "False"

    @staticmethod
    def _loaded_after_each(argvs):
        """[exit code, sympy loaded, mpmath loaded] after each argv, in one process."""
        script = """if True:
            import json, sys
            from qtwist import cli
            for argv in json.loads(sys.argv[1]):
                code = cli.run(argv)
                print(json.dumps([code, "sympy" in sys.modules, "mpmath" in sys.modules]))
        """
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return [json.loads(line) for line in proc.stdout.splitlines() if line[:1] == "["]

    def test_runs_leave_sympy_out(self):
        # sympy is a test-only oracle; factoring and primality are exactnum's
        argvs = [argv for argv, _ in SUBCOMMAND_MODULES]
        assert [r[:2] for r in self._loaded_after_each(argvs)] == [[0, False]] * len(argvs)

    def test_only_verify_loads_mpmath(self):
        # mpmath serves the numeric height check alone: verify runs last
        argvs = sorted((argv for argv, _ in SUBCOMMAND_MODULES), key=lambda a: a[0] == "verify")
        assert [[code, mpmath] for code, _, mpmath in self._loaded_after_each(argvs)] == (
            [[0, False]] * (len(argvs) - 1) + [[0, True]])

    def test_environment_is_ignored(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qtwist.cli", "faltings", "--type", "L3_9",
             "--t", "45", "--d", "3"],
            capture_output=True, text=True, env={**os.environ, "QTWIST_BITS": "abc"})
        assert proc.returncode == 0, proc.stderr

    def test_console_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qtwist.cli", "faltings", "--type", "L2_11",
             "--d", "11"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        out = json.loads(proc.stdout)
        assert out["vertex"] == "E_11"

    @pytest.fixture(scope="class")
    def bare_python_loads_dataclasses(self):
        proc = subprocess.run([sys.executable, "-c",
                               "import sys; print('dataclasses' in sys.modules)"],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip() == "True"

    # a type named in the registry's spelling joins the id: family_L2_11
    @pytest.mark.parametrize("argv, modules", SUBCOMMAND_MODULES,
                             ids=["_".join(argv[:1] + [a for a in argv[1:2] if a[:1].isupper()])
                                  for argv, _ in SUBCOMMAND_MODULES])
    def test_subcommand_loads_only_its_modules(self, argv, modules,
                                               bare_python_loads_dataclasses):
        # a fresh process pays for every module it imports, so each
        # subcommand imports only what it runs
        script = """if True:
            import json, sys
            from qtwist import cli
            code = cli.run(sys.argv[1:])
            print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("qtwist.")),
                              "dataclasses" in sys.modules]))
        """
        proc = subprocess.run([sys.executable, "-c", script, *argv],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        code, loaded, dataclasses = json.loads(proc.stdout.splitlines()[-1])
        assert code == 0
        assert {m.removeprefix("qtwist.") for m in loaded} == BASE_MODULES | modules
        assert not dataclasses or bare_python_loads_dataclasses
