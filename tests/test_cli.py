import io
import json
import re
import shlex
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtwist.cli import run
from qtwist.exactnum import D_MAX
from qtwist.graphs import ALL_TYPES
from qtwist.weierstrass import AInvariants, signature_of

from reference import L211_CURVES, l39_j
from subprocs import ROOT, src_env

README = Path(__file__).resolve().parent.parent / "README.md"

# modules of the package that every subcommand loads: qtwist/__init__.py
# imports nothing
BASE_MODULES = {"cli", "exactnum"}
# a call of each subcommand, and the modules it loads besides those
SUBCOMMAND_MODULES = [
    (["classify", "--ainvs", "1,1,1,-30,-76", "--p", "11"], {"weierstrass", "localdata"}),
    (["minimal", "--sig", "642816,933493248,-350572971995136"], {"weierstrass", "localdata"}),
    (["twist", "--ainvs", "1,1,1,-30,-76", "--d", "11"], {"weierstrass", "localdata"}),
    (["faltings", "--type", "L3_9", "--t", "45", "--d", "3"], {"graphs"}),
    (["prob", "--type", "L3_9", "--t", "3"], {"graphs"}),
    (["family", "L3_9", "--t", "45"], {"weierstrass", "families", "graphs"}),
    (["family", "L2_11"], {"weierstrass", "families", "graphs"}),
    (["density", "--p", "3", "--n", "10000"], {"sieve"}),
    (["empirical", "--type", "L3_9", "--t", "3", "--n", "10000"], {"sieve", "graphs"}),
    (["verify", "--type", "L3_9", "--t", "45", "--d", "3", "--bits", "64"],
     {"weierstrass", "localdata", "graphs", "families", "oracle"}),
]


# nextprime(10^22) * nextprime(3 * 10^22)
N_HARD = 10000000000000000000009 * 30000000000000000000029
# a Mersenne prime of 1332 digits, past is_prime's 1000-digit limit
M4423 = 2**4423 - 1
# the subcommands that read a curve, with their other arguments
CURVE_COMMANDS = [("classify", ["--p", "11"]), ("minimal", []), ("twist", ["--d", "11"])]


def _not_json(constant):
    raise ValueError(f"{constant} is not JSON")


def invoke(*args, capsys=None):
    """Run the CLI in-process; returns (exit_code, parsed JSON or raw text,
    stderr).  The parse is strict: NaN and Infinity, which Python's json
    prints but JSON lacks, fail the test."""
    code = run(list(args))
    captured = capsys.readouterr()
    try:
        return code, json.loads(captured.out, parse_constant=_not_json), captured.err
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

    @pytest.mark.parametrize("argv, psig, kodaira", [
        (["--ainvs=0,0,1,0,0", "--p=3"], [None, 3, 3], "II"),       # c4 = 0
        (["--ainvs=0,0,0,-1,0", "--p=2"], [4, None, 6], "III"),     # c6 = 0
    ], ids=["c4_0", "c6_0"])
    def test_classify_valuation_of_0_is_null(self, argv, psig, kodaira, capsys):
        out = ok("classify", *argv, capsys=capsys)
        assert (out["minimal_p_signature"], out["kodaira"], out["u_p"]) == (psig, kodaira, "1")

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
        ["density", "--p", "3", "--n", "10000000000000"],
        ["empirical", "--type", "L3_9", "--t", "3", "--n", "10000000000000"],
        ["faltings", "--type", "L3_9", "--t", "45", "--d", str(10**24 + 7)],
        # the curve 11a1 scaled by u = 1/n, n a product of two 23-digit
        # primes: global_minimal must split n, beyond the factoring budget
        ["minimal", "--sig", ",".join(str(c * N_HARD**k) for c, k in
                                      ((496, 4), (20008, 6), (-161051, 12)))],
        # L3_9 has one family, "a": a variant is refused, not ignored
        ["verify", "--type", "L3_9", "--t", "45", "--d", "3", "--variant", "b"],
        ["family", "L3_9", "--t", "45", "--variant", "b"],
        ["family", "L2_11", "--t", "45"],
        # a zero denominator is named, not left to Fraction's "Fraction(1, 0)"
        ["faltings", "--type", "L3_9", "--t", "1/0", "--d", "1"],
        ["minimal", "--ainvs=1/0,1,1,1,1"],
        # a curve flag with the wrong number of parts
        ["minimal", "--ainvs=1,2,3,4"],
        ["classify", "--sig=1,2", "--p=2"],
        # FAMILIES alone knows the variants: argparse has no second list
        ["family", "L2_11", "--variant", "c"],
        ["verify", "--type", "L2_11", "--d", "1", "--variant", "c"],
        # the registry alone knows the types: argparse has no second list
        ["faltings", "--type", "L2_9", "--t", "1", "--d", "1"],
        ["prob", "--type", "L2_9", "--t", "1"],
        ["empirical", "--type", "L2_9", "--t", "1"],
        ["verify", "--type", "L2_9", "--t", "1", "--d", "1"],
        ["family", "L2_9"],
        # a registry type without curves
        ["verify", "--type", "L2_5", "--t", "1", "--d", "1"],
        # argparse's own refusals are JSON errors too
        ["faltings", "--type", "L3_9", "--t", "45", "--d", "abc"],
        ["faltings", "--type", "L3_9", "--t", "45"],
        ["nosuch"],
        [],
        # a curve is exactly one of --ainvs and --sig: both, or neither, is refused
        *([cmd, "--ainvs=1,1,1,-30,-76", "--sig=1,2,3", *rest] for cmd, rest in CURVE_COMMANDS),
        *([cmd, *rest] for cmd, rest in CURVE_COMMANDS),
    ])
    def test_bad_input_exit_2(self, argv, capsys):
        error = refused(*argv, capsys=capsys)
        assert error
        if any("1/0" in arg for arg in argv):
            assert error == "'1/0' has a zero denominator"
        if "c" in argv:
            assert error == "no family of curves for type L2_11, variant 'c'"
        if "L2_9" in argv:
            from qtwist.graphs import ALL_TYPES

            assert error == f"unknown graph type 'L2_9'; the types are {', '.join(ALL_TYPES)}"
        if "L2_5" in argv:
            assert error == "no family of curves for type L2_5, variant 'a'"
        if "--sig=1,2,3" in argv:  # both curve flags
            assert error == f"qtwist {argv[0]}: argument --sig: not allowed with argument --ainvs"
        if argv and (argv[0], argv[1:]) in CURVE_COMMANDS:  # neither
            assert error == f"qtwist {argv[0]}: one of the arguments --ainvs --sig is required"
        if "--ainvs=1,2,3,4" in argv:
            assert error == "--ainvs needs a1,a2,a3,a4,a6"
        if "--sig=1,2" in argv:
            assert error == "--sig needs c4,c6,delta"

    @pytest.mark.parametrize("t", ["1e-100000", "1e-2000000000", "1." + "1" * 4000 + "e-1000",
                                   "7" * 4301, "1/" + "7" * 4301, "0" * 4301 + "7",
                                   "1e" + "7" * 4301],
                             ids=["1e-100000", "1e-2000000000", "5001_digits",
                                  "4301_digit_integer", "4301_digit_denominator",
                                  "4302_digits_leading_zeros", "4301_digit_exponent"])
    def test_past_input_digit_limit_exit_2(self, t, capsys):
        # an exponent is refused before 10^exponent is built, and a typed
        # run past the limit, the exponent's too, gets the package's
        # message, not int()'s
        start = time.perf_counter()
        error = refused("prob", "--type=T4", f"--t={t}", capsys=capsys)
        assert time.perf_counter() - start < 1
        assert error.endswith(f"past the {sys.get_int_max_str_digits()}-digit input limit")
        if "7" * 4301 in t:
            assert error.startswith("the input has a 4301-digit number")
        # the limit counts every digit typed, leading zeros included
        if t.startswith("0"):
            assert error.startswith("the input has a 4302-digit number")

    @pytest.mark.parametrize("t", ["7" * 4300, "-1/" + "7" * 4300],
                             ids=["4300_digit_integer", "4300_digit_denominator"])
    def test_at_input_digit_limit_exit_0(self, t, capsys):
        out = ok("prob", "--type=T4", f"--t={t}", capsys=capsys)
        assert out["t"] == t

    def test_verify_at_input_digit_limit(self, capsys):
        # the members of the family at this t have numbers of about 17,000
        # digits, with valuations in the thousands: a valuation must not
        # cost a division per unit (that took 30 s)
        start = time.perf_counter()
        out = ok("verify", "--type=L3_9", f"--t={'7' * 4300}/{10**4299}", "--d=7", "--bits=4096",
                 capsys=capsys)
        assert time.perf_counter() - start < 10
        assert out["match"] is True and out["theorem"] == "E_1"

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
        assert refused("family", "L3_9", "--t", f"1/{10**400}", capsys=capsys) == (
            "the output has a 4803-digit number, which is past the "
            f"{sys.get_int_max_str_digits()}-digit print limit")

    def test_leading_minus_needs_equals_form(self, capsys):
        # argparse reads a value that starts with "-" as an option
        assert refused("minimal", "--sig", "-47,71,-63", capsys=capsys) == (
            "qtwist minimal: argument --sig: expected one argument")
        assert ok("minimal", "--sig=-47,71,-63", capsys=capsys) == ok(
            "minimal", "--ainvs=-1,0,0,1,0", capsys=capsys)

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["faltings", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: qtwist faltings")

    def test_schema_version(self, capsys):
        assert ok("prob", "--type", "L2_11", capsys=capsys)["schema_version"] == 2

    @pytest.mark.parametrize("argv", [["density", "--p", "2"],
                                      ["empirical", "--type", "T4", "--t", "8"]],
                             ids=["density", "empirical"])
    def test_bound_cap(self, argv, capsys):
        # the counts take time and memory of order sqrt(n), so time sets
        # the cap: a call at it stays well within the bound below
        start = time.perf_counter()
        assert ok(*argv, f"--n={10**12}", capsys=capsys)["bound"] == 10**12
        assert time.perf_counter() - start < 5
        assert refused(*argv, f"--n={10**12 + 1}", capsys=capsys) == (
            f"bound = {10**12 + 1} is not an integer in 10^4..10^12")


# Small alphabets for the fuzzed argv: per flag, values that pass on their
# own and values that are refused (a t of None leaves --t out, which the
# genus >= 1 types need).
FUZZ_T = (["45", "3/7", "-1/2", "-64", "2.5", None], ["0", "1/0", "x", ""])
FUZZ_D = (["1", "-1", "3", "-15", "7"], ["0", "12", "-18", str(D_MAX + 1), "1/2", "x"])
FUZZ_P = (["2", "3", "11"], ["4", "1", "0", "-3", "x"])
FUZZ_N = (["10000", "30000"], ["9999", str(10**12 + 1)])
FUZZ_TYPES = (ALL_TYPES, ["L2_9", "x"])
FUZZ_FAMILY_TYPES = (["L3_9", "L2_11"], ["L2_5", "L2_9", "x"])
FUZZ_VARIANTS = (["a", "b"], ["c", "A"])
FUZZ_CURVES = {
    "ainvs": (["1,1,1,-30,-76", "0,-1,1,-10,-20", "-1,0,0,1,0", "1/2,0,0,-1,0"],
              ["0,0,0,0,0", "1/0,1,1,1,1", "1,2,3,4", "x,1,1,1,1"]),
    "sig": (["496,20008,-161051", "642816,933493248,-350572971995136", "-47,71,-63"],
            ["0,0,0", "1/0,1,1", "1,2", "x"]),
}
# the flags of each subcommand besides its curve (--ainvs or --sig)
FUZZ_FLAGS = {
    "classify": [("p", FUZZ_P)],
    "minimal": [],
    "twist": [("d", FUZZ_D)],
    "faltings": [("type", FUZZ_TYPES), ("t", FUZZ_T), ("d", FUZZ_D)],
    "prob": [("type", FUZZ_TYPES), ("t", FUZZ_T)],
    "family": [("t", FUZZ_T), ("variant", FUZZ_VARIANTS)],
    "verify": [("type", FUZZ_FAMILY_TYPES), ("t", FUZZ_T), ("d", FUZZ_D),
               ("bits", (["64", "128"], ["63", "4097"])), ("variant", FUZZ_VARIANTS)],
    "density": [("p", FUZZ_P), ("n", FUZZ_N)],
    "empirical": [("type", FUZZ_TYPES), ("t", FUZZ_T), ("n", FUZZ_N)],
}


@st.composite
def fuzzed_argv(draw):
    """A subcommand, --pretty now and then, and each of its flags as
    --flag=value, so that a leading minus reaches the program.  Each value
    is refused on its own with chance about 1/4."""
    def value(alphabet):
        good, bad = alphabet
        return draw(st.sampled_from(bad if draw(st.integers(0, 3)) == 3 else good))

    command = draw(st.sampled_from(sorted(FUZZ_FLAGS)))
    argv = ["--pretty"] if draw(st.booleans()) else []
    argv.append(command)
    flags = FUZZ_FLAGS[command]
    if command == "family":
        argv.append(value(FUZZ_FAMILY_TYPES))
    elif command in ("classify", "minimal", "twist"):
        curve = draw(st.sampled_from(sorted(FUZZ_CURVES)))
        flags = [(curve, FUZZ_CURVES[curve]), *flags]
    for flag, alphabet in flags:
        v = value(alphabet)
        if v is not None:
            argv.append(f"--{flag}={v}")
    return argv


class TestFuzzedExitContract:
    @given(fuzzed_argv())
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_exit_0_or_2(self, argv):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            code = run(argv)
        assert time.perf_counter() - start < 5, argv
        assert code in (0, 2), (argv, err.getvalue())
        if code == 2:
            # nothing on stdout, one JSON error line on stderr
            assert out.getvalue() == "", argv
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and list(json.loads(lines[0])) == ["error"], (argv, lines)
        else:
            assert err.getvalue() == "", argv
            doc = json.loads(out.getvalue(), parse_constant=_not_json)
            command = argv[1] if argv[0] == "--pretty" else argv[0]
            assert (doc["schema_version"], doc["command"]) == (2, command), argv


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

    def test_verify_negative_t_of_large_height(self, capsys):
        # Delta < 0 here: Cardano's radicand, summed in floating point,
        # rounded below 0 and made the square root complex
        out = ok("verify", "--type=L3_9", "--t=-1/1000", "--d=1", "--bits=64", capsys=capsys)
        assert out["match"] is True

    def test_density(self, capsys):
        ok("density", "--p", "3", "--n", "10000", capsys=capsys)

    def test_empirical(self, capsys):
        ok("empirical", "--type", "L3_9", "--t", "3", "--n", "10000", capsys=capsys)

    def test_pretty(self, capsys):
        # --pretty indents the same JSON: a null, an empty list and a true
        # come back as they are
        for argv in (["prob", "--type", "L2_11"],
                     ["classify", "--ainvs", "1,1,1,-30,-76", "--p", "11"],
                     ["verify", "--type", "L3_9", "--t", "45", "--d", "3", "--bits", "64"]):
            assert ok("--pretty", *argv, capsys=capsys) == ok(*argv, capsys=capsys), argv


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

    def test_python_example_prints_its_comments(self):
        # each line followed by a "# value" comment evaluates to that value
        block = re.search(r"Quick example:\s*```python\n(.*?)```", README.read_text(), re.DOTALL)[1]
        lines, namespace, checked = block.splitlines(), {}, 0
        for line, shown in zip(lines, lines[1:] + [""]):
            if not line or line.startswith("#"):
                continue
            if shown.startswith("# "):
                assert repr(eval(line, namespace)) == shown[2:].split("  (")[0], line
                checked += 1
            else:
                exec(line, namespace)
        assert checked == 3

    def test_commented_fields_are_printed(self, capsys):
        # a README command followed by a "# {...}" comment prints those fields
        lines = re.search(r"## Command line.*?```sh\n(.*?)```", README.read_text(),
                          re.DOTALL)[1].splitlines()
        checked = 0
        for line, shown in zip(lines, lines[1:]):
            if line.startswith("qtwist ") and shown.startswith("# {"):
                out = ok(*shlex.split(line)[1:], capsys=capsys)
                for key, value in re.findall(r'"([^".]+)": "([^"]*)"', shown):
                    assert out[key] == value, (line, key)
                    checked += 1
        assert checked == 2

    def test_minimal_p_signature_sentence(self, capsys):
        text = " ".join(README.read_text().split())
        argv, shown = re.search(r"`qtwist (classify [^`]*)` prints `([^`]*)`", text).groups()
        assert json.dumps(ok(*shlex.split(argv), capsys=capsys)["minimal_p_signature"]) == shown
        assert shown == "[4, null, 6]"


class TestEntryPoint:
    def test_import_leaves_numpy_out(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, qtwist.cli; print('numpy' in sys.modules)"],
            capture_output=True, text=True, env=src_env())
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
                              capture_output=True, text=True, env=src_env())
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

    def test_density_peak_memory(self):
        # the counts keep tables of order sqrt(n), so at n = 10^8 the peak
        # stays near a cold start's, far below the n bytes of a byte mask;
        # a wrapper process reads the peak of its one child, so no other
        # process of the session counts
        script = """if True:
            import resource, subprocess, sys
            subprocess.run([sys.executable, "-m", "qtwist.cli", *sys.argv[1:]],
                           check=True, stdout=subprocess.DEVNULL)
            print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        """
        proc = subprocess.run([sys.executable, "-c", script, "density", "--p", "3",
                               f"--n={10**8}"], capture_output=True, text=True, env=src_env())
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 64 * 1024  # ru_maxrss is in KiB on Linux

    def test_environment_is_ignored(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qtwist.cli", "faltings", "--type", "L3_9",
             "--t", "45", "--d", "3"],
            capture_output=True, text=True, env=src_env(QTWIST_BITS="abc"))
        assert proc.returncode == 0, proc.stderr

    def test_console_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qtwist.cli", "faltings", "--type", "L2_11",
             "--d", "11"],
            capture_output=True, text=True, env=src_env())
        assert proc.returncode == 0
        out = json.loads(proc.stdout)
        assert out["vertex"] == "E_11"

    @pytest.fixture(scope="class")
    def bare_python_loads_dataclasses(self):
        proc = subprocess.run([sys.executable, "-c",
                               "import sys; print('dataclasses' in sys.modules)"],
                              capture_output=True, text=True, env=src_env())
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
                              capture_output=True, text=True, env=src_env())
        assert proc.returncode == 0, proc.stderr
        code, loaded, dataclasses = json.loads(proc.stdout.splitlines()[-1])
        assert code == 0
        assert {m.removeprefix("qtwist.") for m in loaded} == BASE_MODULES | modules
        assert not dataclasses or bare_python_loads_dataclasses


@pytest.fixture(scope="module")
def broken_src(tmp_path_factory):
    """The folder of a copy of the package whose registry names E_2 for
    L2_2's branch v2(t) <= 4, where the volume argmax is E_1."""
    src = tmp_path_factory.mktemp("broken_src")
    shutil.copytree(ROOT / "src" / "qtwist", src / "qtwist",
                    ignore=shutil.ignore_patterns("__pycache__"))
    graphs = src / "qtwist" / "graphs.py"
    text = graphs.read_text()
    assert '_every("E_1")' in text
    graphs.write_text(text.replace('_every("E_1")', '_every("E_2")', 1))
    return src


# the row of TABLE_P3 for (0, 0, >= 1), and a copy with an invalid outcome
P3_IN_ROW = '((("e", 0), ("e", 0), ("g", 1)), [(None, "In", 1)], (0, 0)),'
P3_IN_ROW_BROKEN = '((("e", 0), ("e", 0), ("g", 1)), [(None, "In", 0)], (0, 0)),'


@pytest.fixture(scope="module")
def broken_localdata_src(tmp_path_factory):
    """The folder of a copy of the package whose TABLE_P3 gives I_0 as In
    with n = 0 on the row (0, 0, >= 1)."""
    src = tmp_path_factory.mktemp("broken_localdata_src")
    shutil.copytree(ROOT / "src" / "qtwist", src / "qtwist",
                    ignore=shutil.ignore_patterns("__pycache__"))
    localdata = src / "qtwist" / "localdata.py"
    text = localdata.read_text()
    assert text.count(P3_IN_ROW) == 1
    localdata.write_text(text.replace(P3_IN_ROW, P3_IN_ROW_BROKEN))
    return src


def run_copy(src, argv, *flags):
    return subprocess.run([sys.executable, *flags, "-m", "qtwist.cli", *argv],
                          capture_output=True, text=True, env=src_env(src))


def assert_exit_3(proc, error):
    """Exit 3 with nothing on stdout and one JSON error line on stderr,
    which starts with error."""
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"].startswith(error)


class TestBrokenRegistry:
    """A broken registry fails at import, as an internal error: each
    subcommand that loads ``graphs`` exits 3, and the others still run."""

    @pytest.mark.parametrize("argv", [argv for argv, modules in SUBCOMMAND_MODULES
                                      if "graphs" in modules], ids=" ".join)
    def test_graphs_commands_exit_3(self, broken_src, argv):
        assert_exit_3(run_copy(broken_src, argv), "internal: L2_2 ")

    @pytest.mark.parametrize("argv", [argv for argv, modules in SUBCOMMAND_MODULES
                                      if "graphs" not in modules], ids=" ".join)
    def test_other_commands_exit_0(self, broken_src, argv):
        proc = run_copy(broken_src, argv)
        assert proc.returncode == 0, proc.stderr

    def test_exit_3_without_assert(self, broken_src):
        # python -O strips assert; the registry check does not rest on one
        assert_exit_3(run_copy(broken_src, ["faltings", "--type", "L2_11", "--d", "11"], "-O"),
                      "internal: L2_2 ")


class TestBrokenLocalTables:
    """A local table with an invalid outcome fails at import, as an
    internal error: each subcommand that loads ``localdata`` exits 3, and
    the others still run."""

    ERROR = "internal: row (('e', 0), ('e', 0), ('g', 1)): outcome (None, 'In', 0) "

    @pytest.mark.parametrize("argv", [argv for argv, modules in SUBCOMMAND_MODULES
                                      if "localdata" in modules], ids=" ".join)
    def test_localdata_commands_exit_3(self, broken_localdata_src, argv):
        assert_exit_3(run_copy(broken_localdata_src, argv), self.ERROR)

    @pytest.mark.parametrize("argv", [argv for argv, modules in SUBCOMMAND_MODULES
                                      if "localdata" not in modules], ids=" ".join)
    def test_other_commands_exit_0(self, broken_localdata_src, argv):
        proc = run_copy(broken_localdata_src, argv)
        assert proc.returncode == 0, proc.stderr

    def test_exit_3_without_assert(self, broken_localdata_src):
        # python -O strips assert; the outcome check does not rest on one
        assert_exit_3(run_copy(broken_localdata_src, ["classify", "--ainvs", "1,1,1,-30,-76",
                                                      "--p", "11"], "-O"), self.ERROR)
