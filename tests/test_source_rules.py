"""Rules on the package source, checked on each module's syntax tree.

* ``python -O`` strips ``assert``, so no check in the package may rely on one.
* sympy is a test-only oracle: no module of the package may import it.
* mpmath serves the numeric height check alone: only ``oracle`` may import
  it (the CLI imports ``oracle`` for ``verify`` only; see test_cli.py).
* No module imports ``dataclasses``: it imports ``inspect`` and ``ast``,
  which a fresh CLI process would pay for; records are ``NamedTuple``s.
* The module level of ``cli.py`` imports no package module but
  ``exactnum``: each subcommand imports what it runs (see test_cli.py).
* No ``add_argument`` call in ``cli.py`` passes ``choices``: the registries
  are the only list of types and variants, and refuse what they lack.
* No module defines both a function ``f`` and a function ``_f``: a public
  function is not a checking wrapper around a private twin, so a tracer
  that rebinds ``f`` sees every call.
* ``graphs.py`` and ``localdata.py`` define no ``lambda`` and no nested
  function: a branch classifier is a table (``graphs.PrimeBlock``), and a
  Kodaira outcome a (condition, kind, n) entry, that other code can read,
  never a closure.
* No module calls ``graphs.faltings_by_volumes``: each ``GraphType``
  checks its decision rows against the volume argmax at import, so a query
  runs the lookup alone; the re-derivation is for callers outside.
* ``graphs.py`` names none of ``check_d``, ``_squarefree_primes``,
  ``prime_factors`` and ``D_MAX``: the decision answers for the field
  Q(sqrt d), reads v_p(d) mod 2 at the block primes and factors nothing.
* The one memo is ``exactnum.check_d``'s, of the last d alone
  (``functools.lru_cache(maxsize=1)`` on ``_squarefree_primes``, which
  ``check_d`` calls once it has refused a non-int): ``verify`` checks its
  d in a row, once per vertex.  A memo anywhere else would let the
  benchmark's repeated inputs pass for speed.
* The package defines one exception class, ``TableMissError`` (not a
  ``ValueError``: the one internal error), at module level; every ``raise``
  in the package raises ``ValueError(...)`` (bad input) or
  ``TableMissError(...)``; and ``cli.run`` maps exactly ``ValueError`` to
  exit 2 and ``TableMissError`` to exit 3.  Any other error would leave the
  CLI unmapped, as exit 1 and a traceback.
* Every ``while`` loop whose test is divisibility (``x % y == 0`` or
  ``not x % y``) is in ``exactnum._vp_int``: it is the one routine that
  divides a prime out of an integer, at a cost logarithmic in the
  valuation, where a loop dividing once per unit is quadratic in the digits.

Two rules read other files instead.  The Python floor in pyproject.toml
and README is 3.10.7 at least: ``exactnum.parse_rat`` calls
``sys.get_int_max_str_digits`` and reads
``sys.int_info.default_max_str_digits``, which first shipped in 3.10.7.
And one rule reads the tests and demos: the names ``l39_signatures``,
``"l39"`` and ``"l211"``, which stay only while the benchmark calls them,
appear only in the one test that pins each.

One rule walks the shipped table data itself: no cell of the local tables
(``localdata.TABLE_P2``, ``TABLE_P3``, ``TABLE_P_GE5``) or of a registry
type's prime blocks and decision rows is callable, so every cell is data
that a reader, a mutation or a printout can see.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

import qtwist
from qtwist import graphs, localdata
from qtwist.exactnum import TableMissError

ROOT = Path(__file__).resolve().parent.parent

TREES = {path.name: ast.parse(path.read_text(), filename=str(path))
         for path in sorted(Path(qtwist.__file__).parent.glob("*.py"))}


def _offending(rule):
    """The "module:line" of every node of the package for which rule holds."""
    return [f"{name}:{node.lineno}"
            for name, tree in TREES.items()
            for node in ast.walk(tree) if rule(node)]


def _imports(package):
    """A rule that holds for an import of package or of a module in it."""
    def rule(node):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            return False
        return any(name.split(".")[0] == package for name in names)
    return rule


def test_package_has_no_assert():
    assert TREES
    assert _offending(lambda node: isinstance(node, ast.Assert)) == []


def test_package_does_not_import_sympy():
    assert TREES
    assert _offending(_imports("sympy")) == []


def test_only_oracle_imports_mpmath():
    assert TREES
    where = _offending(_imports("mpmath"))
    assert [w for w in where if not w.startswith("oracle.py:")] == []
    assert where, "oracle.py no longer imports mpmath; update this rule"


def test_package_does_not_import_dataclasses():
    assert TREES
    assert _offending(_imports("dataclasses")) == []


def _package_modules_imported(node):
    """The package modules an import node names ("exactnum" for
    ``from .exactnum import x``, "graphs" for ``from qtwist import graphs``)."""
    if isinstance(node, ast.Import):
        return {a.name.split(".")[1] for a in node.names if a.name.startswith("qtwist.")}
    if not isinstance(node, ast.ImportFrom):
        return set()
    module = node.module or ""
    if node.level == 0:
        if module.split(".")[0] != "qtwist":
            return set()
        module = module[len("qtwist."):]
    return {module.split(".")[0]} if module else {a.name for a in node.names}


def test_cli_module_level_imports_only_exactnum():
    # every node of cli.py outside a function body
    imported, stack = set(), list(TREES["cli.py"].body)
    while stack:
        node = stack.pop()
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            imported |= _package_modules_imported(node)
            stack.extend(ast.iter_child_nodes(node))
    assert imported == {"exactnum"}


def test_cli_arguments_have_no_choices():
    calls = [node for node in ast.walk(TREES["cli.py"])
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "add_argument"]
    assert calls
    assert [node.lineno for node in calls
            if any(kw.arg == "choices" for kw in node.keywords)] == []


def test_python_floor_has_int_max_str_digits():
    # tomllib is 3.11+, so the floor is read with a regex
    floors = re.findall(r'^requires-python = ">=([\d.]+)"$',
                        (ROOT / "pyproject.toml").read_text(), re.M)
    floors += re.findall(r"^Requires Python ≥ ([\d.]*\d)", (ROOT / "README.md").read_text(), re.M)
    assert len(floors) == 2 and len(set(floors)) == 1, floors
    assert tuple(map(int, floors[0].split("."))) >= (3, 10, 7)
    assert "get_int_max_str_digits" in (ROOT / "src/qtwist/exactnum.py").read_text()


# each benchmark-only alias, and the one test file that pins it
ALIAS_PINS = {"l39_signatures": "test_families.py", '"l39"': "test_cli.py",
              '"l211"': "test_cli.py"}


def test_benchmark_aliases_only_in_their_pins():
    paths = [path for folder in ("tests", "demos") for path in sorted((ROOT / folder).rglob("*.py"))
             if path != Path(__file__).resolve()]
    assert paths
    found = {(alias, path.name) for path in paths for alias in ALIAS_PINS
             if alias in path.read_text()}
    assert found == set(ALIAS_PINS.items())


def test_no_function_has_a_private_twin():
    assert TREES
    twins = []
    for name, tree in TREES.items():
        defined = {node.name for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
        twins += [f"{name}:{f}" for f in sorted(defined) if "_" + f in defined]
    assert twins == []


def _closures(tree):
    """The lines of every lambda and every function defined in a function."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Lambda)]
    found += [inner.lineno for outer in ast.walk(tree) if isinstance(outer, defs)
              for inner in ast.walk(outer) if inner is not outer and isinstance(inner, defs)]
    return found


def test_closure_rule_flags_lambda_and_nested_def():
    assert _closures(ast.parse("def f(kind):\n    return lambda vd: kind\n")) == [2]
    assert _closures(ast.parse("def f(kind):\n    def g(vd):\n        return kind\n")) == [2]
    assert _closures(ast.parse("KINDS = ('I0',)\ndef f(vd):\n    return vd\n")) == []


@pytest.mark.parametrize("module", ["graphs.py", "localdata.py"])
def test_table_modules_have_no_closures(module):
    assert _closures(TREES[module]) == []


def test_no_module_calls_faltings_by_volumes():
    # ast.Call nodes only: graphs.py still defines the function
    assert TREES
    assert _offending(lambda node: isinstance(node, ast.Call) and (
        getattr(node.func, "id", None) == "faltings_by_volumes"
        or getattr(node.func, "attr", None) == "faltings_by_volumes")) == []


# what takes d apart, or bounds it for that: the decision needs none of it
FACTORING_NAMES = {"check_d", "_squarefree_primes", "prime_factors", "D_MAX"}


def _names(tree):
    """Every name a tree reads, imports or takes as an attribute."""
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
            | {node.name for node in ast.walk(tree) if isinstance(node, ast.alias)})


def test_names_rule_flags_import_call_and_attribute():
    assert _names(ast.parse("from .exactnum import check_d as c\n"
                            "exactnum.prime_factors(D_MAX)\n")) >= {
        "check_d", "prime_factors", "D_MAX"}


def test_graphs_does_not_factor_d():
    assert _names(TREES["graphs.py"]) & FACTORING_NAMES == set()
    assert "vp" in _names(TREES["graphs.py"])


MEMOS = {"lru_cache", "cache", "cached_property"}


def test_only_memo_is_check_d():
    # check_d is a plain function: it refuses a non-int before anything
    # hashes d, then calls its one memoized helper
    defs = {node.name: node for node in ast.walk(TREES["exactnum.py"])
            if isinstance(node, ast.FunctionDef)}
    assert defs["check_d"].decorator_list == []
    assert [ast.unparse(node) for node in ast.walk(defs["check_d"]) if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "_squarefree_primes"] == ["_squarefree_primes(d)"]
    decorators = defs["_squarefree_primes"].decorator_list
    assert [ast.unparse(node) for node in decorators] == ["functools.lru_cache(maxsize=1)"]
    memos = [node for tree in TREES.values() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in MEMOS]
    assert memos == [decorators[0].func]
    assert _offending(lambda node: isinstance(node, ast.ImportFrom) and node.module == "functools"
                      and any(alias.name in MEMOS for alias in node.names)) == []


def _callables(x, path="") -> list:
    """The path of every callable inside x, walking tuples, lists and dict
    keys and values."""
    if callable(x):
        return [path]
    if isinstance(x, (tuple, list)):
        return [p for i, y in enumerate(x) for p in _callables(y, f"{path}[{i}]")]
    if isinstance(x, dict):
        return [p for k, y in x.items() for p in _callables(k, f"{path} key {k!r}")
                + _callables(y, f"{path}[{k!r}]")]
    return []


def test_callable_walk_finds_a_nested_function():
    assert _callables([(1, {"a": (2, len)})]) == ["[0][1]['a'][1]"]
    assert _callables(localdata.TABLE_P2[:1] + [((), [], (1, abs, 1))]) == ["[1][2][1]"]


@pytest.mark.parametrize("name", ["TABLE_P2", "TABLE_P3", "TABLE_P_GE5"])
def test_local_table_cells_are_data(name):
    table = getattr(localdata, name)
    assert table
    assert _callables(table) == []


def test_registry_cells_are_data():
    assert graphs.ALL_TYPES
    for kind in graphs.ALL_TYPES:
        g = graphs.graph_type(kind)
        assert g.blocks
        assert _callables((g.blocks, g.decisions), kind) == []


def _module(filename):
    name = filename[:-3]
    return qtwist if name == "__init__" else importlib.import_module(f"qtwist.{name}")


def test_only_exception_is_table_miss():
    # every class is defined at module level, so the module names hold them all
    assert _offending(lambda node: isinstance(node, ast.ClassDef) and not any(
        node in tree.body for tree in TREES.values())) == []
    errors = {obj for name in TREES for obj in vars(_module(name)).values()
              if isinstance(obj, type) and issubclass(obj, BaseException)
              and obj.__module__.startswith("qtwist")}
    assert errors == {TableMissError}
    # bad input exits 2, the internal error 3: neither may catch the other
    assert not issubclass(TableMissError, ValueError)


def _is_mapped_raise(node):
    """True for ``raise ValueError(...)`` or ``raise TableMissError(...)``,
    with or without a ``from`` clause."""
    return (isinstance(node.exc, ast.Call) and isinstance(node.exc.func, ast.Name)
            and node.exc.func.id in ("ValueError", "TableMissError"))


def test_raise_rule_flags_other_raises():
    tree = ast.parse("def f(x):\n"
                     "    raise ValueError(x)\n"
                     "    raise TableMissError(x) from None\n"
                     "    raise KeyError(x)\n"
                     "    raise ValueError\n"
                     "    raise\n"
                     "    raise errors.ValueError(x)\n")
    raises = [node for node in ast.walk(tree) if isinstance(node, ast.Raise)]
    assert [node.lineno for node in raises if not _is_mapped_raise(node)] == [4, 5, 6, 7]


def test_every_raise_is_value_error_or_table_miss():
    assert _offending(lambda node: isinstance(node, ast.Raise)) != []
    assert _offending(lambda node: isinstance(node, ast.Raise)
                      and not _is_mapped_raise(node)) == []


def test_cli_run_maps_value_error_and_table_miss():
    run = [node for node in TREES["cli.py"].body
           if isinstance(node, ast.FunctionDef) and node.name == "run"]
    assert len(run) == 1
    tries = [node for node in ast.walk(run[0]) if isinstance(node, ast.Try)]
    assert len(tries) == 1
    handlers = [(ast.unparse(h.type), [ast.literal_eval(node.value) for node in ast.walk(h)
                                       if isinstance(node, ast.Return)])
                for h in tries[0].handlers]
    assert handlers == [("ValueError", [2]), ("TableMissError", [3])]


def _is_mod(node):
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)


def _is_divisibility(test):
    """True for a test ``x % y == 0``, ``0 == x % y`` or ``not x % y``."""
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        return _is_mod(test.operand)
    if not (isinstance(test, ast.Compare) and [type(op) for op in test.ops] == [ast.Eq]):
        return False
    sides = (test.left, *test.comparators)
    return any(map(_is_mod, sides)) and any(isinstance(x, ast.Constant) and x.value == 0
                                            for x in sides)


def _divisibility_loops(tree):
    """The (innermost function, line) of every while loop whose test is
    divisibility; "<module>" for one outside any function."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    # ast.walk visits an outer function before an inner one, so the inner name wins
    owner = {node: outer.name for outer in ast.walk(tree) if isinstance(outer, defs)
             for node in ast.walk(outer)}
    return [(owner.get(node, "<module>"), node.lineno) for node in ast.walk(tree)
            if isinstance(node, ast.While) and _is_divisibility(node.test)]


def test_divisibility_loop_rule_flags_divide_while_divisible():
    source = ("while m % 3 == 0:\n    m //= 3\n"
              "def f(n, p):\n"
              "    while n % p == 0:\n        n //= p\n"
              "    while not n % 2:\n        n //= 2\n"
              "    while 0 == n % 5:\n        n //= 5\n"
              "    while n % 4 == 3 or n % 7:\n        n -= 1\n"
              "    return n\n")
    assert _divisibility_loops(ast.parse(source)) == [
        ("<module>", 1), ("f", 4), ("f", 6), ("f", 8)]


def test_only_vp_int_divides_a_prime_out():
    found = {(name, func) for name, tree in TREES.items()
             for func, _line in _divisibility_loops(tree)}
    assert found == {("exactnum.py", "_vp_int")}
