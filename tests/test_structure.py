"""Structural guards: one owner for each numerical and each input rule.

``spectral`` is the only module that knows when a spectral magnitude
counts as zero (no other production module holds a tolerance below
1e-6) and how a delay turns into a unit phase; ``fileio`` is
the only one that turns input text into values. The checks walk the
syntax tree of each package module, so docstrings and comments that
describe the rules do not count; only code that restates them does.
"""

import ast
from pathlib import Path

import cycshift

MODULES = sorted(Path(cycshift.__file__).resolve().parent.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _names(tree: ast.Module) -> set[str]:
    """Every identifier the code reads, imports or looks up as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def _imaginary(node: ast.AST) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and isinstance(node.value, complex)


def _is_pi(node: ast.AST) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "pi") or (
        isinstance(node, ast.Name) and node.id == "pi")


def _builds_phase(node: ast.AST) -> bool:
    """``±2j * pi``, or an ``exp`` call whose argument holds an imaginary constant."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        return (_imaginary(node.left) and _is_pi(node.right)) or (
            _is_pi(node.left) and _imaginary(node.right))
    if isinstance(node, ast.Call):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        return name == "exp" and any(_imaginary(sub) for arg in node.args for sub in ast.walk(arg))
    return False


def _phase_builders(tree: ast.Module) -> set[str]:
    """Names of the functions (or ``<module>``) that build a phase exponential."""
    found = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if _builds_phase(node):
            found.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "<module>")
    return found


def test_package_modules_are_found():
    assert {"spectral.py", "retrieval.py", "compressive.py", "circulant.py"} <= {
        p.name for p in MODULES}


def test_zero_threshold_is_referenced_only_in_spectral():
    users = {p.name for p in MODULES if "ZERO_BIN_TOL" in _names(_tree(p))}
    assert users == {"spectral.py"}


def test_unit_phase_is_built_in_one_spectral_function():
    builders = {p.name: _phase_builders(_tree(p)) for p in MODULES}
    assert builders.pop("spectral.py") == {"unit_phases"}
    # The oracles build their own phases: they share no code path with the fast side.
    builders.pop("oracle.py")
    assert {name: fns for name, fns in builders.items() if fns} == {}


def _input_rules(tree: ast.Module) -> set[str]:
    """The input rules a module restates: decoding JSON or splitting on ','."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "json":
            found |= {a.name for a in node.names} & {"load", "loads"}
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        func, args = node.func, node.args
        if func.attr in ("load", "loads") and getattr(func.value, "id", None) == "json":
            found.add(f"json.{func.attr}")
        if (func.attr in ("split", "rsplit", "partition", "rpartition") and args
                and isinstance(args[0], ast.Constant) and args[0].value == ","):
            found.add(f"{func.attr}(',')")
    return found


def test_only_fileio_turns_input_text_into_values():
    readers = {p.name: _input_rules(_tree(p)) for p in MODULES}
    assert readers.pop("fileio.py") == {"json.loads", "split(',')", "partition(',')"}
    assert {name: rules for name, rules in readers.items() if rules} == {}


def _tiny_floats(tree: ast.Module) -> set[float]:
    return {node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and type(node.value) is float
            and 0.0 < node.value < 1e-6}


def test_tolerances_below_one_millionth_live_only_in_spectral():
    # A zero test elsewhere goes through spectral.live; the oracles and
    # the self-test compare against references with their own margins.
    tiny = {p.name: _tiny_floats(_tree(p)) for p in MODULES}
    for owner in ("spectral.py", "oracle.py", "selftest.py"):
        tiny.pop(owner)
    assert {name: found for name, found in tiny.items() if found} == {}
