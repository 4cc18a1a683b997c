"""Structural guards: one owner for each numerical and each input rule.

``spectral`` is the only module that knows when a spectral magnitude
counts as zero (no other production module holds a tolerance below
1e-6), how a delay turns into a unit phase, and when and by which power
of two a row is scaled: its ``lift``, ``lower`` and ``row_norm`` serve
the estimators, and no other module names the band or a power-of-two
scaling of its own. ``fileio`` is the only one that turns input text
into values; ``errors`` is the only one that turns an array argument
into float64 values or an index argument into an int in range, and the
only one that tests finiteness.
The duplicate-group table serves ``check_sensing_conditions``
alone; the compressive estimators settle their shift without it, on
the paper's gcd condition, which ``compressive._class_rule`` alone reads.
``run_bench`` measures each block of trials in one call per side, and
only ``_stack_hits`` scores trials one by one, after a stacked call
refused.
``retrieval._estimate`` alone builds a ``ShiftEstimate`` from per-row
results and alone tells one pair from a stack.
Each public name is listed once, in its module's ``__all__``: the
package re-exports those lists and names none of them itself.
The checks walk the syntax tree of each package module, so docstrings
and comments that describe the rules do not count; only code that
restates them does.
"""

import ast
from pathlib import Path

import cycshift
from cycshift import oracle

MODULES = sorted(Path(cycshift.__file__).resolve().parent.glob("*.py"))
PACKAGE = Path(cycshift.__file__).resolve().parent


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
    """The input rules a module restates: decoding JSON, splitting on ',' or an argparse ``type=``."""
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
        if func.attr == "add_argument" and any(kw.arg == "type" for kw in node.keywords):
            found.add("add_argument(type=)")
    return found


def test_only_fileio_turns_input_text_into_values():
    readers = {p.name: _input_rules(_tree(p)) for p in MODULES}
    assert readers.pop("fileio.py") == {"json.loads", "split(',')", "partition(',')"}
    assert {name: rules for name, rules in readers.items() if rules} == {}


def test_only_errors_tests_finiteness():
    # errors.finite is the one finiteness test, numpy's or math's isfinite
    # is named nowhere else, and the circulant core's own copy is gone.
    users = {p.name for p in MODULES if "isfinite" in _names(_tree(p))}
    assert users == {"errors.py"}
    assert "_finite" not in _names(_tree(PACKAGE / "circulant.py"))


def _tiny_floats(tree: ast.Module) -> set[float]:
    return {node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and type(node.value) is float
            and 0.0 < node.value < 1e-6}


def test_tolerances_below_one_millionth_live_only_in_spectral():
    # A zero test elsewhere goes through spectral.live; the oracles
    # compare against references with their own margins.
    tiny = {p.name: _tiny_floats(_tree(p)) for p in MODULES}
    for owner in ("spectral.py", "oracle.py"):
        tiny.pop(owner)
    assert {name: found for name, found in tiny.items() if found} == {}


def _is_argument(node: ast.AST, params: set[str]) -> bool:
    """A parameter of the enclosing function, or a field read as ``self.<name>``."""
    if isinstance(node, ast.Name):
        return node.id in params
    return isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "self"


def _is_float64(node: ast.AST) -> bool:
    """``np.float64``, ``float64``, ``float`` or the string ``"float64"``."""
    if isinstance(node, ast.Attribute):
        return node.attr == "float64"
    if isinstance(node, ast.Name):
        return node.id in ("float64", "float")
    return isinstance(node, ast.Constant) and node.value == "float64"


def _argument_rules(tree: ast.Module) -> set[str]:
    """The array and index rules a module restates.

    The array rule: a float64 cast or a finiteness check of an argument.
    The index rule: ``int()`` of an argument, any use of ``operator``
    (``operator.index``), or a chained range test such as ``0 <= i < n``.
    """
    found = set()

    def visit(node, params):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
        if isinstance(node, (ast.Import, ast.ImportFrom)) and "operator" in (
                [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module]):
            found.add("operator")
        if (isinstance(node, ast.Compare) and len(node.ops) == 2
                and all(isinstance(op, (ast.Lt, ast.LtE)) for op in node.ops)):
            found.add("range test")
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            target = func.value if name == "astype" else (node.args or [None])[0]
            dtypes = [kw.value for kw in node.keywords if kw.arg == "dtype"]
            dtypes += node.args[:1] if name == "astype" else node.args[1:2]
            if target is not None and _is_argument(target, params):
                if name in ("asarray", "array", "astype") and any(map(_is_float64, dtypes)):
                    found.add("float64 cast")
                if name in ("int", "require_finite"):
                    found.add(f"{name}()")
        for child in ast.iter_child_nodes(node):
            visit(child, params)

    visit(tree, set())
    return found


def test_only_errors_converts_array_and_index_arguments():
    rules = {p.name: _argument_rules(_tree(p)) for p in MODULES}
    assert rules.pop("errors.py") == {"operator"}
    # The oracles share no code path with the fast side.
    rules.pop("oracle.py")
    assert {name: found for name, found in rules.items() if found} == {}


def test_sources_parse_as_the_declared_python_floor():
    # pyproject.toml declares Python >= 3.10; the grammar check is all a
    # newer interpreter can do, CI runs the suite on 3.10 itself.
    root = Path(__file__).resolve().parent.parent
    paths = [p for part in ("src", "tests", "perfbench") for p in sorted((root / part).rglob("*.py"))]
    assert paths
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def _imports(tree: ast.Module) -> list[str]:
    """``name`` for ``import name`` and ``.module:name`` for ``from .module import name``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            found += [f"{'.' * node.level}{node.module or ''}:{a.name}" for a in node.names]
    return found


def test_selftest_runs_only_the_oracle_table():
    # The field checks are the rows of oracle.PAIRS, not a second copy of
    # them: the command imports the table alone, inside itself, and
    # defines no check of its own.
    tree = _tree(PACKAGE / "cli.py")
    command = next(node for node in tree.body
                   if isinstance(node, ast.FunctionDef) and node.name == "_cmd_selftest")
    assert [name for name in _imports(tree) if name.startswith(".oracle:")] == [".oracle:PAIRS"]
    assert _imports(command) == [".oracle:PAIRS"]
    defined = [node for node in ast.walk(command)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda))]
    assert defined == [command]
    assert "check" in _names(command)


def test_every_oracle_reference_serves_a_row():
    # A reference is used by a row when the PAIRS table names it, directly or
    # through one of the module's private helpers.
    tree = _tree(PACKAGE / "oracle.py")
    helpers = {node.name: node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name.startswith("_")}
    table = [node for node in tree.body if isinstance(node, ast.Assign)
             and any(getattr(target, "id", None) == "PAIRS" for target in node.targets)]
    assert len(table) == 1
    used, todo = set(), table
    while todo:
        for name in _names(todo.pop()) - used:
            used.add(name)
            if name in helpers:
                todo.append(helpers[name])
    references = set(oracle.__all__) - {"Pair", "PAIRS"}
    assert references and references <= used, references - used


def _users(tree: ast.Module, name: str) -> set[str]:
    """The top-level definitions (or ``<module>``) that read ``name``, leaving out its own."""
    owners = ((getattr(node, "name", "<module>"), node) for node in tree.body)
    return {owner for owner, node in owners if owner != name and name in _names(node)}


def test_only_spectral_scales_by_powers_of_two():
    # The estimators lift, lower and take norms through spectral; none
    # names the band or scales by a power of two itself.
    users = {p.name for p in MODULES if _names(_tree(p)) & {"BAND", "ldexp", "frexp"}}
    assert users == {"spectral.py"}
    # compressive takes from retrieval only the estimate and its builder.
    taken = [name for name in _imports(_tree(PACKAGE / "compressive.py")) if name.startswith(".retrieval:")]
    assert sorted(taken) == [".retrieval:ShiftEstimate", ".retrieval:_estimate"]


def test_only_check_sensing_conditions_scans_for_duplicate_groups():
    # The estimators settle on the gcd class of their winning shift; the
    # duplicate groups, read from one (m, n) table of the amounts by which
    # columns differ at each shift difference, serve the diagnostic alone.
    users = {p.name: _users(_tree(p), "_duplicate_groups") for p in MODULES}
    assert {name: fns for name, fns in users.items() if fns} == {
        "compressive.py": {"check_sensing_conditions"}}


def test_only_the_class_rule_and_the_diagnostic_take_a_gcd():
    # The paper's gcd condition has one reader for both estimators,
    # _class_rule; check_sensing_conditions takes its own gcd for the
    # qualifying bins (gcd(k, n) = 1).
    tree = _tree(PACKAGE / "compressive.py")
    takers = {getattr(node, "name", "<module>") for node in tree.body
              if any(isinstance(call, ast.Call) and "gcd" in _names(call.func) for call in ast.walk(node))}
    assert takers == {"_class_rule", "check_sensing_conditions"}


def test_bench_measures_whole_blocks_never_rows():
    # Each block is measured in one call per side; a comprehension or a
    # map would measure it one trial at a time.
    tree = _tree(PACKAGE / "bench.py")
    per_row = [node for node in ast.walk(tree)
               if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp))
               or (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "map")]
    assert "measure" in _names(tree)
    assert [ast.unparse(node) for node in per_row if "measure" in _names(node)] == []


def test_bench_scores_rows_one_by_one_only_after_a_stack_refused():
    # Every cell is one stacked estimator call; _stack_hits alone falls
    # back to one call per trial.
    assert _users(_tree(PACKAGE / "bench.py"), "_hit") == {"_stack_hits"}


def _callers(tree: ast.Module, name: str) -> set[str]:
    """The top-level functions that call ``name``."""
    return {node.name for node in tree.body if isinstance(node, ast.FunctionDef)
            and any(isinstance(call, ast.Call) and getattr(call.func, "id", None) == name
                    for call in ast.walk(node))}


def _shape_branches(node: ast.AST) -> list[str]:
    """The ``if`` tests and conditional expressions in ``node`` that ask for an array's shape."""
    return [ast.unparse(sub.test) for sub in ast.walk(node) if isinstance(sub, (ast.If, ast.IfExp))
            and _names(sub.test) & {"ndim", "shape", "size", "len"}]


def test_one_builder_makes_every_estimate_and_unwraps_one_pair():
    # A one-pair call is the one-row stack: the estimators hand per-row
    # results to retrieval._estimate, which alone builds a ShiftEstimate
    # and alone tells one pair from a stack.
    trees = {name: _tree(PACKAGE / name) for name in ("retrieval.py", "compressive.py")}
    builders = {name: _callers(tree, "ShiftEstimate") for name, tree in trees.items()}
    assert builders == {"retrieval.py": {"_estimate"}, "compressive.py": set()}
    estimators = ("shift_by_crosscorr", "shift_by_ratio", "_settle", "shift_single_bin")
    assert set(estimators) <= set().union(*(_callers(tree, "_estimate") for tree in trees.values()))
    functions = {node.name: node for tree in trees.values() for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name in estimators}
    assert {name: _shape_branches(node) for name, node in functions.items()} == dict.fromkeys(
        estimators, [])


# The modules whose ``__all__`` the package re-exports, in its order.
PUBLIC = ("spectral", "circulant", "retrieval", "compressive")


def test_the_package_imports_no_public_name_by_name():
    tree = _tree(PACKAGE / "__init__.py")
    named = [f"{node.module}.{alias.name}" for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in PUBLIC
             for alias in node.names if alias.name != "*"]
    assert named == []


def test_the_public_modules_declare_disjoint_names():
    names = [name for module in PUBLIC for name in getattr(cycshift, module).__all__]
    assert len(names) == len(set(names))


def test_the_package_all_is_the_module_lists_joined_in_order():
    assert cycshift.__all__ == ["__version__", "IdentifiabilityError",
                                *(name for module in PUBLIC for name in getattr(cycshift, module).__all__)]


def test_each_public_name_on_the_package_is_its_modules_own_object():
    for module_name in PUBLIC:
        module = getattr(cycshift, module_name)
        for name in module.__all__:
            assert getattr(cycshift, name) is getattr(module, name), f"{module.__name__}.{name}"
