"""Shape checks on the package source, made by parsing it."""
import ast
import importlib
from pathlib import Path

from homdom.graphs import HomdomError

SRC = Path(__file__).resolve().parent.parent / "src" / "homdom"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def test_no_self_referencing_inner_functions():
    # a nested def that names itself (a recursive closure) is a reference
    # cycle: it keeps everything it closes over alive until the next
    # collection; recursion goes through module-level functions instead
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for outer in ast.walk(tree):
            if not isinstance(outer, FUNCTIONS):
                continue
            for inner in ast.walk(outer):
                if inner is outer or not isinstance(inner, FUNCTIONS):
                    continue
                if any(isinstance(node, ast.Name) and node.id == inner.name
                       for node in ast.walk(inner)):
                    found.append(f"{path.name}: {outer.name}.{inner.name}")
    assert sorted(set(found)) == []


def test_no_imports_inside_functions():
    # every module names what it imports at its top, so the import graph
    # is read from the module headers alone
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if not isinstance(func, FUNCTIONS):
                continue
            for node in ast.walk(func):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    found.append(f"{path.name}:{node.lineno} in {func.name}")
    assert sorted(set(found)) == []


def test_cli_encodes_json_once():
    # main hands each verb's plain data to _emit; nothing is encoded to be parsed back
    tree = ast.parse((SRC / "cli.py").read_text())
    calls = []
    for func in ast.walk(tree):
        if isinstance(func, FUNCTIONS):
            calls += [(func.name, node.attr) for node in ast.walk(func)
                      if isinstance(node, ast.Attribute) and node.attr in ("dumps", "loads")
                      and isinstance(node.value, ast.Name) and node.value.id == "json"]
    assert calls == [("_emit", "dumps")]


def test_cones_name_no_fraction():
    # a Cone holds ints only, so its module neither imports nor builds a Fraction
    tree = ast.parse((SRC / "cones.py").read_text())
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert "Fraction" not in names | imported


def test_formulas_solve_no_lp():
    # every exact rule is a closed form or a certified combinatorial read-off;
    # an LP belongs to ratlp and cones
    tree = ast.parse((SRC / "formulas.py").read_text())
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              for alias in node.names}
    assert names & {"make_lp", "solve_lp"} == set()


def test_formulas_build_no_cone():
    # the union rule reads the even-cycle rays off their closed forms, so
    # formulas names neither the cone nor its per-call ray check
    tree = ast.parse((SRC / "formulas.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert imported & {"Cone", "even_cycle_cone", "verify_rays"} == set()


def _parsed():
    return [(path, ast.parse(path.read_text(), filename=str(path)))
            for path in sorted(SRC.glob("*.py"))]


def test_every_exception_class_derives_from_homdom_error():
    # whose fault a failure is gets decided where it is raised: a refusal of
    # the input is a HomdomError, so the CLI needs no list of error types
    errors = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__main__":
            continue
        module = importlib.import_module(f"homdom.{path.stem}".removesuffix(".__init__"))
        errors += [obj for obj in vars(module).values()
                   if isinstance(obj, type) and issubclass(obj, BaseException)
                   and obj.__module__ == module.__name__]
    assert HomdomError in errors and len(errors) >= 5
    assert [e.__name__ for e in errors if not issubclass(e, HomdomError)] == []


def test_no_bare_builtin_raises():
    found = []
    for path, tree in _parsed():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id in ("ValueError", "RuntimeError",
                                                             "Exception"):
                    found.append(f"{path.name}:{node.lineno} raises {exc.id}")
    assert found == []


def test_cli_exit_2_is_homdom_error_or_os_error():
    tree = ast.parse((SRC / "cli.py").read_text())
    main = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    handlers = {}
    for node in ast.walk(main):
        if isinstance(node, ast.ExceptHandler):
            returns = [r.value.value for r in ast.walk(node) if isinstance(r, ast.Return)
                       and isinstance(r.value, ast.Constant)]
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            for code in returns:
                handlers.setdefault(code, []).extend(ast.unparse(c) for c in caught)
    assert handlers == {2: ["HomdomError", "OSError"], 5: ["Exception"]}


def _dtype_threshold(node):
    """Whether ``node`` spells 2**24, 2**53 or 2**63: a power or shift of
    literals, or its value."""
    bits = {24, 53, 63}
    if isinstance(node, ast.BinOp) and isinstance(node.left, ast.Constant) \
            and isinstance(node.right, ast.Constant):
        base, exp = node.left.value, node.right.value
        return ((isinstance(node.op, ast.Pow) and base == 2 and exp in bits)
                or (isinstance(node.op, ast.LShift) and base == 1 and exp in bits))
    return isinstance(node, ast.Constant) and node.value in {2 ** b for b in bits}


def test_dtype_thresholds_only_in_exact_dtype():
    # every exact kernel picks its arithmetic through graphs.exact_dtype, so
    # no kernel grows its own float32/float64/int64 rule again
    found, inside = [], []
    for path, tree in _parsed():
        helpers = [node for node in ast.walk(tree)
                   if isinstance(node, FUNCTIONS) and node.name == "exact_dtype"]
        allowed = {id(n) for h in helpers for n in ast.walk(h)}
        for node in ast.walk(tree):
            if _dtype_threshold(node):
                (inside if id(node) in allowed else found).append(
                    f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert found == []
    assert sorted(x.split(" ", 1)[1] for x in inside) == ["2 ** 24", "2 ** 53", "2 ** 63"]


def _float_dtype(node):
    """Whether ``node`` names float32 or float64."""
    names = {"float32", "float64"}
    return ((isinstance(node, ast.Attribute) and node.attr in names)
            or (isinstance(node, ast.Name) and node.id in names)
            or (isinstance(node, ast.Constant) and node.value in names))


def test_float_dtypes_only_in_exact_dtype_or_built_matrices():
    # a product's arithmetic comes from exact_dtype; a float literal may only
    # name the dtype of a 0/1 adjacency or incidence matrix being built
    found = []
    for name in ("graphs.py", "homcount.py"):
        tree = ast.parse((SRC / name).read_text())
        allowed = set()
        for node in ast.walk(tree):
            if (isinstance(node, FUNCTIONS) and node.name == "exact_dtype") or (
                    isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("adjacency_matrix", "incidence_matrix", "zeros")):
                allowed |= {id(n) for n in ast.walk(node)}
        found += [f"{name}:{node.lineno} {ast.unparse(node)}" for node in ast.walk(tree)
                  if _float_dtype(node) and id(node) not in allowed]
    assert found == []


def test_cli_verbs_return_data_and_main_writes():
    # each cmd_ is a function of the parsed options that returns (payload,
    # exit code); main alone writes the document
    tree = ast.parse((SRC / "cli.py").read_text())
    funcs = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    verbs = [f for f in funcs if f.name.startswith("cmd_")]
    assert len(verbs) == 7
    for func in verbs:
        assert [a.arg for a in func.args.args] == ["args"], func.name
        returns = [node.value for node in ast.walk(func) if isinstance(node, ast.Return)]
        assert returns and all(isinstance(r, ast.Tuple) and len(r.elts) == 2
                               for r in returns), func.name
    callers = [f.name for f in funcs for node in ast.walk(f) if isinstance(node, ast.Call)
               and isinstance(node.func, ast.Name) and node.func.id == "_emit"]
    assert callers == ["main"]


def _append_only_locals(tree):
    """``function: name`` for each name a function assigns whose every read
    is the receiver of an ``.append`` or ``.extend`` call."""
    parent = {id(child): node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, FUNCTIONS):
            continue
        stored, reads = set(), {}
        for node in ast.walk(func):
            if isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Store):
                    stored.add(node.id)
                else:
                    up = parent[id(node)]
                    grown = (isinstance(up, ast.Attribute) and up.attr in ("append", "extend")
                             and isinstance(parent[id(up)], ast.Call) and parent[id(up)].func is up)
                    reads.setdefault(node.id, []).append(grown)
        found += [f"{func.name}: {name}" for name in sorted(stored)
                  if reads.get(name) and all(reads[name])]
    return found


def test_no_local_only_grown():
    # a list that is appended to and never read is work nobody uses
    found = []
    for path, tree in _parsed():
        found += [f"{path.name} {x}" for x in _append_only_locals(tree)]
    assert found == []
