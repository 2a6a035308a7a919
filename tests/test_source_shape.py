"""Shape checks on the package source, made by parsing it."""
import ast
from pathlib import Path

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
