"""The tracked size budget of ``src/leadfollow``: its line count and its
parameters with defaults; and no unused imports in the package or its tests."""

import ast
from pathlib import Path

import leadfollow

MAX_DEFAULTS = 11
MAX_LINES = 2332
PACKAGE = Path(leadfollow.__file__).parent
TESTS = Path(__file__).parent


def _defaults(tree) -> int:
    """Positional plus keyword-only defaults of every function and lambda."""
    return sum(len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
               for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))


def test_defaults_within_budget():
    """A default that no caller sets is an option nobody runs; the count
    may only fall."""
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    count = sum(_defaults(ast.parse(f.read_text())) for f in files)
    assert count <= MAX_DEFAULTS


def test_src_lines_within_budget():
    """The package's line count is a tracked number; it may only fall."""
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    count = sum(len(f.read_text().splitlines()) for f in files)
    assert count <= MAX_LINES


def _unused_imports(tree) -> list[str]:
    """Names bound by an import that the module never loads, nor lists in
    ``__all__`` (a package's re-exports)."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "annotations":
                    bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


def test_no_unused_imports():
    files = sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))
    unused = {f.name: found for f in files
              if (found := _unused_imports(ast.parse(f.read_text())))}
    assert unused == {}
