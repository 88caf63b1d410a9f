"""The tracked size budget of ``src/leadfollow``: parameters with defaults."""

import ast
from pathlib import Path

import leadfollow

MAX_DEFAULTS = 13


def _defaults(tree) -> int:
    """Positional plus keyword-only defaults of every function and lambda."""
    return sum(len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
               for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))


def test_defaults_within_budget():
    """A default that no caller sets is an option nobody runs; the count
    may only fall."""
    files = sorted(Path(leadfollow.__file__).parent.glob("*.py"))
    assert files
    count = sum(_defaults(ast.parse(f.read_text())) for f in files)
    assert count <= MAX_DEFAULTS
