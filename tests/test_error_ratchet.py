"""Ratchet on the error contract: library code raises no bare ValueError.

Every bad input fails as a ``VoicemaskError`` subclass; where a bare
``ValueError`` used to be raised, the subclass also derives from
``ValueError``. The allowlist below is empty, so any ``raise ValueError``
in ``src/voicemask`` fails this test.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "voicemask"

# (module, enclosing function) -> number of bare ``raise ValueError`` in it.
ALLOWED = Counter()


def _raises_value_error(node: ast.Raise) -> bool:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "ValueError"


def bare_value_errors(path: Path) -> Counter:
    """Count the bare ``raise ValueError`` statements per enclosing function."""
    found = Counter()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
            else:
                if isinstance(child, ast.Raise) and child.exc is not None:
                    if _raises_value_error(child):
                        found[(path.name, ".".join(scope))] += 1
                visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), [])
    return found


def test_no_bare_value_error_outside_the_allowlist():
    found = Counter()
    for path in sorted(SRC.glob("*.py")):
        found += bare_value_errors(path)
    assert found == ALLOWED, (
        f"new bare ValueError sites: {dict(found - ALLOWED)}; "
        f"sites gone from the allowlist (remove them): {dict(ALLOWED - found)}"
    )


def test_the_walk_sees_each_form(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "def f():\n    raise ValueError('x')\n"
        "class C:\n    def g(self):\n        if True:\n            raise ValueError\n"
        "def h():\n    raise KeyError('x')\n",
        encoding="utf-8",
    )
    assert bare_value_errors(source) == Counter({("sample.py", "f"): 1, ("sample.py", "C.g"): 1})
