"""Every import in the library modules is used where it is imported.

No linter ships with the test dependencies, so this walks the syntax tree
of each module in src/tripanel (the package __init__ re-exports, so it is
skipped): a name bound by an import must be read somewhere in its module,
unless the import's line carries ``# noqa: F401`` (an attribute kept for a
caller that looks it up on the module).
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tripanel"


def unused_imports(path):
    """(line, name) of each imported name that its module never reads."""
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(a, (a.asname or a.name).split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(a, a.asname or a.name) for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(alias.lineno, name) for alias, name in bound
            if name not in read and "# noqa: F401" not in lines[alias.lineno - 1]]


def test_every_import_is_used():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    found = [f"{p.name}:{line} {name}" for p in modules for line, name in unused_imports(p)]
    assert not found, "unused imports (use them, drop them, or mark # noqa: F401): " \
        + ", ".join(found)
