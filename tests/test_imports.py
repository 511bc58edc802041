"""Every import in the library modules and the tests is used where it is
imported.

No linter ships with the test dependencies, so this walks the syntax tree
of each module in src/tripanel (the package __init__ re-exports, so it is
skipped) and in tests: a name bound by an import must be read somewhere in
its module, unless the import's line carries ``# noqa: F401`` (an attribute
kept for a caller that looks it up on the module).  The one such caller is
the traced benchmark: each ``noqa`` import must name an attribute that a
``bench/layers.py`` ``SITES`` entry looks up on that module, read here from
that file's syntax tree without importing it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "tripanel"
LAYERS = ROOT / "bench" / "layers.py"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TESTS = sorted((ROOT / "tests").glob("*.py"))


def imports(path):
    """(line, name, noqa, read) for each name an import binds in the
    module: whether its line carries ``# noqa: F401`` and whether the
    module reads the name."""
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
    return [(alias.lineno, name, "# noqa: F401" in lines[alias.lineno - 1],
             name in read) for alias, name in bound]


def site_lookups(path=LAYERS):
    """{(module, attribute)} that the SITES list of bench/layers.py looks up:
    its (module, "attr", ...) tuples, and its *[(module, f, ...) for f in
    NAMES] comprehensions over a literal tuple or a module-level one."""
    tree = ast.parse(path.read_text())
    consts, sites = {}, None
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            if node.targets[0].id == "SITES":
                sites = node.value
            elif isinstance(node.value, ast.Tuple):
                consts[node.targets[0].id] = ast.literal_eval(node.value)
    assert sites is not None, "bench/layers.py has no SITES list"
    out = set()
    for item in sites.elts:
        if isinstance(item, ast.Tuple):
            module, attr = item.elts[:2]
            out.add((module.id, ast.literal_eval(attr)))
        else:
            comp = item.value
            names = comp.generators[0].iter
            values = (consts[names.id] if isinstance(names, ast.Name)
                      else ast.literal_eval(names))
            out |= {(comp.elt.elts[0].id, v) for v in values}
    return out


def test_every_import_is_used():
    assert MODULES and TESTS
    found = [f"{p.name}:{line} {name}" for p in MODULES + TESTS
             for line, name, noqa, read in imports(p) if not (noqa or read)]
    assert not found, "unused imports (use them, drop them, or mark # noqa: F401): " \
        + ", ".join(found)


def test_every_noqa_import_is_a_bench_site():
    sites = site_lookups()
    assert ("bem", "assemble") in sites and ("qsa", "qsa_vertex") in sites
    stale = [f"{p.name}:{line} {name}" for p in MODULES
             for line, name, noqa, _ in imports(p)
             if noqa and (p.stem, name) not in sites]
    assert not stale, "noqa imports that no bench/layers.py SITES entry " \
        "looks up (drop them): " + ", ".join(stale)
