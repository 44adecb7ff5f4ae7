"""Module boundaries inside homfib.

A name with a leading underscore is private to the module that defines
it, so no module of the package imports one from another.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "homfib"

# borel.ThickRealization lists its cells with sset's Eilenberg-Zilber
# enumerator; what is left of ROADMAP item 2 is to give that enumerator a
# public face
ALLOWED = {("borel", "sset", name) for name in ("_by_dimension", "_ez_cells", "_ez_groups")}


def private_imports(path: Path) -> set[tuple[str, str, str]]:
    """(importer, module, name) for each underscored name the file imports
    from another homfib module."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0:
            if not module.startswith("homfib."):
                continue
            module = module[len("homfib."):]
        for alias in node.names:
            if alias.name.startswith("_") and module != path.stem:
                found.add((path.stem, module, alias.name))
    return found


def test_no_module_imports_another_modules_private_names():
    found = set().union(*(private_imports(path) for path in sorted(SRC.glob("*.py"))))
    assert found - ALLOWED == set()


def test_the_check_sees_private_imports(tmp_path):
    path = tmp_path / "cli.py"
    path.write_text("from .homology import _is_prime, homology\n"
                    "from homfib.sset import _members\n"
                    "def f():\n    from .snf import _replay\n")
    assert private_imports(path) == {("cli", "homology", "_is_prime"),
                                     ("cli", "sset", "_members"), ("cli", "snf", "_replay")}
