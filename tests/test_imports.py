"""The intra-package import graph, pinned.

Pipelines do not read one another's results: each module may import only the
package modules listed here, so a new edge is a deliberate edit of this table.
"""

import ast
from pathlib import Path

import thagkl

PACKAGE = Path(thagkl.__file__).resolve().parent

ALLOWED = {
    "__init__": {"dyck", "equivariant", "flats", "kl", "polynomials", "symfunc", "verify"},
    "__main__": {"cli"},
    "polynomials": set(),
    "dyck": set(),
    "symfunc": {"polynomials"},
    "flats": {"polynomials"},
    "kl": {"dyck", "polynomials"},
    "equivariant": {"kl", "polynomials", "symfunc"},
    "verify": {"dyck", "equivariant", "flats", "kl", "polynomials"},
    "cli": {"dyck", "equivariant", "flats", "kl", "polynomials", "symfunc", "verify"},
}


def package_imports(path: Path) -> set[str]:
    """Names of the ``thagkl`` modules that the module at ``path`` imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0:
                parts = (node.module or "").split(".")
                if parts[0] == "thagkl":
                    found.add(parts[1] if len(parts) > 1 else "__init__")
            elif node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "thagkl":
                    found.add(parts[1] if len(parts) > 1 else "__init__")
    return found


def test_import_graph_is_pinned():
    graph = {path.stem: package_imports(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert graph == ALLOWED
