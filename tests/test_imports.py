"""The intra-package import graph, its private names and the one index check, pinned.

Pipelines do not read one another's results: each module may import only the
package modules listed here, so a new edge is a deliberate edit of this table.
``verify`` is where pipelines are compared, so only it (and the front ends
``cli`` and ``__init__``) imports several of them.
``dyck`` imports ``polynomials`` for the index check and the packed-row
reader ``_unpack``; ``kl`` and ``equivariant`` also import both halves of
the codec, for their packed rows, and its one slot rule ``_slot_bits``.  The
private names that cross a module boundary are the kernel's index check,
coercion and packed-polynomial codec, the reflection core, which the
lattice engine calls on coefficient lists, and the partition check, which
``equivariant`` applies to the shapes its closed form is read at.
"""

import ast
from pathlib import Path

import thagkl

PACKAGE = Path(thagkl.__file__).resolve().parent

ALLOWED = {
    "__init__": {"dyck", "equivariant", "flats", "kl", "polynomials", "symfunc", "verify"},
    "__main__": {"cli"},
    "polynomials": set(),
    "dyck": {"polynomials"},
    "symfunc": {"polynomials"},
    "flats": {"polynomials"},
    # kl -> dyck is the last cross-pipeline edge: verify_theorem builds its own
    # Dyck rows.  It moves to verify with ROADMAP item 5, because the bench
    # traces kl.verify_theorem, Dyck rows included, by this path.
    "kl": {"dyck", "polynomials"},
    "equivariant": {"polynomials", "symfunc"},
    "verify": {"dyck", "equivariant", "flats", "kl", "polynomials"},
    "cli": {"dyck", "equivariant", "flats", "kl", "symfunc", "verify"},
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


# per importing module, the private names it imports from package modules
PRIVATE_IMPORTS = {
    "dyck": {"polynomials._check_index", "polynomials._unpack"},
    "symfunc": {"polynomials._as_poly", "polynomials._check_index"},
    "flats": {"polynomials._check_index", "polynomials._pack", "polynomials._solve_reflection",
              "polynomials._unpack"},
    "kl": {"polynomials._check_index", "polynomials._pack", "polynomials._slot_bits",
           "polynomials._unpack"},
    "equivariant": {"polynomials._check_index", "polynomials._pack", "polynomials._slot_bits",
                    "polynomials._unpack", "symfunc._checked_partition"},
    "verify": {"polynomials._check_index"},
}


def private_imports(path: Path) -> set[str]:
    """``module._name`` for each private name the module at ``path`` imports from the package."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.module:
            parts = node.module.split(".")
            if node.level == 0 and parts[0] != "thagkl":
                continue
            module = parts[-1]
            found.update(f"{module}.{alias.name}" for alias in node.names
                         if alias.name.startswith("_"))
    return found


def test_private_imports_are_pinned():
    found = {path.stem: private_imports(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert {stem: names for stem, names in found.items() if names} == PRIVATE_IMPORTS


def test_private_import_scan_sees_both_import_forms(tmp_path):
    # negative control: an absolute and a relative import of a private name
    source = tmp_path / "probe.py"
    source.write_text("from thagkl.symfunc import _checked_partition\nfrom .flats import Graph, _selector\n")
    assert private_imports(source) == {"symfunc._checked_partition", "flats._selector"}


def _bool_checks(path: Path) -> list[tuple[str, str | None]]:
    """(module, innermost enclosing function) of each ``isinstance(..., bool)`` call."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    owner = {}
    # ast.walk is breadth first, so an inner function overwrites its outer one
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                owner[node] = func.name
    return [
        (path.stem, owner.get(node))
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance"
        and len(node.args) == 2
        and any(isinstance(n, ast.Name) and n.id == "bool" for n in ast.walk(node.args[1]))
    ]


def test_bools_are_rejected_in_one_place():
    # every index argument shares polynomials._check_index, so the type and
    # range contract cannot split into per-module variants again
    found = [hit for path in sorted(PACKAGE.glob("*.py")) for hit in _bool_checks(path)]
    assert found == [("polynomials", "_check_index")]
