"""The theorem core stands without the tiling layer: no core module imports
``bases`` or ``keller``, read from each module's import statements."""

import ast
from pathlib import Path

import nsgleason

CORE = ["linalg", "tolerances", "framefn", "gleason", "nosig", "presheaf", "orientation"]
TILING = {"bases", "keller"}


def imported_modules(path: Path) -> set:
    """The nsgleason modules a source file names in its imports, by their last part."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names |= {a.name.split(".")[-1] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                names.add(node.module.split(".")[-1])
            if node.level or node.module == "nsgleason":  # from . import bases
                names |= {a.name for a in node.names}
    return names


def test_core_modules_import_no_tiling_module():
    src = Path(nsgleason.__file__).parent
    # keller imports bases, so an empty reading could not pass vacuously.
    assert "bases" in imported_modules(src / "keller.py")
    found = {m: sorted(imported_modules(src / f"{m}.py") & TILING) for m in CORE}
    assert not any(found.values()), found
