"""Every module-level import in the package and in `tests/reference.py` is used.

A name imported at the top of a module under `src/gaugelab`, or of
`tests/reference.py`, must be read somewhere in that module.  `__init__.py`
is left out: its imports are the package's re-exports.  The check reads the
source with `ast` and counts a name as used when it appears as a `Name` node
anywhere in the module (annotations included), so `np.zeros` uses `np`.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gaugelab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py") + [
    PACKAGE.parents[1] / "tests" / "reference.py"]


def imported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_level_imports_are_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [name for name in imported_names(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {unused}"
