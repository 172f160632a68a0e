"""Every module-level import in the package and in `tests/reference.py` is
used, and the reference imports only gaugelab's data types.

A name imported at the top of a module under `src/gaugelab`, or of
`tests/reference.py`, must be read somewhere in that module.  `__init__.py`
is left out: its imports are the package's re-exports.  The check reads the
source with `ast` and counts a name as used when it appears as a `Name` node
anywhere in the module (annotations included), so `np.zeros` uses `np`.

No module of the package imports another module's private name: a rule
two modules need lives, public, in one of them.  `from . import _kernels`
imports a module, and stays allowed.

The reference states each concept from its definition, so of gaugelab it may
import only the types and constants of the data it reads and returns, never
the code its oracles are checked against.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gaugelab"
REFERENCE = PACKAGE.parents[1] / "tests" / "reference.py"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py") + [REFERENCE]
REFERENCE_MAY_IMPORT = {"MaxDepthExceeded", "D0", "D1", "Dyadic", "Interval", "UNIT",
                        "TaggedInterval", "IntegrandFn", "ValueSpace", "VectorValue"}


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


def test_no_module_imports_a_private_name_of_another():
    private = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            # `from . import _x` has no module: it imports the module _x
            if isinstance(node, ast.ImportFrom) and node.level and node.module:
                private += [f"{path.name}: {node.module}.{alias.name}"
                            for alias in node.names if alias.name.startswith("_")]
    assert not private, private


def test_reference_imports_only_data_types():
    tree = ast.parse(REFERENCE.read_text(), filename=str(REFERENCE))
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names if alias.name.startswith("gaugelab")]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("gaugelab"):
            names += [alias.name for alias in node.names]
    assert set(names) <= REFERENCE_MAY_IMPORT, sorted(set(names) - REFERENCE_MAY_IMPORT)
