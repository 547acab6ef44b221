"""Every module of the package uses each name it imports, and only
integrals imports the chain-sum kernel.

The package's __init__.py imports names only to re-export them, so it
is not checked.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "solvhull"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by the imports in source that no expression reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_unused_imports_are_found():
    source = "import os\nimport numpy as np\nfrom math import pi, tau\nprint(np.sqrt(pi))\n"
    assert unused_imports(source) == ["os", "tau"]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def imported_names(source):
    """Names that the from-imports in source take from other modules."""
    tree = ast.parse(source)
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def test_only_integrals_imports_the_chain_kernel():
    """Every chain sum goes through integrals.chain_sums, which alone builds the kernel's input."""
    users = [m for m in MODULES if "exp_chain_sum" in imported_names((PACKAGE / m).read_text())]
    assert users == ["integrals.py"]
