"""Every module of the package uses each name it imports, only
integrals imports the chain-sum kernel, every function the package
defines is read by the package, the benchmark or the README, whose
quick start runs, every exception class is raised or caught by the
package, realness is checked by value only where tables are built, only
static tables use functools.lru_cache, and a verify run never imports
scipy.

The package's __init__.py imports names only to re-export them, so it
is not checked, and its exports do not count as reads.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "solvhull"
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
    """Every chain value goes through integrals.chain_values, which alone builds the kernel's input."""
    users = [m for m in MODULES if "exp_chain_values" in imported_names((PACKAGE / m).read_text())]
    assert users == ["integrals.py"]


def defined_functions(source):
    """Qualified names of the functions and methods in source, dunders excepted."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef) and not child.name.startswith("__"):
                    found.append(name)
                visit(child, name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return found


def read_names(source):
    """Names that source reads as a name, an attribute or a dotted part of a string."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.update(node.value.split("."))
    return read


def unread_functions(defining, reading):
    """Qualified functions of the defining sources whose name no reading source reads."""
    read = set().union(*(read_names(source) for source in reading))
    return sorted(
        name
        for source in defining
        for name in defined_functions(source)
        if name.rpartition(".")[2] not in read
    )


def readme_example():
    """The README's Python quick start."""
    text = (REPO / "README.md").read_text()
    return text.split("```python\n", 1)[1].split("```", 1)[0]


def test_unread_functions_are_found():
    source = (
        "class A:\n"
        "    def __init__(self): pass\n"
        "    def used(self): pass\n"
        "    def spare(self): pass\n"
        "def helper(): pass\n"
        "def named(): pass\n"
        "def idle(): pass\n"
    )
    reader = "A().used()\nhelper()\nTARGET = 'A.named'\n"
    assert unread_functions([source], [reader]) == ["A.spare", "idle"]


def test_every_function_is_read_by_the_package_benchmark_or_readme():
    """A function that only the tests call belongs in the tests."""
    sources = [(PACKAGE / m).read_text() for m in MODULES]
    bench = [
        p.read_text()
        for p in sorted((REPO / "perfbench").glob("*.py"))
        if p.name != "test_perfbench.py"
    ]
    assert unread_functions(sources, sources + bench + [readme_example()]) == []


def unraised_exceptions(errors_source, sources):
    """Classes of errors_source whose name no source reads outside an import.

    A raise, an except clause or passing the class on to one reads it.
    """
    read = set().union(*(read_names(source) for source in sources))
    tree = ast.parse(errors_source)
    return sorted(
        node.name for node in tree.body if isinstance(node, ast.ClassDef) and node.name not in read
    )


def test_unraised_exceptions_are_found():
    errors = (
        "class Raised(Exception): pass\n"
        "class Passed(Exception): pass\n"
        "class Idle(Exception): pass\n"
    )
    user = (
        "from .errors import Idle, Passed, Raised\n"
        "def f(error=Passed):\n"
        "    raise Raised('no')\n"
    )
    assert unraised_exceptions(errors, [user]) == ["Idle"]


def test_every_exception_class_is_raised_or_caught_by_the_package():
    """An exception class that nothing raises is dead; the tests cannot make it live."""
    sources = [(PACKAGE / m).read_text() for m in MODULES if m != "errors.py"]
    assert unraised_exceptions((PACKAGE / "errors.py").read_text(), sources) == []


def realness_checks(source):
    """Qualified names of the functions of source that call x.imag.any(), "" at module level."""
    found = []

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{name}.{child.name}" if name else child.name)
                continue
            func = child.func if isinstance(child, ast.Call) else None
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "any"
                and isinstance(func.value, ast.Attribute)
                and func.value.attr == "imag"
            ):
                found.append(name)
            visit(child, name)

    visit(ast.parse(source), "")
    return found


# The build sites: the one realness rule, and the connection form's joint
# decision over omega and psi's entries.
REALNESS_SITES = {("linalg.py", "real_if_exact"), ("connection.py", None)}


def stray_realness_checks(sources):
    """(module, function) of every x.imag.any() call of the sources outside the build sites."""
    return sorted(
        (module, name)
        for module, source in sources.items()
        for name in realness_checks(source)
        if not {(module, name), (module, None)} & REALNESS_SITES
    )


def test_stray_realness_checks_are_found():
    rule = "def real_if_exact(*arrays):\n    return not any(a.imag.any() for a in arrays)\n"
    stray = (
        "class Word:\n"
        "    def segment(self, x):\n"
        "        return x.real if not x.imag.any() else x\n"
        "CHECK = [0j].imag.any()\n"
    )
    assert realness_checks(rule) == ["real_if_exact"]
    sources = {"linalg.py": rule + stray, "connection.py": stray, "integrals.py": stray}
    assert stray_realness_checks(sources) == [
        ("integrals.py", ""), ("integrals.py", "Word.segment"), ("linalg.py", ""), ("linalg.py", "Word.segment"),
    ]


def test_realness_is_checked_only_where_tables_are_built():
    """No evaluation function looks at values to choose its dtype."""
    sources = {m: (PACKAGE / m).read_text() for m in MODULES}
    assert stray_realness_checks(sources) == []
    assert "real_if_exact" in realness_checks(sources["linalg.py"])


def bounded_lru_caches(source):
    """Lines of source that name lru_cache other than in a call with maxsize None.

    Only a static table, built once per argument for good, may use
    functools.lru_cache, and then unbounded; a bounded cache of an
    object's values is a linalg.Memo.
    """

    def unbounded(call):
        given = call.args + [k.value for k in call.keywords if k.arg == "maxsize"]
        return len(given) == 1 and isinstance(given[0], ast.Constant) and given[0].value is None

    tree = ast.parse(source)
    allowed = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call) and unbounded(node)}
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if "lru_cache" in (getattr(node, "id", None), getattr(node, "attr", None)) and id(node) not in allowed
    )


def test_bounded_lru_caches_are_found():
    source = (
        "import functools\n"
        "from functools import lru_cache\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def table(n): pass\n"
        "@lru_cache(maxsize=256)\n"
        "def bounded(n): pass\n"
        "@lru_cache\n"
        "def default(n): pass\n"
        "held = functools.lru_cache(maxsize=8)(len)\n"
        "typed = lru_cache(typed=True)(len)\n"
        "unbounded = lru_cache(None, typed=True)(len)\n"
        "@functools.cache\n"
        "def parser(): pass\n"
    )
    assert bounded_lru_caches(source) == [5, 7, 9, 10]


def test_only_static_tables_use_lru_cache():
    """Every per-object cache of the package is a linalg.Memo."""
    found = {p.name: bounded_lru_caches(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    assert "linalg.py" in found
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_readme_quick_start_runs():
    """The documented API: the quick start exits 0 in a fresh interpreter."""
    res = subprocess.run(
        [sys.executable, "-c", readme_example()], capture_output=True, text=True, timeout=120
    )
    assert res.returncode == 0, res.stderr


def test_verify_runs_without_scipy():
    """scipy is a test-only oracle: verify in a fresh interpreter never imports it."""
    code = (
        "import contextlib, io, sys\n"
        "import solvhull\n"
        "from solvhull import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['verify', '--example', 'sect4']) == 0\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert 'scipy' not in sys.modules, loaded\n"
    )
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert res.returncode == 0, res.stderr
