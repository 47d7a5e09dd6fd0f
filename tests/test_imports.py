"""What the package imports and defines.

No run loads scipy, no module imports a name it never uses, no private
helper and no public function or class is left unreferenced, and no public
method is left unreferenced beyond a list that may only shrink.

The parent test process has imported everything the other tests use, so
the scipy check runs in a subprocess.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import diractorus
from diractorus import check_hypotheses, make_nonlinearity

SCRIPT = """
import json, sys
import diractorus as d

def loaded():
    return sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))

out = {"import": loaded()}
table = d.assemble(2, 8, n_grid=64)
params = d.TestSpinorParams(eps=0.2)
psi = d.build_test_spinor(table.grid, table.rep, params)
d.energy_report(table, d.split(table, 0.5), psi, params=params)
out["sweep"] = loaded()
d.minimize_M(d.split(d.assemble(2, 6), 0.7), d.make_nonlinearity("power", 2, alpha=1, p=3))
out["solve"] = loaded()
out["report"] = d.check_hypotheses(d.make_nonlinearity("power", 2, alpha=1, p=3))
out["hypotheses"] = loaded()
d.minimize_M(d.split(d.assemble(2, 4), -0.5), d.make_nonlinearity("power", 2, alpha=1, p=3))
out["nonpositive"] = loaded()
from diractorus.testspinor import omega_identity_residual
omega_identity_residual(2)
out["bubble"] = loaded()
print(json.dumps(out))
"""


def test_a_sweep_or_a_solve_loads_no_solver_stack():
    # the transforms are numpy.fft and numpy.matmul, the solvers' L-BFGS and
    # GMRES are the package's own (``iterative``), and the radial integrals of
    # (f5), the lambda <= 0 probe and criterion 5 are one numpy
    # Gauss-Legendre rule, so no path needs scipy at all
    src = str(Path(diractorus.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    out = json.loads(run.stdout)
    assert out["import"] == [] and out["sweep"] == []
    assert out["solve"] == []
    assert out["hypotheses"] == []
    assert out["nonpositive"] == [] and out["bubble"] == []
    assert out["report"] == check_hypotheses(make_nonlinearity("power", 2, alpha=1, p=3))


def _package_trees():
    package = Path(diractorus.__file__).parent
    return {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}


def _unused_imports(tree):
    """Names a module's import statements bind that no expression reads and ``__all__`` does not list."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {alias.asname or alias.name for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return sorted(bound - read)


def test_no_module_imports_a_name_it_never_uses():
    # no linter is part of the toolchain; a deletion that leaves its import
    # behind (a helper's last caller gone, its module still importing it)
    # shows up here
    unused = {name: _unused_imports(tree) for name, tree in _package_trees().items()}
    assert {name: names for name, names in unused.items() if names} == {}
    assert _unused_imports(ast.parse("from math import comb, gamma\nx = gamma(2)\n")) == ["comb"]


def _reads(trees):
    """Every name an expression in ``trees`` reads, by name, as an attribute or under an import alias, and every name an ``__all__`` lists."""
    read, aliases = set(), {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                aliases.update((alias.asname, alias.name) for alias in node.names if alias.asname)
            elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                read |= set(ast.literal_eval(node.value))
    return read | {name for asname, name in aliases.items() if asname in read}


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _unreferenced_private(trees):
    """Private functions and classes (one leading underscore, any depth) whose name no expression in ``trees`` reads."""
    defined = {
        node.name
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, DEFINITIONS) and node.name.startswith("_") and not node.name.endswith("__")
    }
    return sorted(defined - _reads(trees))


def _unreferenced_public(trees):
    """``module.name`` of each public top-level function and class of ``trees`` (a dict by module) that nothing reads."""
    read = _reads(trees.values())
    return sorted(
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, DEFINITIONS) and not node.name.startswith("_") and node.name not in read
    )


def test_no_private_helper_is_left_unreferenced():
    # a change that removes a helper's last caller leaves the helper behind;
    # the package's own code must read every private function and class it
    # defines, whether by name, as a method or as an attribute
    assert _unreferenced_private(list(_package_trees().values())) == []
    sample = (
        "def _used():\n    pass\n\ndef _orphan():\n    pass\n\n"
        "class _Cls:\n    def _method(self):\n        return _used()\n\n_Cls()\n"
    )
    assert _unreferenced_private([ast.parse(sample)]) == ["_method", "_orphan"]


# public names that only tests call; each should feed a record or a command,
# or go with the tests that exercise it.  The list may only shrink
UNREFERENCED_PUBLIC = []


def test_no_public_function_is_left_unreferenced():
    # the same for the public top-level functions and classes: the package
    # must reach each one, by an expression of any module (the CLI's and the
    # acceptance suite's tables included) or by ``__all__``
    assert _unreferenced_public(_package_trees()) == UNREFERENCED_PUBLIC
    sample = {
        "a": ast.parse("def used():\n    pass\n\ndef orphan():\n    pass\n\nclass Exported:\n    def method(self):\n        pass\n"),
        "b": ast.parse("import a\n__all__ = ['Exported']\nTABLE = {'x': a.used}\n"),
        "c": ast.parse("from .a import renamed as _renamed, unread as _unread\n_renamed()\n"),
        "d": ast.parse("def renamed():\n    pass\n\ndef unread():\n    pass\n"),
    }
    assert _unreferenced_public(sample) == ["a.orphan", "d.unread"]


def _unreferenced_methods(trees):
    """``module.Class.method`` of each public method of a class of ``trees`` (a dict by module) that nothing reads."""
    read = _reads(trees.values())
    return sorted(
        f"{module}.{cls.name}.{node.name}"
        for module, tree in trees.items()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, DEFINITIONS) and not node.name.startswith("_") and node.name not in read
    )


# public methods that only tests call, as references for the package's own
# arithmetic.  The list may only shrink
UNREFERENCED_METHODS = [
    "nonlinearity.Nonlinearity.consistency_residual",
    "nonlinearity.Nonlinearity.g_prime",
]


def test_no_public_method_is_left_unreferenced():
    # a method outlives its last caller as easily as a function does; private
    # methods fall under the private-helper check, dunders are called by
    # Python itself
    assert _unreferenced_methods(_package_trees()) == UNREFERENCED_METHODS
    sample = {
        "a": ast.parse(
            "class Cls:\n    def __init__(self):\n        pass\n\n    def used(self):\n        pass\n\n"
            "    @property\n    def size(self):\n        return 1\n\n    def orphan(self):\n        pass\n\n"
            "def make():\n    c = Cls()\n    return c.used(), c.size\n"
        ),
        "b": ast.parse("class Other:\n    def unread(self):\n        pass\n"),
    }
    assert _unreferenced_methods(sample) == ["a.Cls.orphan", "b.Other.unread"]
