"""What the package imports and defines.

No run loads scipy, no module imports a name it never uses, and no private
helper is left unreferenced.

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
    # the transforms are numpy.fft, the solvers' L-BFGS and GMRES are the
    # package's own (``iterative``), and the radial integrals of (f5), the
    # lambda <= 0 probe and criterion 5 are one numpy Gauss-Legendre rule, so
    # no path needs scipy at all
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
    package = Path(diractorus.__file__).parent
    unused = {path.name: _unused_imports(ast.parse(path.read_text())) for path in sorted(package.glob("*.py"))}
    assert {name: names for name, names in unused.items() if names} == {}
    assert _unused_imports(ast.parse("from math import comb, gamma\nx = gamma(2)\n")) == ["comb"]


def _unreferenced_private(trees):
    """Private functions and classes (one leading underscore, any depth) whose name no expression in ``trees`` reads."""
    defined = {
        node.name
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.endswith("__")
    }
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(defined - read)


def test_no_private_helper_is_left_unreferenced():
    # a change that removes a helper's last caller leaves the helper behind;
    # the package's own code must read every private function and class it
    # defines, whether by name, as a method or as an attribute
    package = Path(diractorus.__file__).parent
    trees = [ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))]
    assert _unreferenced_private(trees) == []
    sample = (
        "def _used():\n    pass\n\ndef _orphan():\n    pass\n\n"
        "class _Cls:\n    def _method(self):\n        return _used()\n\n_Cls()\n"
    )
    assert _unreferenced_private([ast.parse(sample)]) == ["_method", "_orphan"]
