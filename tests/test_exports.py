"""The package's public names."""

import inspect

import diractorus


def test_every_export_resolves():
    # a deletion that leaves its name in __all__ shows up here
    missing = [name for name in diractorus.__all__ if not hasattr(diractorus, name)]
    assert not missing
    assert len(set(diractorus.__all__)) == len(diractorus.__all__)


def test_the_benchmark_surface_resolves():
    # every name bench/workloads.py calls on the package; its own smoke test
    # (bench/test_smoke.py) is slower and runs apart from this suite
    names = [
        "minimize_M", "split", "assemble", "make_nonlinearity", "TestSpinorParams",
        "build_test_spinor", "energy_report", "gamma_crit", "residual_check", "L_lambda",
    ]
    assert [name for name in names if not callable(getattr(diractorus, name, None))] == []
    assert issubclass(diractorus.branch.GuardViolationError, Exception)
    assert "params" in inspect.signature(diractorus.energy_report).parameters


def test_every_traced_layer_resolves():
    # the layers the benchmark's tracer wraps, looked up where it looks them
    # up: in the module namespace, or on the class for the EigenTable methods;
    # a move that drops one would leave its layer metrics reading zero
    layers = {
        "torus": ("synthesize", "analyze"),
        "variational": ("sphere_minimize", "fiber_maximize", "_inner_maximize", "t_lambda"),
        "branch": ("minimize_M", "polish_residual", "residual_check"),
        "testspinor": ("build_test_spinor", "energy_report"),
    }
    targets = [(getattr(diractorus, mod), attr) for mod, attrs in layers.items() for attr in attrs]
    targets += [(diractorus.spectral.EigenTable, attr) for attr in ("to_eigen", "from_eigen")]
    assert [f"{owner.__name__}.{attr}" for owner, attr in targets if not callable(vars(owner).get(attr))] == []
