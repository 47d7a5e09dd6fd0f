"""The package's public names."""

import inspect

import numpy as np
import pytest

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


def test_the_benchmark_call_shapes_bind():
    # every call bench/workloads.py makes on the package, in the same shape:
    # the same positional arguments and keywords.  A change that drops or
    # renames a parameter the benchmark passes fails here, not only in the
    # benchmark's smoke test
    arg = object()  # binding checks the shape of a call, not its values
    calls = [
        (diractorus.assemble, (2, 16), {}),
        (diractorus.assemble, (2, 48), {"n_grid": 512}),
        (diractorus.make_nonlinearity, ("bnd", 2), {}),
        (diractorus.split, (arg, 0.7), {}),
        (diractorus.minimize_M, (arg, arg), {"maxiter": 120}),
        (diractorus.TestSpinorParams, (), {"eps": 0.2}),
        (diractorus.build_test_spinor, (arg, arg, arg), {}),
        (diractorus.energy_report, (arg, arg, arg), {"params": arg}),
        (diractorus.gamma_crit, (2,), {}),
        (diractorus.residual_check, (arg, arg, arg, 0.7), {}),
        (diractorus.L_lambda, (arg, arg, arg, 0.7), {}),
    ]
    unbound = []
    for func, args, kwargs in calls:
        try:
            inspect.signature(func).bind(*args, **kwargs)
        except TypeError as exc:
            unbound.append(f"{func.__name__}: {exc}")
    assert unbound == []
    with pytest.raises(TypeError):  # a shape the package does not take is caught
        inspect.signature(diractorus.split).bind(arg, 0.7, seconds=6)
    # the fields the benchmark reads off a solved point
    read = {"lam", "energy", "residual_l2", "accepted", "psi", "flags"}
    assert read <= set(diractorus.BranchPoint.__dataclass_fields__)


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


def test_the_inner_ascent_returns_its_evaluation_count():
    # the benchmark's tracer reads entry 3 of ``_inner_maximize``'s result as
    # the layer's inner-evaluation count
    from diractorus.variational import SubspaceCoords, _inner_maximize

    sp = diractorus.split(diractorus.assemble(2, 2), 0.5)
    coords = SubspaceCoords(sp, sp.minus)
    target = coords.to_eigen(np.linspace(-1.0, 1.0, coords.dim))
    calls = []

    def objective(a):  # -||a - target||_lambda^2 / 2, maximized at the target
        calls.append(1)
        r = coords.from_eigen(a - target)
        return -0.5 * float(r @ r), target - a

    result = _inner_maximize(objective, coords, np.zeros(coords.dim), 1e-10, 50)
    assert len(result) == 4
    assert result[3] == len(calls) > 0
    assert np.allclose(coords.to_eigen(result[0]), target, atol=1e-8)
