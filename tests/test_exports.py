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
