"""Rounding robustness: no solve may hang on the rounding of the transforms.

Every ``synthesize`` and ``analyze`` output is multiplied entry by entry by
1 + a U(-1/2, 1/2), a perturbation at the rounding level that stands in for
another FFT or BLAS build (Monte Carlo arithmetic: Parker, UCLA CSD-970002,
1997; Denis, de Oliveira Castro and Petit, "Verificarlo", ARITH 23, 2016).
At a = 4e-16 and 1e-13 the K = 8 ``bnd`` least solves and the second
solution keep their flags, their energies to 1e-12 and their ray-opt, outer
and fiber evaluation counts; the polish, which stops at a fixed rounding
level, may take a product or two more or less.
"""

import numpy as np
import pytest

from diractorus import torus, variational
from diractorus.branch import minimize_M, second_solution
from diractorus.nonlinearity import make_nonlinearity
from diractorus.spectral import assemble, split

NL = make_nonlinearity("bnd", 2)


def _solves(table, kernel_point):
    """The least solves at lambda 0.3, 0.5, 0.7 and 0.9, and the second solution at 0.95 warm from ``kernel_point``."""
    least = [minimize_M(split(table, lam), NL) for lam in (0.3, 0.5, 0.7, 0.9)]
    return least + [second_solution(split(table, 1.0), NL, 0.95, k=1, init=kernel_point.psi)]


def _counts(pt):
    d = pt.diagnostics
    return d.get("ray_opt", {}).get("evals"), d["outer"]["outer_evals"], d["outer"]["fiber_evals"]


@pytest.fixture(scope="module")
def reference():
    table = assemble(2, 8)
    kernel_point = minimize_M(split(table, 1.0), NL)
    return table, kernel_point, _solves(table, kernel_point)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("a", [4e-16, 1e-13])
def test_a_solve_does_not_hang_on_the_rounding_of_the_transforms(monkeypatch, reference, a, seed):
    table, kernel_point, want = reference
    rng = np.random.default_rng(seed)

    def perturbed(transform):
        def wrapper(*args, **kwargs):
            out = transform(*args, **kwargs)
            return out * (1.0 + a * (rng.random(out.shape) - 0.5))

        return wrapper

    synthesize, analyze = torus.synthesize, torus.analyze
    for module in (torus, variational):
        monkeypatch.setattr(module, "synthesize", perturbed(synthesize))
        monkeypatch.setattr(module, "analyze", perturbed(analyze))
    for ref, pt in zip(want, _solves(table, kernel_point)):
        assert pt.flags == ref.flags, (pt.lam, pt.flags)
        assert abs(pt.energy - ref.energy) <= 1e-12 * abs(ref.energy), pt.lam
        assert _counts(pt) == _counts(ref), pt.lam
        assert abs(pt.diagnostics["polish_hvps"] - ref.diagnostics["polish_hvps"]) <= 3, pt.lam
