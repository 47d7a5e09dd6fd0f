"""Branch-engine units: thresholds, counts, residuals, small solves."""

import sys

import numpy as np
import pytest

from diractorus import branch
from diractorus.branch import (
    GuardViolationError,
    _solved_point,
    branch_sweep,
    gamma_crit,
    minimize_M,
    multiplicity_count,
    nu_window,
    polish_residual,
    residual_check,
    second_solution,
)
from diractorus.iterative import gmres
from diractorus.nonlinearity import make_nonlinearity
from diractorus.spectral import EigenTable, SpectralError, assemble, omega_sphere, project, split
from diractorus.torus import GridError, SpinorField, lp_norm, make_grid, random_field, resample_field, zero_field
from diractorus.variational import (
    Evaluation,
    Functional,
    L_lambda,
    SolverFailure,
    _ray_quotient,
    m_lambda,
    ray_opt_direction,
    sphere_minimize,
)

NL = make_nonlinearity("bnd", 2)


def plane_wave_solution(table, lam, k=(1, 0)):
    """Exact solution e^{ik.x}s with D psi = |k| psi and |s|^2 = |k| - lam."""
    grid = table.grid
    idx = grid.mode_index()[k]
    u = table.basis[idx][:, -1]
    amp = np.sqrt(np.linalg.norm(np.array(k)) - lam)
    coeffs = np.zeros((table.N, grid.n_modes), dtype=complex)
    coeffs[:, idx] = amp * u
    return SpinorField(grid, coeffs)


def eigen(table, psi):
    """Eigen coordinates of the field psi: the points the polish and the report take."""
    return table.to_eigen(psi.coeffs)


def as_field(table, a):
    """The field whose eigen coordinates are ``a``."""
    return SpinorField(table.grid, table.from_eigen(a))


def test_gamma_crit_values():
    assert np.isclose(gamma_crit(2), np.pi, rtol=1e-14)
    assert np.isclose(gamma_crit(3), (1.0 / 6.0) * 1.5**3 * 2.0 * np.pi**2, rtol=1e-14)
    assert np.isclose(gamma_crit(3), 11.1033, atol=1e-4)
    # cross-check against the sphere invariant (m/2) omega_m^(1/m)
    for m in (2, 3, 4):
        lam_min = 0.5 * m * omega_sphere(m) ** (1.0 / m)
        assert np.isclose(gamma_crit(m), lam_min**m / (2.0 * m), rtol=1e-12)
    with pytest.raises(ValueError):
        gamma_crit(1)


def test_nu_window_values():
    assert np.isclose(nu_window(2, 4 * np.pi**2), 1.0 / np.sqrt(np.pi), rtol=1e-14)
    assert np.isclose(nu_window(2, omega_sphere(2)), 1.0, rtol=1e-14)
    assert np.isclose(nu_window(3, omega_sphere(3)), 1.5, rtol=1e-14)
    # (3/2) (2 pi^2 / 8 pi^3)^(1/3) = (3/2) (4 pi)^(-1/3)
    assert np.isclose(nu_window(3, (2 * np.pi) ** 3), 1.5 * (4 * np.pi) ** (-1.0 / 3.0), rtol=1e-14)
    with pytest.raises(ValueError):
        nu_window(2, -1.0)


def test_multiplicity_counts():
    table = assemble(2, 8)
    nu = 1.0 / np.sqrt(np.pi)
    assert nu == nu_window(2, table.grid.volume)  # the window multiplicity_count uses
    assert multiplicity_count(table, 0.5) == 4
    assert multiplicity_count(table, 0.0) == 0
    assert multiplicity_count(table, 0.99) == 8
    # brute-force consistency against the aggregated spectrum
    for lam in (0.3, 1.2, 2.0):
        brute = sum(
            int(mult)
            for ev, mult in zip(table.distinct, table.multiplicity)
            if lam < ev < lam + nu
        )
        assert multiplicity_count(table, lam) == brute
    with pytest.raises(SpectralError):
        multiplicity_count(table, 7.9)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "call, error",
    [
        (lambda v: multiplicity_count(assemble(2, 8), v), SpectralError),
        (lambda v: nu_window(2, v), ValueError),
        (lambda v: lp_norm(zero_field(make_grid(2, 2), 2), v), GridError),
    ],
    ids=["multiplicity_count", "nu_window", "lp_norm"],
)
def test_non_finite_inputs_are_rejected(call, error, value):
    # every comparison with nan is False and inf passes a one-sided bound,
    # so a range check written as a comparison does not reject them
    with pytest.raises(error, match="finite"):
        call(value)


def test_residual_check_plane_wave():
    table = assemble(2, 6)
    for lam in (0.5, 0.3):
        psi = plane_wave_solution(table, lam)
        assert residual_check(table, NL, psi, lam) < 1e-12
    assert residual_check(table, NL, zero_field(table.grid, 2), 0.5) == 0.0
    rng = np.random.default_rng(3)
    r = residual_check(table, NL, random_field(table.grid, 2, rng), 0.5)
    assert r > 0.1


def test_hvp_and_residual_leave_the_evaluation_values_alone():
    # u, gu and the field's cached values feed later transforms; the
    # Hessian-vector product, which transforms its own synthesis in place,
    # the gradient, whose analyze consumes a fresh g(|u|) u, and the strong
    # residual may not write into them, nor into the product's direction
    table = assemble(2, 6)
    rng = np.random.default_rng(5)
    psi = random_field(table.grid, 2, rng)
    ev = Functional(split(table, 0.5), NL).at_field(psi)
    u, gu = ev.u.copy(), ev.gu.copy()
    assert np.isfinite(ev.grad).all()  # the band projection of gu: one analyze of it
    d = table.to_eigen(random_field(table.grid, 2, rng).coeffs)
    d_before = d.copy()
    ev.hvp(d)
    assert ev.residual[1] > 0.0
    residual_check(table, NL, psi, 0.5)
    assert np.array_equal(d, d_before)
    assert np.array_equal(ev.u, u)
    assert np.array_equal(ev.gu, gu)
    assert np.array_equal(psi.values(), u)


def test_polish_reduces_residual():
    table = assemble(2, 6)
    rng = np.random.default_rng(4)
    psi = plane_wave_solution(table, 0.5) + 1e-3 * random_field(table.grid, 2, rng)
    before = residual_check(table, NL, psi, 0.5)
    polish = polish_residual(Functional(split(table, 0.5), NL), eigen(table, psi))
    polished, after = polish.psi, polish.residual
    assert before > 1e-4
    assert after < 1e-8
    assert np.isclose(residual_check(table, NL, as_field(table, polished), 0.5), after, rtol=1e-6)
    assert polish.last.energy == Functional(split(table, 0.5), NL)(polished).energy


def test_polish_does_not_stall_near_exact_solution():
    # a first-order polish on the squared residual used to stop at 4.4e-9
    # (K = 6) and 1.36e-6 (K = 12) on these fields; the exact solution sits
    # at roundoff, so a stall above 1e-12 is a solver fault, not a floor
    for K, noise in ((6, 1e-6), (12, 1e-3)):
        table = assemble(2, K)
        rng = np.random.default_rng(4)
        psi = plane_wave_solution(table, 0.5) + noise * random_field(table.grid, 2, rng)
        polish = polish_residual(Functional(split(table, 0.5), NL), eigen(table, psi))
        polished, after = polish.psi, polish.residual
        assert after < 1e-12
        assert polish.steps >= 2
        assert polish.converged
        assert np.isclose(residual_check(table, NL, as_field(table, polished), 0.5), after, rtol=1e-6)


def test_polish_keeps_the_galerkin_energy_where_the_spill_is_large():
    # at K = 16, lambda = 0.4 the out-of-band spill is 9.2e-3; a polish of the
    # full-cube residual moved the energy by up to 9.9e-6 off the minimizer,
    # differently for each outer tolerance.  The Galerkin polish lands on the
    # minimizer: it finishes the coarse descent (gtol 1e-3) to the energy of a
    # polished descent to gtol 1e-9.
    table = assemble(2, 16)
    sp = split(table, 0.4)
    pt = minimize_M(sp, NL)
    in_band, spill = pt.diagnostics["residual_in_band"], pt.diagnostics["residual_spill"]
    assert in_band < 1e-8
    assert np.isclose(np.hypot(in_band, spill), pt.residual_l2)
    fn = Functional(sp, NL)
    fiber, _ = sphere_minimize(fn, ray_opt_direction(sp)[0], gtol=1e-9)
    polish = polish_residual(fn, fiber.psi)
    assert abs(L_lambda(sp, NL, as_field(table, polish.psi)) - fiber.value) < 1e-10
    assert np.isclose(pt.energy, polish.last.energy, rtol=1e-12, atol=0.0)
    assert polish.last.residual[0] < 1e-8
    assert np.isclose(polish.residual, residual_check(table, NL, as_field(table, polish.psi), 0.4))


def test_minimize_M_closed_form_bound():
    table = assemble(2, 8)
    sp = split(table, 0.9)
    pt = minimize_M(sp, NL)
    assert pt.energy <= np.pi**2 * 0.01 + 1e-6
    assert pt.energy > 0
    assert pt.below_gamma_crit
    assert pt.residual_l2 < 1e-6
    assert pt.accepted
    assert pt.diagnostics["outer"]["fiber_grad_max"] < 1e-6


def test_minimize_M_guard_violation():
    # at lambda = 0.05 and K = 4 the descent from the ray-quotient direction
    # ends above gamma_crit
    table = assemble(2, 4)
    sp = split(table, 0.05)
    with pytest.raises(GuardViolationError) as err:
        minimize_M(sp, NL, maxiter=10)
    assert err.value.point.energy >= gamma_crit(2)


def test_minimize_M_rejects_nonpositive_lambda_without_f5():
    table = assemble(2, 4)
    sp = split(table, -0.5)
    with pytest.raises(SolverFailure):
        minimize_M(sp, NL, maxiter=5)


def test_minimize_M_power_nonlinearity_positive_lambda():
    nl = make_nonlinearity("power", 2, alpha=1.0, p=3.0)
    table = assemble(2, 6)
    sp = split(table, 0.9)
    pt = minimize_M(sp, nl, maxiter=40)
    # F >= 0 lowers the level below the pure-critical branch
    assert 0 < pt.energy <= np.pi**2 * 0.01 + 1e-6
    assert pt.below_gamma_crit
    # non-polynomial nonlinearity: residual limited by quadrature at K = 6
    assert pt.residual_l2 < 1e-3


def test_minimize_M_power_nonlinearity_negative_lambda():
    # (f5) holds for the power nonlinearity, so lambda <= 0 runs are allowed;
    # the constant-spinor family solves the zero-mode shell there.
    nl = make_nonlinearity("power", 2, alpha=1.0, p=3.0)
    table = assemble(2, 4)
    sp = split(table, -0.2)
    pt = minimize_M(sp, nl, maxiter=30)
    assert pt.below_gamma_crit
    assert pt.energy > 0
    assert "mass_ratio" not in pt.flags


def test_minimize_M_at_an_eigenvalue_runs_no_kernel_newton(monkeypatch):
    # The solver keeps E^0 in its inner space, so no evaluation solves for T.
    import diractorus.variational as variational

    calls = {"_kernel_coords": 0}
    kernel_coords = variational._kernel_coords

    def counted(*args, **kwargs):
        calls["_kernel_coords"] += 1
        return kernel_coords(*args, **kwargs)

    monkeypatch.setattr(variational, "_kernel_coords", counted)
    sp1 = split(assemble(2, 8), 1.0)
    assert sp1.kernel_dim > 0
    pt = minimize_M(sp1, NL, maxiter=40)
    assert calls["_kernel_coords"] == 0
    assert pt.energy < gamma_crit(2)
    # the sqrt(2) plane wave is an exact critical point of M at level 1.6934:
    # a descent started there never leaves it
    assert pt.energy < 1.32
    assert pt.diagnostics["outer"]["outer_iterations"] > 0


def test_minimize_M_transforms_the_strong_residual_twice(monkeypatch):
    # One full-cube transform before the polish and one after it, each the
    # residual of an evaluation the polish holds: the final residual and its
    # in-band and spill parts are read off the last one
    import diractorus.variational as variational

    cubes, analyzed, polishes = [], [], []
    cube_coefficients, analyze = variational.cube_coefficients, variational.analyze
    monkeypatch.setattr(variational, "cube_coefficients", lambda *a: cubes.append(1) or cube_coefficients(*a))
    monkeypatch.setattr(variational, "analyze", lambda *a, **k: analyzed.append(1) or analyze(*a, **k))
    monkeypatch.setattr(branch, "polish_residual", lambda *a: polishes.append(polish_residual(*a)) or polishes[-1])
    table = assemble(2, 4)
    sp = split(table, 0.5)
    pt = minimize_M(sp, NL)
    (polish,) = polishes
    assert len(cubes) == 2 and polish.steps > 0
    assert pt.diagnostics["value_pre_polish"] == polish.first.energy
    assert pt.diagnostics["residual_pre_polish"] == float(np.hypot(*polish.first.residual))
    assert pt.energy == polish.last.energy
    assert pt.residual_l2 == polish.residual == float(np.hypot(*polish.last.residual))
    assert (pt.diagnostics["residual_in_band"], pt.diagnostics["residual_spill"]) == polish.last.residual
    # a polish that keeps no step reads both ends off its one evaluation
    cubes.clear()
    polish = polish_residual(Functional(sp, NL), eigen(table, plane_wave_solution(table, 0.5)))
    assert polish.steps == 0 and polish.first is polish.last
    assert polish.residual < 1e-12 and len(cubes) == 1
    # residual_check fills the band projection from its one cube: no analyze
    cubes.clear()
    analyzed.clear()
    residual_check(table, NL, pt.psi, 0.5)
    assert len(cubes) == 1 and analyzed == []


def test_minimize_M_flags_a_descent_that_stops_unconverged():
    # at K = 8, lambda = 0.7 the default descent takes 4 iterations to gtol
    # 1e-3; where the ray-quotient start already meets it (K = 6, lambda = 0.9)
    # one iteration cannot trip the flag
    sp = split(assemble(2, 8), 0.7)
    assert minimize_M(sp, NL).accepted
    pt = minimize_M(sp, NL, maxiter=1)
    assert "descent-not-converged" in pt.flags
    assert not pt.accepted


def _zero_step(matvec, b, rtol):
    """GMRES that returns the zero step: its result for a zero right-hand side."""
    return gmres(matvec, 0 * b, rtol)


def test_minimize_M_flags_a_polish_that_stalls(monkeypatch):
    # the descent stops at gtol 1e-3 and the polish finishes the energy, so a
    # polish that cannot step (GMRES returns a zero step) rejects the point
    sp = split(assemble(2, 8), 0.7)
    monkeypatch.setattr(branch, "gmres", _zero_step)
    pt = minimize_M(sp, NL)
    assert pt.diagnostics["polish_steps"] == 0
    assert "polish-not-converged" in pt.flags
    assert not pt.accepted


@pytest.mark.parametrize("lam", [0.5, 0.9])
def test_the_polish_keeps_no_zero_step(monkeypatch, lam):
    # a zero Newton step's trial is psi itself, re-evaluated after a round
    # trip through its coefficients; at these K = 8 points that norm read
    # below the fiber's by rounding, and the zero step was kept
    sp = split(assemble(2, 8), lam)
    monkeypatch.setattr(branch, "gmres", _zero_step)
    polishes = []
    monkeypatch.setattr(branch, "polish_residual", lambda *a: polishes.append(polish_residual(*a)) or polishes[-1])
    pt = minimize_M(sp, NL)
    (polish,) = polishes
    assert pt.diagnostics["polish_steps"] == 0 and len(pt.diagnostics["polish_solves"]) == 1
    assert polish.first is polish.last
    assert "polish-not-converged" in pt.flags


def test_a_least_solve_reuses_fiber_evaluations_and_polishes_in_the_lambda_metric(monkeypatch):
    # at K = 16, lambda = 0.7 the sphere descent evaluated each fiber
    # maximizer again after its ascent had, and the polish, preconditioned
    # by 1/(|sigma - lambda| + 1) instead of 1/w2, made 74 products
    sp = split(assemble(2, 16), 0.7)
    fn = Functional(sp, NL)
    z0, _ = ray_opt_direction(sp)
    evaluate, evaluations = Functional._evaluate, []
    monkeypatch.setattr(Functional, "_evaluate", lambda self, *a: evaluations.append(1) or evaluate(self, *a))
    _, info = sphere_minimize(fn, z0, gtol=1e-3)
    assert len(evaluations) == info["fiber_evals"] + 1  # the ascents' own, and the first fiber's cold start
    monkeypatch.undo()
    hvp, products = Evaluation.hvp, []
    monkeypatch.setattr(Evaluation, "hvp", lambda self, d: products.append(d) or hvp(self, d))
    pt = minimize_M(sp, NL)
    assert pt.accepted
    assert pt.diagnostics["polish_hvps"] == len(products) <= 55


def test_the_bench_solves_keep_their_evaluation_and_product_counts():
    # a machine-independent guard on the bench's two solver workloads: the
    # cold K = 16, lambda = 0.7 least solve and the K = 10, lambda = 1 kernel
    # point.  Their polishes made 26 and 27 products before the later Newton
    # solves recycled the first one's Krylov space
    d = minimize_M(split(assemble(2, 16), 0.7), NL).diagnostics
    assert (d["ray_opt"]["evals"], d["outer"]["outer_evals"], d["outer"]["fiber_evals"]) == (19, 5, 22)
    assert d["polish_hvps"] <= 21
    assert minimize_M(split(assemble(2, 10), 1.0), NL, maxiter=60).diagnostics["polish_hvps"] <= 23


def _census(monkeypatch):
    """Counts, from now on, of ``SpinorField`` builds and of eigen transforms made outside an evaluation.

    Inside means under ``Functional.__call__``, ``Evaluation.nonlin``,
    ``Evaluation.residual`` or ``Evaluation.hvp`` on the call stack.
    """
    inside = {Functional.__call__.__code__, Evaluation.nonlin.fget.__code__,
              Evaluation.__dict__["residual"].func.__code__, Evaluation.hvp.__code__}
    counts = {"fields": 0, "to_eigen": 0, "from_eigen": 0}
    post_init = SpinorField.__post_init__

    def counted_post_init(field):
        counts["fields"] += 1
        post_init(field)

    def outside(name, transform):
        def counted(table, x):
            frame = sys._getframe(1)
            while frame is not None and frame.f_code not in inside:
                frame = frame.f_back
            counts[name] += frame is None
            return transform(table, x)

        return counted

    monkeypatch.setattr(SpinorField, "__post_init__", counted_post_init)
    for name in ("to_eigen", "from_eigen"):
        monkeypatch.setattr(EigenTable, name, outside(name, getattr(EigenTable, name)))
    return counts


def test_a_least_solve_builds_one_field_and_transforms_only_inside_its_evaluations(monkeypatch):
    # the solver layers hand each other eigen coordinates; when they handed
    # each other fields this solve built 21 and made 15 to_eigen and 14
    # from_eigen outside any evaluation, round trips between layers.  The one
    # field is the report's, from the one from_eigen; a warm field is
    # converted once more, on entry
    sp = split(assemble(2, 16), 0.7)
    counts = _census(monkeypatch)
    pt = minimize_M(sp, NL)
    assert pt.accepted and counts == {"fields": 1, "to_eigen": 0, "from_eigen": 1}
    counts.update(fields=0, to_eigen=0, from_eigen=0)
    warm = minimize_M(sp, NL, init=pt.psi)
    assert warm.accepted and counts == {"fields": 1, "to_eigen": 1, "from_eigen": 1}


def test_an_m3_least_solve_sits_below_the_plane_wave_level():
    # at m = 3, 2* = 3: the plane wave on k = (1, 0, 0) with |s| = 1 - lambda
    # solves the equation exactly at the level (1 - lambda)^3 (2 pi)^3 / 6,
    # and the least solve at K = 4 lies below it and below gamma_crit(3).
    # The flags are not asserted: this polish stalls (ROADMAP item 6)
    nl = make_nonlinearity("bnd", 3)
    table = assemble(3, 3)
    idx = table.grid.mode_index()[(1, 0, 0)]
    coeffs = np.zeros((table.N, table.grid.n_modes), dtype=complex)
    coeffs[:, idx] = 0.5 * table.basis[idx][:, -1]
    plane_wave = SpinorField(table.grid, coeffs)
    level = 0.5**3 * (2.0 * np.pi) ** 3 / 6.0
    assert residual_check(table, nl, plane_wave, 0.5) <= 1e-12
    assert np.isclose(L_lambda(split(table, 0.5), nl, plane_wave), 5.167712780049969, rtol=1e-12, atol=0.0)
    assert np.isclose(level, 5.167712780049969, rtol=1e-15, atol=0.0)
    pt = minimize_M(split(assemble(3, 4), 0.5), nl)
    assert np.isclose(pt.energy, 3.698963565293745, rtol=1e-9, atol=0.0)
    assert pt.energy < level < gamma_crit(3)


def _tight(fn, level, maxiter, **diagnostics):
    """A descent to gtol 1e-9 from the ray-quotient direction, polished on ``fn``."""
    fiber, info = sphere_minimize(fn, ray_opt_direction(fn.split)[0], gtol=1e-9, maxiter=maxiter)
    flags = [] if info["converged"] else ["descent-not-converged"]
    return _solved_point(fn, fiber.psi, fiber.evaluation, level, flags=flags, **diagnostics)


@pytest.mark.parametrize("lam, maxiter", [(0.3, 120), (0.5, 120), (0.7, 120), (0.9, 120), (1.0, 60)])
def test_the_coarse_descent_gives_the_tight_solve(lam, maxiter):
    # the polish finishes a descent stopped at gtol 1e-3 (each fiber at a
    # hundredth of the smallest sphere gradient seen, never below 1e-5) to
    # the point a descent to gtol 1e-9 reaches; lambda = 1 is the kernel point
    sp = split(assemble(2, 8), lam)
    pt = minimize_M(sp, NL, maxiter=maxiter)
    tight = _tight(Functional(sp, NL), "least", maxiter)
    assert np.isclose(pt.energy, tight.energy, rtol=1e-12, atol=0.0)
    assert pt.flags == tight.flags


@pytest.mark.parametrize(
    "nl",
    [
        make_nonlinearity("power", 2, alpha=1.0, p=3.0),
        make_nonlinearity("log-critical", 2, alpha=0.5, q=1.0),
    ],
    ids=["power", "log-critical"],
)
def test_minimize_M_descends_below_the_plane_wave_level(nl):
    # plane waves are exact critical points of M, so a descent started on one
    # would report the plane-wave level (0.4998 and 0.2328 here)
    table = assemble(2, 8)
    sp = split(table, 0.5)
    idx = table.grid.mode_index()[(1, 0)]
    coeffs = np.zeros((table.N, table.grid.n_modes), dtype=complex)
    coeffs[:, idx] = table.basis[idx][:, -1]
    plane_wave_level = m_lambda(sp, nl, SpinorField(table.grid, coeffs))[0]
    pt = minimize_M(sp, nl)
    assert pt.diagnostics["outer"]["outer_iterations"] > 0
    assert "fell_back" not in pt.diagnostics["outer"]
    assert pt.energy < plane_wave_level - 0.04


def test_fiber_evals_are_reproducible():
    sp = split(assemble(2, 8), 0.9)
    counts = [minimize_M(sp, NL).diagnostics["outer"]["fiber_evals"] for _ in range(2)]
    assert counts[0] == counts[1] > 0


@pytest.mark.parametrize("gtol, first", [(1e-3, 1e-5), (1e-9, 1e-7)])
def test_each_descent_fiber_stops_at_a_hundredth_of_the_smallest_gradient_seen(monkeypatch, gtol, first):
    # fiber gtol = max(1e-7, 1e-2 max(gtol, |g|_inf)), |g|_inf the smallest
    # max-norm of the sphere gradients L-BFGS has been handed so far; at
    # K = 8, lambda = 0.7 the last gradient instead of the smallest lets the
    # stop rise from 6e-4 to 1.2e-3 at the third fiber
    import diractorus.variational as variational

    sp = split(assemble(2, 8), 0.7)
    fn = Functional(sp, NL)
    phi0, _ = ray_opt_direction(sp)
    asked, grads = [], []
    fiber_maximize, lbfgs = variational.fiber_maximize, variational._lbfgs

    def recording_fiber_maximize(fn, phi, gtol=1e-9, **kwargs):
        asked.append(gtol)
        return fiber_maximize(fn, phi, gtol=gtol, **kwargs)

    def recording_lbfgs(fun, x0, **kwargs):
        if kwargs["maxcor"] != 25:  # a fiber ascent's own L-BFGS
            return lbfgs(fun, x0, **kwargs)

        def recorded(x):
            value, g = fun(x)
            grads.append(float(np.abs(g).max()))
            return value, g

        return lbfgs(recorded, x0, **kwargs)

    monkeypatch.setattr(variational, "fiber_maximize", recording_fiber_maximize)
    monkeypatch.setattr(variational, "_lbfgs", recording_lbfgs)
    _, info = sphere_minimize(fn, phi0, gtol=gtol)
    assert len(asked) > 3 and len(grads) >= len(asked) - 1
    assert asked[0] == first
    assert min(asked) >= 1e-7
    for i in range(1, len(asked)):
        assert asked[i] == max(1e-7, 1e-2 * max(gtol, min(grads[:i])))
    assert "fell_back" not in info
    assert info["fiber_gtol"] == asked[-1]


def test_inexact_fibers_cut_the_fiber_evaluations_of_a_least_solve():
    # with every fiber at gtol 1e-7 this solve made 52 fiber evaluations in
    # 6 outer evaluations; the inexact fibers made 33, and with the fibers
    # sharing one L-BFGS memory and the first step at the scale of log M
    # they make 22 in 5
    pt = minimize_M(split(assemble(2, 8), 0.7), NL)
    outer = pt.diagnostics["outer"]
    assert pt.accepted
    assert outer["outer_evals"] == 5
    assert outer["fiber_evals"] <= 25


def test_the_descent_fibers_share_one_memory_and_its_first_trial_stays_near_the_start(monkeypatch):
    # L-BFGS-B's first trial, a step of unit length on the unit sphere of
    # E^+, raised M by a factor 1.76, 1.09 and 1.10 at these points; the
    # first trial rotates by |g|_2 / M, the unit step of L-BFGS on log M.
    # Each fiber after the first starts from the last one's (t, z) and its
    # L-BFGS pairs: the three descents made 127 fiber evaluations with cold
    # memories and make 72
    import diractorus.variational as variational

    fiber_maximize, lbfgs = variational.fiber_maximize, variational._lbfgs
    table, fiber_evals = assemble(2, 8), 0
    for lam in (0.3, 0.5, 0.7):
        sp = split(table, lam)
        fibers, outer = [], []

        def recording_fiber_maximize(fn, phi, gtol=1e-9, start=None, memory=None):
            handed = None if memory is None else (memory, memory.k)
            fibers.append((start, handed, fiber_maximize(fn, phi, gtol=gtol, start=start, memory=memory)))
            return fibers[-1][2]

        def recording_lbfgs(fun, x0, **kwargs):
            if kwargs["maxcor"] != 25:  # a fiber ascent's own L-BFGS
                return lbfgs(fun, x0, **kwargs)
            return lbfgs(lambda x: outer.append((x.copy(), *fun(x))) or outer[-1][1:], x0, **kwargs)

        monkeypatch.setattr(variational, "fiber_maximize", recording_fiber_maximize)
        monkeypatch.setattr(variational, "_lbfgs", recording_lbfgs)
        _, info = sphere_minimize(Functional(sp, NL), ray_opt_direction(sp)[0], gtol=1e-3)
        monkeypatch.undo()
        (x0, m0, g0), (x1, m1, _) = outer[:2]
        assert info["first_step"] == np.linalg.norm(g0) / m0
        assert np.isclose(np.linalg.norm(x1 - x0), info["first_step"], rtol=1e-12, atol=0.0)
        assert m1 <= 1.01 * m0, (lam, m1 / m0)
        assert fibers[0][:2] == (None, None)
        for (_, _, prev), (start, (memory, pairs), _) in zip(fibers, fibers[1:]):
            assert start[0] == prev.t and start[1] is prev.z and memory is prev.memory and pairs > 0
        fiber_evals += info["fiber_evals"]
    assert fiber_evals <= 80


@pytest.fixture(scope="module")
def second_098():
    """The second solution at lambda = 0.98, K = 8, solved on the frozen lambda_k = 1 split."""
    table = assemble(2, 8)
    return table, second_solution(split(table, 1.0), NL, 0.98, k=1)


def test_second_solution_levels(second_098):
    table, pt2 = second_098
    sp1 = split(table, 1.0)
    sp = split(table, 0.98)
    least = minimize_M(sp, NL, maxiter=40)
    assert pt2.energy > least.energy
    assert pt2.energy < gamma_crit(2)
    # the sqrt(2) plane wave, a critical point no descent leaves, sits at 1.8608
    assert pt2.energy < 1.5
    assert pt2.level == "second"
    with pytest.raises(SolverFailure):
        second_solution(sp1, NL, 1.2, k=1)


def test_the_coarse_second_descent_gives_the_tight_solve(second_098):
    table, pt = second_098
    tight = _tight(Functional(split(table, 1.0), NL, 0.98), "second", 80, k=1)
    assert np.isclose(pt.energy, tight.energy, rtol=1e-12, atol=0.0)
    assert pt.flags == tight.flags


def test_second_solution_reports_lambda_quantities(second_098):
    # solved and polished on the frozen lambda_k = 1 split, the point's
    # energy and residual are those of L_lambda at lambda = 0.98
    table, pt = second_098
    assert pt.lam == 0.98 and pt.diagnostics["lambda_k"] == 1.0
    assert np.isclose(pt.energy, L_lambda(split(table, 0.98), NL, pt.psi), rtol=1e-12, atol=0.0)
    assert abs(pt.residual_l2 - residual_check(table, NL, pt.psi, 0.98)) <= 1e-15


def test_branch_sweep_structure():
    table = assemble(2, 6)
    sweep = branch_sweep(table, NL, [0.7, 0.8, 0.9])
    assert len(sweep.points) == 3
    energies = [p.energy for p in sweep.points]
    assert all(e is not None and e > 0 for e in energies)
    assert energies[0] >= energies[1] >= energies[2] - 1e-9
    assert not sweep.monotone_violations()
    assert sweep.interval_index(0.7) == 0
    assert sweep.interval_index(1.2) == 1


def test_a_sweep_below_zero_keeps_its_spectral_intervals_apart(monkeypatch):
    # lambda = -1.5 and -1.2 lie in (-2, -sqrt(2)) and (-sqrt(2), -1); when
    # only positive eigenvalues were counted both fell in interval 0, so the
    # rise from 0.00306 to 0.0342 was a monotone violation and -1.2 was
    # re-solved warm from the -1.5 field
    nl = make_nonlinearity("power", 2, alpha=1.0, p=3.0)
    solve, lams = branch.minimize_M, []
    monkeypatch.setattr(branch, "minimize_M", lambda sp, nl, **kw: lams.append(sp.lam) or solve(sp, nl, **kw))
    sweep = branch_sweep(assemble(2, 6), nl, [-1.5, -1.2])
    assert lams == [-1.5, -1.2]
    assert [p.lam for p in sweep.points] == [-1.5, -1.2]
    assert sweep.monotone_violations() == []
    assert sweep.interval_index(-1.5) == -3 and sweep.interval_index(-1.2) == -2
    assert sweep.interval_index(0.0) == 0 and sweep.interval_index(-0.5) == -1


def test_a_field_from_another_cutoff_is_reported_as_its_cold_solve():
    # the report polishes any field near a solution, with no fiber behind it:
    # a K = 8 least point resampled to K = 12 and handed over with no
    # evaluation polishes (2 steps) to the point a cold K = 12 solve reaches
    pt8 = minimize_M(split(assemble(2, 8), 0.7), NL)
    table = assemble(2, 12)
    sp = split(table, 0.7)
    a = eigen(table, resample_field(pt8.psi, table.grid))
    pt = _solved_point(Functional(sp, NL), a, None, "least")
    assert pt.accepted and pt.flags == []
    assert pt.diagnostics["polish_steps"] > 0
    assert pt.diagnostics["value_pre_polish"] == Functional(sp, NL)(a).energy
    assert np.isclose(pt.energy, minimize_M(sp, NL).energy, rtol=1e-12, atol=0.0)


def test_returned_points_keep_no_collocation_cache():
    # a point held its polished field's collocation values, four times the size of its coefficients
    table = assemble(2, 6)
    pt = minimize_M(split(table, 0.9), NL)
    sweep = branch_sweep(assemble(2, 4), NL, [0.9], second_near=1, second_offsets=(0.05, 0.02))
    assert all(p.psi._values is None for p in [pt, *sweep.points])
    # the 0.98 point starts from the 0.95 point's field
    for p, energy in zip(sweep.points, (0.078302069429956, 1.651148079204886, 1.447809353706363)):
        assert np.isclose(p.energy, energy, rtol=1e-12, atol=0.0)
        assert p.flags == ["resolution-limited-residual"]
    warm = minimize_M(split(table, 0.9), NL, init=pt.psi)
    assert warm.accepted and np.isclose(warm.energy, pt.energy, rtol=1e-12, atol=0.0)


def test_a_sweep_point_near_an_eigenvalue_reports_the_eigenvalue():
    # the sweep used an absolute 1e-9 snap and split a relative tolerance,
    # so this point was solved at lambda = sqrt(2) + 1.2e-9 with the sqrt(2)
    # modes in E^0, shifted by -1.2e-9
    table = assemble(2, 4)
    pt = branch_sweep(table, NL, [np.sqrt(2.0) + 1.2e-9], maxiter=10).points[0]
    assert pt.lam == np.sqrt(2.0)
    assert pt.diagnostics["kernel_dim"] == 4


def test_branch_sweep_records_guard_violations_and_continues():
    table = assemble(2, 4)
    sweep = branch_sweep(table, NL, [0.05, 0.9], maxiter=10)
    flagged = [p for p in sweep.points if "guard-violation" in p.flags]
    clean = [p for p in sweep.points if p.lam == 0.9]
    assert len(flagged) == 1 and flagged[0].lam == 0.05
    assert clean[0].below_gamma_crit
    assert clean[0].energy <= np.pi**2 * 0.01 + 1e-6


def test_branch_sweep_keeps_a_second_point_that_violates_the_guard(monkeypatch):
    # A guard violation is a SolverFailure; the second branch used to record
    # it as a solver failure without energy or field.
    import diractorus.branch as branch

    solve, inits = branch.second_solution, []

    def violating(split_k, nl, lam, k, init=None):
        inits.append(init)
        pt = solve(split_k, nl, lam, k, init=init)
        if np.isclose(lam, 0.95):
            raise GuardViolationError("second energy above the threshold", point=pt)
        return pt

    monkeypatch.setattr(branch, "second_solution", violating)
    sweep = branch_sweep(assemble(2, 4), NL, [0.9], second_near=1, second_offsets=(0.05, 0.02))
    flagged, after = [p for p in sweep.points if p.level == "second"]
    assert np.isclose(flagged.lam, 0.95) and np.isclose(after.lam, 0.98)
    assert flagged.energy is not None and flagged.psi is not None
    assert "guard-violation" in flagged.flags
    assert not any(f.startswith("solver-failure") for f in flagged.flags)
    # the next offset starts from the flagged point's field
    assert inits[1] is flagged.psi


@pytest.mark.parametrize("warm_shift, kept", [(0.0, True), (20.0, False)])
def test_branch_sweep_keeps_a_monotone_repair_only_when_it_is_lower(monkeypatch, warm_shift, kept):
    # the cold solve at 0.7 is lifted above the 0.5 point's energy; phase 2
    # re-solves it from the 0.5 field and keeps that solve only if it is lower
    solve, calls = branch.minimize_M, []

    def rising(sp, nl, init=None, maxiter=60):
        pt = solve(sp, nl, init=init, maxiter=maxiter)
        if np.isclose(sp.lam, 0.7):
            pt.energy += 10.0 if init is None else warm_shift
        calls.append((sp.lam, init, pt))
        return pt

    monkeypatch.setattr(branch, "minimize_M", rising)
    left, right = branch_sweep(assemble(2, 4), NL, [0.5, 0.7], maxiter=20).points
    (lam0, init0, _), (lam1, init1, cold), (lam2, init2, warm) = calls
    assert (lam0, lam1, lam2) == (0.5, 0.7, 0.7)
    assert init0 is None and init1 is None and init2 is left.psi
    assert cold.energy > left.energy
    assert "monotone-repair" not in left.flags
    if kept:
        assert right is warm and warm.energy < cold.energy
        assert "monotone-repair" in right.flags
    else:
        assert right is cold and warm.energy > cold.energy
        assert "monotone-repair" not in right.flags


def test_ray_quotient_is_the_scale_invariant_ray_maximum_at_m3():
    # alpha^2 / (4 beta) is the ray maximum only at m = 2; at m = 3 it grew
    # linearly with the scale of phi
    table = assemble(3, 3)
    sp = split(table, 0.5)
    fn = Functional(sp, make_nonlinearity("zero", 3))
    rng = np.random.default_rng(3)
    a = table.to_eigen(project(sp, random_field(table.grid, table.N, rng), "plus").coeffs)
    values = [_ray_quotient(fn(s * a))[0] for s in (1.0, 2.0, 4.0)]
    assert max(values) - min(values) <= 1e-12 * values[0]
    # t0^(2*-2) = alpha/beta maximizes the pure-critical energy on the ray, with value Q;
    # at m = 3, 2* = 3 and beta = 3 mass
    ev = fn(a)
    t0 = 2.0 * ev.quadratic / (3.0 * ev.mass)
    energies = [fn(s * t0 * a).energy for s in (1.0 - 1e-3, 1.0, 1.0 + 1e-3)]
    assert energies[1] > max(energies[0], energies[2])
    assert np.isclose(values[0], energies[1], rtol=1e-12, atol=0.0)
    _, rep = _ray_quotient(fn(a))
    d = table.to_eigen(random_field(table.grid, table.N, rng).coeffs)
    h = 1e-5
    fd = (_ray_quotient(fn(a + h * d))[0] - _ray_quotient(fn(a - h * d))[0]) / (2.0 * h)
    slope = float(table.grid.volume * (rep * d.conj()).real.sum())
    assert abs(slope - fd) <= 1e-6 * max(1.0, abs(fd))


def test_a_solved_point_records_each_minres_solve():
    # one record per Newton step: the solver's iterations (one product
    # each), its stop code, the tolerance it was asked for and its relative
    # residual, which a stop on code 1 brings within that tolerance; the
    # first step asks 1e-3, the last a quarter of the stop
    pt = minimize_M(split(assemble(2, 8), 0.7), NL)
    solves = pt.diagnostics["polish_solves"]
    assert len(solves) == pt.diagnostics["polish_steps"] == 2
    assert sum(s["iterations"] for s in solves) == pt.diagnostics["polish_hvps"]
    assert [s["istop"] for s in solves] == [1, 1]
    # the second solve is preconditioned by the first one's Krylov space
    assert [s["deflation"] for s in solves] == [0, solves[0]["iterations"]]
    assert all(s["relres"] <= s["rtol"] for s in solves if s["istop"] == 1)
    assert solves[0]["rtol"] == 1e-3 and solves[-1]["rtol"] < 1e-3


def test_the_last_newton_step_lands_below_the_stop():
    # criterion 7's K = 16, lambda = 0.6 point: when the polish (MINRES then) stopped on
    # ||r|| / (||A|| ||x||), its last step landed above the stop at 2.4e-12
    # and the polish took 5 steps and 99 products
    pt = minimize_M(split(assemble(2, 16), 0.6), NL, maxiter=60)
    assert pt.accepted
    assert pt.diagnostics["polish_steps"] <= 3 and pt.diagnostics["polish_hvps"] <= 70


def test_the_polish_preconditioner_is_one_over_w2_per_real_coordinate(monkeypatch):
    # GMRES runs on the real view of the eigen array, on W^-1/2 H W^-1/2 S,
    # and the step is W^-1/2 S z: each real coordinate, real or imaginary
    # part, is weighted by 1/sqrt(w2) of its own eigen entry on each side,
    # so by the signed 1/w2 in all, + on E^+ and - on E^0 + E^-.  Every
    # later solve runs on that operator times M^-1 = I + V^T (H^-1 - I) V,
    # the deflation of the first solve's Arnoldi data, and steps by
    # W^-1/2 S M^-1 y
    table = assemble(2, 4)
    sp = split(table, 0.5)
    fn = Functional(sp, NL)
    rng = np.random.default_rng(6)
    a = eigen(table, plane_wave_solution(table, 0.5) + 1e-3 * random_field(table.grid, 2, rng))
    z = rng.standard_normal(sp.w2.shape) + 1j * rng.standard_normal(sp.w2.shape)
    seen, trials = [], []

    def recording_gmres(matvec, b, rtol):  # the operator at z, when the solve runs
        sol = gmres(matvec, b, rtol)
        seen.append((matvec(z.view(float).ravel()), b, sol))
        return sol

    ev = fn(a)
    monkeypatch.setattr(branch, "gmres", recording_gmres)
    call = Functional.__call__
    monkeypatch.setattr(Functional, "__call__", lambda self, x: trials.append(x) or call(self, x))
    polish = polish_residual(fn, a, ev)
    monkeypatch.undo()
    assert polish.steps >= 2 and len(seen) >= 2
    assert [s["deflation"] for s in polish.solves] == [0] + [seen[0][2].iterations] * (len(seen) - 1)
    v, h = seen[0][2].basis, seen[0][2].hessenberg
    assert len(v) == seen[0][2].iterations > 0

    def deflate(y):  # M^-1 y, on the real view
        c = v @ y
        return y + (np.linalg.solve(h, c) - c) @ v

    sign, w = np.where(sp.plus, 1.0, -1.0), np.sqrt(sp.w2)
    assert sp.plus.any() and not sp.plus.all()
    points = [a] + trials  # the iterate each solve runs at: a, then each kept trial
    for j, (az, b, sol) in enumerate(seen):
        zj, step = z.view(float).ravel(), sol.x
        if j:
            ev, zj, step = fn(points[j]), deflate(zj), deflate(step)
        zj, step = (x.view(complex).reshape(z.shape) for x in (zj, step))
        rtol = 1e-12 if j else 1e-14  # M^-1 here solves with H where the polish inverts it
        assert np.allclose(az.view(complex).reshape(z.shape), ev.hvp(sign * zj / w) / w, rtol=rtol, atol=0.0)
        assert np.allclose(b.view(complex).reshape(z.shape), -ev.rep / w, rtol=1e-15, atol=0.0)
        assert np.abs(trials[j] - (points[j] + sign * step / w)).max() <= 1e-14 * np.abs(step / w).max()


@pytest.mark.parametrize("K", [8, 16])
def test_ray_opt_stops_above_its_rounding_floor(K):
    # the relative gradient Q'/Q bottoms out at 1e-11 to 2.5e-9; a stop on
    # Q' at gtol 1e-10 ended 1 of these 8 runs in failed line searches (95
    # evaluations at K = 8, lambda = 0.7) and took 65 evaluations at K = 16,
    # lambda = 0.3
    table = assemble(2, K)
    for lam in (0.3, 0.5, 0.7, 0.9):
        _, info = ray_opt_direction(split(table, lam))
        assert info["message"].startswith("CONVERGENCE"), (lam, info)
        assert 0 < info["iterations"] <= info["evals"] <= 30, (lam, info)


@pytest.mark.parametrize("lam", [0.98, 0.99])
def test_a_least_solve_next_to_an_eigenvalue_polishes_to_rounding(lam):
    # Q is 3.2e-3 and 7.9e-4 here; a ray-opt stop on Q' at 1e-8 instead of
    # on Q'/Q stopped early and the polish stalled at 2.7e-9 and 9.4e-9
    pt = minimize_M(split(assemble(2, 16), lam), NL)
    assert pt.accepted and pt.flags == [], pt.flags
    assert pt.diagnostics["residual_in_band"] < 1e-11


def test_a_least_point_records_its_ray_opt_run():
    sp = split(assemble(2, 8), 0.7)
    pt = minimize_M(sp, NL)
    assert pt.diagnostics["init"] == "ray-opt"
    assert pt.diagnostics["ray_opt"] == ray_opt_direction(sp)[1]
    warm = minimize_M(sp, NL, init=pt.psi)
    assert warm.diagnostics["init"] == "warm" and "ray_opt" not in warm.diagnostics


def test_the_polish_step_count_does_not_hang_on_rounding():
    # at K = 16, lambda = 0.9 the last Newton step used to land next to the
    # stop by chance: the descent endpoint polished in 5 steps, and 2 of these
    # 10 perturbations of it by 1e-13 relative in 4
    sp = split(assemble(2, 16), 0.9)
    fn = Functional(sp, NL)
    fiber, _ = sphere_minimize(fn, ray_opt_direction(sp)[0], gtol=1e-3)
    steps = polish_residual(fn, fiber.psi).steps
    c = sp.table.from_eigen(fiber.psi)
    for seed in range(10):
        noise = np.random.default_rng(seed).standard_normal(c.shape[::-1]).T
        polish = polish_residual(fn, sp.table.to_eigen(c * (1.0 + 1e-13 * noise)))
        assert polish.steps == steps and polish.converged, seed


def test_least_solves_stay_within_their_pass_budget(monkeypatch):
    # passes are evaluations plus Hessian-vector products, machine-independent
    # counts: 254 here, on the default n = 36 grid and on n = 34 alike (272
    # before the later Newton solves recycled the first one's Krylov space,
    # 476 before warm fibers and GMRES, 583 when ray-opt and the polish's
    # last step chased rounding); the bound is that plus 10 %
    passes = []
    evaluate, hvp = Functional._evaluate, Evaluation.hvp
    monkeypatch.setattr(Functional, "_evaluate", lambda self, *a: passes.append(1) or evaluate(self, *a))
    monkeypatch.setattr(Evaluation, "hvp", lambda self, d: passes.append(1) or hvp(self, d))
    table = assemble(2, 8)
    for lam in (0.3, 0.5, 0.7, 0.9):
        minimize_M(split(table, lam), NL)
    assert len(passes) <= 279
