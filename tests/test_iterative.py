"""The package's L-BFGS and GMRES against scipy's, which serve here only as the reference."""

import numpy as np
import pytest
from scipy.optimize import minimize, rosen, rosen_der
from scipy.sparse.linalg import LinearOperator
from scipy.sparse.linalg import gmres as scipy_gmres

from diractorus import branch, iterative, variational
from diractorus.branch import polish_residual
from diractorus.iterative import _Memory, gmres, lbfgs
from diractorus.nonlinearity import make_nonlinearity
from diractorus.spectral import assemble, split
from diractorus.variational import Functional, SubspaceCoords, fiber_maximize, ray_opt_direction

NL = make_nonlinearity("bnd", 2)


def _scipy_lbfgs(fun, x0, gtol, ftol, maxiter, maxcor):
    options = {"gtol": gtol, "ftol": ftol, "maxiter": maxiter, "maxcor": maxcor}
    return minimize(fun, x0, jac=True, method="L-BFGS-B", options=options)


def _assert_same_run(got, ref):
    assert (got.nit, got.nfev, got.message, got.success) == (ref.nit, ref.nfev, ref.message, ref.success)
    assert np.abs(got.x - ref.x).max() <= 1e-12 * np.abs(ref.x).max()
    assert abs(got.fun - ref.fun) <= 1e-12 * max(1.0, abs(ref.fun))


def _quadratic(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    a = a @ a.T / n + np.eye(n)
    b = rng.standard_normal(n)
    return lambda x: (0.5 * x @ a @ x - b @ x, a @ x - b)


def _rosenbrock(x):
    return rosen(x), rosen_der(x)


@pytest.mark.parametrize(
    "fun, x0, gtol, maxcor",
    [
        # gtol 1e-6: a quadratic's value stops resolving its decrease near
        # |g| ~ 1e-8, where line searches end in rounding on either loop
        (_quadratic(30, 0), np.zeros(30), 1e-6, 10),
        (_rosenbrock, np.array([-1.2, 1.0]), 1e-10, 10),
        (_rosenbrock, np.linspace(-1.0, 1.0, 8), 1e-10, 5),
    ],
    ids=["quadratic", "rosenbrock-2", "rosenbrock-8"],
)
def test_lbfgs_reproduces_scipy_l_bfgs_b(fun, x0, gtol, maxcor):
    options = {"gtol": gtol, "ftol": 1e-16, "maxiter": 500, "maxcor": maxcor}
    got, ref = lbfgs(fun, x0, **options), _scipy_lbfgs(fun, x0, **options)
    assert got.success and got.nit > 10
    _assert_same_run(got, ref)


def test_lbfgs_stops_at_maxiter_as_scipy_does():
    options = {"gtol": 1e-10, "ftol": 1e-16, "maxiter": 7, "maxcor": 10}
    got = lbfgs(_rosenbrock, np.linspace(-1.0, 1.0, 8), **options)
    assert got.nit == 7 and not got.success
    assert got.message == "STOP: TOTAL NO. OF ITERATIONS REACHED LIMIT"
    _assert_same_run(got, _scipy_lbfgs(_rosenbrock, np.linspace(-1.0, 1.0, 8), **options))


def test_lbfgs_ends_converged_at_a_trial_that_meets_gtol():
    # the first trial from a unit x0 lands on the minimizer of |x|^2 / 2,
    # where a bump raises the value: the line search would reject it for
    # its value (as a decrease at the rounding of f can be), and scipy's
    # run went on to step elsewhere
    def fun(x):
        xx = float(x @ x)
        return 0.5 * xx + (1.0 if xx < 1e-20 else 0.0), x.copy()

    x0 = np.array([0.6, 0.8])
    options = {"gtol": 1e-8, "ftol": 1e-16, "maxiter": 50, "maxcor": 10}
    got = lbfgs(fun, x0, **options)
    assert (got.nfev, got.nit, got.success) == (2, 1, True)
    assert got.message == "CONVERGENCE: NORM OF PROJECTED GRADIENT <= PGTOL"
    assert np.abs(got.x).max() <= 1e-15 and got.fun == 1.0
    assert _scipy_lbfgs(fun, x0, **options).nfev > 2


def test_lbfgs_stops_abnormal_when_a_search_fails_with_an_empty_memory():
    # the gradient has the wrong sign, so every step along -g raises f: the
    # first line search meets no condition, and with no pair to drop the run
    # stops at its start; trial steps that round to an evaluated point are
    # not evaluated again, which leaves 17 of the 20
    fun = lambda x: (float(x @ x), -2.0 * x)  # noqa: E731
    options = {"gtol": 1e-10, "ftol": 1e-16, "maxiter": 50, "maxcor": 10}
    got = lbfgs(fun, np.ones(3), **options)
    assert (got.nit, got.message, got.success) == (0, "ABNORMAL: ", False)
    assert np.array_equal(got.x, np.ones(3)) and got.fun == 3.0
    _assert_same_run(got, _scipy_lbfgs(fun, np.ones(3), **options))


def test_lbfgs_drops_its_memory_and_retries_after_a_failed_search():
    # from the 8th call on the gradient has the wrong sign: the next search,
    # from a full memory, finds no decrease, the memory is dropped, the retry
    # along -g fails too and the run stops where the gradient turned.  Both
    # searches end in steps at rounding level, where which trials round to
    # an evaluated point hangs on the last bits of the direction, so the
    # evaluation count is not compared with scipy's here
    calls = []

    def fun(x):
        calls.append(x.copy())
        sign = 1.0 if len(calls) < 8 else -1.0
        return float(x @ (np.arange(1.0, 6.0) * x)), sign * 2.0 * np.arange(1.0, 6.0) * x

    options = {"gtol": 1e-10, "ftol": 1e-16, "maxiter": 50, "maxcor": 10}
    got = lbfgs(fun, np.ones(5), **options)
    ours = calls[:]
    calls.clear()
    ref = _scipy_lbfgs(fun, np.ones(5), **options)
    assert (got.nit, got.message, got.success) == (ref.nit, "ABNORMAL: ", False) and got.nit > 1
    assert np.array_equal(got.x, ours[7]) and np.abs(got.x - ref.x).max() <= 1e-12 * np.abs(ref.x).max()
    retry = [i for i, x in enumerate(ours) if np.array_equal(x, got.x - got.jac)]  # unit step along -g
    assert len(retry) == 1 and 8 < retry[0] <= 8 + 20 < got.nfev <= 8 + 40


def _recorded(fun):
    """``fun`` and the list of the points it is called at."""
    calls = []
    return (lambda x: calls.append(x.copy()) or fun(x)), calls


def test_lbfgs_with_an_empty_memory_runs_as_scipy_and_leaves_its_pairs_in_it():
    fun, x0 = _quadratic(30, 0), np.zeros(30)
    options = {"gtol": 1e-6, "ftol": 1e-16, "maxiter": 500, "maxcor": 10}
    memory = _Memory(30, 10)
    got = lbfgs(fun, x0, **options, memory=memory)
    _assert_same_run(got, _scipy_lbfgs(fun, x0, **options))
    assert np.array_equal(got.x, lbfgs(fun, x0, **options).x)
    assert memory.k == 10


def test_lbfgs_handed_the_pairs_of_an_earlier_run_takes_a_unit_first_step():
    # the second run starts on the curvature of the first, on the same
    # quadratic (condition 100, as many pairs as dimensions) from another
    # point: its first trial is x0 + d with d = -H g of the handed pairs,
    # and it needs 29 evaluations where a cold run needs 48
    n = 10
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a, b = (q * np.geomspace(1.0, 100.0, n)) @ q.T, rng.standard_normal(n)
    fun = lambda x: (0.5 * x @ a @ x - b @ x, a @ x - b)  # noqa: E731
    options = {"gtol": 1e-6, "ftol": 1e-16, "maxiter": 500, "maxcor": 10}
    memory = _Memory(n, 10)
    lbfgs(fun, np.zeros(n), **options, memory=memory)
    x0 = np.random.default_rng(1).standard_normal(n)
    d = memory.direction(fun(x0)[1])
    warm_fun, calls = _recorded(fun)
    warm = lbfgs(warm_fun, x0, **options, memory=memory)
    cold = lbfgs(fun, x0, **options)
    assert warm.success and cold.success
    assert np.array_equal(calls[1], x0 + d)
    assert warm.nfev < cold.nfev


def test_lbfgs_relative_first_step_is_the_unit_step_on_log_f():
    # with no pair, the first trial moves ||g|| / |f| along -g instead of a unit length
    fun, x0 = _quadratic(30, 0), np.ones(30)
    f0, g0 = fun(x0)
    recorded, calls = _recorded(fun)
    got = lbfgs(recorded, x0, gtol=1e-6, ftol=1e-16, maxiter=500, maxcor=10, relative=True)
    assert got.success
    assert np.allclose(calls[1], x0 - g0 / abs(f0), rtol=1e-15, atol=1e-15)
    recorded, calls = _recorded(fun)
    lbfgs(recorded, x0, gtol=1e-6, ftol=1e-16, maxiter=500, maxcor=10)
    assert np.allclose(calls[1], x0 - g0 / np.linalg.norm(g0), rtol=1e-15, atol=1e-15)


def test_lbfgs_drops_handed_pairs_after_a_failed_search():
    # the gradient has the wrong sign, so the search along the handed pairs'
    # direction finds no decrease: the handed memory is emptied in place and
    # the retry along -g takes L-BFGS-B's unit-length first step
    memory = _Memory(3, 10)
    lbfgs(lambda x: (float(x @ x), 2.0 * x), np.ones(3), gtol=1e-10, ftol=1e-16, maxiter=3, maxcor=10, memory=memory)
    assert memory.k > 0
    fun, calls = _recorded(lambda x: (float(x @ x), -2.0 * x))
    got = lbfgs(fun, np.ones(3), gtol=1e-10, ftol=1e-16, maxiter=50, maxcor=10, memory=memory)
    assert (got.nit, got.message) == (0, "ABNORMAL: ") and memory.k == 0
    retry = [x for x in calls if np.allclose(x, np.ones(3) * (1.0 + 1.0 / np.sqrt(3.0)), rtol=1e-15)]
    assert len(retry) == 1


def test_lbfgs_reproduces_scipy_on_the_ray_opt_objective(monkeypatch):
    # ray_opt_direction's own L-BFGS run at K = 8, lambda = 0.7, once with
    # each loop on the same objective
    runs = []

    def both(fun, x0, **options):
        runs.append((lbfgs(fun, x0, **options), _scipy_lbfgs(fun, x0, **options)))
        return runs[-1][0]

    monkeypatch.setattr(variational, "_lbfgs", both)
    _, info = ray_opt_direction(split(assemble(2, 8), 0.7))
    (got, ref), = runs
    assert info == {"evals": ref.nfev, "iterations": ref.nit, "message": ref.message}
    _assert_same_run(got, ref)


def _symmetric_indefinite(n, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = (q * (np.where(np.arange(n) % 3, 1.0, -1.0) * np.linspace(1.0, 4.0, n))) @ q.T  # a third negative
    return (lambda x: a @ x), rng.standard_normal(n)


def _polish_system(monkeypatch, K=8, lam=0.7):
    """The first Newton system of the polish at a K, lambda fiber maximizer: the operator and right-hand side it hands GMRES."""
    fn = Functional(split(assemble(2, K), lam), NL)
    z, _ = ray_opt_direction(fn.split)
    phi = SubspaceCoords(fn.split, fn.split.plus).to_eigen(z)
    fib = fiber_maximize(fn, phi, gtol=1e-7)
    systems = []
    monkeypatch.setattr(branch, "gmres", lambda matvec, b, rtol: systems.append((matvec, b)) or (np.zeros_like(b), 0, 0, 0.0))
    polish_residual(fn, fib.psi)
    monkeypatch.undo()
    return systems[0]


@pytest.mark.parametrize("rtol", [1e-4, 1e-6])
def test_gmres_matches_scipys_iterate_at_its_stop(monkeypatch, rtol):
    # scipy runs one unrestarted cycle without a tolerance for the same
    # number of iterations; its Arnoldi process is modified Gram-Schmidt,
    # this one classical Gram-Schmidt twice, so the iterates agree to
    # rounding, not bit for bit.  The polish's operator is not symmetric.
    systems = [_symmetric_indefinite(n, seed) for n, seed in ((40, 1), (300, 2))] + [_polish_system(monkeypatch)]
    for matvec, b in systems:
        calls = []
        x, its, istop, relres = gmres(lambda v: calls.append(1) or matvec(v), b, rtol)
        op = LinearOperator((b.size, b.size), matvec=matvec, dtype=float)
        ref, _ = scipy_gmres(op, b, rtol=0.0, atol=0.0, restart=its, maxiter=1)
        assert istop == 1 and its == len(calls) > 1
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
        assert relres <= rtol
        # the rotations' residual is the true one
        assert relres == pytest.approx(np.linalg.norm(b - matvec(x)) / np.linalg.norm(b), rel=1e-6, abs=0.0)


def test_gmres_stops_at_its_iteration_cap_with_the_residual_it_reports(monkeypatch):
    # min(n, GMRES_MAXITER) iterations: the dimension gives the dense
    # solution, a smaller cap the iterate there; both grow the 16-row basis
    matvec, b = _symmetric_indefinite(40, 1)
    a = np.array([matvec(e) for e in np.eye(40)]).T
    x, its, istop, relres = gmres(matvec, b, 0.0)
    assert (its, istop) == (40, 6)
    assert np.linalg.norm(x - np.linalg.solve(a, b)) <= 1e-12 * np.linalg.norm(x)
    monkeypatch.setattr(iterative, "GMRES_MAXITER", 20)
    x, its, istop, relres = gmres(matvec, b, 0.0)
    assert (its, istop) == (20, 6)
    assert relres == pytest.approx(np.linalg.norm(b - a @ x) / np.linalg.norm(b), rel=1e-8, abs=0.0)


def test_gmres_of_a_zero_right_hand_side_is_zero():
    x, its, istop, relres = gmres(lambda v: v, np.zeros(5), 1e-6)
    assert np.array_equal(x, np.zeros(5)) and (its, istop, relres) == (0, 0, 0.0)
