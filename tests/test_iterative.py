"""The package's L-BFGS and MINRES against scipy's, which serve here only as the reference."""

import numpy as np
import pytest
from scipy.optimize import minimize, rosen, rosen_der
from scipy.sparse import diags
from scipy.sparse.linalg import LinearOperator
from scipy.sparse.linalg import minres as scipy_minres

from diractorus import variational
from diractorus.iterative import _Memory, lbfgs, minres
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
    a = (q * np.linspace(-3.0, 5.0, n)) @ q.T
    return a, rng.standard_normal(n), rng.uniform(0.1, 3.0, n)


def _polish_system(K=8, lam=0.7):
    fn = Functional(split(assemble(2, K), lam), NL)
    z, _ = ray_opt_direction(fn.split)
    phi = SubspaceCoords(fn.split, fn.split.plus).to_eigen(z)
    ev = fiber_maximize(fn, phi, gtol=1e-7).evaluated(fn)
    shape = ev.rep.shape
    matvec = lambda x: ev.hvp(x.view(complex).reshape(shape)).view(float).ravel()  # noqa: E731
    return matvec, -ev.rep.view(float).ravel(), np.repeat(1.0 / fn.split.w2.ravel(), 2)


@pytest.mark.parametrize("rtol", [1e-4, 1e-6])
def test_minres_matches_scipys_iterate_at_its_stop(rtol):
    # the stop is on phibar / beta1, not scipy's ||r|| / (||A|| ||x||), so
    # scipy runs without a tolerance for the same number of iterations; the
    # Givens norms are math.hypot, not BLAS, so the iterates agree to
    # rounding, not bit for bit
    systems = [_symmetric_indefinite(n, seed) for n, seed in ((40, 1), (300, 2))]
    systems = [(lambda x, a=a: a @ x, b, w) for a, b, w in systems] + [_polish_system()]
    for matvec, b, w in systems:
        calls = []
        x, its, istop, relres = minres(lambda v: calls.append(1) or matvec(v), b, w, rtol)
        op = LinearOperator((b.size, b.size), matvec=matvec, dtype=float)
        ref, info = scipy_minres(op, b, M=diags(w), rtol=0.0, maxiter=its)
        assert info == its and istop in (1, 2)
        assert np.linalg.norm(x - ref) <= 1e-13 * np.linalg.norm(ref)
        assert its == len(calls) > 1
        if istop == 1:
            assert relres <= rtol
        # phibar / beta1 estimates the preconditioned residual ||b - A x||_M / ||b||_M
        r = b - matvec(x)
        assert relres == pytest.approx(np.sqrt(r @ (w * r) / (b @ (w * b))), rel=1e-3)


def test_minres_of_a_zero_right_hand_side_is_zero():
    x, its, istop, relres = minres(lambda v: v, np.zeros(5), np.ones(5), 1e-6)
    assert np.array_equal(x, np.zeros(5)) and (its, istop, relres) == (0, 0, 0.0)
