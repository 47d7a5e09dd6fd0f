"""Energy functional, kernel projector, fiber maximizers, Nehari machinery."""

from types import SimpleNamespace

import numpy as np
import pytest

from diractorus.branch import minimize_M
from diractorus.nonlinearity import critical_exponent, make_nonlinearity
from diractorus.spectral import apply_dirac, assemble, inner_lambda, norm_lambda, project, split
from diractorus.torus import SpinorField, l2_inner, l2_norm, lp_norm, random_field, zero_field
from diractorus.variational import (
    Functional,
    L_lambda,
    SolverFailure,
    SubspaceCoords,
    _FiberCoords,
    _FJet,
    _inner_maximize,
    _ray_quotient,
    _rayleigh,
    _unit_plus,
    default_sigma,
    eta_lambda,
    f_lambda_value,
    fiber_maximize,
    grad_L,
    j_lambda,
    m_lambda,
    nehari_project,
    nehari_second_order,
    nu_lambda_k,
    r_lambda,
    ray_opt_direction,
    s_lambda,
    sphere_minimize,
    t_lambda,
    t_prime,
    tmfm_gap,
)

NL = make_nonlinearity("bnd", 2)


@pytest.fixture(scope="module")
def table():
    return assemble(2, 3)


@pytest.fixture(scope="module")
def sp05(table):
    return split(table, 0.5)


@pytest.fixture(scope="module")
def sp1(table):
    return split(table, 1.0)


@pytest.fixture(scope="module")
def kernel1(sp1):
    return SubspaceCoords(sp1, sp1.zero)


def kernel_field(kernel, coords):
    """The kernel field sum_a c_a e_a, from complex {a: c_a}."""
    z = np.zeros(kernel.flat.size, dtype=complex)
    z[list(coords)] = list(coords.values())
    return kernel.to_field(z.view(float))


def complex_draw(rng, coords):
    """One complex standard normal per entry of ``coords``, as its real coordinates."""
    n = coords.flat.size
    return (rng.standard_normal(n) + 1j * rng.standard_normal(n)).view(float)


def as_field(table, a):
    """The field whose eigen coordinates are ``a``."""
    return SpinorField(table.grid, table.from_eigen(a))


def unit_direction(sp, psi):
    """Eigen coordinates of the lambda-unit E^+ part of the field psi: a fiber's direction."""
    coords, z = _unit_plus(sp, psi)
    return coords.to_eigen(z)


def unit_plane_wave(table, sp, k=(1, 0)):
    idx = table.grid.mode_index()[k]
    coeffs = np.zeros((table.N, table.grid.n_modes), dtype=complex)
    coeffs[:, idx] = table.basis[idx][:, -1]
    pw = SpinorField(table.grid, coeffs)
    return (1.0 / norm_lambda(sp, pw)) * pw


def test_L_zero_field(table, sp05):
    assert L_lambda(sp05, NL, zero_field(table.grid, 2)) == 0.0


def test_L_plane_wave_closed_form(table, sp05):
    # D psi = psi with |psi|^2 = 0.5 pointwise: L = (1-lam)^2 Vol / 4 = pi^2/4
    phi = unit_plane_wave(table, sp05)
    psi = np.pi * phi
    val = L_lambda(sp05, NL, psi)
    assert np.isclose(val, np.pi**2 / 4.0, rtol=1e-12)
    # brute-force quadrature oracle for the same value
    dpsi = apply_dirac(table, psi)
    direct = (
        0.5 * l2_inner(dpsi, psi).real
        - 0.25 * l2_inner(psi, psi).real
        - 0.25 * lp_norm(psi, 4) ** 4
    )
    assert np.isclose(val, direct, rtol=1e-12)


def test_L_constant_spinor(table, sp05):
    c = 0.7
    psi = zero_field(table.grid, 2)
    coeffs = psi.coeffs.copy()
    coeffs[0, 0] = c
    psi = SpinorField(table.grid, coeffs)
    vol = table.grid.volume
    expected = -(0.5 / 2.0) * c**2 * vol - 0.25 * c**4 * vol
    assert np.isclose(L_lambda(sp05, NL, psi), expected, rtol=1e-12)


def test_L_direct_form_agreement(table, sp05):
    rng = np.random.default_rng(1)
    psi = random_field(table.grid, 2, rng)
    val = L_lambda(sp05, NL, psi)
    direct = (
        0.5 * l2_inner(apply_dirac(table, psi), psi).real
        - 0.25 * l2_inner(psi, psi).real
        - Functional(sp05, NL).at_field(psi).mass
    )
    assert abs(val - direct) < 1e-10 * max(1.0, abs(val))


def test_grad_L_fd(table, sp05):
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(25):
        a = random_field(table.grid, 2, rng, scale=0.6)
        d = random_field(table.grid, 2, rng, scale=0.6)
        slope = inner_lambda(sp05, grad_L(sp05, NL, a), d)
        h = 1e-4
        fd = (L_lambda(sp05, NL, a + h * d) - L_lambda(sp05, NL, a - h * d)) / (2.0 * h)
        worst = max(worst, abs(slope - fd) / max(1.0, abs(fd)))
    assert worst < 1e-6


def test_grad_L_fd_power_nonlinearity(table, sp05):
    nl = make_nonlinearity("power", 2, alpha=0.8, p=3.0)
    rng = np.random.default_rng(21)
    worst = 0.0
    for _ in range(15):
        a = random_field(table.grid, 2, rng, scale=0.6)
        d = random_field(table.grid, 2, rng, scale=0.6)
        slope = inner_lambda(sp05, grad_L(sp05, nl, a), d)
        h = 1e-4
        fd = (L_lambda(sp05, nl, a + h * d) - L_lambda(sp05, nl, a - h * d)) / (2.0 * h)
        worst = max(worst, abs(slope - fd) / max(1.0, abs(fd)))
    assert worst < 1e-6


def test_grad_L_vanishes_at_solution(table, sp05):
    psi = np.pi * unit_plane_wave(table, sp05)
    assert norm_lambda(sp05, grad_L(sp05, NL, psi)) < 1e-10


def test_grad_L_kernel_direction(table, sp1, kernel1):
    # psi in the kernel at lambda = 1: the linear part cancels, only -|psi|^2 psi remains.
    psi = kernel_field(kernel1, {0: 0.9, 2: 0.4j})
    rep = table.from_eigen(Functional(sp1, NL).at_field(psi).rep)
    from diractorus.torus import analyze

    vals = psi.values()
    s2 = (vals.real**2 + vals.imag**2).sum(axis=0)
    cubic = analyze(psi.grid, s2 * vals)
    assert np.abs(rep + cubic).max() < 1e-12
    assert np.abs(rep).max() > 0


def test_T_properties(table, sp1, sp05, kernel1):
    rng = np.random.default_rng(3)
    psi = random_field(table.grid, 2, rng)
    tpsi = t_lambda(sp1, psi)
    assert l2_norm(project(sp1, tpsi, "zero") - tpsi) < 1e-12
    assert l2_norm(t_lambda(sp1, 2.5 * psi) - 2.5 * tpsi) < 1e-10
    shift = kernel_field(kernel1, {0: 0.7, 2: 0.3j})
    assert l2_norm(t_lambda(sp1, psi + shift) - (tpsi + shift)) < 1e-10
    assert l2_norm(t_lambda(sp1, shift) - shift) < 1e-12
    assert l2_norm(t_lambda(sp05, psi)) == 0.0


def test_T_prime(table, sp1):
    rng = np.random.default_rng(4)
    psi = random_field(table.grid, 2, rng)
    chi = random_field(table.grid, 2, rng)
    tp = t_prime(sp1, psi, chi)
    h = 1e-5
    fd = (1.0 / (2 * h)) * (t_lambda(sp1, psi + h * chi) - t_lambda(sp1, psi - h * chi))
    assert l2_norm(fd - tp) < 1e-6 * max(l2_norm(tp), 1e-6)
    # T'(psi)[psi] = T(psi)
    assert l2_norm(t_prime(sp1, psi, psi) - t_lambda(sp1, psi)) < 1e-9


def test_mu_lambda_plane_wave(table, sp05):
    phi = unit_plane_wave(table, sp05)
    fib = fiber_maximize(Functional(sp05, NL), table.to_eigen(phi.coeffs))
    assert np.isclose(fib.t, np.pi, rtol=1e-7)
    assert np.isclose(fib.value, np.pi**2 / 4.0, rtol=1e-9)
    assert l2_norm(project(sp05, as_field(table, fib.psi), "zero")) < 1e-9
    assert l2_norm(project(sp05, as_field(table, fib.psi), "minus")) < 1e-9
    assert fib.grad_norm < 1e-6 * max(1.0, abs(fib.value))


def test_mu_lambda_phase_equivariance(table, sp05):
    rng = np.random.default_rng(5)
    raw = project(sp05, random_field(table.grid, 2, rng), "plus")
    phi = (1.0 / norm_lambda(sp05, raw)) * raw
    zeta = np.exp(0.7j)
    fib = fiber_maximize(Functional(sp05, NL), table.to_eigen(phi.coeffs))
    fib2 = fiber_maximize(Functional(sp05, NL), table.to_eigen((zeta * phi).coeffs))
    assert abs(fib.value - fib2.value) < 1e-8 * max(1.0, abs(fib.value))
    assert l2_norm(as_field(table, fib2.psi - zeta * fib.psi)) < 1e-5 * l2_norm(as_field(table, fib.psi))


def test_mu_global_max_over_fiber_samples(table, sp05):
    rng = np.random.default_rng(6)
    raw = project(sp05, random_field(table.grid, 2, rng), "plus")
    phi = (1.0 / norm_lambda(sp05, raw)) * raw
    fib = fiber_maximize(Functional(sp05, NL), table.to_eigen(phi.coeffs))
    coords = SubspaceCoords(sp05, sp05.zero | sp05.minus)
    for _ in range(50):
        t = fib.t * (0.2 + 2.0 * rng.random())
        z = complex_draw(rng, coords)
        z *= rng.random() * fib.t / max(np.linalg.norm(z), 1e-12)
        trial = as_field(table, t * fib.phi + coords.to_eigen(z))
        assert L_lambda(sp05, NL, trial) <= fib.value + 1e-8


def test_mu_value_positive_lower_bound(table, sp05):
    rng = np.random.default_rng(7)
    for _ in range(5):
        raw = project(sp05, random_field(table.grid, 2, rng), "plus")
        phi = (1.0 / norm_lambda(sp05, raw)) * raw
        fib = fiber_maximize(Functional(sp05, NL), table.to_eigen(phi.coeffs))
        ray_max = max(L_lambda(sp05, NL, t * phi) for t in np.linspace(0.05, 3 * fib.t, 60))
        assert fib.value >= ray_max - 1e-9
        assert fib.value > 0


def test_fiber_maximum_is_start_independent(table, sp05):
    rng = np.random.default_rng(13)
    fn = Functional(sp05, NL)
    phi = unit_direction(sp05, random_field(table.grid, 2, rng))
    cold = fiber_maximize(fn, phi)
    t_star = cold.t
    z_star = fn.inner.from_eigen(cold.psi - t_star * cold.phi)
    z_rand = t_star * complex_draw(rng, fn.inner)
    z_rand /= np.sqrt(fn.inner.flat.size)
    starts = [(0.5 * t_star, z_rand), (2.0 * t_star, np.zeros_like(z_star)), (-t_star, z_star)]
    for t0, z0 in starts:
        fib = fiber_maximize(fn, phi, start=(t0, z0))
        assert fib.t > 0
        assert abs(fib.value - cold.value) < 1e-10 * abs(cold.value)
        assert l2_norm(as_field(table, fib.psi - cold.psi)) < 1e-6 * l2_norm(as_field(table, cold.psi))


def _assert_same_evaluation(ev, fresh):
    assert abs(ev.energy - fresh.energy) <= 1e-13 * abs(fresh.energy)
    assert np.abs(ev.grad - fresh.grad).max() <= 1e-12 * np.abs(fresh.grad).max()


def test_a_fiber_carries_its_last_evaluation_only_when_it_was_at_psi(monkeypatch):
    # the sphere descent and the polish read a fiber's value and gradient off
    # the ascent's last evaluation instead of evaluating at psi again
    import diractorus.variational as variational

    table8 = assemble(2, 8)
    fn = Functional(split(table8, 0.5), NL)
    rng = np.random.default_rng(16)
    raw = project(fn.split, random_field(table8.grid, 2, rng), "plus")
    phi = unit_direction(fn.split, raw)
    cold = fiber_maximize(fn, phi, gtol=1e-7)
    nearby = unit_direction(fn.split, raw + 1e-2 * project(fn.split, random_field(table8.grid, 2, rng), "plus"))
    warm = fiber_maximize(fn, nearby, gtol=1e-7, start=(cold.t, cold.z))
    for fib in (cold, warm):
        assert fib.evaluation is not None and fib.evaluated(fn) is fib.evaluation
        _assert_same_evaluation(fib.evaluation, fn.at_field(as_field(table8, fib.psi)))
    # an ascent from the mirror start ends at t < 0, where its last gradient has the other sign
    mirror = fiber_maximize(fn, phi, start=(-cold.t, -cold.z))
    # an ascent whose last call was elsewhere: one more call after L-BFGS returns
    minimize = variational._lbfgs

    def and_one_more(fun, x0, **kwargs):
        res = minimize(fun, x0, **kwargs)
        fun(res.x + 1e-3)
        return res

    monkeypatch.setattr(variational, "_lbfgs", and_one_more)
    elsewhere = fiber_maximize(fn, phi, gtol=1e-7)
    for fib in (mirror, elsewhere):
        assert fib.t > 0 and fib.evaluation is None
        ev, fresh = fib.evaluated(fn), fn(fib.psi)  # the fallback is a fresh evaluation
        assert ev.energy == fresh.energy and np.array_equal(ev.grad, fresh.grad)
        _assert_same_evaluation(ev, fresh)


def test_a_cold_fiber_on_an_e_minus_direction_fails(table, sp05):
    # q < 0 on the ray: it has no positive maximum to start from
    phi = project(sp05, random_field(table.grid, 2, np.random.default_rng(15)), "minus")
    with pytest.raises(SolverFailure, match="no positive ray maximum") as exc:
        fiber_maximize(Functional(sp05, NL), table.to_eigen(phi.coeffs))
    assert exc.value.diagnostics["alpha"] < 0


def test_m_lambda_gradient_fd(table, sp05):
    rng = np.random.default_rng(8)
    coords = SubspaceCoords(sp05, sp05.plus)
    worst = 0.0
    for _ in range(5):
        z = complex_draw(rng, coords)
        zhat = z / np.linalg.norm(z)
        phi = coords.to_field(zhat)
        val, grad, _ = m_lambda(sp05, NL, phi)
        assert val > 0
        dz = complex_draw(rng, coords)
        dz -= (zhat @ dz) * zhat
        dz /= np.linalg.norm(dz)
        d = coords.to_field(dz)
        h = 1e-4

        def m_at(step):
            zt = zhat + step * dz
            v, _, _ = m_lambda(sp05, NL, coords.to_field(zt / np.linalg.norm(zt)))
            return v

        fd = (m_at(h) - m_at(-h)) / (2.0 * h)
        slope = inner_lambda(sp05, grad, d)
        worst = max(worst, abs(slope - fd) / max(1.0, abs(fd)))
    assert worst < 1e-5


def test_m_lambda_reads_only_the_e_plus_part_of_its_direction():
    # M lives on the unit sphere of E^+: m_lambda handed its raw phi to the
    # fiber and projected the sphere gradient with the E^+ coordinates of
    # the normalized phi, which are not unit when phi has an E^- part, so
    # the value agreed and the gradient was off by 22 % here
    table = assemble(2, 4)
    sp = split(table, 0.5)
    raw = random_field(table.grid, 2, np.random.default_rng(0))
    plus, minus = project(sp, raw, "plus"), project(sp, raw, "minus")
    value, grad, _ = m_lambda(sp, NL, plus)
    mixed_value, mixed_grad, _ = m_lambda(sp, NL, plus + 0.5 * minus)
    assert abs(mixed_value - value) <= 1e-12 * abs(value)
    assert l2_norm(mixed_grad - grad) <= 1e-6 * l2_norm(grad)


def test_eta_lambda_plane_wave(table, sp05):
    phi = unit_plane_wave(table, sp05)
    eta, jval, diag = eta_lambda(sp05, NL, np.pi * phi)
    assert l2_norm(eta) < 1e-10
    assert np.isclose(jval, np.pi**2 / 4.0, rtol=1e-10)


def test_eta_anti_coercive(table, sp05):
    rng = np.random.default_rng(9)
    phi = unit_plane_wave(table, sp05)
    chi = project(sp05, random_field(table.grid, 2, rng), "minus")
    vals = [L_lambda(sp05, NL, np.pi * phi + s * chi) for s in (1.0, 4.0, 16.0)]
    assert vals[0] > vals[1] > vals[2]


def test_j_quadratic_near_zero(table, sp05):
    rng = np.random.default_rng(10)
    raw = project(sp05, random_field(table.grid, 2, rng), "plus")
    phi = (1.0 / norm_lambda(sp05, raw)) * raw
    ts = np.array([0.02, 0.04, 0.08])
    vals = np.array([j_lambda(sp05, NL, t * phi) for t in ts])
    # J(t phi) = t^2/2 + o(t^2)
    ratios = vals / (ts**2 / 2.0)
    assert abs(ratios[0] - 1.0) < 0.02
    assert abs(ratios[0] - 1.0) < abs(ratios[-1] - 1.0) + 0.02


def test_nehari_project_plane_wave(table, sp05):
    phi = unit_plane_wave(table, sp05)
    out = nehari_project(sp05, NL, phi)
    assert np.isclose(norm_lambda(sp05, out), np.pi, rtol=1e-9)
    # homogeneity: any positive multiple projects to the same field
    out2 = nehari_project(sp05, NL, 3.7 * phi)
    assert l2_norm(out2 - out) < 1e-8


def test_nehari_second_order_bound(table, sp05):
    rng = np.random.default_rng(11)
    raw = project(sp05, random_field(table.grid, 2, rng), "plus")
    phi_bar = nehari_project(sp05, NL, raw)
    eta, _, _ = eta_lambda(sp05, NL, phi_bar)
    u = phi_bar + eta  # trivial kernel: u - T(u) = u
    bound = -(2.0 / 3.0) * lp_norm(u, 4) ** 4
    second = nehari_second_order(sp05, NL, phi_bar)
    assert second <= bound + 1e-6 * abs(bound)
    assert second < 0


def test_s_lambda_identity_plane_wave(table, sp05):
    phi = unit_plane_wave(table, sp05)
    phi_bar = nehari_project(sp05, NL, phi)
    sval, _, _ = s_lambda(sp05, NL, phi_bar)
    jval = j_lambda(sp05, NL, phi_bar)
    assert np.isclose(sval, np.pi, rtol=1e-9)
    assert np.isclose(sval, np.sqrt(4.0 * jval), rtol=1e-9)
    # phase invariance
    sval2, _, _ = s_lambda(sp05, NL, np.exp(0.3j) * phi_bar)
    assert np.isclose(sval, sval2, rtol=1e-10)


def test_r_lambda_plane_wave(table, sp05):
    phi = unit_plane_wave(table, sp05)
    assert np.isclose(r_lambda(sp05, np.pi * phi), np.pi, rtol=1e-10)


@pytest.mark.parametrize("m", [2, 3])
def test_r_lambda_is_read_off_the_ray_quotient(m):
    # R = (2m Q)^(1/m) with the sign of q, and R = 2 q / |psi|_{2*}^2 off the kernel
    table = assemble(m, 2)
    sp = split(table, 0.5)
    fn = Functional(sp, make_nonlinearity("zero", m))
    rng = np.random.default_rng(50 + m)
    psi = project(sp, random_field(table.grid, table.N, rng), "plus")
    q_val, _ = _ray_quotient(fn(table.to_eigen(psi.coeffs)))
    r_val = r_lambda(sp, psi)
    assert abs(r_val - (2.0 * m * q_val) ** (1.0 / m)) <= 1e-13 * r_val
    psi = psi + 3.0 * project(sp, random_field(table.grid, table.N, rng), "minus")
    ev = fn.at_field(psi)
    assert ev.quadratic < 0
    expected = 2.0 * ev.quadratic / lp_norm(psi, critical_exponent(m)) ** 2
    assert np.isclose(r_lambda(sp, psi), expected, rtol=1e-12, atol=0.0)


def _nu(sp, lam, phi):
    """nu_lambda_k certifying the fiber maximum of phi on the split ``sp`` frozen at its lambda."""
    fn = Functional(sp, NL, lam)
    return nu_lambda_k(fn, fiber_maximize(fn, sp.table.to_eigen(phi.coeffs)))


def test_nu_matches_mu_at_lambda_k(table, sp1):
    phi = unit_plane_wave(table, sp1, k=(1, 1))
    fib_nu = _nu(sp1, 1.0, phi)
    fib_mu = fiber_maximize(Functional(sp1, NL), table.to_eigen(phi.coeffs))
    assert abs(fib_nu.value - fib_mu.value) < 1e-8
    assert fib_nu.unique_confident


def test_nu_certifies_the_fiber_it_is_handed(table, sp1):
    # the handed fiber, re-solved, is the first start, and the caller's point is not changed
    fn = Functional(sp1, NL, 0.97)
    fiber = fiber_maximize(fn, table.to_eigen(unit_plane_wave(table, sp1, k=(1, 1)).coeffs))
    fiber.unique_confident = None
    best = nu_lambda_k(fn, fiber)
    assert best.unique_confident and fiber.unique_confident is None
    assert abs(best.value - fiber.value) < 1e-8


def test_nu_certifies_the_descent_fiber_at_the_stop_of_its_restarts():
    # a cold second-solution descent at lambda = 0.95, frozen at lambda_k = 1:
    # its last fiber stopped at the descent's loose fiber gtol and sat 2e-12
    # below the 1e-9 ascent from its own (t, z), and that handed value was
    # the certified one; re-solved first, all eight values share one stop
    sp1 = split(assemble(2, 8), 1.0)
    fn = Functional(sp1, NL, 0.95)
    fiber, info = sphere_minimize(fn, ray_opt_direction(sp1)[0], gtol=1e-3, maxiter=80)
    assert info["fiber_gtol"] > 1e-9
    resolved = fiber_maximize(fn, fiber.phi, start=(fiber.t, fiber.z))
    best = nu_lambda_k(fn, fiber)
    assert best.unique_confident
    assert abs(best.value - resolved.value) <= 1e-13 * abs(resolved.value)


def test_nu_monotone_below_lambda_k(table, sp1):
    phi = unit_plane_wave(table, sp1, k=(1, 1))
    v_at = _nu(sp1, 1.0, phi).value
    v_lo = _nu(sp1, 0.97, phi).value
    assert v_lo >= v_at - 1e-10


def test_nu_guard_rejects_above(table, sp1):
    fiber = fiber_maximize(Functional(sp1, NL), table.to_eigen(unit_plane_wave(table, sp1, k=(1, 1)).coeffs))
    with pytest.raises(SolverFailure, match="nu requires"):
        nu_lambda_k(Functional(sp1, NL, 1.2), fiber)


def test_kernel_direction_ceiling(table, sp1):
    # sup of L over E0 + E- alone scales like (lambda_k - lambda)^m.
    phi = unit_plane_wave(table, sp1, k=(1, 1))
    gaps = np.array([0.16, 0.08, 0.04])
    sups = []
    for d in gaps:
        fn = Functional(sp1, NL, 1.0 - d)
        # chi = 0 is a critical point of the restriction; seed a kernel mode
        # so the ascent reaches the interior maximum.
        kmask = sp1.zero.ravel()[fn.inner.flat]
        z0 = np.zeros(fn.inner.dim)
        z0[2 * int(np.argmax(kmask))] = 0.5  # the real part of the first kernel entry
        _, val, _, _ = _inner_maximize(fn.value_and_grad, fn.inner, z0, 1e-9, 500)
        sups.append(val)
    sups = np.array(sups)
    assert np.all(sups > 0)
    slopes = np.log(sups[:-1] / sups[1:]) / np.log(2.0)
    assert abs(slopes[-1] - 2.0) < 0.25


def test_degenerate_fiber_error(table, sp05):
    # the zero direction cannot host a fiber, and the zero field gives no
    # direction: the one check where a field enters the solvers
    with pytest.raises(SolverFailure):
        fiber_maximize(Functional(sp05, NL), np.zeros((2, table.grid.n_modes), dtype=complex))
    for reduced in (m_lambda, nehari_project):
        with pytest.raises(SolverFailure, match="no E\\^\\+ component"):
            reduced(sp05, NL, zero_field(table.grid, 2))


def test_a_field_on_e_minus_up_to_rounding_gives_no_direction(table, sp05):
    # the E^- projection of a field keeps E^+ coordinates of lambda norm
    # 1.1e-15 against the field's 17.6; m_lambda normalized that noise into
    # a direction, and minimize_M descended from it to a flagged 1.824
    psi = project(sp05, random_field(table.grid, 2, np.random.default_rng(0)), "minus")
    assert 0 < np.linalg.norm(SubspaceCoords(sp05, sp05.plus).from_eigen(table.to_eigen(psi.coeffs)))
    with pytest.raises(SolverFailure, match="no E\\^\\+ component"):
        m_lambda(sp05, NL, psi)
    with pytest.raises(SolverFailure, match="no E\\^\\+ component"):
        minimize_M(sp05, NL, init=psi)


def test_k_inequality_lemma(table, sp05):
    # (1/2) K'(psi)[psi] > K(psi) > 0 on nonzero fields
    rng = np.random.default_rng(12)
    fn = Functional(sp05, NL)
    for _ in range(20):
        psi = random_field(table.grid, 2, rng)
        ev = fn.at_field(psi)
        kv = ev.mass
        kp = table.grid.volume * float((ev.nonlin * table.to_eigen(psi.coeffs).conj()).real.sum())
        assert kv > 0
        assert 0.5 * kp > kv


def test_K_and_F_convexity_midpoint(table, sp1):
    rng = np.random.default_rng(13)

    def k_value(psi):
        return Functional(sp1, NL).at_field(psi).mass

    for _ in range(100):
        a = random_field(table.grid, 2, rng)
        b = random_field(table.grid, 2, rng)
        mid = 0.5 * (a + b)
        assert k_value(mid) <= 0.5 * (k_value(a) + k_value(b)) + 1e-12
    for _ in range(20):
        a = random_field(table.grid, 2, rng)
        b = random_field(table.grid, 2, rng)
        mid = 0.5 * (a + b)
        lhs = f_lambda_value(sp1, mid)
        rhs = 0.5 * (f_lambda_value(sp1, a) + f_lambda_value(sp1, b))
        assert lhs <= rhs + 1e-10


def test_tmfm_gap_nonnegative(table, sp1):
    rng = np.random.default_rng(14)
    worst = 0.0
    for _ in range(10):
        psi = random_field(table.grid, 2, rng, scale=0.8)
        phi = random_field(table.grid, 2, rng, scale=0.8)
        worst = min(worst, tmfm_gap(sp1, psi, phi))
    assert worst >= -1e-8


def test_default_sigma(sp1):
    assert np.isclose(default_sigma(sp1), 0.5 / (np.sqrt(2.0) - 1.0), rtol=1e-12)


def _t_reduced(sp):
    """a -> (L_T, its lambda-metric gradient) at eigen coordinates a, from ``_FJet``'s evaluation."""

    def objective(a):
        ev = _FJet(sp, SpinorField(sp.grid, sp.table.from_eigen(a))).ev
        return ev.energy, ev.grad

    return objective


def test_reduced_problem_kernel_invariance(table, sp1, kernel1):
    # the reduced energy is invariant under kernel shifts
    rng = np.random.default_rng(15)
    psi = random_field(table.grid, 2, rng)
    shift = kernel_field(kernel1, {1: 0.8})
    v1 = _FJet(sp1, psi).ev.energy
    v2 = _FJet(sp1, psi + shift).ev.energy
    assert abs(v1 - v2) < 1e-9 * max(1.0, abs(v1))


@pytest.mark.parametrize("seed", [31, 32, 33])
def test_unreduced_fiber_maximum_equals_the_T_reduced_one(table, sp1, seed):
    # At f = 0, L_T(psi) = max_c L(psi - sum c_a e_a): keeping E^0 in the inner
    # space gives the T-reduced fiber maximum, and the maximizer's kernel part is
    # -T of the rest.
    raw = project(sp1, random_field(table.grid, 2, np.random.default_rng(seed), decay=1.2), "plus")
    full = fiber_maximize(Functional(sp1, NL), unit_direction(sp1, raw), gtol=1e-10)
    # L_T over {t phi + chi : chi in E^-}, phi lambda-unit, started at (full.t, 0)
    t_reduced_fiber = SimpleNamespace(split=sp1, inner=SubspaceCoords(sp1, sp1.minus))
    coords = _FiberCoords(t_reduced_fiber, full.phi)
    x0 = np.concatenate([[full.t], np.zeros(coords.dim - 1)])
    reduced = _inner_maximize(_t_reduced(sp1), coords, x0, 1e-10, 500)[1]
    assert abs(full.value - reduced) <= 1e-9 * abs(reduced)
    psi = as_field(table, full.psi)
    chi0 = project(sp1, psi, "zero")
    assert l2_norm(chi0 + t_lambda(sp1, psi - chi0)) < 1e-7


def test_unreduced_j_equals_the_T_reduced_one(table, sp1):
    raw = project(sp1, random_field(table.grid, 2, np.random.default_rng(34), decay=1.2), "plus")
    phi = (1.5 / norm_lambda(sp1, raw)) * raw
    _, jval, _ = eta_lambda(sp1, NL, phi)
    base, minus, objective = table.to_eigen(phi.coeffs), SubspaceCoords(sp1, sp1.minus), _t_reduced(sp1)
    z0 = np.zeros(minus.dim)
    reduced = _inner_maximize(lambda chi: objective(base + chi), minus, z0, 1e-10, 900)[1]
    assert abs(jval - reduced) <= 1e-9 * abs(reduced)


@pytest.mark.parametrize("seed", [41, 42, 43])
def test_s_lambda_at_an_eigenvalue_equals_the_T_reduced_maximum(table, sp1, seed):
    # S runs on the unreduced R over E^0 + E^-; at lambda = 1 it equals the
    # maximum over E^- of r_lambda, and S^2 = 4 J holds there.
    raw = project(sp1, random_field(table.grid, 2, np.random.default_rng(seed), decay=1.2), "plus")
    phi_bar = nehari_project(sp1, NL, raw)
    sval, _, _ = s_lambda(sp1, NL, phi_bar)
    base, minus = table.to_eigen(phi_bar.coeffs), SubspaceCoords(sp1, sp1.minus)

    def objective(chi):
        # r_lambda and r_lambda_rep at phi_bar + chi, from one T Newton
        r_val, rep = _rayleigh(_FJet(sp1, SpinorField(table.grid, table.from_eigen(base + chi))).ev)
        return r_val, rep / sp1.w2

    reduced = _inner_maximize(objective, minus, np.zeros(minus.dim), 1e-10, 400)[1]
    assert abs(sval - reduced) <= 1e-9 * abs(reduced)
    assert abs(sval**2 - 4.0 * j_lambda(sp1, NL, phi_bar)) <= 1e-9 * sval**2


def test_j_maximizes_over_the_kernel_block_with_a_subcritical_term(table, sp1):
    # No T-reduction when f != 0, so at an eigenvalue J maximizes over E^0 + E^-:
    # the maximizer has a kernel part and the energy is stationary along E^0.
    nl = make_nonlinearity("power", 2, alpha=0.8, p=3.0)
    raw = project(sp1, random_field(table.grid, 2, np.random.default_rng(3), decay=1.2), "plus")
    phi = (1.0 / norm_lambda(sp1, raw)) * raw
    eta, jval, _ = eta_lambda(sp1, nl, phi)
    assert l2_norm(project(sp1, eta, "zero")) > 0.05
    assert norm_lambda(sp1, project(sp1, grad_L(sp1, nl, phi + eta), "zero")) < 1e-7
    assert jval > 0.427  # the maximum over E^- alone is 0.42655


def test_s_lambda_rejects_a_subcritical_term(sp05):
    with pytest.raises(ValueError):
        s_lambda(sp05, make_nonlinearity("power", 2, alpha=0.8, p=3.0), zero_field(sp05.grid, 2))


@pytest.mark.parametrize("case", ["frozen-split", "ray-quotient"])
def test_functional_gradients_fd(table, sp05, sp1, case):
    # frozen-split: split at lambda_k = 1, energy at lambda = 0.95 (second
    # solutions); ray-quotient: the quotient ray_opt_direction descends on.
    if case == "frozen-split":
        sp, value_and_grad = sp1, Functional(sp1, NL, 0.95).value_and_grad
    else:
        sp, fn = sp05, Functional(sp05, NL)

        def value_and_grad(a):
            q_val, rep = _ray_quotient(fn(a))
            return q_val, rep / sp05.w2
    rng = np.random.default_rng(16)
    worst = 0.0
    for _ in range(10):
        a = table.to_eigen(random_field(table.grid, 2, rng, scale=0.6).coeffs)
        d = table.to_eigen(random_field(table.grid, 2, rng, scale=0.6).coeffs)
        slope = table.grid.volume * float((sp.w2 * (value_and_grad(a)[1] * d.conj()).real).sum())
        h = 1e-4
        fd = (value_and_grad(a + h * d)[0] - value_and_grad(a - h * d)[0]) / (2.0 * h)
        worst = max(worst, abs(slope - fd) / max(1.0, abs(fd)))
    assert worst < 1e-6


@pytest.mark.parametrize("frozen", [False, True])
@pytest.mark.parametrize("kind", ["bnd", "power", "log-critical"])
def test_hvp_matches_gradient_differences(table, sp05, sp1, kind, frozen):
    # frozen: split at lambda_k = 1, functional at lambda = 0.95 (second solutions)
    nl = make_nonlinearity(kind, 2, alpha=0.8, p=3.0, q=1.0)
    fn = Functional(sp1, nl, 0.95) if frozen else Functional(sp05, nl)
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(5):
        a = table.to_eigen(random_field(table.grid, 2, rng, scale=0.6).coeffs)
        d = table.to_eigen(random_field(table.grid, 2, rng, scale=0.6).coeffs)
        h = 1e-5
        fd = (fn(a + h * d).rep - fn(a - h * d).rep) / (2.0 * h)
        worst = max(worst, np.linalg.norm(fn(a).hvp(d) - fd) / max(1.0, np.linalg.norm(fd)))
    assert worst < 1e-7


def test_second_matches_the_componentwise_real_inner_product(table, sp05):
    # the reference sums Re<u, dv> as re*re + im*im per spinor component
    rng = np.random.default_rng(23)
    ev = Functional(sp05, NL).at_field(random_field(table.grid, 2, rng))
    g, radial = ev._second_weights
    dv = random_field(table.grid, 2, rng).values()
    for w in (dv, np.array([dv, 1j * dv, 2.0 * dv.conj()])):  # one direction, and a stack as in the kernel Hessian
        beta = (ev.u.real * w.real + ev.u.imag * w.imag).sum(axis=-3, keepdims=True)
        want = g * w + radial * beta * ev.u
        assert np.abs(ev.second(w) - want).max() <= 1e-14 * np.abs(want).max()


def _spinor_last_reference(fn, a, d):
    """Energy, rep and hvp at eigen coordinates a (direction d) by the spinor-last formulas.

    The values are moved to (n, n, N); every weight is an (n, n, 1) broadcast
    against the spinor axis and Re<u, dv> sums the (re_0, im_0, re_1, im_1)
    columns of a product of real views, as the package computed them before
    its values put the spinor axis first.  The transforms are the package's.
    """
    from diractorus.torus import analyze, synthesize

    table, grid, nl = fn.split.table, fn.split.grid, fn.nl

    def values(coords):
        return np.moveaxis(synthesize(grid, table.from_eigen(coords)), 0, -1)

    def to_eigen(vals):
        return table.to_eigen(analyze(grid, np.ascontiguousarray(np.moveaxis(vals, -1, 0))))

    def real_inner(x, y):
        prod = (x[..., None].view(float) * y[..., None].view(float)).reshape(x.shape[:-1] + (-1,))
        out = prod[..., 0].copy()
        for j in range(1, prod.shape[-1]):
            out += prod[..., j]
        return out

    u, dv = values(a), values(d)
    rho = real_inner(u, u)
    energy = 0.5 * grid.volume * float(np.vdot(a, fn.shift * a).real) - float(grid.cell * nl.G_of_rho(rho).sum())
    rep = fn.shift * a - to_eigen(nl.g_of_rho(rho)[..., None] * u)
    floor = np.maximum(rho, 1e-28)
    g, radial = nl.g_of_rho(floor)[..., None], nl.radial_of_rho(floor)[..., None]
    hvp = fn.shift * d - to_eigen(g * dv + radial * real_inner(u, dv)[..., None] * u)
    return energy, rep, hvp


@pytest.mark.parametrize("kind", ["bnd", "power"])
def test_the_spinor_first_layout_reproduces_the_spinor_last_formulas(kind):
    # the relayout moves no bit: the same products per point, summed in the same order
    table = assemble(2, 8)
    fn = Functional(split(table, 0.7), make_nonlinearity(kind, 2, alpha=0.8, p=3.0))
    rng = np.random.default_rng(31)
    a = table.to_eigen(random_field(table.grid, 2, rng, scale=0.6).coeffs)
    d = table.to_eigen(random_field(table.grid, 2, rng, scale=0.6).coeffs)
    energy, rep, hvp = _spinor_last_reference(fn, a, d)
    ev = fn(a)
    assert ev.u.shape == (2,) + (table.grid.n_grid,) * 2
    assert ev.energy == energy
    assert np.array_equal(ev.rep, rep)
    assert np.array_equal(ev.hvp(d), hvp)


def test_one_evaluation_is_one_synthesize_and_one_analyze(monkeypatch, table, sp1):
    import diractorus.torus as torus
    import diractorus.variational as variational
    from diractorus.spectral import EigenTable

    rng = np.random.default_rng(17)
    fn = Functional(sp1, NL)
    psi = random_field(table.grid, 2, rng)
    a = table.to_eigen(psi.coeffs)
    calls = {"synthesize": 0, "analyze": 0, "eigen": 0}

    def counted(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)

        return wrapper

    synthesize, analyze = torus.synthesize, torus.analyze
    for module in (torus, variational):
        monkeypatch.setattr(module, "synthesize", counted("synthesize", synthesize))
        monkeypatch.setattr(module, "analyze", counted("analyze", analyze))
    monkeypatch.setattr(EigenTable, "to_eigen", counted("eigen", EigenTable.to_eigen))
    monkeypatch.setattr(EigenTable, "from_eigen", counted("eigen", EigenTable.from_eigen))
    for evaluate, point in ((fn, a), (fn.at_field, psi)):
        calls.update(synthesize=0, analyze=0, eigen=0)
        ev = evaluate(point)
        ev.energy, ev.grad, ev.rep, ev.lin, ev.nonlin
        assert calls["synthesize"] == 1 and calls["analyze"] == 1
        assert calls["eigen"] <= 2


def _counting(monkeypatch, module, name, calls):
    func = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return func(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


@pytest.mark.parametrize("case", ["bnd-regular", "power"])
def test_ray_search_is_one_evaluation(monkeypatch, table, sp05, case):
    import diractorus.torus as torus
    import diractorus.variational as variational

    if case == "bnd-regular":
        fn = Functional(sp05, NL)
    else:
        fn = Functional(sp05, make_nonlinearity("power", 2, alpha=0.8, p=3.0))
    sp = fn.split
    phi = project(sp, random_field(table.grid, 2, np.random.default_rng(5)), "plus")
    phi_e = table.to_eigen(((1.0 / norm_lambda(sp, phi)) * phi).coeffs)

    # the cold start, without the ascent: its one evaluation is the only synthesize
    calls = {}
    for module in (torus, variational):
        _counting(monkeypatch, module, "synthesize", calls)
    monkeypatch.setattr(variational, "_inner_maximize", lambda _, c, x0, *a: (x0, 0.0, 0.0, 0))
    t0 = fiber_maximize(fn, phi_e).t
    assert calls["synthesize"] == 1
    monkeypatch.undo()

    energies = [fn(s * t0 * phi_e).energy for s in (1.0 - 1e-3, 1.0, 1.0 + 1e-3)]
    if case == "bnd-regular":  # f = 0: t0 is the ray maximum
        assert energies[1] > max(energies[0], energies[2]) and energies[1] > 0
    else:  # f >= 0: t0 is at or above it, where the ray falls
        assert energies[2] < energies[1] < energies[0]


def test_tmfm_gap_runs_one_kernel_newton(monkeypatch, table, sp1):
    import diractorus.variational as variational
    from diractorus.variational import f_first

    rng = np.random.default_rng(29)
    psi = random_field(table.grid, 2, rng, scale=0.8)
    phi = random_field(table.grid, 2, rng, scale=0.8)
    h = 1e-4

    def second(a, b):
        # F''(psi)[a, b] by central differences of F'(.)[a] along b; each F' solves its own T.
        return (f_first(sp1, psi + h * b, a) - f_first(sp1, psi - h * b, a)) / (2.0 * h)

    reference = (
        second(psi, psi)
        - f_first(sp1, psi, psi)
        + 2.0 * (second(phi, psi) - f_first(sp1, psi, phi))
        + second(phi, phi)
        - 2.0 * 4.0 / 3.0 * f_lambda_value(sp1, psi)  # 2 2*/(m + 1), 2* = 4
    )
    calls = {}
    _counting(monkeypatch, variational, "_kernel_coords", calls)
    gap = tmfm_gap(sp1, psi, phi)
    assert calls["_kernel_coords"] == 1
    assert abs(gap - reference) <= 1e-6 * max(1.0, abs(reference))


@pytest.mark.parametrize("m, K", [(2, 3), (3, 2)])
@pytest.mark.parametrize("kind", ["zero", "power", "log-critical"])
def test_the_kernel_matches_the_modulus_form_of_the_nonlinearity(m, K, kind):
    # the evaluation reads every weight off rho = |u|^2; the reference is
    # G, g and g' of the modulus s = |u|, with the second variation's floor
    # on s at 1e-14.  g' takes f' by a central difference with step 1e-7 s,
    # whose own rounding is about 2.2e-16 / 1e-7: an ulp of s moves it by
    # ~1e-9 relative, so with an f the second variation agrees to that level
    params = {"zero": {}, "power": {"alpha": 0.8, "p": 2.5}, "log-critical": {"alpha": 0.5, "q": 1.0}}[kind]
    nl = make_nonlinearity(kind, m, **params)
    table = assemble(m, K)
    rng = np.random.default_rng(41)
    fn = Functional(split(table, 0.5), nl)
    ev = fn(table.to_eigen(random_field(table.grid, table.N, rng, scale=0.6).coeffs))
    dv = random_field(table.grid, table.N, rng).values()
    s = np.linalg.norm(ev.u, axis=0)
    assert abs(ev.mass - table.grid.cell * nl.G(s).sum()) <= 1e-14 * abs(ev.mass)
    want = nl.g(s) * ev.u
    assert np.abs(ev.gu - want).max() <= 1e-14 * np.abs(want).max()
    sf = np.maximum(s, 1e-14)
    beta = (ev.u.real * dv.real + ev.u.imag * dv.imag).sum(axis=0)
    want = nl.g(sf) * dv + nl.g_prime(sf) / sf * beta * ev.u
    tol = 1e-14 if nl.is_zero() else 1e-8
    assert np.abs(ev.second(dv) - want).max() <= tol * np.abs(want).max()


def test_solver_coordinates_run_over_the_masked_entries_mode_by_mode(table, sp05):
    # entry j is the j-th masked (mode, spin) pair in mode-major order, the
    # order in which the seeded ray-opt start and L-BFGS read the coordinates
    for mask in (sp05.plus, sp05.zero | sp05.minus):
        coords = SubspaceCoords(sp05, mask)
        entries = [(i, k) for k in range(table.grid.n_modes) for i in range(table.N) if mask[i, k]]
        x = 1.0 + np.arange(coords.dim)
        a = coords.to_eigen(x)
        assert coords.dim == 2 * len(entries) and np.count_nonzero(a) == len(entries)
        for j, (i, k) in enumerate(entries):
            want = (x[2 * j] + 1j * x[2 * j + 1]) / np.sqrt(table.grid.volume * sp05.w2[i, k])
            assert np.isclose(a[i, k], want, rtol=1e-15, atol=0.0), (j, i, k)


def test_solver_coordinates_are_real_and_lambda_orthonormal(table, sp05):
    # a coordinate vector is the real vector L-BFGS optimizes: the (re, im)
    # pair of each masked eigen entry, scaled to the lambda metric
    rng = np.random.default_rng(43)
    fn = Functional(sp05, NL)
    for coords in (fn.inner, SubspaceCoords(sp05, sp05.plus), SubspaceCoords(sp05, sp05.zero)):
        assert coords.dim == 2 * coords.flat.size
        x = rng.standard_normal(coords.dim)
        a = coords.to_eigen(x)
        assert np.array_equal(a.ravel()[coords.flat], (x[::2] + 1j * x[1::2]) / coords.scale)
        back = coords.from_eigen(a)
        # x / scale * scale rounds twice, so the round trip is exact to an ulp or two
        assert back.dtype == float and np.allclose(back, x, rtol=1e-15, atol=0.0)
        assert abs(x @ x - norm_lambda(sp05, coords.to_field(x)) ** 2) <= 1e-14 * (x @ x)
    # the fiber coordinates (t, z): a real scale t and the inner coordinates
    phi = project(sp05, random_field(table.grid, 2, rng), "plus")
    phi = (1.0 / norm_lambda(sp05, phi)) * phi
    coords = _FiberCoords(fn, table.to_eigen(phi.coeffs))
    assert coords.dim == 1 + fn.inner.dim
    x = np.concatenate([[1.3], 0.2 * rng.standard_normal(fn.inner.dim)])
    g = coords.from_eigen(fn(coords.to_eigen(x)).grad)
    assert g.dtype == float and g.shape == (coords.dim,)
    h = 1e-5

    def energy_at(t):
        return fn(coords.to_eigen(np.concatenate([[t], x[1:]]))).energy

    fd = (energy_at(x[0] + h) - energy_at(x[0] - h)) / (2.0 * h)
    assert abs(g[0] - fd) <= 1e-8 * max(1.0, abs(fd))
