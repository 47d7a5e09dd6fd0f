"""Euclidean solution family, cutoff transplant, and measured asymptotics."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import diractorus
from diractorus.clifford import build_rep, clifford_mul
from diractorus.nonlinearity import critical_exponent, make_nonlinearity, radial_integral
from diractorus.spectral import assemble, omega_sphere, split
from diractorus.testspinor import (
    TestSpinorError,
    TestSpinorParams,
    _chart,
    _chart_geometry,
    _solution_and_dirac,
    asymptotic_fit,
    build_test_spinor,
    cutoff_eta,
    dirac_identity_fd_residual,
    energy_report,
    euclidean_solution,
    omega_identity_residual,
    radial_mass_ratio,
)
from diractorus.torus import make_grid, pointwise_modulus, pointwise_real_inner


def euclidean_dirac(rep, x, params):
    """Closed-form D psi(x) from its two derivative terms, not from the identity D psi = m mu psi."""
    return _solution_and_dirac(rep, np.asarray(x, dtype=float), 1.0, params.direction(rep))[1]


def test_params_validation():
    with pytest.raises(TestSpinorError):
        TestSpinorParams(eps=-0.1)
    with pytest.raises(TestSpinorError):
        TestSpinorParams(eps=0.1, delta=2.0)  # 2 delta >= pi
    with pytest.raises(TestSpinorError):
        TestSpinorParams(eps=1.0, delta=0.5)  # eps > delta


def test_a_non_finite_eps_is_rejected():
    # eps = nan passed every comparison and failed later, inside SpinorField,
    # as non-finite coefficients
    for eps in (np.nan, np.inf):
        with pytest.raises(TestSpinorError, match="eps must be positive and finite"):
            TestSpinorParams(eps=eps)


def test_a_non_finite_center_is_rejected():
    # a nan center built an empty box and an all-zero field, whose report
    # read zeros with no error
    for center in ((np.nan, 0.0), np.array([0.0, np.inf])):
        with pytest.raises(TestSpinorError, match="center must be finite"):
            TestSpinorParams(eps=0.1, center=center)


def test_cutoff_profile():
    delta = np.pi / 4
    r = np.array([0.0, delta, 1.5 * delta, 2 * delta, 3.0])
    eta = cutoff_eta(r, delta)
    assert eta[0] == 1.0 and eta[1] == 1.0
    assert 0.0 < eta[2] < 1.0
    assert eta[3] == 0.0 and eta[4] == 0.0


def test_modulus_formula_m2():
    # |psi| = m^((m-1)/2) mu^((m-1)/2): sqrt(2) at 0, exactly 1 at |x| = 1
    rep = build_rep(2)
    params = TestSpinorParams(eps=0.1)
    v0 = euclidean_solution(rep, np.zeros(2), params)
    assert np.isclose(np.linalg.norm(v0), np.sqrt(2.0), rtol=1e-14)
    v1 = euclidean_solution(rep, np.array([0.6, 0.8]), params)
    assert np.isclose(np.linalg.norm(v1), 1.0, rtol=1e-14)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_closed_form_dirac_matches_pointwise_identity(m):
    rep = build_rep(m)
    params = TestSpinorParams(eps=0.1)
    rng = np.random.default_rng(m)
    for _ in range(10):
        x = rng.standard_normal(m) * 0.8
        mu = 1.0 / (1.0 + np.dot(x, x))
        lhs = euclidean_dirac(rep, x, params)
        rhs = m * mu * euclidean_solution(rep, x, params)
        assert np.abs(lhs - rhs).max() < 1e-13
        # and the solution property D psi = |psi|^(2*-2) psi
        psi = euclidean_solution(rep, x, params)
        power = np.linalg.norm(psi) ** (2.0 / (m - 1.0))
        assert np.abs(lhs - power * psi).max() < 1e-12


@pytest.mark.parametrize("m, K", [(2, 12), (3, 6), (4, 3)])
def test_profile_folds_the_eps_scaling_into_its_planes(m, K):
    # psi_eps and D psi_eps come from planes with eps^(-(m-1)/2) and
    # eps^(-(m+1)/2) folded in; they must be the rescaled Euclidean values
    grid, rep = make_grid(m, K), build_rep(m)
    for eps in (0.3, 0.07):
        params = TestSpinorParams(eps=eps)
        _, y, eta, r2, workspace = _chart(grid, params)
        psi_eps, dpsi_eps = _solution_and_dirac(rep, y, eps, params.direction(rep), r2, workspace)
        want = eps ** (-(m - 1) / 2.0) * euclidean_solution(rep, y / eps, params)
        assert np.abs(psi_eps - want).max() <= 1e-14 * np.abs(want).max()
        want = eps ** (-(m + 1) / 2.0) * euclidean_dirac(rep, y / eps, params)
        assert np.abs(dpsi_eps - want).max() <= 1e-14 * np.abs(want).max()
        # a field's box values are the cut-off samples, in one allocation
        # with its D psi_eps
        psi = build_test_spinor(grid, rep, params)
        assert np.array_equal(psi.box_values, eta * psi_eps)
        assert np.array_equal(psi.profile[2], dpsi_eps)
        assert psi.box_values.base is psi.profile[2].base


@pytest.mark.parametrize("m", [2, 3])
def test_fd_dirac_identity_second_order(m):
    rep = build_rep(m)
    params = TestSpinorParams(eps=0.1)
    x = np.array([0.3, -0.45, 0.2][:m])
    res = [dirac_identity_fd_residual(rep, params, x, h) for h in (0.02, 0.01, 0.005)]
    orders = [np.log2(res[i] / res[i + 1]) for i in range(2)]
    assert min(orders) >= 1.9


@pytest.fixture(scope="module")
def sweep_table():
    return assemble(2, 24, n_grid=256)


def test_build_sup_norm_and_support(sweep_table):
    rep = sweep_table.rep
    params = TestSpinorParams(eps=0.1)
    psi = build_test_spinor(sweep_table.grid, rep, params)
    s = pointwise_modulus(psi.samples)
    # peak value eps^(-1/2) m^((m-1)/2) at the center (a grid point)
    assert np.isclose(s.max(), np.sqrt(2.0) / np.sqrt(0.1), rtol=1e-12)
    # support inside |x| < 2 delta
    from diractorus.testspinor import _chart_coordinates

    y = np.meshgrid(*_chart_coordinates(sweep_table.grid, None), indexing="ij")
    r = np.sqrt(sum(yj**2 for yj in y))
    assert np.abs(s[r >= 2 * params.delta]).max() == 0.0
    # pointwise modulus matches the closed form inside the support
    eta = cutoff_eta(r, params.delta)
    formula = eta * np.sqrt(2.0) / np.sqrt(0.1) * (1.0 + (r / 0.1) ** 2) ** (-0.5)
    mask = eta > 1e-12
    rel = np.abs(s[mask] - formula[mask]) / formula[mask].max()
    assert rel.max() < 1e-10


def test_resolution_warning_flag(sweep_table):
    rep = sweep_table.rep
    fine = build_test_spinor(sweep_table.grid, rep, TestSpinorParams(eps=0.25))
    coarse = build_test_spinor(sweep_table.grid, rep, TestSpinorParams(eps=0.05))
    assert not fine.resolution_warning
    assert coarse.resolution_warning


# energy_report at K = 24, n = 256, lambda = 0.5, recorded from the full-grid
# quadrature that preceded the support-box one
GOLDEN_REPORTS = {
    0.2: {
        "l2": 2.0726758378688244,
        "l2_sq": 4.295985128885234,
        "l2star": 1.864822004158959,
        "l2star_pow": 12.09343125427835,
        "dirac_energy": 12.14505821239241,
        "dirac_energy_spectral": 12.14204943367328,
        "free_energy": 3.0491712926266175,
        "dual_norm_phi": 1.5768127784594748,
        "dual_norm_residual": 1.5253601645693413,
        "resolution_flag": False,
    },
    0.05: {
        "l2": 1.391039999893,
        "l2_sq": 1.9349922813023175,
        "l2star": 1.8816665799195942,
        "l2star_pow": 12.536337803061901,
        "dirac_energy": 12.539784733389453,
        "dirac_energy_spectral": 9.851968429866652,
        "free_energy": 3.1358079159292513,
        "dual_norm_phi": 0.7884744466146255,
        "dual_norm_residual": 0.7991495167818357,
        "resolution_flag": True,
    },
}


# energy_report at m = 3, K = 6, n = 48, lambda = 0.5, eps = 0.3, recorded
# before the eps scaling was folded into the profile's planes
GOLDEN_REPORT_M3 = {
    "l2": 4.205752877431966,
    "l2_sq": 17.68835726602726,
    "l2star": 4.004626293397166,
    "l2star_pow": 64.22231901316582,
    "dirac_energy": 64.44302208863637,
    "dirac_energy_spectral": 54.660837954274406,
    "free_energy": 10.814071373262912,
    "dual_norm_phi": 2.6942904571419475,
    "dual_norm_residual": 2.429647241232717,
    "resolution_flag": True,
}


def test_energy_report_golden_m3():
    table = assemble(3, 6, n_grid=48)
    psi = build_test_spinor(table.grid, table.rep, TestSpinorParams(eps=0.3))
    rec = energy_report(table, split(table, 0.5), psi)
    assert rec["eps"] == 0.3
    for name, want in GOLDEN_REPORT_M3.items():
        if isinstance(want, bool):
            assert rec[name] is want, name
        else:
            assert abs(rec[name] - want) <= 1e-12 * abs(want), name


@pytest.mark.parametrize("eps", sorted(GOLDEN_REPORTS))
def test_energy_report_golden(sweep_table, eps):
    sp = split(sweep_table, 0.5)
    psi = build_test_spinor(sweep_table.grid, sweep_table.rep, TestSpinorParams(eps=eps))
    rec = energy_report(sweep_table, sp, psi)
    assert rec["eps"] == eps
    for name, want in GOLDEN_REPORTS[eps].items():
        if isinstance(want, bool):
            assert rec[name] is want, name
        else:
            assert abs(rec[name] - want) <= 1e-12 * abs(want), name


def test_energy_report_measures_only_its_own_params(sweep_table):
    # a report measures the field it is handed: other parameters raise, and
    # the field's own, as the same object or as an equal copy, give the same
    # bits as none
    sp = split(sweep_table, 0.5)
    center = (0.9, -1.2)
    params = TestSpinorParams(eps=0.1, center=center)
    psi = build_test_spinor(sweep_table.grid, sweep_table.rep, params)
    want = energy_report(sweep_table, sp, psi)
    for same in (params, TestSpinorParams(eps=0.1, center=center), TestSpinorParams(eps=0.1, center=np.array(center))):
        assert energy_report(sweep_table, sp, psi, params=same) == want
    others = [
        TestSpinorParams(eps=0.07, center=center),
        TestSpinorParams(eps=0.1, delta=np.pi / 5, center=center),
        TestSpinorParams(eps=0.1),
        TestSpinorParams(eps=0.1, center=np.array([0.9, -1.1])),
    ]
    for other in others:
        with pytest.raises(TestSpinorError, match="own parameters"):
            energy_report(sweep_table, sp, psi, params=other)


def _grad_eta(y, delta):
    """grad eta = eta'(r) y / r, from the closed-form derivative of ``cutoff_eta``'s quintic ramp."""
    r = np.sqrt((y**2).sum(axis=0))
    u = (r - delta) / delta
    slope = np.where((u > 0.0) & (u < 1.0), -(30.0 * u**2 - 60.0 * u**3 + 30.0 * u**4) / delta, 0.0)
    return slope * y / np.where(r > 0.0, r, 1.0)


@pytest.mark.parametrize(
    "m, K, n_grid, params",
    [
        (2, 24, 256, TestSpinorParams(eps=0.1)),
        (2, 24, 256, TestSpinorParams(eps=0.05, delta=np.pi / 5, center=(0.9, -1.2))),
        (3, 6, 48, TestSpinorParams(eps=0.3)),
    ],
)
def test_dirac_energy_is_the_pairing_with_the_cutoff_gradient(m, K, n_grid, params):
    # D phi = grad eta . psi_eps + eta D psi_eps; the report drops the first
    # term, which pairs to zero with phi because Clifford multiplication by a
    # real vector is skew-adjoint.  Here it is kept, on the field's box
    table = assemble(m, K, n_grid=n_grid)
    grid, rep = table.grid, table.rep
    psi = build_test_spinor(grid, rep, params)
    _, eta, dpsi_eps = psi.profile
    _, y, _, r2, _ = _chart(grid, params)
    psi_eps, _ = _solution_and_dirac(rep, y, params.eps, params.direction(rep), r2)
    gradient_term = clifford_mul(rep, _grad_eta(y, params.delta), psi_eps)
    want = grid.cell * pointwise_real_inner(gradient_term + eta * dpsi_eps, psi.box_values).sum()
    got = energy_report(table, split(table, 0.5), psi)["dirac_energy"]
    assert abs(got - want) <= 1e-14 * abs(want)
    # the dropped term is not small pointwise, only its pairing vanishes
    assert grid.cell * np.abs(gradient_term).sum() > 1e-3 * abs(want)


@pytest.mark.parametrize(
    "params, dirac_energy, free_energy",
    [
        (TestSpinorParams(eps=0.1, delta=np.pi / 5), 12.417331911459582, 3.09751942260947),
        (TestSpinorParams(eps=0.07, delta=np.pi / 4), 12.162865208999087, 2.9702860713792223),
    ],
)
def test_energy_report_with_other_params(sweep_table, params, dirac_energy, free_energy):
    # energy_report refuses ``params`` other than the field's own.  The
    # pairing it once computed for them, D phi of ``params`` (a smaller box,
    # or another eps on the same box) with the field built at eps = 0.1, is
    # rebuilt here on the full grid from the chart and the closed forms, and
    # keeps its figures
    grid, rep = sweep_table.grid, sweep_table.rep
    sp = split(sweep_table, 0.5)
    psi = build_test_spinor(grid, rep, TestSpinorParams(eps=0.1))
    with pytest.raises(TestSpinorError, match="own parameters"):
        energy_report(sweep_table, sp, psi, params=params)
    rec = energy_report(sweep_table, sp, psi)
    box, y, eta, r2, _ = _chart(grid, params)
    psi_eps, dpsi_eps = _solution_and_dirac(rep, y, params.eps, params.direction(rep), r2)
    dphi = np.zeros_like(psi.samples)
    dphi[(slice(None),) + np.ix_(*box)] = clifford_mul(rep, _grad_eta(y, params.delta), psi_eps) + eta * dpsi_eps
    mixed = grid.cell * pointwise_real_inner(dphi, psi.samples).sum()
    got = {
        "dirac_energy": mixed,
        "free_energy": 0.5 * mixed - rec["l2star_pow"] / critical_exponent(grid.m),
        "l2_sq": rec["l2_sq"],
        "dual_norm_residual": rec["dual_norm_residual"],
    }
    want = {
        "dirac_energy": dirac_energy,
        "free_energy": free_energy,
        "l2_sq": 3.003015866124517,
        "dual_norm_residual": 1.1154649501930538,
    }
    for name, value in want.items():
        assert abs(got[name] - value) <= 1e-12 * abs(value), name


def test_off_center_spinor_is_the_rolled_centered_one(sweep_table):
    # a center a whole number of cells off the origin; the support wraps
    # across the chart boundary on both axes
    grid, rep = sweep_table.grid, sweep_table.rep
    sp = split(sweep_table, 0.5)
    shift = (37, -50)
    center = tuple(2.0 * np.pi * k / grid.n_grid for k in shift)
    centered = build_test_spinor(grid, rep, TestSpinorParams(eps=0.1))
    moved = build_test_spinor(grid, rep, TestSpinorParams(eps=0.1, center=center))
    for idx in moved.profile[0]:
        assert idx.min() == 0 and idx.max() == grid.n_grid - 1
    rolled = np.roll(centered.samples, shift, axis=(1, 2))  # the grid axes, after the spinor axis
    # equal up to the rounding of the shifted chart coordinates
    assert np.abs(moved.samples - rolled).max() <= 1e-13 * np.abs(rolled).max()
    want = energy_report(sweep_table, sp, centered)
    got = energy_report(sweep_table, sp, moved)
    for name in ("l2", "l2_sq", "l2star", "l2star_pow", "dirac_energy", "dirac_energy_spectral", "free_energy"):
        assert abs(got[name] - want[name]) <= 1e-12 * abs(want[name]), name


def test_array_center_reports_as_the_tuple_center(sweep_table):
    # the chart geometry is cached per (grid, center, delta); a list or array
    # center must still build, and give the same bits as the tuple
    grid, rep = sweep_table.grid, sweep_table.rep
    sp = split(sweep_table, 0.5)
    center = (0.9, -1.2)
    psi = build_test_spinor(grid, rep, TestSpinorParams(eps=0.1, center=center))
    want = energy_report(sweep_table, sp, psi)
    for same in (np.array(center), list(center)):
        psi = build_test_spinor(grid, rep, TestSpinorParams(eps=0.1, center=same))
        assert energy_report(sweep_table, sp, psi) == want
    # the shared geometry is read-only, and the field's box and cutoff are it
    box, y, eta, r2, _ = _chart(grid, psi.params)
    assert psi.profile[0] is box and psi.profile[1] is eta
    for cached in (box[0], y, eta, r2):
        with pytest.raises(ValueError):
            cached[(0,) * cached.ndim] = 1.0


@pytest.mark.parametrize("center", [(0.1,), (0.1, 0.2, 0.3)])
def test_a_center_needs_one_coordinate_per_grid_axis(center):
    # at m = 2 a 3-vector center built a wrong field that energy_report then
    # failed on inside clifford_mul, and a 1-vector one raised an IndexError
    table = assemble(2, 8)
    with pytest.raises(TestSpinorError, match="center must have 2 coordinates"):
        build_test_spinor(table.grid, table.rep, TestSpinorParams(eps=0.2, center=center))


def test_l2_mass_ratio_near_4pi(sweep_table):
    # the small-eps limit of |phi_eps|_2^2/(eps |ln eps|) is m^(m-1) omega_(m-1) = 4 pi
    rep = sweep_table.rep
    sp = split(sweep_table, 0.5)
    params = TestSpinorParams(eps=0.05)
    psi = build_test_spinor(sweep_table.grid, rep, params)
    rec = energy_report(sweep_table, sp, psi, params=params)
    ratio = rec["l2_sq"] / (0.05 * abs(np.log(0.05)))
    assert abs(ratio - 4.0 * np.pi) / (4.0 * np.pi) < 0.1
    # the field's stored profile and one rebuilt from equal params agree
    assert energy_report(sweep_table, sp, psi) == rec
    assert energy_report(sweep_table, sp, psi, params=TestSpinorParams(eps=0.05)) == rec


def test_l2star_mass_invariance(sweep_table):
    # |phi_eps|_{2*}^{2*} approaches m^m omega_(m-1) int r/(1+r^2)^2 dr = 4 pi
    rep = sweep_table.rep
    sp = split(sweep_table, 0.5)
    limit = 4.0 * np.pi
    bubble = radial_integral(lambda r: r / (1.0 + r * r) ** 2, (0.0, np.inf), 1.0)
    assert np.isclose(2**2 * omega_sphere(1) * bubble, limit, rtol=1e-10)
    vals = []
    for eps in (0.2, 0.1, 0.05):
        params = TestSpinorParams(eps=eps)
        psi = build_test_spinor(sweep_table.grid, rep, params)
        rec = energy_report(sweep_table, sp, psi, params=params)
        vals.append(rec["l2star_pow"])
    errs = [abs(v - limit) for v in vals]
    assert errs[0] > errs[-1]
    assert errs[-1] / limit < 0.01


def test_free_energy_monotone_chain(sweep_table):
    rep = sweep_table.rep
    sp = split(sweep_table, 0.5)
    gaps = []
    for eps in (0.2, 0.1, 0.05):
        params = TestSpinorParams(eps=eps)
        psi = build_test_spinor(sweep_table.grid, rep, params)
        rec = energy_report(sweep_table, sp, psi, params=params)
        gaps.append(abs(rec["free_energy"] - np.pi))
        if eps <= 0.1:
            assert rec["free_energy"] < np.pi + 0.01
    assert gaps[0] > gaps[1] > gaps[2]


@pytest.fixture(scope="module")
def table48():
    return assemble(2, 48, n_grid=512)


def test_spectral_vs_exact_dirac_energy(table48):
    # two-route check: spectral application of D against the closed-form
    # derivative, on a grid whose cutoff fully resolves the concentration
    table = table48
    sp = split(table, 0.5)
    params = TestSpinorParams(eps=0.25)
    psi = build_test_spinor(table.grid, table.rep, params)
    rec = energy_report(table, sp, psi, params=params)
    rel = abs(rec["dirac_energy"] - rec["dirac_energy_spectral"]) / abs(rec["dirac_energy"])
    assert rel < 1e-6


def test_concentration_report_builds_no_full_grid_cube(table48):
    # one 512^2 x 2 complex cube is 8 MiB; a report that fills the full grid
    # for its samples and its nonlinear term peaks above three of them.  The
    # cold peak, about 14.1 MiB, is the box geometry, the box's workspace
    # (its DFT rows, row products and planes, kept for the next eps) and the
    # field; the bound is that peak + 25 %, and one full-grid cube more fails
    sp = split(table48, 0.5)
    params = TestSpinorParams(eps=0.05)
    _chart_geometry.cache_clear()  # count the shared geometry too
    tracemalloc.start()
    try:
        psi = build_test_spinor(table48.grid, table48.rep, params)
        energy_report(table48, sp, psi, params=params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 18 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


def _field_bytes(psi):
    # one allocation holds the box values and D psi_eps
    return psi.box_values.base.nbytes + psi.coeffs.nbytes


def test_a_warm_report_allocates_only_its_field(table48):
    # after one report on the box, the next eps reuses the workspace of the
    # box: analyze's DFT rows, row products and gather term, the profile
    # planes and the report planes.  The build traces the new field's own
    # arrays, and no scratch array of 256 KiB or more (a profile plane is
    # 0.5 MiB here); the report adds only the mode-sized temporaries of the
    # eigen transforms (about 0.9 MiB), not the 9.8 MiB of box-sized
    # temporaries a report traced when each eps made its own
    sp = split(table48, 0.5)
    params = TestSpinorParams(eps=0.05)
    first = build_test_spinor(table48.grid, table48.rep, TestSpinorParams(eps=0.07))
    energy_report(table48, sp, first)
    tracemalloc.start()
    try:
        psi = build_test_spinor(table48.grid, table48.rep, params)
        _, build_peak = tracemalloc.get_traced_memory()
        energy_report(table48, sp, psi, params=params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert psi.box_values.base is psi.profile[2].base
    assert psi.box_values.base.shape == (2,) + psi.box_values.shape
    assert build_peak < _field_bytes(psi) + 2**18, f"build traced {build_peak / 2**20:.2f} MiB"
    assert peak <= _field_bytes(psi) + 2**20, f"traced peak {peak / 2**20:.2f} MiB"


def test_fields_built_back_to_back_keep_their_own_arrays(table48):
    # the workspace's arrays are reused from one eps to the next; a field
    # built on them would change under the next build
    grid, rep = table48.grid, table48.rep
    sp = split(table48, 0.5)
    built = [build_test_spinor(grid, rep, TestSpinorParams(eps=eps)) for eps in (0.1, 0.05)]
    reports = [energy_report(table48, sp, psi) for psi in built]
    _chart_geometry.cache_clear()  # fresh builds on a fresh workspace
    for psi, report in zip(built, reports):
        fresh = build_test_spinor(grid, rep, psi.params)
        assert np.array_equal(psi.box_values, fresh.box_values)
        assert np.array_equal(psi.coeffs, fresh.coeffs)
        assert np.array_equal(psi.profile[2], fresh.profile[2])
        assert energy_report(table48, sp, fresh) == report


BLAS_SCRIPT = """
import json
import numpy as np
from diractorus.spectral import assemble, split
from diractorus.testspinor import DEFAULT_EPS_SWEEP, sweep
table = assemble(2, 48, n_grid=512)
print(json.dumps(sweep(table, split(table, 0.5), DEFAULT_EPS_SWEEP, np.pi / 4.0)))
"""


def test_concentration_reports_do_not_depend_on_the_blas_thread_count():
    # the box transforms are dgemms: criterion 4's K = 48 reports, each
    # thread count in its own interpreter (OpenBLAS reads it at start-up)
    src = str(Path(diractorus.__file__).resolve().parents[1])
    runs = [
        subprocess.Popen(
            [sys.executable, "-c", BLAS_SCRIPT],
            env=dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                     PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for threads in ("1", "2")
    ]
    outs = [run.communicate(timeout=300) for run in runs]
    for run, (_, err) in zip(runs, outs):
        assert run.returncode == 0, err
    one, two = (json.loads(out) for out, _ in outs)
    assert len(one) == len(two) == 7
    for a, b in zip(one, two):
        assert a.keys() == b.keys() and a["resolution_flag"] == b["resolution_flag"]
        for key in a.keys() - {"resolution_flag"}:
            assert abs(a[key] - b[key]) <= 1e-14 * abs(a[key]), key


def test_omega_identity():
    for m in (2, 3, 4):
        assert omega_identity_residual(m) < 1e-8


def test_asymptotic_fit_synthetic():
    eps = np.geomspace(0.2, 0.01, 8)
    fit = asymptotic_fit(list(zip(eps, eps)))
    assert fit.log_power == 0
    assert abs(fit.exponent - 1.0) < 1e-6
    vals = eps * np.abs(np.log(eps))
    fit2 = asymptotic_fit(list(zip(eps, vals)))
    assert fit2.log_power == 1
    assert abs(fit2.exponent - 1.0) < 1e-6


def test_asymptotic_fit_validation():
    eps = np.geomspace(0.2, 0.01, 8)
    with pytest.raises(TestSpinorError):
        asymptotic_fit(list(zip(eps, eps))[:4])
    with pytest.raises(TestSpinorError):
        asymptotic_fit(list(zip(eps[::-1], eps)))
    bad = list(zip(eps, eps))
    bad[3] = (bad[3][0], -1.0)
    with pytest.raises(TestSpinorError):
        asymptotic_fit(bad)


def test_radial_mass_ratio_divergence_trend():
    # feasibility probe for lambda <= 0 runs: the F-to-mass ratio grows as eps shrinks
    nl = make_nonlinearity("power", 2, alpha=1.0, p=3.0)
    vals = [radial_mass_ratio(nl, np.pi / 4, eps) for eps in (0.1, 0.05, 0.02)]
    assert vals[0] < vals[1] < vals[2]
    nl0 = make_nonlinearity("zero", 2)
    assert radial_mass_ratio(nl0, np.pi / 4, 0.05) == 0.0


@pytest.mark.parametrize("m, p", [(2, 3.0), (3, 2.5)])
def test_radial_mass_ratio_holds_its_accuracy_far_below_delta(m, p):
    # at m = 2 the integrands fall off like 1/r out to delta; one Gauss-Legendre
    # piece on [0, delta] missed by 9e-5 at delta / eps = 500
    nl, delta, eps = make_nonlinearity("power", m, alpha=1.0, p=p), 0.5, 1e-3
    amp = m ** ((m - 1) / 2.0) * eps ** (-(m - 1) / 2.0)

    def mod(r):
        return cutoff_eta(r, delta) * amp * (1.0 + (r / eps) ** 2) ** (-(m - 1) / 2.0)

    breaks = np.concatenate([[0.0], np.geomspace(eps / 8, delta, 24), [2.0 * delta]])
    num = radial_integral(lambda r: nl.F(mod(r)) * r ** (m - 1.0), breaks, eps)
    den = radial_integral(lambda r: mod(r) ** 2 * r ** (m - 1.0), breaks, eps)
    assert radial_mass_ratio(nl, delta, eps) == pytest.approx(num / den, rel=1e-12)
