"""Exact torus Dirac spectra, splitting, norms, and Weyl counts."""

import itertools

import numpy as np
import pytest

from diractorus.clifford import build_rep
from diractorus.spectral import (
    SpectralError,
    apply_dirac,
    assemble,
    dual_norm,
    inner_lambda,
    norm_lambda,
    project,
    split,
    weyl_cm_vol,
    weyl_counts,
)
from diractorus.torus import (
    SpinorField,
    analyze,
    l2_norm,
    random_field,
    synthesize,
    zero_field,
)


def l2_inner(a, b):
    """Hermitian L^2 pairing int (a, b) dvol by Parseval."""
    return a.grid.volume * complex(np.vdot(b.coeffs, a.coeffs))


def brute_spectrum(m, K):
    """Independent oracle: loop over modes, diagonalize i k.gamma directly."""
    rep = build_rep(m)
    counts = {}
    for k in itertools.product(range(-K, K + 1), repeat=m):
        mat = 1j * sum(k[j] * rep.gamma[j] for j in range(m))
        for val in np.linalg.eigvalsh(mat):
            key = round(float(val), 9)
            counts[key] = counts.get(key, 0) + 1
    return sorted(counts.items())


def plane_wave(table, k, s):
    grid = table.grid
    coeffs = np.zeros((table.N, grid.n_modes), dtype=complex)
    coeffs[:, grid.mode_index()[tuple(k)]] = s
    return SpinorField(grid, coeffs)


def eigen_plane_wave(table, k, branch, amplitude=1.0):
    """Plane wave e^{i k.x} u with u the +|k| (branch=-1: -|k|) eigenvector."""
    grid = table.grid
    idx = grid.mode_index()[tuple(k)]
    col = -1 if branch > 0 else 0
    u = table.basis[idx][:, col] * amplitude
    return plane_wave(table, k, u)


def test_assemble_m2_K2_distinct_spectrum():
    table = assemble(2, 2)
    expected = [
        (-2 * np.sqrt(2), 4),
        (-np.sqrt(5), 8),
        (-2.0, 4),
        (-np.sqrt(2), 4),
        (-1.0, 4),
        (0.0, 2),
        (1.0, 4),
        (np.sqrt(2), 4),
        (2.0, 4),
        (np.sqrt(5), 8),
        (2 * np.sqrt(2), 4),
    ]
    assert len(table.distinct) == len(expected)
    for (ev, mult), (eev, emult) in zip(zip(table.distinct, table.multiplicity), expected):
        assert np.isclose(ev, eev, atol=1e-12)
        assert mult == emult
    # cross-check against the brute-force oracle
    brute = brute_spectrum(2, 2)
    assert len(brute) == len(expected)
    for (bev, bmult), (ev, mult) in zip(brute, zip(table.distinct, table.multiplicity)):
        assert np.isclose(bev, ev, atol=1e-9)
        assert bmult == mult


@pytest.mark.parametrize("m,K", [(2, 3), (3, 2), (4, 1)])
def test_assemble_matches_brute_force(m, K):
    table = assemble(m, K)
    brute = brute_spectrum(m, K)
    assert len(brute) == len(table.distinct)
    for (bev, bmult), ev, mult in zip(brute, table.distinct, table.multiplicity):
        assert np.isclose(bev, ev, atol=1e-9)
        assert bmult == mult


def test_invalid_cutoff():
    with pytest.raises(SpectralError):
        assemble(2, 0)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_zero_mode_kernel(m):
    table = assemble(m, 1)
    i0 = np.where(table.distinct == 0.0)[0][0]
    assert table.multiplicity[i0] == table.N


@pytest.mark.parametrize("m,K", [(2, 6), (3, 3), (4, 2), (5, 2)])
def test_eigen_residual(m, K):
    table = assemble(m, K)
    assert table.eigen_residual() <= 1e-14
    gram = np.einsum("kia,kib->kab", table.basis.conj(), table.basis)
    assert np.abs(gram - np.eye(table.N)).max() <= 1e-14


@pytest.mark.parametrize("m,K", [(2, 4), (3, 3), (4, 2), (5, 1)])
def test_each_eigenvector_is_real_and_positive_at_its_chirality_pivot(m, K):
    # the chirality e_1...e_m' (m' the even one of m, m - 1) is diagonal; on
    # each of its halves A_k is a scalar a.  A mu = +-|k| column has exactly
    # one nonzero entry in the half where a mu >= 0 (the half of index 0 when
    # a = 0), and that entry is real and positive: the half follows a sign,
    # so rounding cannot flip it
    table = assemble(m, K)
    rep = table.rep
    chirality = np.linalg.multi_dot(rep.gamma[: m - m % 2])
    assert np.array_equal(chirality, np.diag(np.diag(chirality)))
    upper = np.diag(chirality) == chirality[0, 0]
    assert upper.sum() == table.N // 2
    for k, sig, basis in zip(table.grid.modes, table.eigenvalues.T, table.basis):
        if not k.any():
            continue
        a = (1j * sum(k[j] * rep.gamma[j] for j in range(m)))[0, 0].real
        for mu, col in zip(sig, basis.T):
            half = upper if a * mu >= 0 else ~upper
            entries = col[half]
            assert np.count_nonzero(entries) == 1
            pivot = entries[entries != 0][0]
            assert pivot.imag == 0 and pivot.real >= 1 / np.sqrt(2.0)


def _m2_reference_basis(modes):
    """(1, -+conj(c)/|k|)/sqrt(2), c = -k1 + i k2, for -+|k|: the m = 2 eigenvectors of A_k = [[0, c], [conj(c), 0]]."""
    kabs = np.sqrt((modes**2).sum(axis=1).astype(float))
    basis = np.zeros((modes.shape[0], 2, 2), dtype=complex)
    nz = kabs > 0
    c = -modes[:, 0].astype(float) + 1j * modes[:, 1].astype(float)
    phase = np.conj(c[nz]) / kabs[nz]
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    basis[nz, 0, 0] = inv_sqrt2
    basis[nz, 1, 0] = -phase * inv_sqrt2
    basis[nz, 0, 1] = inv_sqrt2
    basis[nz, 1, 1] = phase * inv_sqrt2
    basis[~nz] = np.eye(2)
    return basis


def test_the_m2_basis_equals_the_explicit_formula_entry_for_entry():
    # as numbers: a zero component may differ in sign, which array_equal does not see
    table = assemble(2, 8)
    assert np.array_equal(table.basis, _m2_reference_basis(table.grid.modes))
    kabs = np.sqrt((table.grid.modes**2).sum(axis=1).astype(float))
    assert np.array_equal(table.eigenvalues, np.stack([-kabs, kabs]))


@pytest.mark.parametrize("m,K", [(2, 3), (3, 2), (4, 2), (5, 1)])
def test_assemble_runs_no_eigensolver(m, K, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("assemble called an eigensolver")

    for name in ("eigh", "eig"):
        monkeypatch.setattr(np.linalg, name, refuse)
    assert assemble(m, K).eigen_residual() <= 1e-14


def test_spectrum_symmetric_with_multiplicities():
    table = assemble(2, 6)
    for Lam in (1.0, 2.5, 4.0, 6.0):
        dp, dm, _ = weyl_counts(table, Lam)
        assert dp == dm


def test_apply_dirac_examples():
    table = assemble(2, 4)
    grid = table.grid
    const = zero_field(grid, 2)
    const.coeffs[0, 0] = 2.0 - 1j
    out = apply_dirac(table, SpinorField(grid, const.coeffs))
    assert l2_norm(out) < 1e-14

    pw = eigen_plane_wave(table, (1, 0), +1)
    out = apply_dirac(table, pw)
    assert np.abs(out.coeffs - pw.coeffs).max() < 1e-13

    rng = np.random.default_rng(2)
    a = random_field(grid, 2, rng)
    b = random_field(grid, 2, rng)
    lin = apply_dirac(table, a + 2.0 * b) - (apply_dirac(table, a) + 2.0 * apply_dirac(table, b))
    assert l2_norm(lin) < 1e-12


def test_dirac_symmetric_l2():
    table = assemble(2, 4)
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = random_field(table.grid, 2, rng)
        b = random_field(table.grid, 2, rng)
        lhs = l2_inner(apply_dirac(table, a), b)
        rhs = l2_inner(a, apply_dirac(table, b))
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_split_examples():
    table = assemble(2, 3)
    sp = split(table, 0.5)
    assert sp.kernel_dim == 0
    # constant spinors have eigenvalue 0 < 0.5: they land in I^-
    const = zero_field(table.grid, 2)
    const.coeffs[0, 0] = 1.0
    pm = project(sp, SpinorField(table.grid, const.coeffs), "minus")
    assert np.abs(pm.coeffs - const.coeffs).max() < 1e-14

    sp0 = split(table, 0.0)
    assert sp0.kernel_dim == 2

    sp1 = split(table, 1.0)
    assert sp1.kernel_dim == 4


def test_split_snaps_lambda_to_an_eigenvalue_within_its_tolerance():
    table = assemble(2, 3)
    assert split(table, 1 + 5e-10).lam == 1.0
    # above |lambda| = 1 the tolerance is relative: 1.2e-9 is inside 1.41e-9
    sp = split(table, np.sqrt(2.0) + 1.2e-9)
    assert sp.lam == np.sqrt(2.0) and sp.kernel_dim == 4
    assert not (table.eigenvalues - sp.lam)[sp.zero].any()
    assert split(table, 1 + 2e-9).lam == 1 + 2e-9
    # lambda = 0 snaps to the zero mode's eigenvalue, as +0.0 at every m
    for m in (2, 3):
        assert np.copysign(1.0, split(assemble(m, 1), -1e-12).lam) == 1.0


def test_split_rejects_a_lambda_that_is_not_finite():
    # +-inf snapped onto the zero eigenvalue, whose tolerance was infinite
    table = assemble(2, 3)
    for lam in (np.nan, np.inf, -np.inf):
        with pytest.raises(SpectralError, match="finite"):
            split(table, lam)


def test_coefficients_eigen_coordinates_and_weights_share_the_spinor_first_layout():
    table = assemble(2, 3)
    grid = table.grid
    c = random_field(grid, table.N, np.random.default_rng(4)).coeffs
    assert c.shape == (table.N, grid.n_modes)
    a = table.to_eigen(analyze(grid, synthesize(grid, c)))
    assert a.shape == table.eigenvalues.shape == split(table, 0.5).w2.shape == (table.N, grid.n_modes)


def test_projector_algebra():
    table = assemble(2, 4)
    sp = split(table, 0.5)
    rng = np.random.default_rng(9)
    psi = random_field(table.grid, 2, rng)
    pp = project(sp, psi, "plus")
    p0 = project(sp, psi, "zero")
    pm = project(sp, psi, "minus")
    # idempotence, mutual annihilation, resolution of identity
    assert l2_norm(project(sp, pp, "plus") - pp) < 1e-12
    assert l2_norm(project(sp, pp, "minus")) < 1e-14
    assert l2_norm(pp + p0 + pm - psi) < 1e-12
    # Pythagoras in the lambda norm
    total = norm_lambda(sp, psi) ** 2
    parts = norm_lambda(sp, pp) ** 2 + norm_lambda(sp, p0) ** 2 + norm_lambda(sp, pm) ** 2
    assert abs(total - parts) < 1e-10 * total


def test_norm_lambda_examples():
    table = assemble(2, 3)
    sp = split(table, 0.5)
    pw = eigen_plane_wave(table, (1, 0), +1)
    pw = (1.0 / l2_norm(pw)) * pw
    assert np.isclose(norm_lambda(sp, pw) ** 2, 0.5, rtol=1e-12)

    sp1 = split(table, 1.0)
    kern = project(sp1, eigen_plane_wave(table, (0, 1), +1), "zero")
    assert np.isclose(norm_lambda(sp1, kern), l2_norm(kern), rtol=1e-12)


def test_dual_norm_examples_and_duality():
    table = assemble(2, 3)
    sp = split(table, 0.5)
    pw = eigen_plane_wave(table, (1, 0), +1)
    pw = (1.0 / l2_norm(pw)) * pw
    assert np.isclose(dual_norm(sp, pw), 1.0 / np.sqrt(0.5), rtol=1e-12)

    sp1 = split(table, 1.0)
    kern = project(sp1, eigen_plane_wave(table, (0, 1), +1), "zero")
    assert np.isclose(dual_norm(sp1, kern), l2_norm(kern), rtol=1e-12)

    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(1000):
        r = random_field(table.grid, 2, rng, decay=0.5)
        psi = random_field(table.grid, 2, rng, decay=0.5)
        pairing = l2_inner(r, psi).real
        bound = dual_norm(sp, r) * norm_lambda(sp, psi)
        worst = max(worst, pairing - bound)
    assert worst <= 1e-10
    # equality at the aligned element: psi with eigen coefficients b / w^2
    r = random_field(table.grid, 2, rng)
    aligned = SpinorField(table.grid, table.from_eigen(table.to_eigen(r.coeffs) / sp.w2))
    pairing = l2_inner(r, aligned).real
    assert np.isclose(pairing, dual_norm(sp, r) * norm_lambda(sp, aligned), rtol=1e-10)


def test_inner_lambda_is_real_symmetric():
    table = assemble(2, 3)
    sp = split(table, 0.7)
    rng = np.random.default_rng(23)
    a = random_field(table.grid, 2, rng)
    b = random_field(table.grid, 2, rng)
    assert np.isclose(inner_lambda(sp, a, b), inner_lambda(sp, b, a), rtol=1e-12)
    assert np.isclose(inner_lambda(sp, a, a), norm_lambda(sp, a) ** 2, rtol=1e-12)


def test_weyl_counts_m2():
    table = assemble(2, 12)
    dp, dm, total = weyl_counts(table, 10.0)
    assert dp == 316
    assert dm == 316
    assert total == 2 * 316 + 2
    assert np.isclose(dp / 10.0**2, 3.16)
    for Lam in (13.0, 0.0, -2.0):
        with pytest.raises(SpectralError):
            weyl_counts(table, Lam)


def test_weyl_ratio_near_disk_area():
    table = assemble(2, 44)
    dp, dm, _ = weyl_counts(table, 40.0)
    assert dp == dm
    ratio = dp / 40.0**2
    assert abs(ratio - np.pi) / np.pi < 0.02
    assert np.isclose(weyl_cm_vol(2), np.pi, rtol=1e-14)


@pytest.mark.parametrize("m, K", [(2, 5), (3, 2), (4, 1)])
def test_eigen_transforms_match_the_einsum_form(m, K):
    # the transforms are N broadcast products over basis rows and columns
    # built once; the reference is the per-mode product as one einsum
    table = assemble(m, K)
    rng = np.random.default_rng(m)
    c = random_field(table.grid, table.N, rng).coeffs
    want_to = np.einsum("kia,ik->ak", table.basis.conj(), c)
    want_from = np.einsum("kia,ak->ik", table.basis, c)
    assert np.abs(table.to_eigen(c) - want_to).max() <= 1e-15 * np.abs(want_to).max()
    assert np.abs(table.from_eigen(c) - want_from).max() <= 1e-15 * np.abs(want_from).max()
