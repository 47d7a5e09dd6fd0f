"""Grid, field transform, and L^p quadrature checks."""

import numpy as np
import pytest

from diractorus.torus import (
    GridError,
    SpinorField,
    TorusGrid,
    analyze,
    cube_coefficients,
    l2_inner,
    l2_norm,
    lp_norm,
    make_grid,
    pointwise_modulus,
    pointwise_real_inner,
    random_field,
    resample_field,
    synthesize,
    zero_field,
)


def test_grid_validation():
    with pytest.raises(GridError):
        TorusGrid(m=2, K=0, n_grid=10)
    with pytest.raises(GridError):
        TorusGrid(m=2, K=4, n_grid=9)  # odd
    with pytest.raises(GridError):
        TorusGrid(m=2, K=4, n_grid=8)  # < 2K+2
    g = make_grid(2, 4)
    assert g.n_grid == 18
    assert g.n_modes == 9 * 9
    assert np.isclose(g.volume, 4 * np.pi**2)


def test_mode_ordering_deterministic():
    g = make_grid(2, 3)
    ksq = (g.modes**2).sum(axis=1)
    assert np.all(np.diff(ksq) >= 0)
    assert tuple(g.modes[0]) == (0, 0)
    g2 = make_grid(2, 3)
    assert np.array_equal(g.modes, g2.modes)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_round_trip(m):
    rng = np.random.default_rng(3 + m)
    g = make_grid(m, 3)
    psi = random_field(g, 2, rng)
    back = analyze(g, synthesize(g, psi.coeffs))
    rel = np.abs(back - psi.coeffs).max() / np.abs(psi.coeffs).max()
    assert rel < 1e-12
    # and values -> coefficients -> values
    vals = psi.values()
    again = synthesize(g, analyze(g, vals))
    assert np.abs(again - vals).max() < 1e-12 * np.abs(vals).max()


def test_random_field_draws_the_pinned_coefficients():
    # the seeded draw is part of every test and solver start built on it
    g = make_grid(2, 3)
    coeffs = random_field(g, 2, np.random.default_rng(5)).coeffs
    assert coeffs.shape == (2, 49)
    assert coeffs[0, 0] == -0.8019314252534474 - 0.4642445916374816j
    assert coeffs[1, 0] == -1.324358995628145 - 0.4786384630527245j
    assert coeffs[1, 7] == -0.5773782808131949 - 0.20507284434502304j
    assert coeffs[0, 48] == -0.018539842653222654 + 0.013153556834274851j


# the full-cube references: numpy's FFTs over the grid axes 1..m of (N, n, ..., n) values
def _full_cube_synthesize(grid, coeffs):
    n = grid.n_grid
    cube = np.zeros((len(coeffs),) + (n,) * grid.m, dtype=complex)
    cube[(slice(None),) + tuple(grid.modes[:, j] % n for j in range(grid.m))] = coeffs
    return np.fft.ifftn(cube, axes=tuple(range(1, grid.m + 1))) * n**grid.m


def _full_cube_analyze(grid, values):
    n = grid.n_grid
    cube = np.fft.fftn(values, axes=tuple(range(1, grid.m + 1))) / n**grid.m
    return cube[(slice(None),) + tuple(grid.modes[:, j] % n for j in range(grid.m))]


# (m, K, n): n = 2K + 2 puts the two mode slabs of an axis side by side
@pytest.mark.parametrize(
    "m, K, n", [(1, 5, 12), (1, 3, 64), (2, 4, 10), (2, 3, 40), (2, 16, 66), (3, 3, 8), (3, 2, 16)]
)
def test_pruned_transforms_match_full_cube_fft(m, K, n):
    rng = np.random.default_rng(100 * m + K)
    g = TorusGrid(m=m, K=K, n_grid=n)
    for N in (1, 2):
        coeffs = random_field(g, N, rng).coeffs
        vals = synthesize(g, coeffs)
        want = _full_cube_synthesize(g, coeffs)
        assert vals.shape == want.shape == (N,) + (n,) * m
        assert np.abs(vals - want).max() <= 1e-15 * np.abs(want).max()
        # analyze on values that are not band-limited: the aliased projection
        shape = (N,) + (n,) * m
        raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for values in (raw, raw.real, vals):
            got = analyze(g, values)
            want = _full_cube_analyze(g, values)
            assert got.shape == want.shape == (N, g.n_modes)
            assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
        # the unpruned transform holds the same modes at the grid's cube positions
        cube = cube_coefficients(g, raw)
        assert cube.shape == raw.shape
        want = _full_cube_analyze(g, raw)
        assert np.abs(cube[(slice(None),) + g.cube_index] - want).max() <= 1e-15 * np.abs(want).max()


def _support(kind, n):
    return {
        "wrap": np.r_[0 : n // 4, n - n // 8 : n],  # wraps across index 0
        "whole": np.arange(n),
        "inner": np.arange(n // 8, n // 2),
        "empty": np.arange(0),
    }[kind]


@pytest.mark.parametrize(
    "kinds",
    [
        ("wrap",),
        ("whole",),
        ("wrap", "whole"),
        ("inner", "wrap"),
        ("wrap", "empty"),
        ("wrap", "inner", "whole"),
    ],
)
def test_analyze_on_a_support_box_matches_the_scattered_cube(kinds):
    m, K, n = len(kinds), 3, 16
    rng = np.random.default_rng(len(kinds))
    g = TorusGrid(m=m, K=K, n_grid=n)
    support = tuple(_support(kind, n) for kind in kinds)
    for N in (1, 2):
        shape = (N,) + tuple(len(idx) for idx in support)
        box = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        cube = np.zeros((N,) + (n,) * m, dtype=complex)
        cube[(slice(None),) + np.ix_(*support)] = box
        want = analyze(g, cube)
        got = analyze(g, box, support=support)
        assert got.shape == (N, g.n_modes)
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
        assert np.abs(got - _full_cube_analyze(g, cube)).max() <= 1e-15 * np.abs(want).max()


@pytest.mark.parametrize("m, K, n", [(2, 4, 18), (2, 3, 40), (3, 2, 10), (3, 3, 16)])
def test_transforms_match_scipy_full_cube_ffts(m, K, n):
    # scipy serves only as an independent reference here; the transforms are numpy.fft
    sfft = pytest.importorskip("scipy.fft")
    rng = np.random.default_rng(40 + 10 * m + K)
    g = TorusGrid(m=m, K=K, n_grid=n)
    axes, band = tuple(range(1, m + 1)), (slice(None),) + g.cube_index
    coeffs = random_field(g, 2, rng).coeffs
    cube = np.zeros((2,) + (n,) * m, dtype=complex)
    cube[band] = coeffs
    want = sfft.ifftn(cube, axes=axes, norm="forward")
    assert np.abs(synthesize(g, coeffs) - want).max() <= 1e-13 * np.abs(want).max()
    raw = rng.standard_normal(cube.shape) + 1j * rng.standard_normal(cube.shape)
    full = sfft.fftn(raw, axes=axes, norm="forward")
    assert np.abs(cube_coefficients(g, raw) - full).max() <= 1e-13 * np.abs(full).max()
    want = full[band]
    assert np.abs(analyze(g, raw) - want).max() <= 1e-13 * np.abs(want).max()
    # on a support box: the scattered cube's transform, the zeros outside included
    support = tuple(_support(kind, n) for kind in ("wrap", "inner", "whole")[:m])
    box = np.zeros_like(raw)
    box[(slice(None),) + np.ix_(*support)] = raw[(slice(None),) + np.ix_(*support)]
    want = sfft.fftn(box, axes=axes, norm="forward")[band]
    got = analyze(g, raw[(slice(None),) + np.ix_(*support)], support=support)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("m", [1, 2, 3])
def test_transforms_leave_their_inputs_alone(m):
    # the FFTs run in place only on arrays the transforms made themselves
    rng = np.random.default_rng(20 + m)
    g = make_grid(m, 3)
    n = g.n_grid
    coeffs = random_field(g, 2, rng).coeffs
    before = coeffs.copy()
    synthesize(g, coeffs)
    assert np.array_equal(coeffs, before)
    shape = (2,) + (n,) * m
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    wide = rng.standard_normal((4,) + shape[1:]) + 1j * rng.standard_normal((4,) + shape[1:])
    support = tuple(_support("wrap", n) for _ in range(m))
    cases = [
        (raw, None),
        (raw.real, None),  # real, a view into a complex array
        (wide[::2], None),  # not contiguous
        (raw[(slice(None),) + np.ix_(*support)], support),
    ]
    for values, sup in cases:
        before = values.copy()
        got = analyze(g, values, support=sup)
        assert np.array_equal(values, before)
        assert np.array_equal(analyze(g, before, support=sup), got)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_resample_pads_and_truncates_in_the_mode_cube(m):
    rng = np.random.default_rng(7 + m)
    g = make_grid(m, 3)
    psi = random_field(g, 2, rng)
    up = resample_field(psi, make_grid(m, 5))
    assert np.array_equal(resample_field(up, g).coeffs, psi.coeffs)
    down = resample_field(psi, make_grid(m, 2))
    old = g.mode_index()
    for k, c in zip(down.grid.modes, down.coeffs.T):
        assert np.array_equal(c, psi.coeffs[:, old[tuple(k)]])
    assert not up.coeffs[:, np.abs(up.grid.modes).max(axis=1) > 3].any()
    inside = np.abs(g.modes).max(axis=1) <= 2
    assert down.grid.n_modes == inside.sum()


def test_pointwise_modulus_and_real_inner_match_their_componentwise_sums():
    rng = np.random.default_rng(13)
    vals = random_field(make_grid(2, 4), 4, rng).values()
    for values in (vals, vals[1::2, ::3, 1:], vals.real, vals.imag[:3, :, ::2]):  # non-contiguous, real
        want = np.linalg.norm(values, axis=0)
        assert np.abs(pointwise_modulus(values) - want).max() <= 1e-15 * want.max()
    other = random_field(make_grid(2, 4), 4, rng).values()
    # the spinor axis is the first of a, the same axis from the end of b (which may stack fields)
    for a, b in ((vals, other), (vals[:, :, ::2], other.real[:, :, 1::2]), (vals.imag, other[None])):
        want = (a.real * b.real + a.imag * b.imag).sum(axis=-3)
        got = pointwise_real_inner(a, b)
        assert got.shape == want.shape and np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_parseval_matches_quadrature():
    rng = np.random.default_rng(11)
    g = make_grid(2, 5)
    psi = random_field(g, 2, rng)
    quad = lp_norm(psi, 2)
    assert np.isclose(quad, l2_norm(psi), rtol=1e-12)
    phi = random_field(g, 2, rng)
    ip = l2_inner(psi, phi)
    vals_p = psi.values()
    vals_q = phi.values()
    direct = g.cell * (vals_p * vals_q.conj()).sum()
    assert abs(ip - direct) < 1e-10 * abs(ip)


def test_lp_norm_constants():
    g = make_grid(2, 2)
    coeffs = np.zeros((2, g.n_modes), dtype=complex)
    coeffs[0, 0] = 1.0  # constant field, |psi| = 1
    psi = SpinorField(g, coeffs)
    assert np.isclose(lp_norm(psi, 4), (4 * np.pi**2) ** 0.25, rtol=1e-13)
    assert np.isclose(lp_norm(psi, 2), 2 * np.pi, rtol=1e-13)
    assert lp_norm(zero_field(g, 2), 3.5) == 0.0


def test_lp_norm_plane_wave_constant_modulus():
    g = make_grid(2, 3)
    idx = g.mode_index()[(1, 2)]
    coeffs = np.zeros((2, g.n_modes), dtype=complex)
    coeffs[:, idx] = [0.3 + 0.4j, -0.5j]
    psi = SpinorField(g, coeffs)
    c = np.sqrt(0.25 + 0.25)
    for p in (2, 3.0, 4):
        assert np.isclose(lp_norm(psi, p), c * g.volume ** (1.0 / p), rtol=1e-12)
    with pytest.raises(GridError):
        lp_norm(psi, 0.5)


def test_field_algebra_and_validation():
    rng = np.random.default_rng(5)
    g = make_grid(2, 2)
    a = random_field(g, 2, rng)
    b = random_field(g, 2, rng)
    s = a + 2.0 * b - b
    assert np.allclose(s.coeffs, a.coeffs + b.coeffs)
    with pytest.raises(GridError):
        SpinorField(g, np.zeros((3, 2), dtype=complex))
    bad = np.zeros((2, g.n_modes), dtype=complex)
    bad[0, 0] = np.nan
    with pytest.raises(GridError):
        SpinorField(g, bad)


def test_a_field_rejects_mode_major_coefficients():
    # coefficients are (N, n_modes), the spinor axis first like the values
    g = make_grid(2, 2)
    assert SpinorField(g, np.zeros((2, g.n_modes))).N == 2
    with pytest.raises(GridError, match=r"\(N, 25\)"):
        SpinorField(g, np.zeros((g.n_modes, 2), dtype=complex))
