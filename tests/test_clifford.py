"""Gamma-matrix relations, Clifford multiplication, and the (1 - x) norm identity."""

import numpy as np
import pytest

from diractorus.clifford import (
    CliffordError,
    CliffordRep,
    build_rep,
    clifford_mul,
    one_minus_x_mul,
)

# Witness pair from the m = 2 examples; not necessarily the built rep.
W1 = np.array([[0, 1], [-1, 0]], dtype=complex)
W2 = np.array([[0, 1j], [1j, 0]], dtype=complex)
WITNESS2 = CliffordRep(m=2, N=2, gamma=(W1, W2))


@pytest.mark.parametrize("m", range(2, 9))
def test_build_rep_relations(m):
    rep = build_rep(m)
    assert rep.N == 2 ** (m // 2)
    res = rep.relation_residuals()
    assert res["anticommutation"] < 1e-12
    assert res["skew_adjoint"] < 1e-12
    assert res["unitary"] < 1e-12


def test_witness_m2_relations():
    assert np.abs(W1 @ W2 + W2 @ W1).max() == 0
    assert np.abs(W1 @ W1 + np.eye(2)).max() == 0
    assert np.abs(W2 @ W2 + np.eye(2)).max() == 0


def test_witness_m3_pauli():
    sig = [
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]], dtype=complex),
        np.array([[1, 0], [0, -1]], dtype=complex),
    ]
    witness = CliffordRep(m=3, N=2, gamma=tuple(1j * s for s in sig))
    res = witness.relation_residuals()
    assert max(res.values()) < 1e-15
    # The built rep reproduces exactly this witness.
    rep = build_rep(3)
    for g, w in zip(rep.gamma, witness.gamma):
        assert np.abs(g - w).max() < 1e-15


def test_invalid_dimension():
    with pytest.raises(CliffordError):
        build_rep(1)
    with pytest.raises(CliffordError):
        build_rep(0)


def test_clifford_mul_examples():
    s = np.array([1.0, 0.0], dtype=complex)
    assert np.abs(clifford_mul(WITNESS2, [0.0, 0.0], s)).max() == 0
    out = clifford_mul(WITNESS2, [1.0, 0.0], s)
    assert np.allclose(out, [0.0, -1.0])


def test_clifford_mul_shape_errors():
    rep = build_rep(2)
    with pytest.raises(CliffordError):
        clifford_mul(rep, [1.0, 0.0, 0.0], np.zeros(2, dtype=complex))
    with pytest.raises(CliffordError):
        clifford_mul(rep, [1.0, 0.0], np.zeros(3, dtype=complex))
    # batched vectors and spinors whose trailing axes do not broadcast
    for op in (clifford_mul, one_minus_x_mul):
        with pytest.raises(CliffordError):
            op(rep, np.zeros((2, 5)), np.zeros((2, 4), dtype=complex))
        with pytest.raises(CliffordError):
            op(rep, np.zeros((2, 3, 5)), np.zeros((2, 5, 3), dtype=complex))


def test_one_minus_x_example():
    s = np.array([1.0, 0.0], dtype=complex)
    out = one_minus_x_mul(WITNESS2, [1.0, 0.0], s)
    assert np.allclose(out, [1.0, 1.0])
    assert np.isclose(np.linalg.norm(out) ** 2, 2.0)
    assert np.allclose(one_minus_x_mul(WITNESS2, [0.0, 0.0], s), s)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_isometry_properties(m):
    rng = np.random.default_rng(7 + m)
    rep = build_rep(m)
    worst_norm = 0.0
    worst_iso = 0.0
    for _ in range(1000 // m):
        x = rng.standard_normal(m)
        s = rng.standard_normal(rep.N) + 1j * rng.standard_normal(rep.N)
        xs = clifford_mul(rep, x, s)
        # |x.s|^2 = |x|^2 |s|^2
        lhs = np.linalg.norm(xs) ** 2
        rhs = np.dot(x, x) * np.linalg.norm(s) ** 2
        worst_iso = max(worst_iso, abs(lhs - rhs) / rhs)
        # |(1-x).s|^2 = (1+|x|^2)|s|^2
        ys = one_minus_x_mul(rep, x, s)
        lhs = np.linalg.norm(ys) ** 2
        rhs = (1.0 + np.dot(x, x)) * np.linalg.norm(s) ** 2
        worst_norm = max(worst_norm, abs(lhs - rhs) / rhs)
    assert worst_iso < 1e-12
    assert worst_norm < 1e-12
    # the batched action on (m, P) points equals the per-vector one
    xs = rng.standard_normal((m, 40))
    ss = rng.standard_normal((rep.N, 40)) + 1j * rng.standard_normal((rep.N, 40))
    mats = [sum(x[j] * rep.gamma[j] for j in range(m)) for x in xs.T]
    direct = np.array([mat @ s for mat, s in zip(mats, ss.T)]).T
    assert np.abs(clifford_mul(rep, xs, ss) - direct).max() < 1e-13
    assert np.abs(one_minus_x_mul(rep, xs, ss) - (ss - direct)).max() < 1e-13
    for op in (clifford_mul, one_minus_x_mul):
        batched = op(rep, xs, ss)
        assert batched.shape == ss.shape
        per_vector = np.array([op(rep, x, s) for x, s in zip(xs.T, ss.T)]).T
        assert np.abs(batched - per_vector).max() < 1e-14
        # one spinor against many points broadcasts the same way
        per_point = np.array([op(rep, x, ss[:, 0]) for x in xs.T]).T
        assert np.abs(op(rep, xs, ss[:, 0]) - per_point).max() < 1e-14


@pytest.mark.parametrize("m", range(2, 9))
def test_clifford_mul_matches_the_dense_product(m):
    rep = build_rep(m)
    # the per-component product rests on one nonzero per generator row
    for g, cols, phases in zip(rep.gamma, rep.columns, rep.phases):
        assert np.array_equal(np.count_nonzero(g, axis=1), np.ones(rep.N))
        assert np.array_equal(g[np.arange(rep.N), cols], phases)
        assert set(phases) <= {1, -1, 1j, -1j}
    rng = np.random.default_rng(60 + m)
    xs = rng.standard_normal((m, 3, 17))
    ss = rng.standard_normal((rep.N, 3, 17)) + 1j * rng.standard_normal((rep.N, 3, 17))

    def dense(x, s):  # the reference in the points-last layout, moved back to the first axis
        x, s = np.moveaxis(x, 0, -1), np.moveaxis(s, 0, -1)
        out = np.einsum("...ij,...j->...i", np.tensordot(x, np.stack(rep.gamma), axes=(-1, 0)), s)
        return np.moveaxis(out, -1, 0)

    for x, s in ((xs, ss), (xs, ss[:, 0, 0]), (xs[:, 0, 0], ss), (xs[:, :, :1], ss[:, :1])):
        want = dense(x, s)
        got = clifford_mul(rep, x, s)
        assert got.shape == want.shape == (rep.N,) + np.broadcast_shapes(x.shape[1:], s.shape[1:])
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


def test_a_generator_with_two_entries_in_a_row_is_rejected():
    with pytest.raises(CliffordError):
        CliffordRep(m=2, N=2, gamma=(W1, np.full((2, 2), 1j)))


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_anticommutation_and_skew_pairing_on_vectors(m):
    rng = np.random.default_rng(40 + m)
    rep = build_rep(m)
    for _ in range(50):
        v = rng.standard_normal(rep.N) + 1j * rng.standard_normal(rep.N)
        w = rng.standard_normal(rep.N) + 1j * rng.standard_normal(rep.N)
        for i in range(m):
            gi = rep.gamma[i]
            # hermitian pairing <e_i v, w> = -<v, e_i w>
            lhs = np.vdot(w, gi @ v)
            rhs = -np.vdot(gi @ w, v)
            assert abs(lhs - rhs) < 1e-12 * (1 + abs(lhs))
            for j in range(m):
                if i == j:
                    continue
                gj = rep.gamma[j]
                r = gi @ (gj @ v) + gj @ (gi @ v)
                assert np.abs(r).max() < 1e-12
