"""Exact spectral model of the Dirac operator on flat tori.

On T^m = R^m/(2 pi Z)^m with the trivial spin structure the Dirac operator
acts on the plane wave e^{i k.x} s as the N x N hermitian matrix

    A_k = i sum_j k_j gamma_j,        spec(A_k) = {+|k|, -|k|},

each sign with multiplicity N/2 (the zero mode contributes ker D = constant
spinors, dimension N).  The table below stores the per-mode diagonalization,
the aggregated (eigenvalue, multiplicity) spectrum, and everything needed for
the lambda-dependent splitting E = E^+ + E^0 + E^-, the ||.||_lambda norm,
its dual, and Weyl counting.

The eigenbasis is closed form at every m, with no eigensolver (``assemble``):
the diagonal chirality splits the spinor coordinates into two halves on
which A_k is a scalar a; the mu = +-|k| eigenvectors are the columns
(A_k + mu I) e_i with i in the half where a mu >= 0, a rule on a sign and
not on compared norms, so rounding cannot move it; and each column's entry
at i is real and positive.

Eigenvalues are exact square roots of integers |k|^2; all bookkeeping is done
on the integer keys, so multiplicity aggregation is immune to float fuzz.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import gamma as _gamma_fn

import numpy as np

from .clifford import build_rep
from .torus import SpinorField, TorusGrid, make_grid


class SpectralError(ValueError):
    """Invalid cutoff, ambiguous split, or truncation-unsafe request."""


def omega_sphere(m):
    """Volume of the unit sphere S^m."""
    return 2.0 * np.pi ** ((m + 1) / 2.0) / _gamma_fn((m + 1) / 2.0)


def unit_ball_volume(m):
    return np.pi ** (m / 2.0) / _gamma_fn(m / 2.0 + 1.0)


def weyl_cm_vol(m):
    """The Weyl limit of d_pm(Lambda)/Lambda^m for the side-2pi flat torus.

    Equals C_m * Vol with C_m = 2^(floor(m/2) - 1) * vol(B^m) / (2 pi)^m and
    Vol = (2 pi)^m; this is pi when m = 2.
    """
    n_spinor = 2 ** (m // 2)
    cm = 0.5 * n_spinor * unit_ball_volume(m) / (2.0 * np.pi) ** m
    return cm * (2.0 * np.pi) ** m


@dataclass(frozen=True)
class EigenTable:
    """Per-mode Dirac eigenpairs plus the aggregated spectrum.

    ``eigenvalues`` is indexed like coefficients and eigen coordinates,
    (N, n_modes): entry (a, k) belongs to column a of ``basis[k]``.
    """

    grid: TorusGrid
    rep: object
    eigenvalues: np.ndarray = field(repr=False)  # (N, n_modes), ascending per mode
    basis: np.ndarray = field(repr=False)  # (n_modes, N, N), columns eigenvectors
    distinct: np.ndarray = field(repr=False)  # sorted distinct eigenvalues
    multiplicity: np.ndarray = field(repr=False)  # complex dims, same length

    def __post_init__(self):
        for arr in (self.eigenvalues, self.basis, self.distinct, self.multiplicity):
            arr.setflags(write=False)

    @cached_property
    def _rows(self):
        """The basis by spinor row i, conjugated, as (N, n_modes) planes: to_eigen(c) = sum_i rows[i] * c[i]."""
        return np.conjugate(self.basis.transpose(1, 2, 0), order="C")  # one pass, no conjugated temporary

    @cached_property
    def _cols(self):
        """The basis by eigen column a, as (N, n_modes) planes: from_eigen(e) = sum_a cols[a] * e[a]."""
        return np.ascontiguousarray(self.basis.transpose(2, 1, 0))

    @property
    def m(self):
        return self.grid.m

    @property
    def N(self):
        return self.rep.N

    def to_eigen(self, coeffs):
        """Standard-basis mode coefficients -> eigenbasis coordinates.

        The per-mode product conj(U_k)^T c_k, written as N products of the
        conjugated basis rows, built once per table as (N, n_modes) planes,
        with the rows of c (``_row_sum``).
        """
        return _row_sum(self._rows, coeffs)

    def from_eigen(self, eig_coeffs):
        """Eigenbasis coordinates -> standard-basis mode coefficients, U_k e_k as N products of the basis columns."""
        return _row_sum(self._cols, eig_coeffs)

    def eigen_residual(self):
        """max_k ||A_k u - sigma u|| over all tabulated eigenpairs."""
        av = np.einsum(
            "kij,kja->kia", _symbol(self.rep, self.grid.modes.astype(float)), self.basis
        ) - self.eigenvalues.T[:, None, :] * self.basis
        return float(np.abs(av).max())


def _row_sum(terms, x):
    """sum_j terms[j] * x[j] of (N, n_modes) terms and rows of x: a batch of small matrix-vector products."""
    out = terms[0] * x[0]
    for j in range(1, len(terms)):
        out += terms[j] * x[j]
    return out


def assemble(m, K, n_grid=None):
    """Diagonalize i k.gamma on every mode of the cutoff-K cube, in closed form.

    The chirality e_1...e_m' (m' = m for even m, m - 1 for odd m) is diagonal
    in ``build_rep``'s generators, and splits the spinor coordinates into two
    halves of N/2.  Every e_j with j <= m' maps one half to the other; at odd
    m, e_m is a multiple of the chirality.  So on each half A_k is a I, a real
    (a = 0 at even m, +-k_m at odd m), and the two halves carry opposite a.

    Since A_k^2 = |k|^2, the columns of A_k + mu I lie in the mu-eigenspace,
    mu = +-|k|.  For each mu the columns (A_k + mu I) e_i with i in the half
    where a mu >= 0 (the half of index 0 when a = 0) are orthogonal, each of
    squared norm 2|k| (|k| + |a|), so none vanishes.  The half is chosen by
    that sign, never by comparing column norms: at m = 2 both halves' norms
    are equal and such a comparison can follow the rounding.  Each column
    is scaled so that its entry at i, the pivot, is real and positive:
    p = 1/sqrt(2|k| / (|k| + |a|)), the other entries sign(mu) A_ji/(|k| + |a|) p.
    At m = 2 that is (1, +-conj(c)/|k|)/sqrt(2), c = -k_1 + i k_2.

    No eigensolver runs, so the basis is the same on every numpy and
    LAPACK build.  The -|k| columns come first; the zero mode keeps the
    standard basis.
    """
    if K < 1:
        raise SpectralError(f"cutoff must be >= 1, got {K}")
    grid = make_grid(m, K, n_grid)
    rep = build_rep(m)
    eigenvalues, basis = _diagonalize(rep, grid.modes.astype(float))
    distinct, multiplicity = _aggregate((grid.modes**2).sum(axis=1), rep.N)
    return EigenTable(
        grid=grid,
        rep=rep,
        eigenvalues=eigenvalues,
        basis=basis,
        distinct=distinct,
        multiplicity=multiplicity,
    )


def _symbol(rep, xi):
    """A_xi = i xi.gamma for each row of xi, shape (len(xi), N, N)."""
    return np.einsum("kj,jab->kab", xi, 1j * np.stack(rep.gamma))


def _diagonalize(rep, xi):
    """Eigenvalues (-|xi| on the first N/2 columns) and the closed-form eigenbasis of ``assemble``."""
    n, half = rep.N, rep.N // 2
    kabs = np.sqrt((xi**2).sum(axis=1))
    eigenvalues = np.repeat(np.stack([-kabs, kabs]), half, axis=0)
    nz = kabs > 0
    basis = np.zeros((len(xi), n, n), dtype=complex)
    basis[~nz] = np.eye(n)
    chirality = np.diagonal(np.linalg.multi_dot(rep.gamma[: rep.m - rep.m % 2]))
    first = chirality == chirality[0]
    upper, lower = np.flatnonzero(first), np.flatnonzero(~first)
    mats, kabs = _symbol(rep, xi[nz]), kabs[nz]
    a = mats[:, upper[0], upper[0]].real  # A_xi on the upper half; -a on the lower
    denom = kabs + np.abs(a)
    p = 1.0 / np.sqrt(2.0 * kabs / denom)
    for sign, cols in ((-1.0, slice(None, half)), (1.0, slice(half, None))):
        piv = np.where((sign * a >= 0)[:, None], upper, lower)[:, None, :]
        vec = np.take_along_axis(mats, piv, axis=2)
        vec /= denom[:, None, None]
        vec *= sign * p[:, None, None]
        np.put_along_axis(vec, piv, p[:, None, None], axis=1)
        basis[nz, :, cols] = vec
    return eigenvalues, basis


def _aggregate(ksq, n_spinor):
    """Distinct eigenvalues -sqrt(q), ..., 0, ..., sqrt(q) and their multiplicities, keyed on the integers q = |k|^2."""
    qs, counts = np.unique(ksq, return_counts=True)  # qs[0] = 0: the cube holds k = 0
    root = np.sqrt(qs[1:])
    side = (n_spinor // 2) * counts[1:]
    distinct = np.concatenate([-root[::-1], [0.0], root])
    multiplicity = np.concatenate([side[::-1], n_spinor * counts[:1], side])
    return distinct, multiplicity


def apply_dirac(table, psi):
    """Exact per-mode application of D."""
    _check_field(table, psi)
    a = table.to_eigen(psi.coeffs)
    return SpinorField(psi.grid, table.from_eigen(table.eigenvalues * a))


def _check_field(table, psi):
    if psi.grid.m != table.grid.m or psi.grid.K != table.grid.K:
        raise SpectralError("field grid does not match the eigen table")
    if psi.N != table.N:
        raise SpectralError("field spinor rank does not match the eigen table")


@dataclass(frozen=True)
class SpectralSplit:
    """Index partition (+, 0, -) at parameter lambda with weights |sigma - lambda|^(1/2)."""

    table: EigenTable
    lam: float
    tol: float
    plus: np.ndarray = field(repr=False)
    zero: np.ndarray = field(repr=False)
    minus: np.ndarray = field(repr=False)
    w2: np.ndarray = field(repr=False)  # |sigma - lambda|, 1 on the kernel block

    def __post_init__(self):
        for arr in (self.plus, self.zero, self.minus, self.w2):
            arr.setflags(write=False)

    @property
    def grid(self):
        return self.table.grid

    @property
    def kernel_dim(self):
        """Complex dimension of ker(D - lambda) inside the cutoff."""
        return int(self.zero.sum())

    def mask(self, part):
        return {"plus": self.plus, "zero": self.zero, "minus": self.minus}[part]


def split(table, lam):
    """Partition the tabulated eigenpairs around lambda.

    A lambda within tol = 1e-9 max(1, |lambda|) of an eigenvalue is snapped
    to it, so the kernel block E^0 has sigma - lambda = 0 exactly and the
    split's ``lam`` is that eigenvalue.  A lambda that is not finite raises
    ``SpectralError``.
    """
    if not np.isfinite(lam):
        raise SpectralError(f"lambda must be finite, got {lam}")
    tol = 1e-9 * max(1.0, abs(lam))
    sig = table.eigenvalues
    zero = np.abs(sig - lam) <= tol
    if zero.any():
        lam = sig[zero][0] + 0.0  # the zero mode's -|k| columns hold -0.0; lambda = 0 snaps to +0.0
    plus = sig - lam > tol
    minus = ~(zero | plus)
    w2 = np.abs(sig - lam)
    w2[zero] = 1.0
    return SpectralSplit(
        table=table, lam=float(lam), tol=float(tol), plus=plus, zero=zero, minus=minus, w2=w2
    )


def project(sp, psi, part):
    """Orthogonal projection of a field onto E^+, E^0 or E^-."""
    _check_field(sp.table, psi)
    a = sp.table.to_eigen(psi.coeffs)
    a = np.where(sp.mask(part), a, 0.0)
    return SpinorField(psi.grid, sp.table.from_eigen(a))


def inner_lambda(sp, a, b):
    """<a, b>_lambda = Re(|D-l|^(1/2)a, |D-l|^(1/2)b)_2 + Re(P0 a, P0 b)_2."""
    _check_field(sp.table, a)
    _check_field(sp.table, b)
    ae = sp.table.to_eigen(a.coeffs)
    be = sp.table.to_eigen(b.coeffs)
    return float(sp.grid.volume * (sp.w2 * (ae * be.conj()).real).sum())


def norm_lambda(sp, psi):
    """||psi||_lambda, zero iff psi = 0; Pythagorean across the split."""
    _check_field(sp.table, psi)
    return norm_lambda_eigen(sp, sp.table.to_eigen(psi.coeffs))


def norm_lambda_eigen(sp, ae):
    """``norm_lambda`` of the field whose eigen coordinates are ``ae``."""
    return float(np.sqrt(sp.grid.volume * (sp.w2 * (ae.real**2 + ae.imag**2)).sum()))


def dual_norm(sp, r):
    """Norm of psi -> Re(r, psi)_2 on the dual of (E, ||.||_lambda).

    Spectrally, the l^2 norm of the eigen coefficients scaled by 1/w.
    """
    _check_field(sp.table, r)
    return dual_norm_eigen(sp, sp.table.to_eigen(r.coeffs))


def dual_norm_eigen(sp, be):
    """``dual_norm`` of the field whose eigen coordinates are ``be``."""
    return float(np.sqrt(sp.grid.volume * ((be.real**2 + be.imag**2) / sp.w2).sum()))


def weyl_counts(table, Lambda):
    """(d_plus, d_minus, N_count) for eigenvalues of modulus <= Lambda.

    Requires 0 < Lambda <= K: the cutoff cube must contain the whole
    counting ball, and the Weyl ratio divides by Lambda^m.
    """
    if not 0 < Lambda <= table.grid.K:
        raise SpectralError(
            f"Lambda={Lambda} is outside (0, K={table.grid.K}]: the counting ball must be nonempty and inside the cutoff"
        )
    eigs = table.distinct
    mult = table.multiplicity
    d_plus = int(mult[(eigs > 0) & (eigs <= Lambda)].sum())
    d_minus = int(mult[(eigs < 0) & (eigs >= -Lambda)].sum())
    kernel = int(mult[eigs == 0].sum())
    return d_plus, d_minus, d_plus + d_minus + kernel
