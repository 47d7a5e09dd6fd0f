"""Exact spectral model of the Dirac operator on flat tori.

On T^m = R^m/(2 pi Z)^m with the trivial spin structure the Dirac operator
acts on the plane wave e^{i k.x} s as the N x N hermitian matrix

    A_k = i sum_j k_j gamma_j,        spec(A_k) = {+|k|, -|k|},

each sign with multiplicity N/2 (the zero mode contributes ker D = constant
spinors, dimension N).  The table below stores the per-mode diagonalization,
the aggregated (eigenvalue, multiplicity) spectrum, and everything needed for
the lambda-dependent splitting E = E^+ + E^0 + E^-, the ||.||_lambda norm,
its dual, and Weyl counting.

Eigenvalues are exact square roots of integers |k|^2; all bookkeeping is done
on the integer keys, so multiplicity aggregation is immune to float fuzz.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import comb, gamma as _gamma_fn

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


def weyl_cm_vol(m, volume=None):
    """The Weyl limit of d_pm(Lambda)/Lambda^m for the flat torus.

    Equals C_m * Vol with C_m = 2^(floor(m/2) - 1) * vol(B^m) / (2 pi)^m; for
    the side-2pi torus this is pi when m = 2.
    """
    if volume is None:
        volume = (2.0 * np.pi) ** m
    n_spinor = 2 ** (m // 2)
    cm = 0.5 * n_spinor * unit_ball_volume(m) / (2.0 * np.pi) ** m
    return cm * volume


@dataclass(frozen=True)
class EigenTable:
    """Per-mode Dirac eigenpairs plus the aggregated spectrum."""

    grid: TorusGrid
    rep: object
    eigenvalues: np.ndarray = field(repr=False)  # (n_modes, N), ascending per mode
    basis: np.ndarray = field(repr=False)  # (n_modes, N, N), columns eigenvectors
    distinct: np.ndarray = field(repr=False)  # sorted distinct eigenvalues
    multiplicity: np.ndarray = field(repr=False)  # complex dims, same length

    def __post_init__(self):
        for arr in (self.eigenvalues, self.basis, self.distinct, self.multiplicity):
            arr.setflags(write=False)

    @cached_property
    def _rows(self):
        """The basis by spinor row i, conjugated: to_eigen(c) = sum_i rows[i] * c[:, i]."""
        return tuple(np.ascontiguousarray(self.basis[:, i, :].conj()) for i in range(self.N))

    @cached_property
    def _cols(self):
        """The basis by eigen column a: from_eigen(e) = sum_a cols[a] * e[:, a]."""
        return tuple(np.ascontiguousarray(self.basis[:, :, a]) for a in range(self.N))

    @property
    def m(self):
        return self.grid.m

    @property
    def N(self):
        return self.rep.N

    def to_eigen(self, coeffs):
        """Standard-basis mode coefficients -> eigenbasis coordinates.

        The per-mode product conj(U_k)^T c_k, written as N broadcast products
        over the conjugated basis rows, built once per table: for a 2-wide
        spinor axis that is about half the cost of one ``einsum``.
        """
        return _row_sum(self._rows, coeffs)

    def from_eigen(self, eig_coeffs):
        """Eigenbasis coordinates -> standard-basis mode coefficients, U_k e_k as N broadcast products."""
        return _row_sum(self._cols, eig_coeffs)

    def eigen_residual(self):
        """max_k ||A_k u - sigma u|| over all tabulated eigenpairs."""
        av = np.einsum(
            "kij,kja->kia", self._mode_matrices(), self.basis
        ) - self.eigenvalues[:, None, :] * self.basis
        return float(np.abs(av).max())

    def _mode_matrices(self):
        gam = np.stack(self.rep.gamma)
        return 1j * np.einsum("kj,jab->kab", self.grid.modes.astype(float), gam)


def _row_sum(terms, x):
    """sum_j terms[j] * x[:, j, None]: a batch of small matrix-vector products, one broadcast product per column of x."""
    out = terms[0] * x[:, :1]
    for j in range(1, len(terms)):
        out += terms[j] * x[:, j : j + 1]
    return out


def assemble(m, K, n_grid=None):
    """Diagonalize i k.gamma on every mode of the cutoff-K cube."""
    if K < 1:
        raise SpectralError(f"cutoff must be >= 1, got {K}")
    grid = make_grid(m, K, n_grid)
    rep = build_rep(m)
    modes = grid.modes
    ksq = (modes**2).sum(axis=1)
    kabs = np.sqrt(ksq.astype(float))
    n = rep.N

    if m == 2:
        eigenvalues, basis = _diagonalize_m2(modes, kabs)
    else:
        eigenvalues, basis = _diagonalize_general(grid, rep, kabs)

    distinct, multiplicity = _aggregate(ksq, n)
    return EigenTable(
        grid=grid,
        rep=rep,
        eigenvalues=eigenvalues,
        basis=basis,
        distinct=distinct,
        multiplicity=multiplicity,
    )


def _diagonalize_m2(modes, kabs):
    # A_k = -(k1 sigma1 + k2 sigma2) = [[0, c], [conj(c), 0]], c = -k1 + i k2;
    # eigenvectors (1, +-conj(c)/|c|)/sqrt(2) for eigenvalues +-|k|.
    n_modes = modes.shape[0]
    eigenvalues = np.stack([-kabs, kabs], axis=1)
    basis = np.zeros((n_modes, 2, 2), dtype=complex)
    nz = kabs > 0
    c = -modes[:, 0].astype(float) + 1j * modes[:, 1].astype(float)
    phase = np.ones(n_modes, dtype=complex)
    phase[nz] = np.conj(c[nz]) / kabs[nz]
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    basis[nz, 0, 0] = inv_sqrt2
    basis[nz, 1, 0] = -phase[nz] * inv_sqrt2
    basis[nz, 0, 1] = inv_sqrt2
    basis[nz, 1, 1] = phase[nz] * inv_sqrt2
    basis[~nz] = np.eye(2)
    return eigenvalues, basis


def _diagonalize_general(grid, rep, kabs):
    """Per-mode eigenbasis of i k.gamma from ``eigh``, with a fixed phase per column.

    The first component of each column within 1e-12 relative of its largest
    modulus is made real and positive.  Components of equal modulus are
    common (336 of the 4394 columns at m = 3, K = 6), and picking the
    largest one would follow 1-ulp differences in eigh's output, so the
    m = 3 basis, with one-dimensional eigenspaces, would depend on the
    BLAS/LAPACK build.  At m >= 4 the eigenspaces have dimension N/2 >= 2,
    and the basis inside them is still LAPACK's choice.
    """
    gam = np.stack(rep.gamma)
    mats = 1j * np.einsum("kj,jab->kab", grid.modes.astype(float), gam)
    _, vecs = np.linalg.eigh(mats)  # vecs[k][:, a], eigenvalues ascending
    n = rep.N
    half = n // 2
    # Exact eigenvalues: -|k| on the first N/2 columns, +|k| on the rest.
    eigenvalues = np.concatenate(
        [np.repeat(-kabs[:, None], half, axis=1), np.repeat(kabs[:, None], n - half, axis=1)],
        axis=1,
    )
    zero = kabs == 0
    eigenvalues[zero] = 0.0
    vecs[zero] = np.eye(n)
    cols = np.swapaxes(vecs, 1, 2)  # (k, a, i)
    mod = np.abs(cols)
    lead = np.argmax(mod >= (1.0 - 1e-12) * mod.max(axis=2, keepdims=True), axis=2)
    piv = np.take_along_axis(cols, lead[:, :, None], axis=2)[:, :, 0]
    piv = np.where(piv == 0, 1.0, piv)
    cols = cols * (np.abs(piv) / piv)[:, :, None]
    return eigenvalues, np.ascontiguousarray(np.swapaxes(cols, 1, 2))


def _aggregate(ksq, n_spinor):
    half = n_spinor // 2
    counts = {}
    for q in ksq:
        counts[int(q)] = counts.get(int(q), 0) + 1
    qs = sorted(counts)
    eigs = []
    mults = []
    for q in reversed(qs):
        if q > 0:
            eigs.append(-np.sqrt(q))
            mults.append(half * counts[q])
    eigs.append(0.0)
    mults.append(n_spinor * counts.get(0, 0))
    for q in qs:
        if q > 0:
            eigs.append(np.sqrt(q))
            mults.append(half * counts[q])
    return np.array(eigs), np.array(mults, dtype=int)


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
    split's ``lam`` is that eigenvalue.
    """
    tol = 1e-9 * max(1.0, abs(lam))
    sig = table.eigenvalues
    zero = np.abs(sig - lam) <= tol
    if zero.any():
        lam = sig[zero][0]
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
    ae = sp.table.to_eigen(psi.coeffs)
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

    Requires Lambda <= K so the cutoff cube contains the whole counting ball.
    """
    if Lambda > table.grid.K:
        raise SpectralError(
            f"Lambda={Lambda} exceeds the cutoff K={table.grid.K}; counts would be truncated"
        )
    eigs = table.distinct
    mult = table.multiplicity
    d_plus = int(mult[(eigs > 0) & (eigs <= Lambda)].sum())
    d_minus = int(mult[(eigs < 0) & (eigs >= -Lambda)].sum())
    kernel = int(mult[eigs == 0].sum())
    return d_plus, d_minus, d_plus + d_minus + kernel


# Round-sphere reference data (literature-derived closed forms, used only for
# cross-checks; no spherical field arithmetic is implemented).

def sphere_lambda_min_plus(m):
    """(m/2) * omega_m^(1/m), the smallest positive Dirac eigenvalue invariant of S^m."""
    return 0.5 * m * omega_sphere(m) ** (1.0 / m)


def sphere_eigenvalues(m, count):
    """First ``count`` positive Dirac eigenvalues of the round S^m with multiplicities.

    Eigenvalues are +-(m/2 + k), k >= 0, with multiplicity
    2^floor(m/2) * binom(k + m - 1, k).
    """
    rows = []
    for k in range(count):
        rows.append((0.5 * m + k, 2 ** (m // 2) * comb(k + m - 1, k)))
    return rows
