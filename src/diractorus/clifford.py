"""Complex Clifford representations (gamma matrices) for flat Dirac operators.

Generators e_1, ..., e_m are skew-adjoint complex N x N matrices with
N = 2^floor(m/2) satisfying

    e_i e_j + e_j e_i = -2 delta_ij I,      e_i^dagger = -e_i.

The construction is a fixed recursive tensor doubling from the m = 2 base
pair (i*sigma_1, i*sigma_2), so the matrices are identical across runs and
platforms.  All downstream sign choices (torus Dirac blocks, the Euclidean
solution family) inherit the e_i^2 = -I convention from here.

Every generator of the construction is monomial: one nonzero entry per row,
a phase in {+-1, +-i}, since each is a tensor product of Pauli matrices up
to such a phase.  Clifford multiplication runs per spinor component over that
structure, (x . s)_i = sum_j x_j c_(j,i) s_(p_j(i)): m multiply-adds of
permuted spinors, with no (N, N, ...) matrix built per point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)
_SIGMA2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SIGMA3 = np.array([[1, 0], [0, -1]], dtype=complex)


class CliffordError(ValueError):
    """Invalid dimension or shape mismatch in Clifford operations."""


@dataclass(frozen=True)
class CliffordRep:
    """Immutable gamma-matrix representation for dimension ``m``.

    ``gamma`` is a tuple of m skew-adjoint complex (N, N) arrays, each
    monomial.  ``columns[j, i]`` is the column of row i's nonzero in e_j and
    ``phases[j, i]`` its value, both (m, N) and read-only.
    """

    m: int
    N: int
    gamma: tuple
    columns: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    phases: np.ndarray = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        gam = np.stack(self.gamma)
        nonzero = gam != 0
        if np.any(nonzero.sum(axis=-1) != 1):
            raise CliffordError("each generator must have exactly one nonzero entry per row")
        columns = nonzero.argmax(axis=-1)
        phases = np.take_along_axis(gam, columns[..., None], axis=-1)[..., 0]
        for name, value in (("columns", columns), ("phases", phases)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    def relation_residuals(self):
        """Max residuals of the anticommutation and skew-adjointness relations.

        Returns a dict with keys ``anticommutation``, ``skew_adjoint``,
        ``unitary`` (e_i^dagger e_i = I).
        """
        eye = np.eye(self.N)
        anti = 0.0
        skew = 0.0
        unit = 0.0
        for i in range(self.m):
            gi = self.gamma[i]
            skew = max(skew, np.abs(gi.conj().T + gi).max())
            unit = max(unit, np.abs(gi.conj().T @ gi - eye).max())
            for j in range(self.m):
                r = gi @ self.gamma[j] + self.gamma[j] @ gi + 2.0 * (i == j) * eye
                anti = max(anti, np.abs(r).max())
        return {"anticommutation": anti, "skew_adjoint": skew, "unitary": unit}


def _hermitian_generators(m):
    # E_j hermitian, E_j^2 = I, pairwise anticommuting; gamma_j = i E_j.
    if m == 2:
        return [_SIGMA1, _SIGMA2]
    if m % 2 == 1:
        base = _hermitian_generators(m - 1)
        r = (m - 1) // 2
        prod = np.eye(base[0].shape[0], dtype=complex)
        for ej in base:
            prod = prod @ ej
        # (-i)^r E_1...E_{m-1} is hermitian with square one.
        return base + [(-1j) ** r * prod]
    base = _hermitian_generators(m - 2)
    n = base[0].shape[0]
    eye = np.eye(n, dtype=complex)
    out = [np.kron(ej, _SIGMA3) for ej in base]
    out.append(np.kron(eye, _SIGMA1))
    out.append(np.kron(eye, _SIGMA2))
    return out


def build_rep(m):
    """Build the rank 2^floor(m/2) gamma representation for dimension m >= 2."""
    if not isinstance(m, (int, np.integer)) or m < 2:
        raise CliffordError(f"dimension must be an integer >= 2, got {m!r}")
    gammas = tuple(1j * ej for ej in _hermitian_generators(int(m)))
    n = gammas[0].shape[0]
    for g in gammas:
        g.setflags(write=False)
    return CliffordRep(m=int(m), N=n, gamma=gammas)


def _check_shapes(rep, x, s):
    x = np.asarray(x, dtype=float)
    s = np.asarray(s, dtype=complex)
    if x.shape[:1] != (rep.m,):
        raise CliffordError(f"vector must have first axis {rep.m}, got {x.shape}")
    if s.shape[:1] != (rep.N,):
        raise CliffordError(f"spinor must have first axis {rep.N}, got {s.shape}")
    try:
        tail = np.broadcast_shapes(x.shape[1:], s.shape[1:])
    except ValueError:
        raise CliffordError(f"trailing axes of {x.shape} and {s.shape} do not broadcast") from None
    return x, s.reshape(s.shape[:1] + (1,) * (len(tail) + 1 - s.ndim) + s.shape[1:])  # s.ndim = 1 + len(tail)


def clifford_mul(rep, x, s):
    """Clifford multiplication x . s = sum_j x_j (e_j s).

    ``x`` has first axis m and ``s`` first axis N, the layout of collocation
    values; their trailing axes broadcast, so one vector can act on a batch
    of spinors, a batch of vectors on one spinor, or each point's vector on
    its own spinor.  The product is m multiply-adds, summed in generator
    order: each component x_j is a plane that multiplies the whole permuted
    spinor e_j s = phases[j] * s[columns[j]].
    """
    x, s = _check_shapes(rep, x, s)
    phases = rep.phases.reshape(rep.phases.shape + (1,) * (s.ndim - 1))
    out = x[0] * (phases[0] * s[rep.columns[0]])
    for j in range(1, rep.m):
        out += x[j] * (phases[j] * s[rep.columns[j]])
    return out


def one_minus_x_mul(rep, x, s):
    """Action of (1 - x) in the Clifford algebra: s - x . s.

    Satisfies |(1 - x) . s|^2 = (1 + |x|^2) |s|^2.
    """
    _, s = _check_shapes(rep, x, s)
    return s - clifford_mul(rep, x, s)
