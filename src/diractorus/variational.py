"""Strongly indefinite functional layer and the fiber/Nehari solvers.

Every energy here is one functional on the cutoff space,

    L_lam(psi) = 1/2 <(D - lam) psi, psi>_2 - int F(|psi|) - (1/2*) |psi|_{2*}^{2*};

its Euler-Lagrange equation is
D psi = lam psi + f(|psi|) psi + |psi|^(2*-2) psi.  ``Functional`` evaluates it
on eigen coordinates (the coefficients of psi in the per-mode Dirac
eigenbasis), where D - lam is the diagonal sigma - lam.  One evaluation makes
one synthesize, plus one analyze when a gradient is read, and returns the
quadratic part, the nonlinear mass and the L^2 representatives of both, all
in eigen coordinates.  The lambda-metric gradient is the L^2 representative
divided by the split weights |sigma - lambda| (weight one on the kernel
block).  The fiber maximum, M, J and the Rayleigh quotients R and S are all
built on this one evaluation.  The pure-critical quotients are one formula:
``_ray_quotient`` gives the ray maximum Q = alpha^m / (2m beta^(m-1)) and its
gradient, and ``_rayleigh`` reads R = (2m Q)^(1/m) and R' = (R / (m Q)) Q'
off it.  Its second variation is written once, as the pointwise K''(u)[dv]
of ``Evaluation.second``.  The Hessian-vector product ``Evaluation.hvp``
(one synthesize and one analyze per product), which the residual polish
solves with, the kernel Hessian (``_kernel_hessian``) that both the Newton
for T and T' solve with, the second derivative of F_lam and the right-hand
side of T' are all built on it.

The solvers run on this unreduced L at every lambda, with inner space
E^0 + E^-.  At an eigenvalue with f = 0, q is blind to kernel shifts and T,
the L^{2*}-best approximation onto ker(D - lam), picks the closest kernel
field, so the paper's reduced energy is L_T(psi) = q(psi) -
(1/2*)|psi - T(psi)|_{2*}^{2*} = max_c L(psi - sum_a c_a e_a): its fiber
maximum over E^- is L's over E^0 + E^- (Szulkin-Weth, E^0 non-positive), and
the kernel part of L's maximizer is -T of the rest.  T, T', F_lam and R at
an eigenvalue, which criteria 9 and 11 measure, come from one pure-critical
evaluation at u = psi - T(psi), held by ``_FJet``.  T runs on the same
lambda-orthonormal coordinates as the solvers, restricted to the kernel
block E^0: its weight is one, so their unit vectors are the L^2-orthonormal
real kernel directions e_a and i e_a, and T(psi) and T'(psi)[chi] are the
fields of their coordinates.  T is a damped Newton on those coordinates whose gradient,
Hessian and backtracking value are read from evaluations at its iterates;
S maximizes the unreduced R over E^0 + E^-.  A lambda within the split's
tolerance of an eigenvalue is that eigenvalue (``spectral.split`` snaps it),
so the kernel block has sigma - lambda = 0 exactly.  The residual of the
Euler-Lagrange equation is read off an evaluation too
(``Evaluation.residual``): its in-band part is ``rep``, and its out-of-band
spill is that of ``gu``, the g(|u|) u whose band part is ``nonlin``, from one
full-cube transform that also fills ``nonlin`` when it is not made yet.

Solvers use lambda-orthonormal coordinates on masked eigen entries
(``SubspaceCoords``): the real and imaginary part of each entry, scaled to
the lambda metric.  They are real vectors, the ones L-BFGS runs on, and
their Euclidean geometry is the ||.||_lambda geometry; every L-BFGS run
lives here.  The solver layers hand each other points as eigen
coordinates, (N, n_modes) arrays: the ray-quotient start returns its unit
E^+ coordinates, the sphere descent takes them, each fiber takes the eigen
coordinates of its lambda-unit direction, and a ``FiberPoint`` holds phi
and psi as eigen arrays.  A field enters once, at the public boundary
(``_unit_plus``, whose masked gather is the E^+ projection and which holds
the one check that a direction is not zero), and ``m_lambda`` and
``nehari_project`` convert once on the way in and once on the way out.
The fiber maximum over {t phi + chi}
is one L-BFGS ascent over (t, chi) jointly: by the generalized Nehari
reduction its only critical point with t > 0 is the global maximum, and
evenness of L maps a run that crosses t = 0 back from the mirror maximizer.
An ascent starts from the (t, z) pair its caller passes, a nearby fiber's
scale and inner coordinates, which every ``FiberPoint`` carries together
with the ascent's L-BFGS pairs and its last evaluation when it was at the
maximizer; a cold one starts on the ray t phi where its critical part
t^2 q(phi) - (t^{2*}/2*) |phi|_{2*}^{2*} peaks, in closed form from one
evaluation at phi (the ray maximum ``_ray_quotient`` measures).  The Nehari projection of an E^+
direction is the scale of its fiber maximum.  The sphere descent over E^+
(``sphere_minimize``) starts from the unit E^+ coordinates of a caller's
field or of the minimizer of the ray quotient (``ray_opt_direction``), a
fiber-free lower bound of M.  Its
fibers are inexact: each ascent stops at a hundredth of the larger of the
descent's gtol and the smallest sphere gradient it has seen, and never below
1e-7, as a descent needs its gradient only to a fixed fraction of the
gradient's own size (Carter, SIAM J. Numer. Anal. 28, 1991).  They are warm:
each ascent after the first starts from the last fiber's (t, z) and its
L-BFGS pairs, one memory for the whole descent.  The descent's first step
rotates by |g|_2 / M, the unit step of L-BFGS on log M, as the ray-quotient
start steps on log Q.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .iterative import _Memory, lbfgs as _lbfgs
from .nonlinearity import critical_exponent, make_nonlinearity
from .spectral import norm_lambda, norm_lambda_eigen
from .torus import SpinorField, analyze, cube_coefficients, pointwise_real_inner, synthesize, zero_field


class SolverFailure(RuntimeError):
    """Inner or outer solver failed to converge; diagnostics attached."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


# ---------------------------------------------------------------------------
# The energy functional

_FLOOR = 1e-28  # floor of the squared modulus in the second variation's weights (1e-14 on |u|)


def _l2(grid, r):
    """L^2 norm of the field whose band (or full-cube) coefficients are r."""
    return float(np.sqrt(grid.volume * (np.abs(r) ** 2).sum()))


class Evaluation:
    """The functional at one point, everything in eigen coordinates.

    ``quadratic`` is 1/2 <(D - lam) psi, psi>_2 and ``mass`` is
    K(u) = int F(|u|) + (1/2*)|u|_{2*}^{2*}.  Their L^2 representatives are
    ``lin`` = (D - lam) psi and ``nonlin`` = the band projection of g(|u|) u.
    ``nonlin`` holds the one analyze and is computed on first use, so a
    value-only caller never pays for it.  ``u`` holds the collocation values
    of u, ``rho`` the pointwise squared modulus |u|^2 that every weight is
    read from (``Nonlinearity.G_of_rho`` and its kin), and ``gu`` forms the
    values of g(|u|) u, whose out-of-band part is the spill of ``residual``,
    in a new array on each read: ``nonlin`` hands its own to ``analyze`` to
    transform in place, and no evaluation keeps it.
    ``second`` and ``hvp`` give the second variation of the mass at u.
    Solver evaluations have u = psi; ``_FJet``'s has u = psi - T(psi), and
    its ``hvp`` leaves T' out.
    """

    def __init__(self, fn, quadratic, mass, lin, u, rho):
        self.fn = fn
        self.quadratic = quadratic
        self.mass = mass
        self.lin = lin
        self.u = u
        self.rho = rho
        self._nonlin = None

    @property
    def energy(self):
        return self.quadratic - self.mass

    @property
    def gu(self):
        return self.fn.nl.g_of_rho(self.rho).astype(complex) * self.u

    @property
    def nonlin(self):
        if self._nonlin is None:
            split = self.fn.split
            self._nonlin = split.table.to_eigen(analyze(split.grid, self.gu, overwrite=True))
        return self._nonlin

    @cached_property
    def residual(self):
        """In-band and out-of-band L^2 norms of the strong-form residual D psi - lam psi - g(|psi|) psi.

        The in-band part is the norm of ``rep``, the Galerkin gradient: the
        L^2 representative of L_lam'(psi) on the cutoff space, which the
        solvers drive to zero.  The spill is the part of ``gu`` outside the
        band, read off its full FFT cube (``cube_coefficients``); fixed by
        psi, it estimates the truncation error.  It is transformed on its
        own, not taken as the full norm minus the band norm, which cancels to
        the square root of rounding at a band-limited solution.  When
        ``nonlin`` is not computed yet, the band part of the same cube gives
        it, so the residual costs one transform of ``gu``, not two.
        """
        grid = self.fn.split.grid
        cube = cube_coefficients(grid, self.gu)
        band = (slice(None),) + grid.cube_index
        if self._nonlin is None:
            self._nonlin = self.fn.split.table.to_eigen(cube[band])
        cube[band] = 0.0
        return _l2(grid, self.rep), _l2(grid, cube)

    @property
    def rep(self):
        """L^2 representative of L'(psi)."""
        return self.lin - self.nonlin

    @property
    def grad(self):
        """lambda-metric Riesz representative of L'(psi)."""
        return self.rep / self.fn.split.w2

    @cached_property
    def _second_weights(self):
        rho = np.maximum(self.rho, _FLOOR)
        nl = self.fn.nl
        return nl.g_of_rho(rho).astype(complex), nl.radial_of_rho(rho)

    def second(self, dv, out=None):
        """K''(u)[dv] = g(|u|) dv + (g'(|u|)/|u|) Re<u, dv> u on collocation values shaped like u.

        ``dv`` may stack several directions on leading axes.  The weights
        g(|u|) and (g'(|u|)/|u|) Re<u, dv> (``pointwise_real_inner``) are
        planes, one value per grid point, that multiply whole spinor
        components.  Each is cast to complex as a plane, g once per
        evaluation: a real factor would be cast again for every component
        it multiplies, which costs more than the product.  The result is
        written into ``out``, which may be ``dv`` itself, else a new array.
        """
        g, radial = self._second_weights
        weight = np.expand_dims((radial * pointwise_real_inner(self.u, dv)).astype(complex), -self.u.ndim)
        out = np.multiply(g, dv, out=out)
        out += weight * self.u
        return out

    def hvp(self, d):
        """L^2 representative of L''(psi)[d] in eigen coordinates: one synthesize, one analyze.

        K''(u)[dv] is written into the values ``synthesize`` returns for d,
        and ``analyze`` transforms them in place: the product allocates no
        collocation array beyond the one synthesis makes.  ``d`` and the
        evaluation's arrays are not written.
        """
        fn = self.fn
        table, grid = fn.split.table, fn.split.grid
        dv = synthesize(grid, table.from_eigen(d))
        return fn.shift * d - table.to_eigen(analyze(grid, self.second(dv, out=dv), overwrite=True))


class Functional:
    """L_lam on the eigen coordinates of a split.

    ``lam`` defaults to the split's lambda; another value evaluates the
    functional on a split frozen at an eigenvalue (the lambda metric keeps the
    split's weights).  ``inner``, the coordinates that fiber and J
    maximizations run over, is E^0 + E^- (see the module docstring).
    """

    def __init__(self, split, nl, lam=None):
        self.split = split
        self.nl = nl
        self.lam = split.lam if lam is None else float(lam)
        self.shift = split.table.eigenvalues - self.lam
        self.inner = SubspaceCoords(split, split.zero | split.minus)

    def __call__(self, a):
        """Evaluation at eigen coordinates ``a`` of shape (N, n_modes)."""
        return self._evaluate(a, synthesize(self.split.grid, self.split.table.from_eigen(a)))

    def at_field(self, psi):
        """Evaluation at a field, reusing its cached collocation values."""
        return self._evaluate(self.split.table.to_eigen(psi.coeffs), psi.values())

    def value_and_grad(self, a):
        ev = self(a)
        return ev.energy, ev.grad

    def _evaluate(self, a, values):
        """Quadratic part at eigen coordinates ``a``, mass at the collocation values ``values`` of u."""
        grid = self.split.grid
        lin = self.shift * a
        rho = pointwise_real_inner(values, values)
        return Evaluation(
            self,
            quadratic=0.5 * grid.volume * float(np.vdot(a, lin).real),
            mass=float(grid.cell * self.nl.G_of_rho(rho).sum()),
            lin=lin,
            u=values,
            rho=rho,
        )


def L_lambda(split, nl, psi, lam=None):
    """Energy L_lam(psi); defaults to the split's own lambda."""
    return Functional(split, nl, lam).at_field(psi).energy


def grad_L(split, nl, psi, lam=None):
    """lambda-metric Riesz representative of L_lam'(psi)."""
    return SpinorField(psi.grid, split.table.from_eigen(Functional(split, nl, lam).at_field(psi).grad))


# ---------------------------------------------------------------------------
# Kernel best-approximation projector T


def _pair(dirs, w, cell):
    """Real L^2 pairings cell Re sum conj(dirs_i) w_j of stacked collocation values, in one matmul."""
    size = int(np.prod(dirs.shape[1:]))
    return cell * (dirs.reshape(-1, size).conj() @ w.reshape(-1, size).T).real


_T_TOL, _T_MAX_ITER = 1e-12, 200  # the kernel Newton's relative gradient tolerance and iteration cap


def _kernel_hessian(ev, dirs):
    """The kernel Hessian at ``ev``: ``dirs`` paired with their ``Evaluation.second``, plus a ridge.

    It is the Hessian of c -> K(psi - sum c_a e_a) in the real kernel
    directions ``dirs``, positive semi-definite for the pure-critical mass, so
    the ridge 1e-13 max(1, largest diagonal entry) makes it positive definite.
    """
    H = _pair(dirs, ev.second(dirs), ev.fn.split.grid.cell)
    return H + 1e-13 * np.eye(len(dirs)) * max(H.diagonal().max(), 1.0)


def _kernel_coords(fn, dirs, a, pv):
    """Coordinates c of T(psi) = sum_a c_a e_a and the evaluation of ``fn`` at u = psi - T(psi).

    ``fn`` is the pure-critical functional, ``a`` and ``pv`` are psi's eigen
    coordinates and collocation values, and ``dirs`` stacks the collocation
    values of the unit vectors e_a of the kernel coordinates, so c are those
    coordinates.  Damped Newton on the strictly convex c -> K(psi - sum c_a e_a)
    = (1/2*) int |psi - sum c_a e_a|^{2*}, started from the L^2 projection.
    The gradient pairs the directions with ``Evaluation.gu`` = g(|u|) u, the
    Hessian is ``_kernel_hessian``, and the backtracking value is the
    evaluation's ``mass``.
    """
    cell = fn.split.grid.cell
    ts = critical_exponent(fn.split.grid.m)

    def evaluate(c):
        return fn._evaluate(a, pv - np.tensordot(c, dirs, axes=(0, 0)))

    # L^2 projection: exact minimizer for p = 2, warm start for p = 2*.
    c = _pair(dirs, pv[None], cell)[:, 0]
    ev = evaluate(c)
    # Stop when the gradient of int |u|^{2*} (2* times K's) is small against int |psi|^{2*}.
    scale = max(1.0, cell * float((pointwise_real_inner(pv, pv) ** (0.5 * ts)).sum())) / ts
    for _ in range(_T_MAX_ITER):
        grad = -_pair(dirs, ev.gu[None], cell)[:, 0]
        gnorm = np.linalg.norm(grad)
        if gnorm < _T_TOL * scale:
            break
        step = np.linalg.solve(_kernel_hessian(ev, dirs), -grad)
        alpha = 1.0
        for _ in range(40):
            trial = evaluate(c + alpha * step)
            if trial.mass <= ev.mass + 1e-12 * abs(ev.mass):
                break
            alpha *= 0.5
        c, ev = c + alpha * step, trial
    else:
        raise SolverFailure(
            "kernel projector Newton did not converge",
            {"grad_norm": gnorm, "dim": len(dirs) // 2, "iterations": _T_MAX_ITER},
        )
    return c, ev


class _FJet:
    """The pure-critical functional reduced by T, at one psi, from one T Newton.

    ``ev`` is the evaluation with the quadratic part at psi and the mass at
    u = psi - T(psi): its ``energy`` is L_T(psi), its ``mass`` is
    F_lam(psi) = (1/2*) |psi - T(psi)|_{2*}^{2*}, and its ``rep`` and
    ``grad`` are L_T'(psi), because T'(psi) drops out of the gradient at
    f = 0.  ``kernel`` is the lambda-orthonormal E^0 block, ``dirs`` the
    collocation values of its unit vectors, the L^2-orthonormal real kernel
    directions, and ``c`` are T(psi)'s coordinates in it.  The kernel Hessian
    that T' solves with is built on first use.
    """

    def __init__(self, split, psi):
        self.split = split
        self.kernel = SubspaceCoords(split, split.zero)
        self.ts = critical_exponent(split.grid.m)
        pv = psi.values()
        dirs = [self.kernel.to_field(x).values() for x in np.eye(self.kernel.dim)]
        self.dirs = np.array(dirs).reshape((self.kernel.dim,) + pv.shape)
        fn = Functional(split, make_nonlinearity("zero", split.grid.m))
        self.c, self.ev = _kernel_coords(fn, self.dirs, split.table.to_eigen(psi.coeffs), pv)

    @cached_property
    def _hessian(self):
        return _kernel_hessian(self.ev, self.dirs)

    def t_prime_coords(self, chi_values):
        """Kernel coordinates of T'(psi)[chi], solving the linearized optimality system."""
        rhs = _pair(self.dirs, self.ev.second(chi_values)[None], self.split.grid.cell)[:, 0]
        return np.linalg.solve(self._hessian, rhs)

    def first(self, phi):
        """F'(psi)[phi]."""
        a = self.split.table.to_eigen(phi.coeffs)
        return float(self.split.grid.volume * (self.ev.nonlin * a.conj()).real.sum())

    def second(self, phi, chi):
        """F''(psi)[phi, chi] including the T' correction."""
        du = chi.values()
        if self.kernel.dim:
            du = du - np.tensordot(self.t_prime_coords(du), self.dirs, axes=(0, 0))
        return float(self.split.grid.cell * (phi.values().conj() * self.ev.second(du)).real.sum())


def t_lambda(split, psi):
    """Best approximation of psi in ker(D - lambda) w.r.t. the L^{2*} norm.

    Returns the kernel field; the zero field is returned immediately when the
    kernel is trivial.
    """
    if not split.kernel_dim:
        return zero_field(psi.grid, psi.N)
    jet = _FJet(split, psi)
    return jet.kernel.to_field(jet.c)


def f_lambda_value(split, psi):
    """F_lam(psi) = (1/2*) |psi - T(psi)|_{2*}^{2*}."""
    return _FJet(split, psi).ev.mass


def f_first(split, psi, phi):
    """F'(psi)[phi]."""
    return _FJet(split, psi).first(phi)


def tmfm_gap(split, psi, phi):
    """LHS - RHS of the quadratic-form lower bound

    (F''[psi,psi] - F'[psi]) + 2 (F''[psi,phi] - F'[phi]) + F''[phi,phi]
        >= 2/(m+1) |psi - T(psi)|_{2*}^{2*},

    all at one T(psi).
    """
    jet = _FJet(split, psi)
    m = psi.grid.m
    lhs = (
        jet.second(psi, psi)
        - jet.first(psi)
        + 2.0 * (jet.second(phi, psi) - jet.first(phi))
        + jet.second(phi, phi)
    )
    return lhs - 2.0 * jet.ts / (m + 1.0) * jet.ev.mass


# ---------------------------------------------------------------------------
# lambda-orthonormal subspace coordinates


class SubspaceCoords:
    """Masked eigen entries with real Euclidean coordinates matching ||.||_lambda.

    Entries are addressed by their flat positions ``flat`` in the
    (N, n_modes) eigen array, taken in mode-major order: entry j is the j-th
    masked (mode, spin) pair, so coordinates 2j and 2j + 1 are its real and
    imaginary part, and the seeded starts of ``ray_opt_direction`` and
    ``nu_lambda_k`` draw their entries mode by mode.  Those parts are scaled
    by ``scale``, so ``dim`` is twice the number of entries, and going to and
    from eigen coordinates is one 1-d scatter or gather on a complex view of
    the real vector.
    """

    def __init__(self, split, mask):
        self.table = split.table
        self.grid = split.grid
        mode, spin = np.nonzero(mask.T)
        self.flat = np.ravel_multi_index((spin, mode), mask.shape)
        self.scale = np.sqrt(split.grid.volume * split.w2.ravel()[self.flat])
        self.dim = 2 * int(self.flat.size)

    def to_eigen(self, x, base=None):
        """Eigen coordinates of the real coordinates ``x``, added in place onto the eigen array ``base`` when given."""
        a = np.zeros((self.table.N, self.grid.n_modes), dtype=complex) if base is None else base
        a.reshape(-1)[self.flat] += np.ascontiguousarray(x, dtype=float).view(complex) / self.scale
        return a

    def from_eigen(self, a):
        """Coordinates of the masked entries of eigen coordinates ``a``.

        Applied to a lambda-metric gradient this gives the Euclidean gradient
        in these coordinates.
        """
        return (np.take(a.reshape(-1), self.flat) * self.scale).view(float)

    def to_field(self, x):
        return SpinorField(self.grid, self.table.from_eigen(self.to_eigen(x)))


# ---------------------------------------------------------------------------
# Ascent in lambda-orthonormal coordinates (fiber, J and S maximizations)


_INNER_MAXCOR = 20  # L-BFGS pairs of every ascent


def _inner_maximize(objective, coords, z0, gtol, maxiter, memory=None):
    """Maximize an objective over the coordinates ``coords`` with L-BFGS.

    The loop is the package's own (``iterative.lbfgs``, the unconstrained
    path of L-BFGS-B) on the negated objective, with 20 pairs of memory and
    ftol 1e-18; ``memory``, when given, is the ``iterative._Memory`` it
    starts from and leaves its pairs in.  ``objective(a)`` takes eigen
    coordinates and returns (value, lambda-metric gradient in eigen
    coordinates).  Returns (z, value, gradient norm, evaluations).
    """
    def fun(x):
        val, grad = objective(coords.to_eigen(x))
        return -val, -coords.from_eigen(grad)

    if coords.dim == 0:
        val, _ = objective(coords.to_eigen(np.zeros(0)))
        return np.zeros(0), val, 0.0, 0
    res = _lbfgs(fun, z0, gtol=gtol, ftol=1e-18, maxiter=maxiter, maxcor=_INNER_MAXCOR, memory=memory)
    gnorm = float(np.linalg.norm(res.jac))
    return res.x, float(-res.fun), gnorm, res.nfev


@dataclass
class FiberPoint:
    """Constrained maximizer over a fiber {t phi + chi}, its points as eigen coordinates.

    ``phi`` and ``psi`` = t phi + chi are (N, n_modes) eigen arrays: phi the
    lambda-unit E^+ direction the ascent was handed, psi the maximizer.
    ``value`` and ``grad_norm`` are the ascent's final value and gradient
    norm in the (t, z) coordinates, whatever stop it was asked for.
    ``evaluation`` is the ascent's last evaluation when it was at psi, so a
    caller reads the value, the gradient and the residual there without
    evaluating again; it is None when the ascent ended elsewhere or on the
    t < 0 mirror (``fiber_maximize``).  ``memory`` holds the ascent's
    L-BFGS pairs (``iterative._Memory``), which a nearby fiber's ascent can
    start from; an ascent handed them updates them in place.
    """

    phi: np.ndarray
    t: float
    z: np.ndarray  # coordinates of chi in ``fn.inner``
    psi: np.ndarray
    value: float
    grad_norm: float
    inner_evals: int
    unique_confident: bool = True
    evaluation: Evaluation | None = field(default=None, repr=False, compare=False)
    memory: _Memory | None = field(default=None, repr=False, compare=False)

    def evaluated(self, fn):
        """The evaluation of ``fn`` at psi: the ascent's last one when it was there, else a fresh one."""
        return fn(self.psi) if self.evaluation is None else self.evaluation


class _FiberCoords:
    """Coordinates (t, z) of t phi + chi: entry 0 is the scale t, the rest ``fn.inner``'s.

    phi is lambda-unit and lambda-orthogonal to ``fn.inner``, so the
    coordinates are lambda-orthonormal.
    """

    def __init__(self, fn, phi_e):
        self.inner = fn.inner
        self.phi_e = phi_e
        # <g, phi>_lambda = Re vdot(phi_dual, g): the t-gradient is vol Re sum rep conj(phi_e).
        self.phi_dual = fn.split.grid.volume * fn.split.w2 * phi_e
        self.dim = 1 + fn.inner.dim

    def to_eigen(self, x):
        return self.inner.to_eigen(x[1:], base=x[0] * self.phi_e)

    def from_eigen(self, g):
        return np.concatenate([[np.vdot(self.phi_dual, g).real], self.inner.from_eigen(g)])


_FIBER_MAXITER = 500  # iteration cap of every fiber ascent


def fiber_maximize(fn, phi, gtol=1e-9, start=None, memory=None):
    """Global maximizer of ``fn`` over the fiber {t phi + chi : t > 0, chi in fn.inner}.

    ``phi`` is the eigen coordinates of a lambda-unit E^+ direction, so
    (t, z) are lambda-orthonormal (``_FiberCoords``), and the returned
    point's ``phi`` and ``psi`` are eigen coordinates too.  One L-BFGS
    ascent over (t, chi) jointly.  Under the generalized Nehari
    reduction every critical point with t > 0 on the fiber is its unique
    global maximum, so the start only has to lie in its basin: the pair
    ``start`` = (t, z) of a scale and inner coordinates (a nearby fiber's
    ``t`` and ``z``) when given, otherwise (t0, 0), with t0^(2*-2) = alpha/beta,
    alpha = <(D-lam)phi, phi> and beta = |phi|_{2*}^{2*}, read off one
    evaluation at phi.  t0 maximizes the critical part of L on the ray t phi:
    exactly L's ray maximum at f = 0, at or above it for f >= 0.  A direction
    with alpha <= 0 has no positive ray maximum and raises ``SolverFailure``.
    ``memory``, a nearby fiber's ``FiberPoint.memory``, is the L-BFGS pairs
    the ascent starts from, so its first step is the unit quasi-Newton step
    on that fiber's curvature; without it the ascent starts with an empty
    memory and L-BFGS-B's first step.  The returned point carries the
    ascent's pairs, and its last ``Evaluation`` when L-BFGS made it at the
    returned (t, z).  After the t < 0 mirror it carries no evaluation, whose
    gradient has the other sign there, but the same pairs: L is even, so
    the mirrored pairs (-s, -y) define the same inverse Hessian.
    """
    coords = _FiberCoords(fn, phi)
    if start is None:
        ev = fn(phi)
        alpha = 2.0 * ev.quadratic
        if alpha <= 0:
            raise SolverFailure("fiber direction has no positive ray maximum", {"alpha": alpha})
        ts = critical_exponent(fn.split.grid.m)
        beta = fn.split.grid.cell * float((ev.rho ** (0.5 * ts)).sum())
        t0, z0 = (alpha / beta) ** (1.0 / (ts - 2.0)), np.zeros(fn.inner.dim)
    else:
        t0, z0 = start
    memory = _Memory(coords.dim, _INNER_MAXCOR) if memory is None else memory
    last = {"a": None, "ev": None}

    def objective(a):
        last["a"], last["ev"] = a, fn(a)
        return last["ev"].energy, last["ev"].grad

    x, value, grad_norm, evals = _inner_maximize(
        objective, coords, np.concatenate([[t0], z0]), gtol, _FIBER_MAXITER, memory
    )
    a = coords.to_eigen(x)
    ev = last["ev"] if np.array_equal(last["a"], a) else None
    t, z = float(x[0]), x[1:]
    if t < 0:
        # L is even: a line-search step across t = 0 lands on the mirror maximizer.
        t, z, a, ev = -t, -z, -a, None
    if t < 1e-8 * max(abs(t0), 1.0):
        raise SolverFailure("fiber maximizer collapsed to t = 0", {"t_start": t0, "value": value})
    return FiberPoint(
        phi=phi,
        t=t,
        z=z,
        psi=a,
        value=value,
        grad_norm=grad_norm,
        inner_evals=evals,
        evaluation=ev,
        memory=memory,
    )


def _sphere_grad(fn, coords, fiber, zhat):
    """t times the sphere-tangent part at zhat of the E^+ gradient at the fiber maximizer."""
    gz = coords.from_eigen(fiber.evaluated(fn).grad)
    return fiber.t * (gz - (zhat @ gz) * zhat)


def _unit_plus(split, psi):
    """``SubspaceCoords`` of ``split.plus``, and the unit coordinates in it of the field psi's E^+ part.

    The masked gather of ``SubspaceCoords.from_eigen`` is the E^+
    projection, and the coordinates' Euclidean norm is the lambda norm.
    This is where a field enters the solvers, and the one check that its
    direction is not zero: an E^+ part of lambda norm at most 1e-12 of the
    field's is rounding, and normalizing it would make a direction of noise.
    """
    coords = SubspaceCoords(split, split.plus)
    a = split.table.to_eigen(psi.coeffs)
    z = coords.from_eigen(a)
    nrm = float(np.linalg.norm(z))
    if nrm <= 1e-12 * norm_lambda_eigen(split, a):
        raise SolverFailure("direction has no E^+ component")
    return coords, z / nrm


def m_lambda(split, nl, phi):
    """Reduced functional M(phi) = L(mu(phi)) and its sphere-tangent gradient, at the E^+ part of the field phi.

    The gradient is ||mu(phi)^+||_lam times the E^+ restriction of grad L at
    the fiber maximizer, projected onto the tangent space at phi, as a field.
    """
    fn = Functional(split, nl)
    coords, zhat = _unit_plus(split, phi)
    fiber = fiber_maximize(fn, coords.to_eigen(zhat))
    return fiber.value, coords.to_field(_sphere_grad(fn, coords, fiber, zhat)), fiber


def _ray_quotient(ev):
    """Ray quotient Q = alpha^m / (2m beta^(m-1)) of a pure-critical evaluation, and the L^2 representative of Q'.

    Here alpha = <(D-lam)phi,phi> and beta = |phi|_{2*}^{2*}.  On the ray,
    the pure-critical energy (t^2/2) alpha - (t^{2*}/2*) beta is largest at
    t^{2*-2} = alpha/beta, with this value, so the quotient is invariant
    under scaling phi.  The representative is
    (alpha/beta)^(m-1) (D-lam)phi - (alpha/beta)^m |phi|^(2*-2)phi.  The
    Rayleigh quotient R is read off Q (``_rayleigh``).
    """
    m = ev.fn.split.grid.m
    alpha = 2.0 * ev.quadratic
    beta = critical_exponent(m) * ev.mass
    rep = (alpha ** (m - 1) / beta ** (m - 1)) * ev.lin - (alpha**m / beta**m) * ev.nonlin
    return alpha**m / (2.0 * m * beta ** (m - 1)), rep


def ray_opt_direction(split):
    """Direction minimizing the ray quotient (``_ray_quotient``) over E^+ of the split, and its L-BFGS record.

    The quotient is the exact maximum of the pure-critical energy along the
    ray t phi, hence a pointwise lower bound for the pure-critical fiber
    value M(phi); its minimizer is a cheap, strong initial direction for the
    sphere descent (no inner solves needed).  The L-BFGS
    run starts from a fixed random E^+ vector, so the direction is
    reproducible.  It minimizes log Q, whose gradient Q'/Q is relative, and
    stops at gtol 1e-8.  That sits above the rounding floor of Q'/Q (1e-11
    to 2.5e-9 at K = 8, 16 and 32), where line searches fail in the noise,
    and it is as tight at every lambda: near an eigenvalue Q is small
    (7.9e-4 at lambda = 0.99), and a stop on Q' itself at 1e-8 there left a
    start whose polish stalled.  Returns the direction's unit coordinates in
    ``SubspaceCoords(split, split.plus)`` and ``{evals, iterations,
    message}`` read off the L-BFGS result.
    """
    fn = Functional(split, make_nonlinearity("zero", split.grid.m))
    coords = SubspaceCoords(split, split.plus)
    rng = np.random.default_rng(1)
    z0 = rng.standard_normal(coords.flat.size) + 1j * rng.standard_normal(coords.flat.size)
    z0 = z0 / (1.0 + split.w2.ravel()[coords.flat] ** 2)

    def fun(x):  # log Q: its gradient Q'/Q is relative, so one gtol fits every lambda and cutoff
        val, rep = _ray_quotient(fn(coords.to_eigen(x)))
        return np.log(val), coords.from_eigen(rep / (val * split.w2))

    res = _lbfgs(fun, z0.view(float), gtol=1e-8, ftol=1e-16, maxiter=600, maxcor=10)
    info = {"evals": int(res.nfev), "iterations": int(res.nit), "message": str(res.message)}
    return res.x / np.linalg.norm(res.x), info


def sphere_minimize(fn, z0, gtol, maxiter=120):
    """Minimize the fiber maximum of ``fn`` over the unit sphere of E^+, to the outer tolerance ``gtol``.

    The descent starts from ``z0``, the unit coordinates of a direction in
    ``SubspaceCoords(split, split.plus)`` (``ray_opt_direction``,
    ``_unit_plus``), and hands each fiber the eigen coordinates of its
    direction.  Quasi-Newton descent on the scale-invariant extension
    phi -> M(phi/||phi||) in lambda-orthonormal E^+ coordinates.  Each fiber ascent after the
    first starts from the previous fiber's maximizer (t, z) and its L-BFGS
    pairs (``FiberPoint.memory``), so the fibers of one descent share one
    memory and each starts with a unit quasi-Newton step; the first fiber
    starts cold.  Consecutive fibers are nearly the same problem, and the
    pairs stay valid across the t < 0 mirror.  Each stops at

        fiber gtol = max(1e-7, 1e-2 max(gtol, |g|_inf)),

    |g|_inf being the smallest max-norm (the norm of L-BFGS's stop test) of
    the tangent gradient over the descent's earlier evaluations; the first
    fiber stops at 1e-2 gtol.  An inexact fiber's error in the sphere
    gradient is linear in its own gradient, so the gradient the descent
    steps on is right to about 1 % (Carter, SIAM J. Numer. Anal. 28, 1991).
    The smallest gradient sets the stop, not the last one, since the last
    evaluation may be a rejected line-search trial far up the slope: in the
    acceptance run's second branch (K = 16, lambda = 0.99) a trial reached
    |g|_inf = 2.3, and a fiber stopped at 1e-2 of that ended the descent
    2e-4 below its fiber maximum.  The 1e-7 floor leaves descents to a tight
    ``gtol`` with the stop they had.  The branch solves stop at gtol 1e-3
    and finish with the Newton polish.  The gradient at each fiber maximizer
    is read off the fiber ascent's last evaluation there
    (``FiberPoint.evaluated``).  The descent's first trial rotates by
    |g|_2 / M, the unit step of L-BFGS on log M (``lbfgs``'s ``relative``),
    not L-BFGS-B's unit length, a rotation of about 1 rad that overshot: at
    K = 16 it took lambda = 0.3 from 2.87 to 5.64, and its far fiber spoiled
    the carried pairs.

    Returns (fiber_point, info); the fiber is that of L-BFGS's last call
    when it was at the optimizer, else a re-solve there, and the descent's
    value is its ``value``.  ``info`` holds ``fiber_grad_max``, the largest
    final gradient norm of its fiber solves, loosely stopped early ones
    included (4.9e-4 at K = 16, lambda = 0.7, against 2.7e-7 with every
    fiber at 1e-7), ``fiber_evals``, the sum of their inner evaluations,
    ``first_step``, the first trial's rotation |g|_2 / M, and
    ``fiber_gtol``, the stop of the returned fiber's ascent, whose final
    gradient norm is the fiber's ``grad_norm``.  A descent never ends above
    its start: when it took a step and still ended higher than its first
    evaluation at z0, that evaluation is returned and ``info`` records
    ``fell_back``.
    """
    coords = SubspaceCoords(fn.split, fn.split.plus)
    last = {"fiber": None, "gmin": np.inf, "fiber_grad_max": 0.0, "fiber_evals": 0}

    def fun(x):
        nrm = float(np.linalg.norm(x))
        zhat = x / nrm
        prev = last["fiber"]
        start, memory = (None, None) if prev is None else ((prev.t, prev.z), prev.memory)
        fiber_gtol = max(1e-7, 1e-2 * (gtol if prev is None else max(gtol, last["gmin"])))
        fiber = fiber_maximize(fn, coords.to_eigen(zhat), gtol=fiber_gtol, start=start, memory=memory)
        gz = _sphere_grad(fn, coords, fiber, zhat) / nrm
        last["x"], last["fiber"], last["fiber_gtol"] = x.copy(), fiber, fiber_gtol
        last.setdefault("first", (fiber, fiber_gtol))
        last["gmin"] = min(last["gmin"], float(np.abs(gz).max()))
        last["fiber_grad_max"] = max(last["fiber_grad_max"], fiber.grad_norm)
        last["fiber_evals"] += fiber.inner_evals
        last["gnorm"] = float(np.linalg.norm(gz))
        last.setdefault("first_step", last["gnorm"] / abs(fiber.value))  # the first trial's rotation
        return fiber.value, gz

    res = _lbfgs(fun, z0, gtol=gtol, ftol=1e-16, maxiter=maxiter, maxcor=25, relative=True)
    if not np.array_equal(last["x"], res.x):
        fun(res.x)  # re-evaluate at the optimizer so the reported fiber matches res.x
    info = {
        "outer_iterations": int(res.nit),
        "outer_evals": int(res.nfev),
        "tangent_grad_norm": last["gnorm"],
        "fiber_grad_max": last["fiber_grad_max"],
        "fiber_evals": last["fiber_evals"],
        "first_step": last["first_step"],
        "converged": bool(last["gnorm"] <= 10.0 * gtol or res.success),
    }
    if res.nit > 0 and last["fiber"].value > last["first"][0].value:
        info["fell_back"] = True
        last["fiber"], last["fiber_gtol"] = last["first"]
    info["fiber_gtol"] = last["fiber_gtol"]
    return last["fiber"], info


# ---------------------------------------------------------------------------
# Reduced functionals on E+: J, H and the Nehari projection


def _j_max(fn, phi_plus, z0=None):
    """J(phi_plus) = max of fn over phi_plus + fn.inner; returns (z, J, grad_norm, evals)."""
    coords = fn.inner
    base = fn.split.table.to_eigen(phi_plus.coeffs)
    z0 = np.zeros(coords.dim) if z0 is None else z0
    z, val, gnorm, evals = _inner_maximize(
        lambda chi: fn.value_and_grad(base + chi), coords, z0, 1e-10, 900
    )
    scale = max(1.0, norm_lambda(fn.split, phi_plus) ** 3)
    if gnorm > 1e-5 * scale:
        raise SolverFailure("eta maximization stalled", {"grad_norm": gnorm})
    return z, val, gnorm, evals


def eta_lambda(split, nl, phi_plus):
    """The inner maximizer eta(phi^+) and the value J(phi^+)."""
    fn = Functional(split, nl)
    z, val, gnorm, evals = _j_max(fn, phi_plus)
    return fn.inner.to_field(z), float(val), {"grad_norm": gnorm, "inner_evals": evals}


def j_lambda(split, nl, phi_plus):
    _, val, _ = eta_lambda(split, nl, phi_plus)
    return val


def h_lambda(fn, phi_plus, z0=None):
    """H(phi) = J'(phi)[phi], the Nehari defect of phi in E^+, by the envelope theorem.

    Returns (H, the inner maximizer's coordinates, J).
    """
    z, val, _, _ = _j_max(fn, phi_plus, z0=z0)
    a = fn.split.table.to_eigen(phi_plus.coeffs)
    rep = fn(a + fn.inner.to_eigen(z)).rep
    return float(fn.split.grid.volume * (rep * a.conj()).real.sum()), z, val


def nehari_project(split, nl, phi):
    """Scale phi in E^+ onto the Nehari-Pankov set: the unique t > 0 with H(t phi) = 0.

    The fiber maximum over phi is t phi + eta(t phi), and its vanishing
    t-derivative is H(t phi) = 0, so t is that fiber's scale.  The returned
    field's lambda norm is t.
    """
    coords, zhat = _unit_plus(split, phi)
    return coords.to_field(fiber_maximize(Functional(split, nl), coords.to_eigen(zhat), gtol=1e-10).t * zhat)


# ---------------------------------------------------------------------------
# Rayleigh functional R and S


def _rayleigh(ev):
    """R = 2 q / |u|_{2*}^2 of a pure-critical evaluation and the L^2 representative of R', read off Q.

    2m Q = alpha^m / beta^(m-1) = (2 q / |u|_{2*}^2)^m, so R is the real m-th
    root of 2m Q with the sign of q (Q is blind to it at even m), and
    R' = (R / (m Q)) Q'.
    """
    m = ev.fn.split.grid.m
    q_val, q_rep = _ray_quotient(ev)
    r_val = np.copysign(abs(2.0 * m * q_val) ** (1.0 / m), ev.quadratic)
    return r_val, (r_val / (m * q_val)) * q_rep


def r_lambda(split, psi):
    """R(psi) = (||psi^+||^2 - ||psi^-||^2) / |psi - T(psi)|_{2*}^2."""
    return _rayleigh(_FJet(split, psi).ev)[0]


def r_lambda_rep(split, psi):
    """L^2 representative of the Rayleigh derivative R'(psi), as band coefficients."""
    return split.table.from_eigen(_rayleigh(_FJet(split, psi).ev)[1])


def s_lambda(split, nl, phi_nehari):
    """S(phi) = max over chi in E^- of the T-reduced R(phi + chi), by concave-superlevel ascent.

    The ascent runs on the unreduced R over E^0 + E^-: where q > 0, the
    maximum of R over kernel shifts is 2 q / min_c |psi - sum c_a e_a|_{2*}^2,
    the T-reduced R, so both maxima agree and the returned chi carries its
    kernel part.  Computed independently of J so the identity S^m = 2m J can
    be used as a two-route consistency check.  R is the pure-critical Rayleigh
    quotient, so ``nl`` must be the zero nonlinearity.
    """
    if not nl.is_zero():
        raise ValueError(f"S is defined for the pure critical problem; got nonlinearity {nl.kind!r}")
    fn = Functional(split, nl)
    base = split.table.to_eigen(phi_nehari.coeffs)

    def objective(chi):
        r_val, rep = _rayleigh(fn(base + chi))
        return r_val, rep / split.w2

    z, val, gnorm, evals = _inner_maximize(
        objective, fn.inner, np.zeros(fn.inner.dim), 1e-10, 400
    )
    return float(val), fn.inner.to_field(z), {"grad_norm": gnorm, "inner_evals": evals}


# ---------------------------------------------------------------------------
# Frozen-fiber maximizers near an eigenvalue


_NU_STARTS = 8  # fiber ascents that certify a frozen-fiber maximizer


def nu_lambda_k(fn, fiber):
    """Certify ``fiber``, a maximizer of ``fn`` = L_lam on the split frozen at lambda_k, lam <= lambda_k.

    ``fiber`` (the descent's final fiber, in ``second_solution``) is first
    re-solved warm from its own (t, z) at ``fiber_maximize``'s 1e-9, so all
    ``_NU_STARTS`` values share one stop: the descent's fibers stop looser
    (``sphere_minimize``), and a handed fiber sat 2e-12 below its re-solve
    at K = 8 and 16, lambda = 0.95, lambda_k = 1.  That re-solve is the
    first start; the others are gradient ascents over the fiber of its phi
    from fixed random inner starts.  Returns the best, a new point whose
    uniqueness confidence flag needs all starts to agree to 1e-8 (the
    positive kernel-direction quadratic makes the inner problem only locally
    well-posed for lam < lambda_k).
    """
    if fn.lam > fn.split.lam + fn.split.tol:
        raise SolverFailure(f"nu requires lam <= lambda_k = {fn.split.lam}, got {fn.lam}")
    best = fiber_maximize(fn, fiber.phi, start=(fiber.t, fiber.z))
    values = [best.value]
    rng = np.random.default_rng(0)
    n = fn.inner.flat.size
    for _ in range(_NU_STARTS - 1):
        z = 0.3 * best.t * (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / max(np.sqrt(n), 1.0)
        fib = fiber_maximize(fn, fiber.phi, start=(best.t, z.view(float)))
        values.append(fib.value)
        if fib.value > best.value + 1e-8:
            best = fib
    best.unique_confident = bool(max(values) - min(values) <= 1e-8 * max(1.0, abs(best.value)))
    return best


def default_sigma(split_k):
    """0.5 * max |phi|_2^2 over unit-norm directions on the lowest E^+ shell."""
    sig = split_k.table.eigenvalues[split_k.plus]
    gap = float(sig.min()) - split_k.lam
    return 0.5 / gap
