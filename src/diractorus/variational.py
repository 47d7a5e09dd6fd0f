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
Euler-Lagrange equation is read off an evaluation too: its in-band part is
``rep``, and its out-of-band spill is that of ``gu``, the g(|u|) u whose band
part is ``nonlin``.

Solvers use lambda-orthonormal coordinates on masked eigen entries
(``SubspaceCoords``): the real and imaginary part of each entry, scaled to
the lambda metric.  They are real vectors, the ones scipy optimizes, and
their Euclidean geometry is the ||.||_lambda geometry; every L-BFGS run
lives here.  The fiber maximum over {t phi + chi}
is one L-BFGS ascent over (t, chi) jointly: by the generalized Nehari
reduction its only critical point with t > 0 is the global maximum, and
evenness of L maps a run that crosses t = 0 back from the mirror maximizer.
An ascent starts from the (t, z) pair its caller passes, a nearby fiber's
scale and inner coordinates, which every ``FiberPoint`` carries together
with the ascent's last evaluation when it was at the maximizer; a cold one
starts on the ray t phi where its critical part t^2 q(phi) -
(t^{2*}/2*) |phi|_{2*}^{2*} peaks, in closed form from one evaluation at phi
(the ray maximum ``_ray_quotient`` measures).  The Nehari projection of an E^+
direction is the scale of its fiber maximum.  The sphere descent over E^+
(``sphere_minimize``) starts from a caller's field or from the minimizer of
the ray quotient (``ray_opt_direction``), a fiber-free lower bound of M.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
from scipy.optimize import minimize as _scipy_minimize

from .nonlinearity import critical_exponent, make_nonlinearity
from .spectral import norm_lambda, project
from .torus import SpinorField, analyze, pointwise_real_inner, synthesize, zero_field


class SolverFailure(RuntimeError):
    """Inner or outer solver failed to converge; diagnostics attached."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


# ---------------------------------------------------------------------------
# The energy functional

_FLOOR = 1e-28  # floor of the squared modulus in the second variation's weights (1e-14 on |u|)


class Evaluation:
    """The functional at one point, everything in eigen coordinates.

    ``quadratic`` is 1/2 <(D - lam) psi, psi>_2 and ``mass`` is
    K(u) = int F(|u|) + (1/2*)|u|_{2*}^{2*}.  Their L^2 representatives are
    ``lin`` = (D - lam) psi and ``nonlin`` = the band projection of g(|u|) u.
    ``nonlin`` holds the one analyze and is computed on first use, so a
    value-only caller never pays for it.  ``u`` holds the collocation values
    of u, ``rho`` the pointwise squared modulus |u|^2 that every weight is
    read from (``Nonlinearity.G_of_rho`` and its kin), and ``gu`` the values
    of g(|u|) u, whose out-of-band part is the residual's spill.  ``second``
    and ``hvp`` give the second variation of the mass at u.  Solver
    evaluations have u = psi; ``_FJet``'s has u = psi - T(psi), and its
    ``hvp`` leaves T' out.
    """

    def __init__(self, fn, quadratic, mass, lin, u, rho):
        self.fn = fn
        self.quadratic = quadratic
        self.mass = mass
        self.lin = lin
        self.u = u
        self.rho = rho

    @property
    def energy(self):
        return self.quadratic - self.mass

    @cached_property
    def gu(self):
        return self.fn.nl.g_of_rho(self.rho)[..., None] * self.u

    @cached_property
    def nonlin(self):
        split = self.fn.split
        return split.table.to_eigen(analyze(split.grid, self.gu))

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
        return nl.g_of_rho(rho)[..., None], nl.radial_of_rho(rho)[..., None]

    def second(self, dv):
        """K''(u)[dv] = g(|u|) dv + (g'(|u|)/|u|) Re<u, dv> u on collocation values shaped like u.

        ``dv`` may stack several directions on leading axes.  Re<u, dv> is
        ``pointwise_real_inner``, one einsum over real views of u and dv.
        """
        g, radial = self._second_weights
        beta = pointwise_real_inner(self.u, dv)[..., None]
        return g * dv + radial * beta * self.u

    def hvp(self, d):
        """L^2 representative of L''(psi)[d] in eigen coordinates: one synthesize, one analyze."""
        fn = self.fn
        table, grid = fn.split.table, fn.split.grid
        return fn.shift * d - table.to_eigen(analyze(grid, self.second(synthesize(grid, table.from_eigen(d)))))


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
        """Evaluation at eigen coordinates ``a`` of shape (n_modes, N)."""
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


def t_prime(split, psi, chi):
    """Derivative T'(psi)[chi], solving the linearized optimality system."""
    if not split.kernel_dim:
        return zero_field(psi.grid, psi.N)
    jet = _FJet(split, psi)
    return jet.kernel.to_field(jet.t_prime_coords(chi.values()))


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
    (n_modes, N) eigen array.  The coordinates of an entry are its real and
    imaginary part times ``scale``, so ``dim`` is twice the number of entries,
    and going to and from eigen coordinates is one 1-d scatter or gather on a
    complex view of the real vector.
    """

    def __init__(self, split, mask):
        self.table = split.table
        self.grid = split.grid
        self.flat = np.flatnonzero(mask)
        self.scale = np.sqrt(split.grid.volume * split.w2.ravel()[self.flat])
        self.dim = 2 * int(self.flat.size)

    def to_eigen(self, x, base=None):
        """Eigen coordinates of the real coordinates ``x``, added in place onto the eigen array ``base`` when given."""
        a = np.zeros((self.grid.n_modes, self.table.N), dtype=complex) if base is None else base
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

    def from_field(self, psi):
        return self.from_eigen(self.table.to_eigen(psi.coeffs))


# ---------------------------------------------------------------------------
# Ascent in lambda-orthonormal coordinates (fiber, J and S maximizations)


def _inner_maximize(objective, coords, z0, gtol, maxiter):
    """Maximize an objective over the coordinates ``coords`` with L-BFGS.

    ``objective(a)`` takes eigen coordinates and returns (value, lambda-metric
    gradient in eigen coordinates).  Returns (z, value, gradient norm,
    evaluations).
    """
    evals = [0]

    def fun(x):
        val, grad = objective(coords.to_eigen(x))
        evals[0] += 1
        return -val, -coords.from_eigen(grad)

    if coords.dim == 0:
        val, _ = objective(coords.to_eigen(np.zeros(0)))
        return np.zeros(0), val, 0.0, 0
    res = _scipy_minimize(
        fun,
        z0,
        jac=True,
        method="L-BFGS-B",
        options={"gtol": gtol, "ftol": 1e-18, "maxiter": maxiter, "maxcor": 20},
    )
    gnorm = float(np.linalg.norm(res.jac))
    return res.x, float(-res.fun), gnorm, evals[0]


@dataclass
class FiberPoint:
    """Constrained maximizer over a fiber {t phi + chi}.

    ``evaluation`` is the ascent's last evaluation when it was at psi, so a
    caller reads the value and gradient there without evaluating again; it
    is None when the ascent ended elsewhere or on the t < 0 mirror
    (``fiber_maximize``).
    """

    phi: SpinorField
    t: float
    z: np.ndarray  # coordinates of chi in ``fn.inner``
    psi: SpinorField
    value: float
    grad_norm: float
    inner_evals: int
    converged: bool
    unique_confident: bool = True
    evaluation: Evaluation | None = field(default=None, repr=False, compare=False)

    def evaluated(self, fn):
        """The evaluation of ``fn`` at psi: the ascent's last one when it was there, else a fresh one."""
        return fn.at_field(self.psi) if self.evaluation is None else self.evaluation


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


def fiber_maximize(fn, phi, gtol=1e-9, maxiter=500, start=None):
    """Global maximizer of ``fn`` over the fiber {t phi + chi : t > 0, chi in fn.inner}.

    One L-BFGS ascent over (t, chi) jointly.  Under the generalized Nehari
    reduction every critical point with t > 0 on the fiber is its unique
    global maximum, so the start only has to lie in its basin: the pair
    ``start`` = (t, z) of a scale and inner coordinates (a nearby fiber's
    ``t`` and ``z``) when given, otherwise (t0, 0), with t0^(2*-2) = alpha/beta,
    alpha = <(D-lam)phi, phi> and beta = |phi|_{2*}^{2*}, read off one
    evaluation at phi.  t0 maximizes the critical part of L on the ray t phi:
    exactly L's ray maximum at f = 0, at or above it for f >= 0.  A direction
    with alpha <= 0 has no positive ray maximum and raises ``SolverFailure``.
    The returned point carries the ascent's last ``Evaluation`` when L-BFGS
    made it at the returned (t, z), and none after the t < 0 mirror, where
    its gradient has the other sign.
    """
    nrm = norm_lambda(fn.split, phi)
    if nrm <= 0:
        raise SolverFailure("fiber direction is zero")
    phi = (1.0 / nrm) * phi
    coords = _FiberCoords(fn, fn.split.table.to_eigen(phi.coeffs))
    if start is None:
        ev = fn(coords.phi_e)
        alpha = 2.0 * ev.quadratic
        if alpha <= 0:
            raise SolverFailure("fiber direction has no positive ray maximum", {"alpha": alpha})
        ts = critical_exponent(fn.split.grid.m)
        beta = fn.split.grid.cell * float((ev.rho ** (0.5 * ts)).sum())
        t0, z0 = (alpha / beta) ** (1.0 / (ts - 2.0)), np.zeros(fn.inner.dim)
    else:
        t0, z0 = start
    last = {"a": None, "ev": None}

    def objective(a):
        last["a"], last["ev"] = a, fn(a)
        return last["ev"].energy, last["ev"].grad

    x, value, grad_norm, evals = _inner_maximize(objective, coords, np.concatenate([[t0], z0]), gtol, maxiter)
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
        psi=SpinorField(fn.split.grid, fn.split.table.from_eigen(a)),
        value=value,
        grad_norm=grad_norm,
        inner_evals=evals,
        converged=bool(grad_norm < 1e-6 * max(1.0, abs(value))),
        evaluation=ev,
    )


def _sphere_grad(fn, coords, fiber, zhat):
    """t times the sphere-tangent part at zhat of the E^+ gradient at the fiber maximizer."""
    gz = coords.from_eigen(fiber.evaluated(fn).grad)
    return fiber.t * (gz - (zhat @ gz) * zhat)


def m_lambda(split, nl, phi):
    """Reduced functional M(phi) = L(mu(phi)) and its sphere-tangent gradient.

    The gradient is ||mu(phi)^+||_lam times the E^+ restriction of grad L at
    the fiber maximizer, projected onto the tangent space at phi.
    """
    fn = Functional(split, nl)
    fiber = fiber_maximize(fn, phi)
    coords = SubspaceCoords(split, split.plus)
    grad = coords.to_field(_sphere_grad(fn, coords, fiber, coords.from_field(fiber.phi)))
    return fiber.value, grad, fiber


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
    start whose polish stalled.  Returns the lambda-unit field and
    ``{evals, iterations, message}`` read off the L-BFGS result.
    """
    fn = Functional(split, make_nonlinearity("zero", split.grid.m))
    coords = SubspaceCoords(split, split.plus)
    rng = np.random.default_rng(1)
    z0 = rng.standard_normal(coords.flat.size) + 1j * rng.standard_normal(coords.flat.size)
    z0 = z0 / (1.0 + split.w2.ravel()[coords.flat] ** 2)

    def fun(x):  # log Q: its gradient Q'/Q is relative, so one gtol fits every lambda and cutoff
        val, rep = _ray_quotient(fn(coords.to_eigen(x)))
        return np.log(val), coords.from_eigen(rep / (val * split.w2))

    res = _scipy_minimize(
        fun,
        z0.view(float),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": 600, "gtol": 1e-8, "ftol": 1e-16},
    )
    nrm = float(np.linalg.norm(res.x))
    if nrm <= 0:
        raise SolverFailure("ray optimization collapsed to zero")
    info = {"evals": int(res.nfev), "iterations": int(res.nit), "message": str(res.message)}
    return coords.to_field(res.x / nrm), info


def sphere_minimize(fn, phi0, gtol, maxiter=120):
    """Minimize the fiber maximum of ``fn`` over the unit sphere of E^+, to the outer tolerance ``gtol``.

    The descent starts from the normalized E^+ part of the field ``phi0``.
    Quasi-Newton descent on the scale-invariant extension phi -> M(phi/||phi||)
    in lambda-orthonormal E^+ coordinates; its fiber solves run at gtol 1e-7,
    not ``fiber_maximize``'s 1e-9, each from the previous fiber's maximizer
    (t, z), since the branch solves stop it at gtol 1e-3 and finish it with
    the Newton polish.  The gradient at each fiber maximizer is read off the
    fiber ascent's last evaluation there (``FiberPoint.evaluated``).  Returns
    (value, fiber_point, info); the fiber is that of L-BFGS's last call when
    it was at the optimizer, else a re-solve there.  ``info`` holds
    ``fiber_grad_max``, the largest final gradient norm of its fiber solves,
    and ``fiber_evals``, the sum of their inner evaluations.  A descent never
    ends above its start: when it took a step and still ended higher than its
    first evaluation at phi0, that evaluation is returned and ``info`` records
    ``fell_back``.
    """
    split = fn.split
    coords = SubspaceCoords(split, split.plus)
    phi0 = project(split, phi0, "plus")
    nrm0 = norm_lambda(split, phi0)
    if nrm0 <= 0:
        raise SolverFailure("initial direction has no E^+ component")
    z0 = coords.from_field((1.0 / nrm0) * phi0)
    last = {"fiber": None, "fiber_grad_max": 0.0, "fiber_evals": 0}

    def fun(x):
        nrm = float(np.linalg.norm(x))
        zhat = x / nrm
        prev = last["fiber"]
        start = None if prev is None else (prev.t, prev.z)
        fiber = fiber_maximize(fn, coords.to_field(zhat), gtol=1e-7, start=start)
        gz = _sphere_grad(fn, coords, fiber, zhat) / nrm
        last["x"], last["fiber"] = x.copy(), fiber
        last.setdefault("first", fiber)
        last["fiber_grad_max"] = max(last["fiber_grad_max"], fiber.grad_norm)
        last["fiber_evals"] += fiber.inner_evals
        last["gnorm"] = float(np.linalg.norm(gz))
        return fiber.value, gz

    res = _scipy_minimize(
        fun,
        z0,
        jac=True,
        method="L-BFGS-B",
        options={"gtol": gtol, "ftol": 1e-16, "maxiter": maxiter, "maxcor": 25},
    )
    if not np.array_equal(last["x"], res.x):
        fun(res.x)  # re-evaluate at the optimizer so the reported fiber matches res.x
    value = last["fiber"].value
    info = {
        "outer_iterations": int(res.nit),
        "outer_evals": int(res.nfev),
        "tangent_grad_norm": last["gnorm"],
        "fiber_grad_max": last["fiber_grad_max"],
        "fiber_evals": last["fiber_evals"],
        "converged": bool(last["gnorm"] <= 10.0 * gtol or res.success),
    }
    if res.nit > 0 and value > last["first"].value:
        info["fell_back"] = True
        last["fiber"] = last["first"]
    return float(last["fiber"].value), last["fiber"], info


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
    fib = fiber_maximize(Functional(split, nl), project(split, phi, "plus"), gtol=1e-10)
    return fib.t * fib.phi


def nehari_second_order(split, nl, phi_bar):
    """t^2 j''(t) at the Nehari root (equals H'(phi)[phi] there), by central FD."""
    t_bar = norm_lambda(split, phi_bar)
    direction = (1.0 / t_bar) * phi_bar
    fn = Functional(split, nl)
    h = 1e-4 * t_bar
    sp, z, _ = h_lambda(fn, (t_bar + h) * direction)
    sm, z, _ = h_lambda(fn, (t_bar - h) * direction, z0=z)
    return t_bar**2 * (sp - sm) / (2.0 * h)


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


def nu_lambda_k(fn, fiber, n_starts=8):
    """Certify ``fiber``, a maximizer of ``fn`` = L_lam on the split frozen at lambda_k, lam <= lambda_k.

    ``fiber`` (the descent's final fiber, in ``second_solution``) is the first
    of ``n_starts`` starts; the others are gradient ascents over the fiber of
    its phi from fixed random inner starts.  Returns the best, whose
    uniqueness confidence flag needs all starts to agree to 1e-8 (the
    positive kernel-direction quadratic makes the inner problem only locally
    well-posed for lam < lambda_k).
    """
    if fn.lam > fn.split.lam + fn.split.tol:
        raise SolverFailure(f"nu requires lam <= lambda_k = {fn.split.lam}, got {fn.lam}")
    best, values = fiber, [fiber.value]
    rng = np.random.default_rng(0)
    n = fn.inner.flat.size
    for _ in range(max(0, n_starts - 1)):
        z = 0.3 * best.t * (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / max(np.sqrt(n), 1.0)
        fib = fiber_maximize(fn, fiber.phi, start=(best.t, z.view(float)))
        values.append(fib.value)
        if fib.value > best.value + 1e-8:
            best = fib
    spread = max(values) - min(values)
    return replace(best, unique_confident=bool(spread <= 1e-8 * max(1.0, abs(best.value))))


def default_sigma(split_k):
    """0.5 * max |phi|_2^2 over unit-norm directions on the lowest E^+ shell."""
    sig = split_k.table.eigenvalues[split_k.plus]
    gap = float(sig.min()) - split_k.lam
    return 0.5 / gap
