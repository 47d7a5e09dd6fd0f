"""Branch engine: least-energy and second-solution sweeps with guards.

A branch point is accepted when its energy sits strictly below the
compactness threshold gamma_crit = (1/2m)(m/2)^m omega_m and its strong-form
residual ||D psi - lam psi - f(|psi|)psi - |psi|^(2*-2)psi||_2 is at most
RESIDUAL_TOL = 1e-6.  Energies above the threshold are reported as guard
violations: the minimization certificate is meaningless there.  The stop
policy is fixed: both sphere descents stop at outer gtol 1e-3 with their
fiber ascents at 1e-7, every other fiber ascent stops at ``fiber_maximize``'s
1e-9, and the Newton polish finishes each point (a coarse minimax, then a
local Newton: Li-Zhou, SIAM J. Sci. Comput. 23, 2001).

Each solve builds one ``Functional`` and uses it end to end: the start, the
sphere descent, the Newton polish (``polish_residual``) and the reported
energy and residual all run on it, so no solved point splits the spectrum a
second time.  Both kinds of solve descend with ``_descend``: on the unit
sphere of E^+ from one start, the E^+ part of the caller's warm field when
given, else the minimizer of the ray quotient
(``variational.ray_opt_direction``).  Plane waves are exact critical points
of M on the torus, so a descent started on one never leaves it; no start is
taken from them.  At every lambda the fibers keep E^0 in their inner space:
L_T(psi) = max_c L(psi - sum_a c_a e_a) at an eigenvalue with f = 0.  A sweep
point is solved at its split's lambda, which ``spectral.split`` snaps to an
eigenvalue within its tolerance, and reports that lambda.

The least-energy solve minimizes the reduced functional M of
``Functional(split, nl)``.  Second solutions near an eigenvalue lambda_k
minimize the frozen-fiber functional N, ``Functional(split_k, nl, lam)``,
over the sphere of E^+ at lambda_k with the L^2 mass constraint
|phi|_2^2 >= sigma; they are polished and reported at lam.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import diags
from scipy.sparse.linalg import LinearOperator, minres

from .nonlinearity import check_hypotheses
from .spectral import omega_sphere, split as make_split
from .testspinor import radial_mass_ratio
from .torus import SpinorField, cube_coefficients, l2_norm
from .variational import (
    Functional,
    SolverFailure,
    default_sigma,
    nu_lambda_k,
    ray_opt_direction,
    sphere_minimize,
)


RESIDUAL_TOL = 1e-6  # strong-form residual at or below which a point is accepted
MONOTONE_TOL = 1e-6  # energy rise between successive least points that violates monotonicity


class GuardViolationError(SolverFailure):
    """Converged energy at or above the compactness threshold."""

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


def gamma_crit(m):
    """Compactness threshold (1/2m) (m/2)^m omega_m; pi for m = 2."""
    if m < 2:
        raise ValueError(f"dimension must be >= 2, got {m}")
    return (0.5 / m) * (0.5 * m) ** m * omega_sphere(m)


def nu_window(m, volume):
    """Continuation window nu = (m/2) (omega_m / Vol)^(1/m) on a torus of volume ``volume``."""
    if volume <= 0:
        raise ValueError(f"volume must be positive, got {volume}")
    return 0.5 * m * (omega_sphere(m) / volume) ** (1.0 / m)


def multiplicity_count(table, lam):
    """l(lam): total complex kernel dimension of eigenvalues in (lam, lam + nu), nu = ``nu_window``."""
    nu = nu_window(table.m, table.grid.volume)
    if lam + nu > table.grid.K:
        raise SolverFailure(
            f"window (lam, lam+nu) = ({lam}, {lam + nu}) exceeds cutoff K={table.grid.K}"
        )
    eigs = table.distinct
    mask = (eigs > lam) & (eigs < lam + nu)
    return int(table.multiplicity[mask].sum())


def _l2(grid, r):
    """L^2 norm of the field whose band (or full-cube) coefficients are r."""
    return float(np.sqrt(grid.volume * (np.abs(r) ** 2).sum()))


def _strong_residual(ev):
    """In-band and out-of-band L^2 norms of the strong-form residual at the evaluation ``ev``.

    The in-band part is the norm of ``ev.rep``, the Galerkin gradient: the L^2
    representative of L_lam'(psi) on the cutoff space, which the solvers drive
    to zero.  The spill is the part of g(|psi|) psi outside the band, read off
    the full FFT cube of the evaluation's ``gu`` (``cube_coefficients``);
    fixed by psi, it estimates the truncation error.  It is transformed on
    its own, not taken as the full norm minus the band norm, which cancels
    to the square root of rounding at a band-limited solution.  When the
    evaluation has not made its band projection ``nonlin`` yet, the band
    part of the same cube gives it, so the residual costs one transform of
    ``gu``, not two.
    """
    grid = ev.fn.split.grid
    cube = cube_coefficients(grid, ev.gu)
    if "nonlin" not in vars(ev):  # Evaluation.nonlin is a cached_property
        ev.nonlin = ev.fn.split.table.to_eigen(cube[grid.cube_index])
    cube[grid.cube_index] = 0.0
    return _l2(grid, ev.rep), _l2(grid, cube)


def residual_check(table, nl, psi, lam):
    """L^2 norm of the strong-form residual: its in-band part and out-of-band spill combined.

    Both parts come from one evaluation of L_lam at psi (``_strong_residual``).
    The linear part lives on the cutoff band; the pointwise nonlinearity is
    transformed on the full collocation cube, so out-of-band spill counts
    toward the residual.  For the critical term at m = 2, g(|psi|) psi =
    |psi|^2 psi has band 3K.  Its band part, and so the in-band part (the
    Galerkin gradient), is exact for n_grid > 4K.  Its spill is aliased when
    n_grid < 6K + 1, which includes the default n_grid = 4K + 2: the
    lambda = 0.2 least-energy point at K = 96 has a full residual of
    0.61787859 at n_grid = 386 and 0.61787873 at n_grid = 390.
    """
    ev = Functional(make_split(table, lam), nl).at_field(psi)
    return float(np.hypot(*_strong_residual(ev)))


@dataclass(frozen=True)
class Polish:
    """Outcome of ``polish_residual``."""

    psi: SpinorField
    energy: float  # L_lam at psi, from the last evaluation
    pre: tuple  # (in-band, spill) of the residual at the start, from the first evaluation
    in_band: float  # the two parts of the final residual, from the last evaluation
    spill: float
    steps: int  # Newton steps kept
    hvps: int  # Hessian-vector products of the MINRES solves
    converged: bool  # in_band within 10 times the rounding level the polish aims at

    @property
    def residual(self):
        """The full ``residual_check`` value at ``psi``."""
        return float(np.hypot(self.in_band, self.spill))


def _rounding_level(ev):
    """1e-12 max(1, ||(D - lam) psi||): the in-band residual norm at which the polish stops."""
    return 1e-12 * max(1.0, _l2(ev.fn.split.grid, ev.lin))


def _newton_rtol(resid, prev, target):
    """MINRES's relative tolerance for the Newton step from the in-band residual ``resid``.

    ``prev`` is the (residual, rtol) of the last kept step, None before the
    first.  An exact Newton step would leave C resid^2, with C ~ resid /
    residual_prev^2 (an overestimate when the last step's linear error
    dominated).  While that is above ``target`` the step solves to 1e-4.
    Once it is below, the step can be the last one, and it aims at 0.025
    target: a fortieth of the target below it, by design instead of by luck.
    scipy's MINRES stops on its own test, ||r|| / (||A|| ||x||) with r in
    the preconditioned norm, which leaves the L^2 residual above rtol times
    resid (3 to 240 times in the steps measured at K = 16); the last step's
    landing, resid / (rtol_prev residual_prev), measures that slack
    (quadratic error included, so it overestimates it), and the aim is
    divided by it.  The solve is never asked for less than 1e-6.
    """
    if prev is None or resid**3 > target * prev[0] ** 2:
        return 1e-4
    slack = max(1.0, resid / (prev[1] * prev[0]))
    return max(0.025 * target / (resid * slack), 1e-6)


def polish_residual(fn, psi, ev=None):
    """Newton polish of a near-solution on the Galerkin problem of the functional ``fn``.

    ``fn`` is the functional the solver ran on, so no solve splits the
    spectrum a second time; ``ev`` is its evaluation at ``psi`` when the
    caller holds one (a fiber's ``evaluation``), else the polish makes it.
    Newton runs on the in-band residual, the ``rep`` of L_lam' on the cutoff
    space, whose zeros are the Galerkin critical points the solvers find.
    Each step solves L''(psi) d = -L'(psi) with MINRES on the Hessian-vector
    product ``Evaluation.hvp``, preconditioned by 1/w2 in the eigenbasis:
    ``split.w2`` = |sigma - lambda|, one on the kernel block, is the lambda
    metric the fibers and the sphere descent run in.  For a second solution
    it is that of the split frozen at lambda_k.  ``hvps`` counts the
    products.  MINRES solves to relative tolerance 1e-4 until the step that
    can be the last, which ``_newton_rtol`` solves just tight enough to land
    below the stop (Eisenstat-Walker, SIAM J. Sci. Comput. 17, 1996), so the
    number of steps does not hang on where rounding puts the last one.
    A step is kept when it lowers the in-band norm, and the polish goes on
    while each step at least halves it, until that norm is at rounding level
    1e-12 max(1, ||(D - lam) psi||) (at most 20 steps).  The out-of-band
    spill is left alone, so the polish does not trade the Galerkin critical
    point for a smaller full residual.  The energy and both residual parts,
    before and after, are read off the first and last evaluations
    (``_strong_residual``); a polish that keeps no step transforms the spill
    once.  ``residual`` is the full ``residual_check`` value at ``psi``.  The
    polish is ``converged`` when it ends within 10 times that rounding level;
    the sphere descent stops coarse, so an unfinished polish leaves the
    reported energy unfinished too.
    """
    table = fn.split.table
    shape, size = psi.coeffs.shape, 2 * psi.coeffs.size
    precond = diags(np.repeat(1.0 / fn.split.w2.ravel(), 2))  # on the real view: re and im of each eigen entry
    ev = fn.at_field(psi) if ev is None else ev
    hvps = 0

    def hvp(x):  # the Hessian at the current iterate ``ev``
        nonlocal hvps
        hvps += 1
        return ev.hvp(x.view(complex).reshape(shape)).view(float).ravel()

    hess = LinearOperator((size, size), matvec=hvp, dtype=float)
    pre = _strong_residual(ev)
    resid, prev, steps = pre[0], None, 0
    while steps < 20 and resid > _rounding_level(ev):
        rtol = _newton_rtol(resid, prev, _rounding_level(ev))
        d = minres(hess, -ev.rep.view(float).ravel(), M=precond, rtol=rtol)[0]
        if not np.isfinite(d).all():
            break
        trial = SpinorField(psi.grid, psi.coeffs + table.from_eigen(d.view(complex).reshape(shape)))
        trial_ev = fn.at_field(trial)
        trial_resid = _l2(psi.grid, trial_ev.rep)
        if not trial_resid < resid:
            break
        halved = trial_resid <= 0.5 * resid
        psi, ev, resid, prev, steps = trial, trial_ev, trial_resid, (resid, rtol), steps + 1
        if not halved:
            break
    return Polish(psi, ev.energy, pre, *(_strong_residual(ev) if steps else pre), steps, hvps,
                  bool(resid <= 10.0 * _rounding_level(ev)))


def _solved_point(fn, fiber, value, level, k=None, flags=(), **diagnostics):
    """Polish the fiber maximizer ``fiber`` solved on the functional ``fn`` and report it; raises GuardViolationError at or above gamma_crit.

    The polish starts from the fiber's own evaluation when it carries one.
    ``value`` is the solver's energy at ``fiber.psi``, the coarse descent's
    value, kept as ``value_pre_polish`` and replaced by the polish's energy
    only when the polish moves psi.  Any of the solver's own ``flags``
    rejects the point, and so does ``polish-not-converged``, a polish that
    did not finish.
    """
    m = fn.split.grid.m
    polish = polish_residual(fn, fiber.psi, fiber.evaluation)
    flags = list(flags) + ([] if polish.converged else ["polish-not-converged"])
    energy = polish.energy if polish.steps else value
    resid, resid_pre = polish.residual, np.hypot(*polish.pre)
    below = bool(energy < gamma_crit(m))
    point = BranchPoint(
        lam=fn.lam,
        level=level,
        k=k,
        energy=float(energy),
        residual_l2=float(resid),
        below_gamma_crit=below,
        accepted=bool(below and resid <= RESIDUAL_TOL and not flags),
        psi=SpinorField(polish.psi.grid, polish.psi.coeffs),  # no collocation cache: 1/5 the memory
        diagnostics=dict(diagnostics, value_pre_polish=float(value), residual_pre_polish=float(resid_pre),
                         polish_steps=polish.steps, polish_hvps=polish.hvps,
                         residual_in_band=polish.in_band, residual_spill=polish.spill),
        flags=flags + ([] if resid <= RESIDUAL_TOL else ["resolution-limited-residual"]),
    )
    if not below:
        raise GuardViolationError(
            f"{level} energy {energy:.6f} >= gamma_crit {gamma_crit(m):.6f}", point=point
        )
    return point


@dataclass
class BranchPoint:
    """One solved point on an energy branch."""

    lam: float
    level: str  # "least" | "second"
    k: int | None
    energy: float
    residual_l2: float
    below_gamma_crit: bool
    accepted: bool
    psi: SpinorField | None
    diagnostics: dict = field(default_factory=dict)
    flags: list = field(default_factory=list)


@dataclass
class SweepTable:
    """Ordered branch points with spectral-interval annotations."""

    points: list
    eigenvalues: np.ndarray

    def interval_index(self, lam):
        """Index k of the interval [lambda_k, lambda_{k+1}) containing lam."""
        pos = self.eigenvalues[self.eigenvalues > 0]
        return int(np.searchsorted(pos, lam, side="right"))

    def monotone_violations(self):
        """Successive least-energy points in one spectral interval whose energy rises by more than MONOTONE_TOL."""
        bad = []
        least = [p for p in self.points if p.level == "least" and p.energy is not None]
        least.sort(key=lambda p: p.lam)
        for a, b in zip(least, least[1:]):
            if self.interval_index(a.lam) == self.interval_index(b.lam):
                if b.energy > a.energy + MONOTONE_TOL:
                    bad.append((a.lam, b.lam, a.energy, b.energy))
        return bad


def _lambda_nonpositive_gate(nl):
    report = check_hypotheses(nl)
    if not report["f5"]:
        raise SolverFailure(
            "lambda <= 0 requires the concentration-divergence hypothesis (f5); "
            f"verdicts: { {k: report[k] for k in ('f1','f2','f3','f4','f5')} }"
        )
    # Feasibility probe: the subcritical-mass to L^2-mass ratio of the
    # concentration family must grow along the sweep.
    ratios = [radial_mass_ratio(nl, np.pi / 4.0, eps) for eps in (0.1, 0.05, 0.02)]
    if not all(b > a for a, b in zip(ratios, ratios[1:])):
        raise SolverFailure(
            f"concentration mass-ratio probe is not increasing: {ratios}"
        )
    report["mass_ratio_probe"] = ratios
    return report


def _descend(fn, init, maxiter):
    """Sphere descent of ``fn`` from the field ``init``, else from the ray-quotient direction of its split.

    It stops at outer gtol 1e-3, its fibers at 1e-7, and the Newton polish
    of ``_solved_point`` finishes it.  Returns sphere_minimize's (value,
    fiber point, info), the flag ``descent-not-converged`` when it stopped
    before gtol, and the start's diagnostics: ``ray_opt``, the ray-quotient
    run's ``{evals, iterations, message}``, for a ray-opt start.
    """
    start = {}
    if init is None:
        init, start["ray_opt"] = ray_opt_direction(fn.split)
    value, fiber, info = sphere_minimize(fn, init, gtol=1e-3, maxiter=maxiter)
    return value, fiber, info, [] if info["converged"] else ["descent-not-converged"], start


def minimize_M(split, nl, init=None, maxiter=120):
    """Least-energy solve at the split's lambda, descending from the field ``init`` or the ray-quotient direction.

    The descent stops at gtol 1e-3, its fibers at 1e-7, and the Newton
    polish finishes it.  Returns the polished BranchPoint: accepted, or
    flagged ``descent-not-converged`` when the descent stopped before its
    tolerance (at ``maxiter``), ``polish-not-converged`` when the polish did
    not finish, or ``resolution-limited-residual`` when its residual stays
    above RESIDUAL_TOL.  Raises GuardViolationError when the converged energy
    reaches gamma_crit.
    """
    if split.lam <= 0:
        _lambda_nonpositive_gate(nl)
    fn = Functional(split, nl)
    value, fiber, info, flags, start = _descend(fn, init, maxiter)
    return _solved_point(fn, fiber, value, "least", flags=flags,
                         init="ray-opt" if init is None else "warm", outer=info, **start,
                         fiber_grad_norm=fiber.grad_norm, t=fiber.t, kernel_dim=split.kernel_dim)


def second_solution(split_k, nl, lam, k, init=None):
    """Second-solution solve: minimize the frozen-fiber value N over E^+ at lambda_k.

    The descent starts from the field ``init`` when given, else from the
    ray-quotient direction at lambda_k, and stops as in ``minimize_M`` or
    after 80 iterations.  lam must sit in the guard window just below
    lambda_k.  The returned point carries a uniqueness-confidence flag from
    the 8-start certification (``nu_lambda_k``, whose first start is the
    descent's final fiber), a flag when the final direction's L^2 mass is
    below ``default_sigma`` and the descent and polish flags of
    ``minimize_M``.  The point is polished and reported at lam, on the
    frozen functional it was solved on.
    """
    fn = Functional(split_k, nl, lam)
    if not (fn.lam <= split_k.lam + split_k.tol):
        raise SolverFailure(f"second solution needs lam <= lambda_k = {split_k.lam}, got {fn.lam}")
    sigma = default_sigma(split_k)
    _, fiber, info, flags, start = _descend(fn, init, 80)
    mass = l2_norm(fiber.phi) ** 2
    if mass < sigma:
        flags.append("sigma-constraint-violated")
    confirmed = nu_lambda_k(fn, fiber)
    if not confirmed.unique_confident:
        flags.append("non-unique-fiber-maximizer")
    return _solved_point(fn, confirmed, confirmed.value, "second", k=int(k), flags=flags, outer=info, **start,
                         phi_mass=float(mass), sigma=float(sigma), lambda_k=float(split_k.lam))


def _as_point(solve, lam, level, k=None):
    """The point ``solve()`` returns, with solver failures recorded as flagged points.

    A GuardViolationError gives its own point, flagged ``guard-violation``;
    any other SolverFailure gives a point with no energy or field, flagged
    ``solver-failure: <message>``.
    """
    try:
        return solve()
    except GuardViolationError as exc:
        exc.point.flags.append("guard-violation")
        return exc.point
    except SolverFailure as exc:
        return BranchPoint(
            lam=lam,
            level=level,
            k=k,
            energy=None,
            residual_l2=None,
            below_gamma_crit=False,
            accepted=False,
            psi=None,
            flags=[f"solver-failure: {exc}"],
        )


def _solve_sweep_point(table, nl, lam, maxiter, warm_field=None):
    """One least-branch solve at the split's lambda, the eigenvalue ``split`` snaps a nearby lam to."""
    sp = make_split(table, lam)
    return _as_point(lambda: minimize_M(sp, nl, init=warm_field, maxiter=maxiter), sp.lam, "least")


def branch_sweep(table, nl, lam_grid, second_near=None, second_offsets=(0.05, 0.02, 0.01), maxiter=60):
    """Solve the least branch over a lambda grid plus optional second branches.

    Two deterministic phases: (1) every grid point solved independently from
    the ray-quotient direction; (2) serial ascending monotone repair inside
    each spectral interval, re-solving a violating point from its left
    neighbor's minimizer, which enforces the non-increasing property of the
    recorded energies up to solver tolerance.  Second-branch points are
    solved from the largest offset down, each warm-started from the last one
    that has a field.  Per-point failures are recorded as flagged points and
    the sweep continues.  The CLI's ``solve`` is a one-point sweep.
    """
    lam_grid = sorted({float(x) for x in lam_grid})
    points = [_solve_sweep_point(table, nl, lam, maxiter) for lam in lam_grid]

    # Phase 2: ascending monotone repair within spectral intervals.
    sweep = SweepTable(points=list(points), eigenvalues=table.distinct.copy())
    for i in range(1, len(points)):
        prev, cur = points[i - 1], points[i]
        if prev.psi is None or cur.energy is None:
            continue
        if sweep.interval_index(prev.lam) != sweep.interval_index(cur.lam):
            continue
        if cur.energy <= prev.energy + 1e-12:
            continue
        repaired = _solve_sweep_point(table, nl, cur.lam, maxiter, warm_field=prev.psi)
        if repaired.energy is not None and repaired.energy < cur.energy:
            repaired.flags.append("monotone-repair")
            points[i] = repaired

    if second_near is not None:
        k = int(second_near)
        pos = table.distinct[table.distinct > 0]
        if k < 1 or k > pos.size:
            raise SolverFailure(f"no eigenvalue index k={k} inside the cutoff")
        lam_k = float(pos[k - 1])
        sp_k = make_split(table, lam_k)
        warm = None
        for off in sorted(second_offsets, reverse=True):
            lam2 = lam_k - off
            pt = _as_point(lambda: second_solution(sp_k, nl, lam2, k, init=warm), lam2, "second", k)
            if pt.psi is not None:
                warm = pt.psi
            points.append(pt)

    points.sort(key=lambda p: (p.lam, p.level))
    return SweepTable(points=points, eigenvalues=table.distinct.copy())
