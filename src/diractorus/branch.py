"""Branch engine: least-energy and second-solution sweeps with guards.

A branch point is accepted when its energy sits strictly below the
compactness threshold gamma_crit = (1/2m)(m/2)^m omega_m and its strong-form
residual ||D psi - lam psi - f(|psi|)psi - |psi|^(2*-2)psi||_2 is at most
RESIDUAL_TOL = 1e-6.  Energies above the threshold are reported as guard
violations: the minimization certificate is meaningless there.  The stop
policy is fixed: both sphere descents stop at outer gtol 1e-3, each of
their fiber ascents at max(1e-7, 1e-2 max(1e-3, |g|_inf)) with |g|_inf the
smallest sphere gradient the descent has seen (``sphere_minimize``), every
other fiber ascent stops at ``fiber_maximize``'s 1e-9, and the Newton polish
finishes each point (a coarse minimax, then a local Newton: Li-Zhou, SIAM J.
Sci. Comput. 23, 2001).

Each solve builds one ``Functional`` and uses it end to end: the start, the
sphere descent, the Newton polish (``polish_residual``) and the reported
energy and residual all run on it, so no solved point splits the spectrum a
second time.  Inside a solve every point is eigen coordinates, (N, n_modes)
arrays, from the start to the polish, which steps with ``fn(a + d)``; a
solve builds one ``SpinorField``, the reported ``BranchPoint.psi``, and
converts a warm field once on entry.  One report,
``_solved_point(fn, a, ev, level)``, polishes a point and reads every
number off the polish's first and last evaluations (``Evaluation.residual``
for the residual), so it reports any point near a solution, with or without
the evaluation there: a field from elsewhere, a prolonged one say, is
handed over as ``table.to_eigen(field.coeffs)``.  Both kinds of solve
descend with ``_descend``: on the unit sphere of E^+ from one start, the
E^+ part of the caller's warm field when given, else the minimizer of the
ray quotient (``variational.ray_opt_direction``).  Plane waves are exact critical points
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

from .iterative import gmres
from .nonlinearity import check_hypotheses
from .spectral import SpectralError, omega_sphere, split as make_split
from .testspinor import radial_mass_ratio
from .torus import SpinorField
from .variational import (
    Evaluation,
    Functional,
    SolverFailure,
    _l2,
    _unit_plus,
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
    if not (np.isfinite(volume) and volume > 0):
        raise ValueError(f"volume must be positive and finite, got {volume}")
    return 0.5 * m * (omega_sphere(m) / volume) ** (1.0 / m)


def multiplicity_count(table, lam):
    """l(lam): total complex kernel dimension of eigenvalues in (lam, lam + nu), nu = ``nu_window``.

    A window that passes the cutoff K, or a lambda that is not finite,
    raises ``SpectralError``.
    """
    if not np.isfinite(lam):
        raise SpectralError(f"lambda must be finite, got {lam}")
    nu = nu_window(table.m, table.grid.volume)
    if lam + nu > table.grid.K:
        raise SpectralError(
            f"window (lam, lam+nu) = ({lam}, {lam + nu}) exceeds cutoff K={table.grid.K}"
        )
    eigs = table.distinct
    mask = (eigs > lam) & (eigs < lam + nu)
    return int(table.multiplicity[mask].sum())


def residual_check(table, nl, psi, lam):
    """L^2 norm of the strong-form residual: its in-band part and out-of-band spill combined.

    Both parts come from one evaluation of L_lam at psi (``Evaluation.residual``).
    The linear part lives on the cutoff band; the pointwise nonlinearity is
    transformed on the full collocation cube, so out-of-band spill counts
    toward the residual.  For the critical term at m = 2, g(|psi|) psi =
    |psi|^2 psi has band 3K.  Its band part, and so the in-band part (the
    Galerkin gradient), is exact for n_grid > 4K.  Its spill is aliased when
    n_grid < 6K + 1, which includes the default grid (``make_grid``): the
    lambda = 0.2 least-energy point at K = 96 has a full residual of
    0.61787859 at n_grid = 386 and 0.61787873 at the default 390.
    """
    return float(np.hypot(*Functional(make_split(table, lam), nl).at_field(psi).residual))


@dataclass(frozen=True)
class Polish:
    """Outcome of ``polish_residual``; ``psi`` is the polished point's eigen coordinates, (N, n_modes)."""

    psi: np.ndarray
    first: Evaluation  # at the start: the energy and residual before the polish
    last: Evaluation  # at psi: the energy and residual after it
    steps: int  # Newton steps kept
    hvps: int  # Hessian-vector products of the Newton solves
    converged: bool  # the final in-band residual within 10 times the rounding level the polish aims at
    solves: list  # per Newton solve, kept step or not: its iterations, stop code, rtol, relative residual and deflation

    @property
    def residual(self):
        """The full ``residual_check`` value at ``psi``."""
        return float(np.hypot(*self.last.residual))


def _rounding_level(ev):
    """1e-12 max(1, ||(D - lam) psi||): the in-band residual norm at which the polish stops."""
    return 1e-12 * max(1.0, _l2(ev.fn.split.grid, ev.lin))


def _newton_rtol(resid, prev, target):
    """GMRES's relative tolerance for the Newton step from the in-band residual ``resid``.

    ``prev`` is the in-band residual before the last kept step, None before
    the first.  An exact Newton step would leave C resid^2, with C ~ resid /
    prev^2 (an overestimate when the last step's linear error dominated).
    While that is above ``target`` the step cannot be the last, and it solves
    to 1e-3.  Once it is below, the step can be the last one, and it aims at
    a quarter of the target: GMRES (``iterative.gmres``) stops on its own
    relative residual, so rtol 0.25 target / resid asks for a linear
    residual a quarter of the target (in the 1/w2-weighted norm GMRES
    measures), below it by design instead of by luck.
    """
    if prev is None or resid**3 > target * prev**2:
        return 1e-3
    return 0.25 * target / resid


def polish_residual(fn, a, ev=None):
    """Newton polish of a near-solution, at eigen coordinates ``a``, on the Galerkin problem of the functional ``fn``.

    ``fn`` is the functional the solver ran on, so no solve splits the
    spectrum a second time; ``ev`` is its evaluation at ``a`` when the
    caller holds one (a fiber's ``evaluation``), else the polish makes it.
    Each trial is ``fn(a + d)``, so the polish makes no transform outside
    its evaluations and products.
    Newton runs on the in-band residual, the ``rep`` of L_lam' on the cutoff
    space, whose zeros are the Galerkin critical points the solvers find.
    Each step solves H d = -L'(psi), H = L''(psi) the Hessian-vector product
    ``Evaluation.hvp``, with the package's GMRES (``iterative.gmres``) on
    the real view of the eigen array, in the signed lambda metric: GMRES
    runs on W^-1/2 H W^-1/2 S z = W^-1/2 (-L'(psi)) and the step is d =
    W^-1/2 S z.  W is ``split.w2`` = |sigma - lambda|, one on the kernel
    block, the lambda metric the fibers and the sphere descent run in, and
    S is +1 on E^+ and -1 on the solvers' inner space E^0 + E^-; for a
    second solution both are those of the split frozen at lambda_k.  H is
    (D - lam) - K'', positive on E^+ and negative on E^0 + E^-, so the
    operator is the identity plus a compact part, and its residual is the
    true one in the 1/w2-weighted norm.  The Hessians of one polish are
    close, so every solve after the first recycles the first one's Krylov
    space: it runs right-preconditioned, on A M^-1 y = b with M^-1 = I +
    V^T (H^-1 - I) V the deflation of the first solve's Arnoldi basis V and
    Hessenberg matrix H (``GmresResult.deflation``), and steps by z = M^-1
    y.  GMRES's relative residual on A M^-1 is still the true residual of
    z in that norm, so every tolerance and stop below means what it did
    without it.  ``hvps`` counts the products, and ``solves`` records each
    solve's iterations, stop code, asked tolerance ``rtol``, relative
    residual, on which GMRES stops, and ``deflation``, the dimension k of
    the recycled space (0 on the first solve), kept step or not.
    GMRES solves to relative tolerance 1e-3 until the step that can be the
    last, which ``_newton_rtol`` solves to a quarter of the stop
    (Eisenstat-Walker, SIAM J. Sci. Comput. 17, 1996), so the number of
    steps does not hang on where rounding puts the last one.
    A step is kept when it lowers the in-band norm, and the polish goes on
    while each step at least halves it, until that norm is at rounding level
    1e-12 max(1, ||(D - lam) psi||) (at most 20 steps).  A zero step (GMRES
    returned zeros) ends it unkept: its trial is psi itself, whose
    re-evaluated norm differs from the held one by rounding alone.  The
    out-of-band spill is left alone, so the polish does not trade the
    Galerkin critical point for a smaller full residual.  The polish keeps its ``first`` and
    ``last`` evaluations, and the energy and both residual parts, before and
    after, are read off them (``Evaluation.residual``); a polish that keeps
    no step has one evaluation and transforms the spill once.  ``residual``
    is the full ``residual_check`` value at ``psi``.  The polish is
    ``converged`` when it ends within 10 times that rounding level; the
    sphere descent stops coarse, so an unfinished polish leaves the reported
    energy unfinished too.
    """
    shape, split = a.shape, fn.split
    # W^-1/2 S and W^-1/2 on the real view: re and im of each eigen entry
    right = np.repeat((np.where(split.plus, 1.0, -1.0) / np.sqrt(split.w2)).ravel(), 2)
    left = np.abs(right)
    ev = first = fn(a) if ev is None else ev
    solves, deflate, dim = [], (lambda y: y), 0  # M^-1: the identity, then the first solve's deflation

    def operator(z):  # W^-1/2 H W^-1/2 S, H the Hessian at the current iterate ``ev``
        return left * ev.hvp((right * z).view(complex).reshape(shape)).view(float).ravel()

    resid, prev, steps = first.residual[0], None, 0
    while steps < 20 and resid > _rounding_level(ev):
        rtol = _newton_rtol(resid, prev, _rounding_level(ev))
        sol = gmres(lambda y: operator(deflate(y)), -left * ev.rep.view(float).ravel(), rtol)
        z = deflate(sol.x)
        solves.append({"iterations": sol.iterations, "istop": sol.istop, "rtol": rtol, "relres": float(sol.relres),
                       "deflation": dim})
        if not z.any() or not np.isfinite(z).all():  # a zero step would compare two roundings of psi
            break
        if len(solves) == 1:
            deflate, dim = sol.deflation(), sol.iterations
        trial = a + (right * z).view(complex).reshape(shape)
        trial_ev = fn(trial)
        trial_resid = _l2(fn.split.grid, trial_ev.rep)
        if not trial_resid < resid:
            break
        halved = trial_resid <= 0.5 * resid
        a, ev, resid, prev, steps = trial, trial_ev, trial_resid, resid, steps + 1
        if not halved:
            break
    return Polish(a, first, ev, steps, sum(s["iterations"] for s in solves),
                  bool(resid <= 10.0 * _rounding_level(ev)), solves)


def _solved_point(fn, a, ev, level, k=None, flags=(), **diagnostics):
    """Polish the point at eigen coordinates ``a`` on the functional ``fn`` it was solved on and report it; raises GuardViolationError at or above gamma_crit.

    ``ev`` is ``fn``'s evaluation at ``a`` when the caller holds one (a
    fiber's ``evaluation``), else None and the polish makes it; any point
    near a solution will do, not only a fiber maximizer: a field is handed
    over as ``table.to_eigen(field.coeffs)``.  The report's ``psi`` is the
    one field a solve builds, with ``from_eigen`` of the polished point, and
    it holds no collocation values.  Every number is
    read off the polish's first and last evaluations: the energy and
    residual before the polish (``value_pre_polish``,
    ``residual_pre_polish``) and after it.  Any of the solver's own
    ``flags`` rejects the point, and so does ``polish-not-converged``, a
    polish that did not finish.
    """
    m = fn.split.grid.m
    polish = polish_residual(fn, a, ev)
    flags = list(flags) + ([] if polish.converged else ["polish-not-converged"])
    energy, resid = polish.last.energy, polish.residual
    in_band, spill = polish.last.residual
    below = bool(energy < gamma_crit(m))
    point = BranchPoint(
        lam=fn.lam,
        level=level,
        k=k,
        energy=float(energy),
        residual_l2=float(resid),
        below_gamma_crit=below,
        accepted=bool(below and resid <= RESIDUAL_TOL and not flags),
        psi=SpinorField(fn.split.grid, fn.split.table.from_eigen(polish.psi)),
        diagnostics=dict(diagnostics, value_pre_polish=float(polish.first.energy),
                         residual_pre_polish=float(np.hypot(*polish.first.residual)), polish_steps=polish.steps,
                         polish_hvps=polish.hvps, polish_solves=polish.solves,
                         residual_in_band=in_band, residual_spill=spill),
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
        """Index k of the interval [lambda_k, lambda_{k+1}) of successive distinct eigenvalues that holds lam.

        The eigenvalues are numbered from lambda_0 = 0, negative k below it:
        k is the number of eigenvalues in (0, lam], or minus the number in
        (lam, 0].
        """
        eigs = self.eigenvalues
        return int(np.searchsorted(eigs, lam, "right") - np.searchsorted(eigs, 0.0, "right"))

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
    """Sphere descent of ``fn`` from the E^+ part of the field ``init``, else from the ray-quotient direction of its split.

    The warm field is converted once, to its unit E^+ coordinates
    (``variational._unit_plus``); the descent, its fibers and the polish
    run on eigen coordinates from there.

    It stops at outer gtol 1e-3, each fiber at a hundredth of the smallest
    sphere gradient seen so far and never below 1e-5, a hundredth of gtol
    (``sphere_minimize``), and the Newton polish of ``_solved_point``
    finishes it.  Returns sphere_minimize's (fiber point, info), the flag
    ``descent-not-converged`` when it stopped before gtol, and the start's
    diagnostics: ``ray_opt``, the ray-quotient run's ``{evals, iterations,
    message}``, for a ray-opt start.
    """
    start = {}
    if init is None:
        z0, start["ray_opt"] = ray_opt_direction(fn.split)
    else:
        z0 = _unit_plus(fn.split, init)[1]
    fiber, info = sphere_minimize(fn, z0, gtol=1e-3, maxiter=maxiter)
    return fiber, info, [] if info["converged"] else ["descent-not-converged"], start


def minimize_M(split, nl, init=None, maxiter=120):
    """Least-energy solve at the split's lambda, descending from the field ``init`` or the ray-quotient direction.

    The descent stops at gtol 1e-3, each fiber at a hundredth of the
    smallest sphere gradient seen so far (``sphere_minimize``), and the
    Newton polish finishes it.  Returns the polished BranchPoint: accepted,
    or flagged ``descent-not-converged`` when the descent stopped before its
    tolerance (at ``maxiter``), ``polish-not-converged`` when the polish did
    not finish, or ``resolution-limited-residual`` when its residual stays
    above RESIDUAL_TOL.  Raises GuardViolationError when the converged energy
    reaches gamma_crit.
    """
    if split.lam <= 0:
        _lambda_nonpositive_gate(nl)
    fn = Functional(split, nl)
    fiber, info, flags, start = _descend(fn, init, maxiter)
    return _solved_point(fn, fiber.psi, fiber.evaluation, "least", flags=flags,
                         init="ray-opt" if init is None else "warm", outer=info, **start,
                         fiber_grad_norm=fiber.grad_norm, t=fiber.t, kernel_dim=split.kernel_dim)


def second_solution(split_k, nl, lam, k, init=None):
    """Second-solution solve: minimize the frozen-fiber value N over E^+ at lambda_k.

    The descent starts from the field ``init`` when given, else from the
    ray-quotient direction at lambda_k, and stops as in ``minimize_M`` or
    after 80 iterations.  lam must sit in the guard window just below
    lambda_k.  The returned point carries a uniqueness-confidence flag from
    the 8-start certification (``nu_lambda_k``, whose first start is the
    descent's final fiber re-solved to 1e-9), a flag when the final
    direction's L^2 mass is below ``default_sigma`` and the descent and
    polish flags of ``minimize_M``.  The point is polished and reported at lam, on the
    frozen functional it was solved on.
    """
    fn = Functional(split_k, nl, lam)
    if not (fn.lam <= split_k.lam + split_k.tol):
        raise SolverFailure(f"second solution needs lam <= lambda_k = {split_k.lam}, got {fn.lam}")
    sigma = default_sigma(split_k)
    fiber, info, flags, start = _descend(fn, init, 80)
    mass = _l2(split_k.grid, fiber.phi) ** 2
    if mass < sigma:
        flags.append("sigma-constraint-violated")
    confirmed = nu_lambda_k(fn, fiber)
    if not confirmed.unique_confident:
        flags.append("non-unique-fiber-maximizer")
    return _solved_point(fn, confirmed.psi, confirmed.evaluation, "second", k=int(k), flags=flags, outer=info,
                         **start, phi_mass=float(mass), sigma=float(sigma), lambda_k=float(split_k.lam))


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
    the sweep continues.  The CLI's ``solve`` is a one-point sweep.  A
    ``second_near`` with no positive eigenvalue of that index inside the
    cutoff raises ``SpectralError`` before any solve.
    """
    pos = table.distinct[table.distinct > 0]
    if second_near is not None and not 1 <= second_near <= pos.size:
        raise SpectralError(f"no eigenvalue index k={second_near} inside the cutoff")
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
