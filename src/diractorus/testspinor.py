"""Euclidean concentration spinors, their torus transplant, and asymptotics.

The Euclidean family

    psi(x) = mu(x)^(m/2) (1 - x) . psi_0,     mu(x) = 1/(1 + |x|^2),
    |psi_0| = m^((m-1)/2),

solves D psi = |psi|^(2*-2) psi = m mu psi on R^m, with pointwise modulus
|psi| = m^((m-1)/2) mu^((m-1)/2).  The concentrated copies
psi_eps(x) = eps^(-(m-1)/2) psi(x/eps) are cut off by a fixed C^2 radial bump
eta (quintic ramp, = 1 on [0, delta], = 0 on [2 delta, inf)) and transplanted
to the torus through the chart |x| < pi, which is an isometry on the flat
torus: the Bourguignon-Gauduchon frame correction is the identity there, so
the transplant code path is trivial by construction (curved backgrounds are
out of scope and would attach here).

Energy reports quadrate the exact pointwise construction on the collocation
grid (spectrally accurate for the smooth compactly supported integrands).
Everything is evaluated only on the cutoff's support box, the grid points
with |y_j| < 2 delta on every axis (a quarter of the torus at delta = pi/4):
the profile, its closed-form derivative, every quadrature sum, and the
transforms of the samples and of the nonlinear term, which ``analyze`` takes
on the box.  The eps-free chart geometry of the box (y, |y|^2, eta) is
computed once per (grid, center, delta) and shared, read-only, by every
eps.  No full-grid array is built unless ``samples`` is read.  Dual norms
are measured on the cutoff-K Fourier coefficients, where the
1/|sigma - lambda|^(1/2) weights concentrate the mass at low modes.

The Dirac energy needs no cutoff gradient.  In D phi = grad eta . psi_eps
+ eta D psi_eps, Clifford multiplication by a real vector is skew-adjoint,
so Re <grad eta . psi_eps, psi_eps> = 0 at every point and
Re <D phi, phi> = eta Re <D psi_eps, phi>.

Per eps, a build and a report allocate box-sized arrays only for what the
returned field keeps: one block holding its box values phi = eta psi_eps
and D psi_eps, and its coefficients.  The profile folds the eps scalings
into its real planes and writes psi_eps and D psi_eps plane by plane
(``_solution_and_dirac``); the build then scales psi_eps by eta in place.
Every scratch array, the profile's and the report's planes and
``analyze``'s intermediates, is one of the box's ``Workspace``, cached with
its geometry and reused from one eps to the next; none is returned, and no
field is built on one.  The workspace also keeps ``analyze``'s real DFT
rows of the box and its gather tables, built at the first eps.  A sweep
then touches almost no fresh pages after its first eps, and its box
transforms run no FFT: each is two dgemms and a few gathers at m = 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .clifford import clifford_mul
from .nonlinearity import critical_exponent, radial_integral
from .spectral import dual_norm_eigen, omega_sphere
from .torus import SpinorField, Workspace, analyze, pointwise_real_inner


class TestSpinorError(ValueError):
    """Invalid concentration parameters (chart overflow, bad sweep)."""

    __test__ = False  # keep pytest from collecting this exception class


@dataclass(frozen=True)
class TestSpinorParams:
    """Concentration scale, cutoff radius and center; the direction spinor psi_0 is fixed (``direction``).

    ``center`` is None (the origin) or kept as a tuple of floats, whatever
    sequence it was given as, so equal parameters compare equal and hash.
    """

    __test__ = False  # keep pytest from collecting this dataclass

    eps: float
    delta: float = np.pi / 4.0
    center: tuple = None

    def __post_init__(self):
        if not (np.isfinite(self.eps) and self.eps > 0):
            raise TestSpinorError(f"eps must be positive and finite, got {self.eps}")
        if self.center is not None:
            object.__setattr__(self, "center", tuple(float(c) for c in self.center))
            if not np.isfinite(self.center).all():
                raise TestSpinorError(f"center must be finite, got {self.center}")
        if not (0.0 < 2.0 * self.delta < np.pi):
            raise TestSpinorError(
                f"cutoff must satisfy 2 delta < pi (chart support), got delta={self.delta}"
            )
        if self.eps > self.delta:
            raise TestSpinorError(f"eps={self.eps} exceeds delta={self.delta}")

    def direction(self, rep):
        """psi_0 = m^((m-1)/2) e_1."""
        psi0 = np.zeros(rep.N, dtype=complex)
        psi0[0] = rep.m ** ((rep.m - 1) / 2.0)
        return psi0


def cutoff_eta(r, delta):
    """C^2 radial bump: 1 on [0, delta], quintic ramp to 0 on [delta, 2 delta]."""
    r = np.asarray(r, dtype=float)
    u = np.clip((r - delta) / delta, 0.0, 1.0)
    ramp = 10.0 * u**3 - 15.0 * u**4 + 6.0 * u**5
    return 1.0 - ramp


def _weighted_sum(terms, out, work):
    """out = the sum of a * plane over the (plane, a) in ``terms``; ``work`` holds each later term."""
    (plane, a), *rest = terms
    np.multiply(plane, a, out=out)
    for plane, a in rest:
        out += np.multiply(plane, a, out=work)
    return out


def _solution_and_dirac(rep, y, eps, psi0, r2=None, workspace=None, out=None):
    """psi_eps(y) = eps^(-(m-1)/2) psi(y/eps) and its closed-form D psi_eps, at the points y (first axis m).

    With mu = eps^2 / (eps^2 + |y|^2), the value of mu at y/eps, the two
    scalings fold into the real planes lead = eps^(-(m-1)/2) mu^(m/2) and
    slope = -m eps^(-(m+1)/2) mu^(m/2+1) = -lead w, where w = (m/eps) mu.
    With t = (y/eps) . psi_0, whose component i is sum_j y_j (e_j psi_0)_i
    / eps over the monomial images e_j psi_0,

        psi_eps = lead (psi_0 - t),
        D psi_eps = slope (t + |y/eps|^2 psi_0) + (m/eps) lead psi_0,

    the second the two derivative terms of

        D psi(x) = -m mu^(m/2+1) x . ((1 - x) . psi_0) + m mu^(m/2) psi_0

    at x = y/eps, where x . x = -|x|^2 expands the product, and not the
    identity D psi = m mu psi, so tests can check one against the other.  Both
    are written into ``out`` (a complex (2, N, ...) array, new when not given),
    spinor axis first, one real or imaginary plane at a time, with no complex
    temporary and no separate scaling pass.  A plane of t is a sum of y_j
    planes times the parts of the images; a plane whose part of psi_0 vanishes
    skips the |y|^2 term, one with no image skips t, and one with neither is
    zero (at m = 2, component 0 is a real plane with no x-term, and component 1
    has no constant).  ``r2`` is |y|^2 when the caller has it, and the planes
    lead and w come from ``workspace`` (a ``Workspace``, fresh when not given).
    """
    m = rep.m
    shape = y.shape[1:]
    r2 = (y**2).sum(axis=0) if r2 is None else r2
    workspace = Workspace() if workspace is None else workspace
    w, lead = (workspace.get(("plane", k), shape) for k in (0, 1))
    np.divide(m * eps, np.add(r2, eps * eps, out=w), out=w)
    np.power(w, m / 2.0, out=lead)
    lead *= np.sqrt(eps) * m ** (-m / 2.0)  # eps^(-(m-1)/2) (eps w / m)^(m/2)
    images = clifford_mul(rep, np.eye(m), psi0[:, None]) / eps  # column j is e_j . psi_0 / eps
    psi, dpsi = np.empty((2, rep.N) + shape, dtype=complex) if out is None else out
    for i in range(rep.N):
        for part in ("real", "imag"):
            p, d = getattr(psi[i, ...], part), getattr(dpsi[i, ...], part)
            c = float(getattr(psi0[i], part))
            terms = [(y[j], a) for j, a in enumerate(getattr(images[i], part)) if a != 0]
            if terms:
                _weighted_sum(terms, p, d)  # t
            if c:  # d = w (t + c |y|^2 / eps^2)
                np.multiply(r2, c / eps**2, out=d)
                if terms:
                    d += p
                d *= w
            elif terms:
                np.multiply(p, w, out=d)
            else:
                p[...] = 0.0
                d[...] = 0.0
                continue
            np.subtract(m * c / eps, d, out=d)
            d *= lead
            if terms:
                np.subtract(c, p, out=p)
                p *= lead
            else:
                np.multiply(lead, c, out=p)
    return psi, dpsi


def euclidean_solution(rep, x, params):
    """psi(x) = mu^(m/2) (1 - x) . psi_0 at one or many points x (first axis m), shaped (N, ...)."""
    return _solution_and_dirac(rep, np.asarray(x, dtype=float), 1.0, params.direction(rep))[0]


def dirac_identity_fd_residual(rep, params, x, h):
    """|D_fd psi(x) - m mu psi(x)| with a central finite-difference Dirac stencil."""
    x = np.asarray(x, dtype=float)
    m = rep.m
    dpsi = np.zeros(rep.N, dtype=complex)
    for j in range(m):
        step = np.zeros(m)
        step[j] = h
        diff = (euclidean_solution(rep, x + step, params) - euclidean_solution(rep, x - step, params)) / (2.0 * h)
        dpsi = dpsi + rep.gamma[j] @ diff
    mu = 1.0 / (1.0 + float(np.dot(x, x)))
    target = m * mu * euclidean_solution(rep, x, params)
    return float(np.linalg.norm(dpsi - target))


def _chart_coordinates(grid, center):
    """Chart coordinates of the grid points per axis, wrapped into [-pi, pi)."""
    pts = grid.points_1d()
    center = np.zeros(grid.m) if center is None else np.asarray(center, dtype=float)
    return [(pts - c + np.pi) % (2.0 * np.pi) - np.pi for c in center]


@lru_cache(maxsize=4)
def _chart_geometry(grid, center, delta):
    """The eps-free chart geometry of the cutoff's support box, read-only, and the workspace its eps share.

    Returns ``(box, y, eta, r2, workspace)``.  ``box`` holds, per axis, the
    grid indices with |y_j| < 2 delta; outside the box eta vanishes.  The
    next arrays hold the chart coordinates, the cutoff and |y|^2 on the box
    points; y has the vector axis first, (m, ...), and eta and r2 are
    planes.  ``workspace`` (a ``Workspace``) holds the scratch arrays that a
    build and a report on this box reuse from one eps to the next: the
    profile's and the report's planes and ``analyze``'s intermediates; it
    also keeps ``analyze``'s real DFT rows of the box and its gather
    tables, so they are built once per box.  No returned array and no field
    is built on them.  ``center`` is a tuple of floats or None
    (``TestSpinorParams`` keeps it so), so the arguments hash.
    """
    axes = _chart_coordinates(grid, center)
    box = tuple(np.flatnonzero(np.abs(a) < 2.0 * delta) for a in axes)
    y = np.stack(np.meshgrid(*(a[k] for a, k in zip(axes, box)), indexing="ij"))
    r2 = (y**2).sum(axis=0)
    eta = cutoff_eta(np.sqrt(r2), delta)
    for a in (*box, y, eta, r2):
        a.setflags(write=False)
    return box, y, eta, r2, Workspace()


def _chart(grid, params):
    """``_chart_geometry`` of the box of ``params``; a center needs one coordinate per grid axis."""
    if params.center is not None and len(params.center) != grid.m:
        raise TestSpinorError(f"center must have {grid.m} coordinates, got {len(params.center)}")
    return _chart_geometry(grid, params.center, float(params.delta))


class TestSpinorField(SpinorField):
    """A ``build_test_spinor`` field: Fourier coefficients plus the exact box samples.

    ``box_values`` holds the exact pre-truncation collocation values on the
    support box ``profile[0]``; the field vanishes off it.
    """

    __test__ = False  # keep pytest from collecting this class

    @property
    def samples(self):
        """The exact collocation values on the full grid, built on each read."""
        samples = np.zeros((self.N,) + (self.grid.n_grid,) * self.grid.m, dtype=complex)
        samples[(slice(None),) + np.ix_(*self.profile[0])] = self.box_values
        return samples


def build_test_spinor(grid, rep, params):
    """Cutoff rescaled Euclidean spinor sampled in the chart, as a Fourier field.

    The returned ``TestSpinorField`` carries ``box_values`` (the exact
    pre-truncation collocation values phi = eta psi_eps on the support box),
    ``samples`` (the same on the full grid, built when read), ``params``,
    ``profile`` (``(box, eta, dpsi_eps)``: the support box, the cutoff on it
    and the closed-form D psi_eps there) and ``resolution_warning`` (grid
    coarser than eight points per concentration scale).  ``box_values`` and
    D psi_eps are the two halves of one new (2, N, ...) block:
    ``_solution_and_dirac`` writes psi_eps and D psi_eps into it, on planes
    from the box's workspace, and psi_eps is then scaled by eta in place.  A
    sweep frees and allocates one block per eps, which the allocator hands
    back whole.  Only the box is transformed, by ``analyze``'s pruned real
    DFT on the box's workspace.  The block and the coefficients are the
    only arrays a build allocates at the size of the box.
    """
    if grid.m != rep.m:
        raise TestSpinorError("grid and representation dimensions differ")
    box, y, eta, r2, workspace = _chart(grid, params)
    block = np.empty((2, rep.N) + eta.shape, dtype=complex)
    values, dpsi_eps = _solution_and_dirac(rep, y, float(params.eps), params.direction(rep), r2, workspace, block)
    values *= eta  # phi = eta psi_eps, over psi_eps
    psi = TestSpinorField(grid, analyze(grid, values, support=box, workspace=workspace))
    psi.box_values = values
    psi.params = params
    psi.profile = (box, eta, dpsi_eps)
    psi.resolution_warning = bool(grid.n_grid < 8.0 * (2.0 * np.pi / params.eps))
    return psi


def energy_report(table, sp, psi, params=None):
    """Per-epsilon measurements of a ``build_test_spinor`` field.

    l2, l2star, dirac_energy and free_energy quadrate the exact samples with
    the closed-form derivative; the dual norms of the field and of the
    residual R = D phi - |phi|^(2*-2) phi are measured spectrally at the
    split's lambda.  They and dirac_energy_spectral are read off the field's
    eigen coordinates a, where D phi = sigma a, and R stays in eigen
    coordinates: two eigen transforms per report.  The report measures the
    field it is handed: ``params``, when given, must equal the field's own
    (the same object or an equal copy), and any other parameters raise
    ``TestSpinorError``.  Every quadrature runs on the field's support box,
    and the nonlinear term is transformed there.  dirac_energy is
    cell sum eta Re <D psi_eps, phi>, which is cell sum Re <D phi, phi>: the
    cutoff gradient's term pairs to zero with phi (module docstring).

    rho = |phi|^2 is formed once, and l2^2 = sum rho, l2star^2* =
    sum rho^((2*-2)/2) rho and the nonlinear weight rho^((2*-2)/2) are read
    off it, not off a square root raised to powers; every sum is a plane
    sum, not a BLAS dot.  The box transforms of the build and of the
    nonlinear term are dgemms, whose rounding could depend on the BLAS
    thread count; at K = 48 the seven reports of criterion 4 come out
    bitwise equal at one and two OpenBLAS threads, and a test holds them
    to 1e-14.  Every box-sized array of the report comes from the field's
    workspace (``_chart_geometry``): the planes rho and weight, a product
    temporary, and one spinor array that holds the nonlinear term, which
    ``analyze`` reads on the same workspace.  sigma a sits in a workspace
    row while R's transforms run.  A report allocates only mode-sized
    arrays: the eigen coordinates, the nonlinear term's coefficients and
    their transforms.
    """
    if params is not None and params != psi.params:
        raise TestSpinorError(f"energy_report measures the field's own parameters {psi.params}, not {params}")
    grid = psi.grid
    box, eta, dpsi_eps = psi.profile
    work = _chart(grid, psi.params)[-1]
    phi = psi.box_values
    ts = critical_exponent(grid.m)
    cell = grid.cell
    rho, weight, tmp = (work.get(("plane", k), eta.shape) for k in range(3))
    pointwise_real_inner(phi, phi, out=rho, work=tmp)
    np.power(rho, (ts - 2.0) / 2.0, out=weight)  # rho^((2*-2)/2) = |phi|^(2*-2)
    l2_sq = float(cell * rho.sum())
    l2star_pow = float(cell * np.multiply(weight, rho, out=tmp).sum())
    # rho is spent, and its plane takes Re <D psi_eps, phi>; with the factor
    # eta it is Re <D phi, phi>, as grad eta . psi_eps pairs to zero with phi
    pairing = pointwise_real_inner(dpsi_eps, phi, out=rho, work=tmp)
    dirac_energy = float(cell * np.multiply(pairing, eta, out=pairing).sum())
    free_energy = 0.5 * dirac_energy - l2star_pow / ts

    nonlinear = np.multiply(phi, weight, out=work.get("spinor", phi.shape, complex))
    a = table.to_eigen(psi.coeffs)
    dual_phi = dual_norm_eigen(sp, a)
    # Spectral Dirac energy of the band-limited field, as a cross-check.
    dirac_spectral = float(grid.volume * (table.eigenvalues * (a.real**2 + a.imag**2)).sum())
    resid = np.multiply(table.eigenvalues, a, out=work.get("modes", a.shape, complex))
    del a  # only sigma a is read on; the nonlinear term's transforms need the room
    resid -= table.to_eigen(analyze(grid, nonlinear, support=box, workspace=work))
    dual_resid = dual_norm_eigen(sp, resid)

    return {
        "eps": float(psi.params.eps),
        "l2": float(np.sqrt(l2_sq)),
        "l2_sq": l2_sq,
        "l2star": float(l2star_pow ** (1.0 / ts)),
        "l2star_pow": l2star_pow,
        "dirac_energy": dirac_energy,
        "dirac_energy_spectral": dirac_spectral,
        "free_energy": free_energy,
        "dual_norm_phi": dual_phi,
        "dual_norm_residual": dual_resid,
        "resolution_flag": psi.resolution_warning,
    }


@dataclass(frozen=True)
class AsymptoticFit:
    """Least-squares fit of v(eps) = c eps^a |ln eps|^b with b in {0, 1}."""

    exponent: float
    log_power: int
    prefactor: float
    residual: float
    n_samples: int
    fits: dict = field(default_factory=dict)


def asymptotic_fit(samples):
    """Fit (a, b, c) to measured (eps, value) pairs; both b = 0, 1 are reported.

    Requires at least six samples with strictly decreasing eps and positive
    values.
    """
    pts = [(float(e), float(v)) for e, v in samples]
    if len(pts) < 6:
        raise TestSpinorError(f"need at least 6 samples, got {len(pts)}")
    eps = np.array([p[0] for p in pts])
    vals = np.array([p[1] for p in pts])
    if np.any(np.diff(eps) >= 0):
        raise TestSpinorError("eps values must be strictly decreasing")
    if np.any(vals <= 0):
        raise TestSpinorError("values must be positive for a log-log fit")
    ln_e = np.log(eps)
    ln_l = np.log(np.abs(np.log(eps)))
    ln_v = np.log(vals)
    fits = {}
    for b in (0, 1):
        design = np.stack([np.ones_like(ln_e), ln_e], axis=1)
        target = ln_v - b * ln_l
        sol, *_ = np.linalg.lstsq(design, target, rcond=None)
        resid = float(np.sqrt(np.mean((design @ sol - target) ** 2)))
        fits[b] = {"exponent": float(sol[1]), "prefactor": float(np.exp(sol[0])), "residual": resid}
    best = min(fits, key=lambda b: fits[b]["residual"])
    return AsymptoticFit(
        exponent=fits[best]["exponent"],
        log_power=best,
        prefactor=fits[best]["prefactor"],
        residual=fits[best]["residual"],
        n_samples=len(pts),
        fits=fits,
    )


DEFAULT_EPS_SWEEP = (0.2, 0.14, 0.1, 0.07, 0.05, 0.035, 0.025)


def sweep(table, sp, eps_values, delta):
    """Energy reports of the cutoff spinor over a decreasing eps grid."""
    rows = []
    for eps in eps_values:
        params = TestSpinorParams(eps=eps, delta=delta)
        rows.append(energy_report(table, sp, build_test_spinor(table.grid, table.rep, params)))
    return rows


def _bubble_integral(m):
    """int_0^inf r^(m-1)/(1+r^2)^m dr by ``radial_integral``."""
    return radial_integral(lambda r: r ** (m - 1.0) / (1.0 + r * r) ** m, (0.0, np.inf), 1.0)


def omega_identity_residual(m):
    """|2^m omega_(m-1) int_0^inf r^(m-1)/(1+r^2)^m dr - omega_m|."""
    return abs(2.0**m * omega_sphere(m - 1) * _bubble_integral(m) - omega_sphere(m))


def radial_mass_ratio(nl, delta, eps):
    """int F(|phi_eps|) / int |phi_eps|^2 by ``radial_integral`` (lam <= 0 probe).

    The rule runs at scale eps with breaks at delta and 2 delta, where the
    cutoff eta turns from 1 to its quintic ramp and then to 0, and at
    sqrt(eps delta), which splits the 1/r tail of the m = 2 integrands.
    Without that break one piece on [0, delta] misses by 3e-13 relative at
    delta / eps = 50 and by 9e-5 at 500; with it, by 1e-14 at 500.
    """
    m = nl.m
    amp = m ** ((m - 1) / 2.0) * eps ** (-(m - 1) / 2.0)

    def mod(r):
        return cutoff_eta(r, delta) * amp * (1.0 + (r / eps) ** 2) ** (-(m - 1) / 2.0)

    breaks = (0.0, np.sqrt(eps * delta), delta, 2.0 * delta)
    num = radial_integral(lambda r: nl.F(mod(r)) * r ** (m - 1.0), breaks, eps)
    den = radial_integral(lambda r: mod(r) ** 2 * r ** (m - 1.0), breaks, eps)
    return num / den
