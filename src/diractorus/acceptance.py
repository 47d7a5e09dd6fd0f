"""Acceptance criteria: one verdict record per pinned check.

Each record carries {id, name, passed, measured, target, tol, details}; the
checks are property-based plus explicit constants and orders, sized for desk
scale (m = 2 torus, K <= 48, n_grid <= 512).  Failures are verdicts, not
exceptions, so a red check reports its measured value alongside the pinned
target.
"""

from __future__ import annotations

import time
from functools import cached_property, partial

import numpy as np

from .branch import (
    branch_sweep,
    gamma_crit,
    minimize_M,
    multiplicity_count,
    residual_check,
    second_solution,
)
from .clifford import build_rep, clifford_mul, one_minus_x_mul
from .nonlinearity import make_nonlinearity
from .spectral import assemble, inner_lambda, project, split, weyl_cm_vol, weyl_counts
from .testspinor import (
    DEFAULT_EPS_SWEEP,
    TestSpinorParams,
    asymptotic_fit,
    dirac_identity_fd_residual,
    omega_identity_residual,
    sweep,
)
from .torus import SpinorField, l2_norm, random_field, resample_field
from .variational import (
    Functional,
    L_lambda,
    SubspaceCoords,
    f_first,
    f_lambda_value,
    grad_L,
    h_lambda,
    j_lambda,
    m_lambda,
    nehari_project,
    r_lambda,
    r_lambda_rep,
    s_lambda,
    t_lambda,
    tmfm_gap,
)


def _record(cid, name, passed, measured, target, tol=None, details=None):
    return {
        "id": cid,
        "name": name,
        "passed": bool(passed),
        "measured": measured,
        "target": target,
        "tol": tol,
        "details": details or {},
    }


def criterion_1():
    """Clifford relations and the (1 - x) norm identity, m = 2..6."""
    worst = 0.0
    for m in range(2, 7):
        rep = build_rep(m)
        res = rep.relation_residuals()
        worst = max(worst, res["anticommutation"], res["skew_adjoint"])
        rng = np.random.default_rng(100 + m)
        for _ in range(1000 // (m - 1)):
            x = rng.standard_normal(m)
            s = rng.standard_normal(rep.N) + 1j * rng.standard_normal(rep.N)
            ys = one_minus_x_mul(rep, x, s)
            lhs = float(np.linalg.norm(ys) ** 2)
            rhs = (1.0 + float(np.dot(x, x))) * float(np.linalg.norm(s) ** 2)
            worst = max(worst, abs(lhs - rhs) / rhs)
            xs = clifford_mul(rep, x, s)
            pair = np.vdot(s, xs) + np.vdot(xs, s)
            worst = max(worst, abs(pair) / max(1.0, abs(np.vdot(s, xs))))
    return [_record(1, "clifford relations and norm identity (m=2..6)", worst < 1e-12, worst, 0.0, 1e-12)]


def criterion_2():
    """Exact spectra and the Weyl ratio at K = 48."""
    t0 = time.time()
    table = assemble(2, 48)
    resid = table.eigen_residual()
    sym_ok = True
    for lam in (1.0, 5.0, 12.0, 25.0, 40.0):
        dp, dm, _ = weyl_counts(table, lam)
        sym_ok = sym_ok and (dp == dm)
    dp, dm, _ = weyl_counts(table, 40.0)
    ratio = dp / 40.0**2
    dev = abs(ratio - weyl_cm_vol(2)) / weyl_cm_vol(2)
    elapsed = time.time() - t0
    return [
        _record(2, "eigenpair residuals at K=48", resid < 1e-12, resid, 0.0, 1e-12),
        _record(2, "spectrum symmetry d+(L) = d-(L)", sym_ok, sym_ok, True),
        _record(
            2,
            "Weyl ratio d+(40)/40^2 vs pi",
            dev < 0.02,
            ratio,
            float(weyl_cm_vol(2)),
            0.02,
            {"relative_deviation": dev, "runtime_s": elapsed},
        ),
        _record(2, "spectral suite runtime < 10 s", elapsed < 10.0, elapsed, 10.0),
    ]


def criterion_3():
    """Finite-difference order of the Euclidean Dirac identity, m = 2, 3.

    The identity for mu = 1/(1+|x|^2) is D psi = m mu psi (the same family
    normalized so that D psi = |psi|^(2*-2) psi); the stencil residual must
    decay at order >= 1.9 under dyadic refinement.
    """
    out = []
    for m in (2, 3):
        rep = build_rep(m)
        params = TestSpinorParams(eps=0.1)
        orders = []
        for x in ([0.3, -0.45, 0.2][:m], [0.9, 0.1, -0.6][:m]):
            hs = [0.02, 0.01, 0.005, 0.0025]
            res = [dirac_identity_fd_residual(rep, params, np.array(x), h) for h in hs]
            orders += [np.log2(res[i] / res[i + 1]) for i in range(len(res) - 1)]
        worst = float(min(orders))
        out.append(
            _record(3, f"Euclidean Dirac identity FD order (m={m})", worst >= 1.9, worst, 2.0, 0.1)
        )
    return out


def criterion_4():
    """Test-spinor asymptotics on the m=2 flat torus, eps sweep 0.2 -> 0.025."""
    table = assemble(2, 48, n_grid=512)
    sp = split(table, 0.5)
    rows = sweep(table, sp, DEFAULT_EPS_SWEEP, np.pi / 4.0)

    fit_l2 = asymptotic_fit([(r["eps"], r["l2_sq"]) for r in rows])
    rec_a = _record(
        4,
        "l2 mass exponent (fit with log power 1)",
        abs(fit_l2.fits[1]["exponent"] - 1.0) <= 0.1 and fit_l2.log_power == 1,
        fit_l2.fits[1]["exponent"],
        1.0,
        0.1,
        {"log_power_selected": fit_l2.log_power},
    )
    eps_min = rows[-1]["eps"]
    ratio = rows[-1]["l2_sq"] / (eps_min * abs(np.log(eps_min)))
    target = 8.0 * np.pi
    rec_b = _record(
        4,
        "l2 mass ratio vs 8 pi at smallest eps",
        abs(ratio - target) / target <= 0.10,
        ratio,
        float(target),
        0.10,
        {
            "note": (
                "the construction's small-eps limit is m^(m-1) omega_(m-1) = 4 pi; "
                "the pinned 8 pi double-counts int_0^T r dr/(1+r^2) = (1/2) ln(1+T^2)"
            ),
            "measured_over_4pi": ratio / (4.0 * np.pi),
        },
    )
    fit_dp = asymptotic_fit([(r["eps"], r["dual_norm_phi"]) for r in rows])
    fit_dr = asymptotic_fit([(r["eps"], r["dual_norm_residual"]) for r in rows])
    rec_c1 = _record(
        4,
        "dual norm of phi_eps: exponent 0.5",
        abs(fit_dp.fits[0]["exponent"] - 0.5) <= 0.07,
        fit_dp.fits[0]["exponent"],
        0.5,
        0.07,
    )
    rec_c2 = _record(
        4,
        "dual norm of residual R_eps: exponent 0.5",
        abs(fit_dr.fits[0]["exponent"] - 0.5) <= 0.07,
        fit_dr.fits[0]["exponent"],
        0.5,
        0.07,
    )
    gaps = [(r["eps"], abs(r["free_energy"] - np.pi)) for r in rows]
    fit_fe = asymptotic_fit(gaps)
    rec_d = _record(
        4,
        "free energy gap |E(eps) - pi| slope >= 1.5",
        fit_fe.fits[0]["exponent"] >= 1.5,
        fit_fe.fits[0]["exponent"],
        1.5,
        None,
        {"gap_at_smallest_eps": gaps[-1][1]},
    )
    return [rec_a, rec_b, rec_c1, rec_c2, rec_d]


def criterion_5():
    """Closed sphere-volume identity via radial quadrature, m = 2, 3, 4."""
    worst = max(omega_identity_residual(m) for m in (2, 3, 4))
    return [_record(5, "omega_m radial quadrature identity (m=2,3,4)", worst < 1e-8, worst, 0.0, 1e-8)]


class BranchContext:
    """Shared solves for the branch criteria (6, 7, 8), each made on first use."""

    def __init__(self):
        self.nl = make_nonlinearity("bnd", 2)
        self.table16 = assemble(2, 16)

    @cached_property
    def sweep(self):
        grid = [round(0.1 * i, 10) for i in range(1, 10)] + [0.99]
        return branch_sweep(self.table16, self.nl, grid)

    @cached_property
    def chain_05(self):
        """Least solve at lambda = 0.5 chained K = 16 -> 24 -> 32."""
        sp16 = split(self.table16, 0.5)
        pt = minimize_M(sp16, self.nl)
        prev = pt.psi
        for K in (24, 32):
            table = assemble(2, K)
            sp = split(table, 0.5)
            pt = minimize_M(sp, self.nl, init=resample_field(prev, table.grid))
            prev = pt.psi
        return pt

    @cached_property
    def kernel_point(self):
        sp1 = split(self.table16, 1.0)
        return minimize_M(sp1, self.nl, maxiter=60)

    @cached_property
    def second_branch(self):
        sp1 = split(self.table16, 1.0)
        warm = self.kernel_point.psi
        rows = []
        for lam in (0.95, 0.98, 0.99):
            rows.append(second_solution(sp1, self.nl, lam, k=1, init=warm))
            warm = rows[-1].psi
        return rows


def criterion_6(ctx=None):
    """Closed-form anchor and certified least solve at lambda = 0.5."""
    ctx = ctx or BranchContext()
    table = ctx.table16
    grid = table.grid
    idx = grid.mode_index()[(1, 0)]
    u = table.basis[idx][:, -1]
    coeffs = np.zeros((grid.n_modes, table.N), dtype=complex)
    coeffs[idx] = u * np.sqrt(0.5)
    pw = SpinorField(grid, coeffs)  # |s|^2 = 0.5 solves the lam = 0.5 problem
    resid_pw = residual_check(table, ctx.nl, pw, 0.5)
    rec_a = _record(6, "plane-wave residual at lambda=0.5", resid_pw < 1e-12, resid_pw, 0.0, 1e-12)
    pt = ctx.chain_05
    bound = np.pi**2 / 4.0 + 1e-6
    rec_b = _record(
        6,
        "minimize_M energy <= pi^2/4 + 1e-6 and < gamma_crit",
        pt.energy <= bound and pt.energy < gamma_crit(2),
        pt.energy,
        float(np.pi**2 / 4.0),
        1e-6,
    )
    rec_c = _record(
        6,
        "minimize_M residual < 1e-8",
        pt.residual_l2 < 1e-8,
        pt.residual_l2,
        0.0,
        1e-8,
        {
            k: pt.diagnostics[k]
            for k in ("residual_pre_polish", "polish_steps", "residual_in_band", "residual_spill")
        },
    )
    return [rec_a, rec_b, rec_c]


def criterion_7(ctx=None):
    """Branch properties over lambda = 0.1 .. 0.99 plus the kernel point."""
    ctx = ctx or BranchContext()
    sweep = ctx.sweep
    least = [p for p in sweep.points if p.level == "least"]
    energies = {p.lam: p.energy for p in least}
    positive = all(e is not None and e > 0 for e in energies.values())
    rec_a = _record(7, "branch energies strictly positive", positive, min(energies.values()), 0.0)
    violations = sweep.monotone_violations()
    rec_b = _record(
        7, "branch energies non-increasing within 1e-6", not violations, len(violations), 0, None,
        {"violations": violations},
    )
    worst = max(energies.values())
    rec_c = _record(
        7,
        "branch energies all < gamma_crit = pi",
        worst < np.pi,
        worst,
        float(np.pi),
        None,
        {
            "energies": {f"{k:.2f}": v for k, v in sorted(energies.items())},
            "residuals": {f"{p.lam:.2f}": p.residual_l2 for p in least},
            "flags": {f"{p.lam:.2f}": list(p.flags) for p in least},
            "note": (
                "the flat square torus sits exactly at the sphere bound "
                "(lambda_1^+ Vol^(1/2) = 2 sqrt(pi)), so near-threshold minimizers "
                "concentrate into bubbles as lambda -> 0+; at lambda <= 0.2 the K = 16 "
                "minimizers are resolution-limited (residuals of order 1) and their "
                "levels keep falling with the cutoff: at lambda = 0.2 3.2795 (K = 16), "
                "3.1433 (K = 64), 3.1312 < pi (K = 96)"
            ),
        },
    )
    tail = energies[0.99]
    rec_d = _record(7, "energy(0.99) <= 1e-3", tail <= 1e-3, tail, 1e-3)
    kp = ctx.kernel_point
    ok = kp.energy is not None and kp.energy < np.pi and kp.diagnostics.get("kernel_dim", 0) > 0
    rec_e = _record(
        7,
        "lambda = 1 kernel-point run completes with kernel_dim > 0, energy < pi",
        ok,
        kp.energy,
        float(np.pi),
        None,
        {"kernel_dim": kp.diagnostics.get("kernel_dim"), "residual": kp.residual_l2},
    )
    return [rec_a, rec_b, rec_c, rec_d, rec_e]


def criterion_8(ctx=None):
    """Second-solution level ordering and continuation toward c(lambda_1)."""
    ctx = ctx or BranchContext()
    c1 = ctx.kernel_point.energy
    seconds = ctx.second_branch
    ordering = []
    for pt2 in seconds[:2]:
        sp = split(ctx.table16, pt2.lam)
        least = minimize_M(sp, ctx.nl, maxiter=40)
        ordering.append((pt2.lam, least.energy, pt2.energy))
    ok_order = all(e2 > e1 for _, e1, e2 in ordering)
    rec_a = _record(
        8,
        "second level above least level at lambda in {0.95, 0.98}",
        ok_order,
        [(lam, e1, e2) for lam, e1, e2 in ordering],
        "c_tilde > c",
    )
    final = seconds[-1]
    gap = abs(final.energy - c1) / c1
    rec_b = _record(
        8,
        "c_tilde(lambda) -> c(1) within 5% on the sampled sequence",
        gap <= 0.05,
        gap,
        0.0,
        0.05,
        {"sequence": [(p.lam, p.energy) for p in seconds], "c1": c1},
    )
    return [rec_a, rec_b]


def criterion_9():
    """Nehari/Rayleigh identity, kernel-projector equivariance, quadratic bound."""
    nl = make_nonlinearity("bnd", 2)
    table = assemble(2, 4)
    sp = split(table, 0.5)
    rng = np.random.default_rng(11)
    worst_identity = 0.0
    for _ in range(20):
        raw = random_field(table.grid, 2, rng, decay=1.2)
        phi_plus = project(sp, raw, "plus")
        phi_bar = nehari_project(sp, nl, phi_plus)
        jv = j_lambda(sp, nl, phi_bar)
        sv, _, _ = s_lambda(sp, nl, phi_bar)
        rel = abs(sv**2 - 4.0 * jv) / abs(sv**2)
        worst_identity = max(worst_identity, rel)
    rec_a = _record(
        9, "Rayleigh identity S^m = 2m J on 20 Nehari points", worst_identity < 1e-6,
        worst_identity, 0.0, 1e-6,
    )

    table3 = assemble(2, 3)
    sp1 = split(table3, 1.0)
    kernel, e = SubspaceCoords(sp1, sp1.zero), np.eye(sp1.kernel_dim)
    shift = kernel.to_field((0.4 * e[1] - 0.9j * e[3]).view(float))  # 0.4 e_1 - 0.9i e_3
    worst_t = 0.0
    for _ in range(10):
        psi = random_field(table3.grid, 2, rng)
        tpsi = t_lambda(sp1, psi)
        t2 = t_lambda(sp1, 1.7 * psi)
        worst_t = max(worst_t, l2_norm(t2 - 1.7 * tpsi))
        t3 = t_lambda(sp1, psi + shift)
        worst_t = max(worst_t, l2_norm(t3 - (tpsi + shift)))
    rec_b = _record(
        9, "kernel projector equivariance (scaling, shifts)", worst_t < 1e-10, worst_t, 0.0, 1e-10
    )

    worst_gap = 0.0
    for _ in range(20):
        psi = random_field(table3.grid, 2, rng, scale=0.8)
        phi = random_field(table3.grid, 2, rng, scale=0.8)
        worst_gap = min(worst_gap, tmfm_gap(sp1, psi, phi))
    rec_c = _record(
        9, "quadratic-form lower bound (sampled)", worst_gap >= -1e-8, worst_gap, 0.0, 1e-8
    )
    return [rec_a, rec_b, rec_c]


def criterion_10():
    """Multiplicity counts in the continuation window."""
    table = assemble(2, 16)
    counts = (
        multiplicity_count(table, 0.5),
        multiplicity_count(table, 0.0),
        multiplicity_count(table, 0.99),
    )
    rec_a = _record(
        10, "window counts l(0.5), l(0), l(0.99) = 4, 0, 8", counts == (4, 0, 8), counts, (4, 0, 8)
    )
    table48 = assemble(2, 48)
    l5 = multiplicity_count(table48, 5.0)
    l20 = multiplicity_count(table48, 20.0)
    rec_b = _record(
        10, "count growth l(20) > l(5) at K = 48", l20 > l5, (l5, l20), "l(20) > l(5)"
    )
    return [rec_a, rec_b]


def _fd_worst(draw, samples=100):
    """Worst relative gap between a slope and its central difference over ``samples`` draws.

    ``draw()`` returns (slope, value, h): the analytic directional derivative
    at a drawn point, the function s -> value at step s along the drawn
    direction, and the step h of the difference (value(h) - value(-h)) / 2h.
    """
    worst = 0.0
    for _ in range(samples):
        slope, value, h = draw()
        fd = (value(h) - value(-h)) / (2.0 * h)
        worst = max(worst, abs(slope - fd) / max(1.0, abs(fd)))
    return worst


def criterion_11():
    """First derivatives match central finite differences (100 samples each)."""
    nl = make_nonlinearity("bnd", 2)
    table = assemble(2, 3)
    sp = split(table, 0.5)
    sp1 = split(table, 1.0)
    table2 = assemble(2, 2)
    sp2 = split(table2, 0.5)
    coords = SubspaceCoords(sp2, sp2.plus)
    fn = Functional(sp, nl)
    rng = np.random.default_rng(5)

    def energy():  # grad_L against directional finite differences
        a = random_field(table.grid, 2, rng, scale=0.6)
        d = random_field(table.grid, 2, rng, scale=0.6)
        return inner_lambda(sp, grad_L(sp, nl, a), d), lambda s: L_lambda(sp, nl, a + s * d), 1e-4

    def sphere():  # reduced-functional gradient on the sphere, from complex draws per entry
        n = coords.flat.size
        z = (rng.standard_normal(n) + 1j * rng.standard_normal(n)).view(float)
        zhat = z / np.linalg.norm(z)
        _, grad, _ = m_lambda(sp2, nl, coords.to_field(zhat))
        dz = (rng.standard_normal(n) + 1j * rng.standard_normal(n)).view(float)
        dz -= (zhat @ dz) * z / np.linalg.norm(z)  # scaled after the product, as recorded
        dzhat = dz / np.linalg.norm(dz)

        def value(s):
            zt = zhat + s * dzhat
            return m_lambda(sp2, nl, coords.to_field(zt / np.linalg.norm(zt)))[0]

        return inner_lambda(sp2, grad, coords.to_field(dzhat)), value, 1e-4

    def ray():  # envelope derivative of J along rays
        phi = project(sp, random_field(table.grid, 2, rng, decay=1.2), "plus")
        t = 0.5 + 2.0 * rng.random()
        return h_lambda(fn, t * phi)[0] / t, lambda s: j_lambda(sp, nl, (t + s) * phi), 1e-4 * t

    def kernel_mass():  # derivative of the kernel-reduced critical mass F
        psi = random_field(table.grid, 2, rng, scale=0.7)
        d = random_field(table.grid, 2, rng, scale=0.7)
        return f_first(sp1, psi, d), lambda s: f_lambda_value(sp1, psi + s * d), 1e-4

    def rayleigh():  # Rayleigh quotient derivative (via its definition)
        psi = random_field(table.grid, 2, rng, scale=0.8)
        d = random_field(table.grid, 2, rng, scale=0.8)
        slope = float(sp.grid.volume * (r_lambda_rep(sp, psi) * d.coeffs.conj()).real.sum())
        return slope, lambda s: r_lambda(sp, psi + s * d), 1e-5

    checks = (
        ("grad of the energy", energy),
        ("reduced-functional sphere gradient", sphere),
        ("ray derivative of J", ray),
        ("derivative of the kernel-reduced mass", kernel_mass),
        ("Rayleigh functional derivative", rayleigh),
    )
    out = []
    for name, draw in checks:
        worst = _fd_worst(draw)
        out.append(_record(11, f"{name} (100 samples)", worst < 1e-5, worst, 0.0, 1e-5))
    return out


SUITES = {
    "clifford": (1,),
    "spectral": (2,),
    "testspinor": (3, 4, 5),
    "variational": (9, 11),
    "branch": (6, 7, 8, 10),
    "all": (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11),
}


def run_suite(suite, progress=None):
    """Run one named suite; returns the ordered list of verdict records."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    ctx = BranchContext()
    criteria = {
        1: criterion_1,
        2: criterion_2,
        3: criterion_3,
        4: criterion_4,
        5: criterion_5,
        6: partial(criterion_6, ctx),
        7: partial(criterion_7, ctx),
        8: partial(criterion_8, ctx),
        9: criterion_9,
        10: criterion_10,
        11: criterion_11,
    }
    records = []
    for cid in SUITES[suite]:
        recs = criteria[cid]()
        records.extend(recs)
        if progress:
            for r in recs:
                progress(format_record(r))
    return records


def format_record(r):
    status = "PASS" if r["passed"] else "FAIL"
    tol = "" if r["tol"] is None else f" tol={r['tol']}"
    return f"[{status}] criterion {r['id']}: {r['name']}  measured={r['measured']} target={r['target']}{tol}"
