"""Command-line workbench: subcommands, config runs, CSV/JSON artifacts.

Every run writes ``results.csv`` plus a ``manifest.json`` with the exact
configuration next to it; branch runs also emit a plot-ready
``plotdata/branch.csv`` (lambda, branch_id, energy).  ``solve`` is a
one-point ``branch`` sweep, so both write one row per point, failed points
included, and share one exit-code rule.  Exit codes: 0 full success, 1
solver failures, 2 guard violations (converged energy at or above the
compactness threshold), 64 malformed configuration: a malformed or missing
value, from a flag or a config file, or one the library rejects.  An unknown
flag is an argparse usage error, exit 2.
"""

from __future__ import annotations

import argparse
import csv
import json
import platform
import sys
import time
from importlib import metadata
from pathlib import Path

import numpy as np

from . import __version__
from .acceptance import SUITES, run_suite
from .branch import branch_sweep, gamma_crit, multiplicity_count, nu_window
from .clifford import build_rep
from .config import _KEYS, ConfigError, RunConfig, load_config, set_values, validate_config
from .spectral import SpectralError, assemble, split, weyl_cm_vol, weyl_counts
from .testspinor import TestSpinorError, asymptotic_fit, sweep
from .torus import GridError, lp_norm, make_grid, random_field, resample_field
from .variational import SolverFailure

_FMT = "%.11e"


def _fmt(x):
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if x is None:
        return "nan"
    return _FMT % float(x)


def _write_csv(path, header, rows):
    """Write a header and rows; a field holding a comma or a quote is quoted."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([x if isinstance(x, str) else _fmt(x) for x in row] for row in rows)


def _environment():
    """The library versions a run's numbers came from, BLAS included.

    A numpy build that lists no BLAS dependency records it as unknown.
    scipy is not imported, only looked up among the installed distributions
    (``None`` when it is not installed): the tests use it as a reference, the
    runtime does not.
    """
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except KeyError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": next((dist.version for dist in metadata.distributions(name="scipy")), None),
        "blas": {"name": blas.get("name", "unknown"), "version": blas.get("version", "unknown")},
    }


def _write_manifest(out_dir, cfg, command, extra=None, t0=None):
    manifest = {
        "tool": "diractorus",
        "version": __version__,
        "command": command,
        "config": cfg.to_dict(),
        "environment": _environment(),
        "wall_clock_s": None if t0 is None else time.time() - t0,
    }
    if extra:
        manifest.update(extra)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, default=str) + "\n")


def cmd_clifford(cfg, out_dir, t0):
    rep = build_rep(cfg.dim)
    res = rep.relation_residuals()
    print(f"clifford dim={cfg.dim} rank N={rep.N}")
    for key, val in res.items():
        print(f"  {key:16s} residual = {val:.3e}")
    _write_manifest(out_dir, cfg, "clifford", {"residuals": res}, t0)
    return 0


def cmd_spectrum(cfg, out_dir, t0, emit_json=False):
    table = assemble(cfg.dim, cfg.cutoff, cfg.n_grid)
    rows = list(zip(table.distinct, table.multiplicity))
    _write_csv(out_dir / "results.csv", ["eigenvalue", "multiplicity"], rows)
    if emit_json:
        print(json.dumps([{"eigenvalue": float(e), "multiplicity": int(mult)} for e, mult in rows]))
    else:
        print(f"spectrum: {len(rows)} distinct eigenvalues -> {out_dir / 'results.csv'}")
    _write_manifest(out_dir, cfg, "spectrum", {"n_distinct": len(rows)}, t0)
    return 0


def cmd_weyl(cfg, out_dir, t0):
    if cfg.Lambda is None:
        raise ConfigError("weyl needs Lambda")
    table = assemble(cfg.dim, cfg.cutoff, cfg.n_grid)
    dp, dm, total = weyl_counts(table, cfg.Lambda)
    record = {
        "Lambda": cfg.Lambda,
        "d_plus": dp,
        "d_minus": dm,
        "N_count": total,
        "ratio": dp / cfg.Lambda**cfg.dim,
        "C_m_vol": weyl_cm_vol(cfg.dim),
    }
    print(json.dumps(record))
    _write_csv(
        out_dir / "results.csv",
        ["Lambda", "d_plus", "d_minus", "ratio", "C_m_vol"],
        [[cfg.Lambda, dp, dm, record["ratio"], record["C_m_vol"]]],
    )
    _write_manifest(out_dir, cfg, "weyl", {"record": record}, t0)
    return 0


# testspinor's results.csv columns, each with the sweep-row key it is read from
_TESTSPINOR_COLUMNS = (
    ("eps", "eps"),
    ("l2", "l2"),
    ("l2star", "l2star"),
    ("dirac_energy", "dirac_energy"),
    ("free_energy", "free_energy"),
    ("dual_phi", "dual_norm_phi"),
    ("dual_residual", "dual_norm_residual"),
    ("resolution_flag", "resolution_flag"),
)


def cmd_testspinor(cfg, out_dir, t0):
    table = assemble(cfg.dim, cfg.cutoff, cfg.n_grid)
    rows = sweep(table, split(table, cfg.dual_lambda), cfg.eps_sweep, cfg.delta)
    _write_csv(
        out_dir / "results.csv",
        [column for column, _ in _TESTSPINOR_COLUMNS],
        [[r[key] for _, key in _TESTSPINOR_COLUMNS] for r in rows],
    )
    fits = {}
    if len(rows) >= 6:
        for key, src in [
            ("l2_sq", lambda r: r["l2_sq"]),
            ("dual_phi", lambda r: r["dual_norm_phi"]),
            ("dual_residual", lambda r: r["dual_norm_residual"]),
            ("free_energy_gap", lambda r: abs(r["free_energy"] - gamma_crit(cfg.dim))),
        ]:
            try:
                fit = asymptotic_fit([(r["eps"], src(r)) for r in rows])
                fits[key] = {
                    "exponent": fit.exponent,
                    "log_power": fit.log_power,
                    "prefactor": fit.prefactor,
                    "residual": fit.residual,
                    "fits": fit.fits,
                }
            except Exception as exc:  # noqa: BLE001 - fit failures are reported, not fatal
                fits[key] = {"error": str(exc)}
    (out_dir / "fits.json").write_text(json.dumps(fits, indent=2) + "\n")
    print(f"testspinor sweep ({len(rows)} points) -> {out_dir / 'results.csv'}")
    _write_manifest(out_dir, cfg, "testspinor", {"fits": fits}, t0)
    return 0


def _write_points(out_dir, cfg, points, extra, t0):
    """Write ``results.csv`` with one row per branch point and the manifest; returns the exit code.

    A guard violation gives 2, else a solver failure 1, else 0.
    """
    _write_csv(
        out_dir / "results.csv",
        ["lambda", "level", "energy", "residual", "below_gamma_crit", "flags"],
        [[p.lam, p.level, p.energy, p.residual_l2, p.below_gamma_crit, ";".join(p.flags)] for p in points],
    )
    failures = [p for p in points if any("solver-failure" in f for f in p.flags)]
    guards = [p for p in points if "guard-violation" in p.flags]
    for p in failures:
        print(f"lambda={p.lam}: {';'.join(p.flags)}", file=sys.stderr)
    print(
        f"{cfg.command}: {len(points)} points, {len(guards)} guard violations, "
        f"{len(failures)} failures -> {out_dir / 'results.csv'}"
    )
    _write_manifest(
        out_dir, cfg, cfg.command, dict(extra, guard_violations=len(guards), failures=len(failures)), t0
    )
    if guards:
        return 2
    if failures:
        return 1
    return 0


def cmd_solve(cfg, out_dir, t0):
    if cfg.lam is None:
        raise ConfigError("solve needs lambda")
    nl = cfg.nonlinearity()
    table = assemble(cfg.dim, cfg.cutoff, cfg.n_grid)
    pt = branch_sweep(table, nl, [cfg.lam], maxiter=120).points[0]
    if pt.energy is not None:
        print(
            f"solve lambda={pt.lam}: energy={pt.energy:.9f} residual={pt.residual_l2:.2e} "
            f"below_gamma_crit={pt.below_gamma_crit}"
        )
    return _write_points(out_dir, cfg, [pt], {"diagnostics": pt.diagnostics}, t0)


def cmd_branch(cfg, out_dir, t0):
    if not cfg.lambda_grid:
        raise ConfigError("branch needs lambda_grid")
    nl = cfg.nonlinearity()
    table = assemble(cfg.dim, cfg.cutoff, cfg.n_grid)
    sweep = branch_sweep(
        table, nl, cfg.lambda_grid, second_near=cfg.second_near, second_offsets=cfg.second_offsets
    )
    plot_rows = [
        [p.lam, f"{p.level}{'' if p.k is None else p.k}", p.energy]
        for p in sweep.points
        if p.energy is not None
    ]
    _write_csv(out_dir / "plotdata" / "branch.csv", ["lambda", "branch_id", "energy"], plot_rows)
    return _write_points(out_dir, cfg, sweep.points, {"monotone_violations": sweep.monotone_violations()}, t0)


def cmd_multiplicity(cfg, out_dir, t0):
    if cfg.lam is None:
        raise ConfigError("multiplicity needs lambda")
    table = assemble(cfg.dim, cfg.cutoff, cfg.n_grid)
    nu = nu_window(cfg.dim, table.grid.volume)
    count = multiplicity_count(table, cfg.lam)
    record = {"lambda": cfg.lam, "nu": nu, "count": count}
    print(json.dumps(record))
    _write_csv(out_dir / "results.csv", ["lambda", "nu", "count"], [[cfg.lam, nu, count]])
    _write_manifest(out_dir, cfg, "multiplicity", {"record": record}, t0)
    return 0


def cmd_accept(cfg, out_dir, t0):
    records = run_suite(cfg.suite, progress=print)
    (out_dir / "acceptance.json").parent.mkdir(parents=True, exist_ok=True)
    (out_dir / "acceptance.json").write_text(json.dumps(records, indent=2, default=str) + "\n")
    n_fail = sum(1 for r in records if not r["passed"])
    print(f"suite {cfg.suite!r}: {len(records) - n_fail}/{len(records)} checks passed")
    _write_manifest(out_dir, cfg, "accept", {"acceptance": records}, t0)
    return 0 if n_fail == 0 else 1


def cmd_quadcheck(cfg, out_dir, t0):
    """Quadrature self-test: L^p norms under collocation refinement."""
    p = cfg.p if cfg.p is not None else 3.0
    grid1 = make_grid(cfg.dim, cfg.cutoff, cfg.n_grid)
    grid2 = make_grid(cfg.dim, cfg.cutoff, 2 * grid1.n_grid)
    rng = np.random.default_rng(cfg.seed)
    psi1 = random_field(grid1, 2 ** (cfg.dim // 2), rng)
    psi2 = resample_field(psi1, grid2)
    v1 = lp_norm(psi1, p)
    v2 = lp_norm(psi2, p)
    rel = abs(v1 - v2) / max(v2, 1e-300)
    print(f"quadcheck p={p}: n={grid1.n_grid} -> {v1:.12e}, n={grid2.n_grid} -> {v2:.12e}, rel diff {rel:.3e}")
    _write_manifest(out_dir, cfg, "quadcheck", {"p": p, "coarse": v1, "fine": v2, "rel": rel}, t0)
    return 0


_COMMON = ("dim", "cutoff", "n_grid", "out_dir")
_NONLINEARITY = ("nl_kind", "alpha", "p", "q")

# Every subcommand: (handler, help, the RunConfig attributes its flags set).
# ``run`` has no handler: its config file names the command.
_COMMANDS = {
    "run": (None, "execute a config file", ("out_dir",)),
    "clifford": (cmd_clifford, "gamma-matrix relation residuals", ("dim", "out_dir")),
    "spectrum": (cmd_spectrum, "exact torus Dirac spectrum", _COMMON),
    "weyl": (cmd_weyl, "eigenvalue counting", _COMMON + ("Lambda",)),
    "testspinor": (
        cmd_testspinor,
        "concentration sweep measurements",
        _COMMON + ("eps_sweep", "delta", "dual_lambda"),
    ),
    "solve": (cmd_solve, "least-energy solve at one lambda", _COMMON + ("lam",) + _NONLINEARITY),
    "branch": (
        cmd_branch,
        "branch sweep over a lambda grid",
        _COMMON + ("lambda_grid", "second_near") + _NONLINEARITY,
    ),
    "multiplicity": (cmd_multiplicity, "continuation-window solution count", _COMMON + ("lam",)),
    "accept": (cmd_accept, "run acceptance criteria", ("out_dir",)),
    "quadcheck": (cmd_quadcheck, "quadrature refinement self-test", _COMMON + ("seed", "p")),
}


def build_parser():
    """One subparser per ``_COMMANDS`` row, each flag named by its key's ``_KEYS`` row.

    Flags take strings: ``main`` parses them with the key's parser, as a
    config file's values are.  Only the declared flags parse: no prefix of
    one is taken for it (``allow_abbrev=False``).
    """
    parser = argparse.ArgumentParser(
        prog="diractorus",
        description="Spectral workbench for critical nonlinear Dirac equations on flat tori",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command")
    flags = {attr: flag for *_, attr, _, flag in _KEYS}
    for name, (_, help_text, attrs) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for attr in attrs:
            p.add_argument(flags[attr], dest=attr)
    sub.choices["run"].add_argument("config")
    sub.choices["spectrum"].add_argument("--json", action="store_true")
    sub.choices["accept"].add_argument("suite", nargs="?", default="all", choices=sorted(SUITES))
    return parser


def main(argv=None):
    parser = build_parser()
    flags = parser.parse_args(argv).__dict__
    command = flags.pop("command")
    if command is None:
        parser.print_help()
        return 0
    t0 = time.time()
    commands = [name for name, (handler, _, _) in _COMMANDS.items() if handler]
    try:
        if command == "run":
            cfg = load_config(flags.pop("config"), commands, overrides=flags)
        else:
            cfg = validate_config(set_values(RunConfig(command=command), flags), commands)
        out_dir = Path(cfg.out_dir)
        if cfg.command == "spectrum":
            return cmd_spectrum(cfg, out_dir, t0, emit_json=flags.get("json", False))
        return _COMMANDS[cfg.command][0](cfg, out_dir, t0)
    except (ConfigError, GridError, SpectralError, TestSpinorError) as exc:  # inputs the validators reject
        print(f"config error: {exc}", file=sys.stderr)
        return 64
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
