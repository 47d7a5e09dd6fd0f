"""CLI subcommands, config handling, artifact formats, determinism."""

import argparse
import csv
import json
import platform

import numpy as np
import pytest
import scipy

from diractorus.cli import build_parser, main
from diractorus.config import ConfigError, load_config, parse_lambda_grid


def run_cli(args):
    return main(args)


def test_clifford_subcommand(tmp_path, capsys):
    assert run_cli(["clifford", "--dim", "4", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "anticommutation" in out and "rank N=4" in out
    with pytest.raises(SystemExit) as exc:  # clifford takes no --check flag
        run_cli(["clifford", "--dim", "4", "--check", "--out", str(tmp_path)])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv", [["solve", "--lam", "0.9", "--cut", "4"], ["branch", "--lambda", "0.5"]]
)
def test_a_prefix_of_a_flag_is_a_usage_error(tmp_path, argv):
    # a prefix is not read as the flag it starts: branch takes --lambda-grid, not --lambda
    with pytest.raises(SystemExit) as exc:
        run_cli(argv + ["--out", str(tmp_path)])
    assert exc.value.code == 2
    assert not (tmp_path / "manifest.json").exists()


def test_manifest_records_the_environment(tmp_path):
    assert run_cli(["clifford", "--dim", "2", "--out", str(tmp_path)]) == 0
    env = json.loads((tmp_path / "manifest.json").read_text())["environment"]
    assert env["python"] == platform.python_version()
    assert env["numpy"] == np.__version__
    assert env["scipy"] == scipy.__version__
    assert set(env["blas"]) == {"name", "version"}
    assert env["blas"]["name"]


def test_manifest_records_no_scipy_where_it_is_not_installed(tmp_path, monkeypatch):
    # scipy is a test dependency: the runtime looks its version up and never imports it
    monkeypatch.setattr("diractorus.cli.metadata.distributions", lambda **kwargs: iter(()))
    assert run_cli(["clifford", "--dim", "2", "--out", str(tmp_path)]) == 0
    env = json.loads((tmp_path / "manifest.json").read_text())["environment"]
    assert env["scipy"] is None
    assert env["numpy"] == np.__version__


def test_manifest_records_an_unknown_blas_on_a_numpy_build_without_one(tmp_path, monkeypatch):
    # a numpy build whose configuration lists no BLAS dependency
    monkeypatch.setattr(np, "show_config", lambda mode: {"Build Dependencies": {}})
    assert run_cli(["clifford", "--dim", "2", "--out", str(tmp_path)]) == 0
    env = json.loads((tmp_path / "manifest.json").read_text())["environment"]
    assert env["blas"] == {"name": "unknown", "version": "unknown"}
    assert env["numpy"] == np.__version__


def test_spectrum_golden_format(tmp_path):
    assert run_cli(["spectrum", "--dim", "2", "--cutoff", "2", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "results.csv").read_text().splitlines()
    assert lines[0] == "eigenvalue,multiplicity"
    assert lines[1] == "-2.82842712475e+00,4"
    assert lines[6] == "0.00000000000e+00,2"
    assert lines[7] == "1.00000000000e+00,4"
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["config"]["cutoff"] == 2
    assert manifest["version"]


def test_weyl_subcommand(tmp_path, capsys):
    code = run_cli(
        ["weyl", "--dim", "2", "--cutoff", "12", "--Lambda", "10", "--out", str(tmp_path)]
    )
    assert code == 0
    record = json.loads(capsys.readouterr().out.strip())
    assert record["d_plus"] == 316
    assert record["d_minus"] == 316
    assert np.isclose(record["C_m_vol"], np.pi)


def test_multiplicity_subcommand(tmp_path, capsys):
    code = run_cli(
        ["multiplicity", "--dim", "2", "--lambda", "0.5", "--cutoff", "8", "--out", str(tmp_path)]
    )
    assert code == 0
    record = json.loads(capsys.readouterr().out.strip())
    assert record["count"] == 4


def test_solve_subcommand_and_determinism(tmp_path):
    args = [
        "solve", "--dim", "2", "--lambda", "0.9", "--nl", "bnd",
        "--cutoff", "6", "--out", str(tmp_path / "a"),
    ]
    assert run_cli(args) == 0
    body_a = (tmp_path / "a" / "results.csv").read_bytes()
    lines = body_a.decode().splitlines()
    assert lines[0] == "lambda,level,energy,residual,below_gamma_crit,flags"
    assert lines[1].startswith("9.00000000000e-01,least,")
    args2 = list(args)
    args2[-1] = str(tmp_path / "b")
    assert run_cli(args2) == 0
    assert body_a == (tmp_path / "b" / "results.csv").read_bytes()


def test_testspinor_subcommand(tmp_path):
    code = run_cli(
        [
            "testspinor", "--dim", "2", "--cutoff", "12", "--n-grid", "128",
            "--eps-sweep", "0.3,0.25,0.2", "--out", str(tmp_path),
        ]
    )
    assert code == 0
    lines = (tmp_path / "results.csv").read_text().splitlines()
    assert lines[0].startswith("eps,l2,l2star,dirac_energy,free_energy,dual_phi,dual_residual")
    assert len(lines) == 4
    assert (tmp_path / "fits.json").exists()


def test_branch_subcommand(tmp_path):
    code = run_cli(
        [
            "branch", "--dim", "2", "--lambda-grid", "0.8:0.9:0.1", "--nl", "bnd",
            "--cutoff", "6", "--out", str(tmp_path),
        ]
    )
    assert code == 0
    plot = (tmp_path / "plotdata" / "branch.csv").read_text().splitlines()
    assert plot[0] == "lambda,branch_id,energy"
    assert len(plot) == 3


def test_branch_takes_a_power_nonlinearity_from_flags(tmp_path):
    code = run_cli(
        [
            "branch", "--lambda-grid", "0.5", "--cutoff", "4", "--nl", "power", "--alpha", "1",
            "--p", "3", "--out", str(tmp_path),
        ]
    )
    assert code == 0
    rows = list(csv.DictReader((tmp_path / "results.csv").open()))
    assert len(rows) == 1
    assert np.isfinite(float(rows[0]["energy"]))
    assert json.loads((tmp_path / "manifest.json").read_text())["config"]["nl_kind"] == "power"


def test_quadcheck_subcommand(tmp_path, capsys):
    assert run_cli(["quadcheck", "--dim", "2", "--cutoff", "6", "--p", "3", "--out", str(tmp_path)]) == 0
    assert "n=26 -> " in capsys.readouterr().out  # the default grid 4K+2
    # --n-grid sets the coarse grid; it used to be accepted and ignored
    argv = ["quadcheck", "--cutoff", "6", "--n-grid", "40", "--out", str(tmp_path)]
    assert run_cli(argv) == 0
    out = capsys.readouterr().out
    assert "n=40 -> " in out and "n=80 -> " in out and "rel diff" in out


def test_quadcheck_p_is_an_lp_exponent_not_a_power_exponent(tmp_path, capsys):
    # p = 3 is 2* at m = 3: out of the power nonlinearity's range, a fine L^p norm
    assert run_cli(["quadcheck", "--dim", "3", "--cutoff", "3", "--p", "3", "--out", str(tmp_path)]) == 0
    assert "quadcheck p=3.0" in capsys.readouterr().out


def test_run_config_roundtrip(tmp_path):
    cfg_text = """
[run]
command = multiplicity
out_dir = {out}

[problem]
dim = 2
cutoff = 8
lambda = 0.99
""".format(out=tmp_path / "runout")
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(cfg_text)
    assert run_cli(["run", str(cfg_path)]) == 0
    csv = (tmp_path / "runout" / "results.csv").read_text().splitlines()
    assert csv[1].endswith(",8")  # l(0.99) = 8


def test_run_config_unknown_key(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[problem]\nmystery = 1\n")
    assert run_cli(["run", str(path)]) == 64
    err = capsys.readouterr().err
    assert "line 2" in err and "mystery" in err
    # the branch process pool and its key are gone
    path.write_text("[branch]\nworkers = 2\n")
    assert run_cli(["run", str(path)]) == 64
    err = capsys.readouterr().err
    assert "line 2" in err and "workers" in err


def test_run_config_keys_are_case_sensitive(tmp_path, capsys):
    # configparser lowercased option names, so `lambda` also set `Lambda`
    # and the other way round
    path = tmp_path / "case.ini"
    path.write_text("[problem]\nlambda = 0.99\n")
    cfg = load_config(str(path), ["solve"])
    assert (cfg.lam, cfg.Lambda) == (0.99, None)
    path.write_text("[problem]\nLambda = 10\n")
    cfg = load_config(str(path), ["solve"])
    assert (cfg.lam, cfg.Lambda) == (None, 10.0)
    # a mis-cased key is an unknown key
    path.write_text("[problem]\nCutoff = 8\n")
    assert run_cli(["run", str(path)]) == 64
    err = capsys.readouterr().err
    assert "line 2" in err and "'Cutoff'" in err


def test_malformed_flag_values_are_config_errors(tmp_path, capsys):
    # a flag value its key's parser rejects used to escape as a ValueError;
    # the last two were argparse usage errors, exit 2
    for argv, key in ((["testspinor", "--eps-sweep", "abc"], "eps_sweep"),
                      (["branch", "--lambda-grid", "abc"], "lambda_grid"),
                      (["spectrum", "--cutoff", "abc"], "cutoff"),
                      (["weyl", "--Lambda", "x"], "Lambda")):
        assert run_cli(argv + ["--out", str(tmp_path)]) == 64
        assert capsys.readouterr().err.startswith(f"config error: bad value for '{key}': ")


@pytest.mark.parametrize(
    "argv",
    [
        ["weyl", "--Lambda", "100", "--cutoff", "4"],  # Lambda above the cutoff
        ["weyl", "--Lambda", "0"],
        ["weyl", "--Lambda", "-2"],  # printed a Weyl ratio of 0.0
        ["quadcheck", "--p", "0.5"],
        ["testspinor", "--eps-sweep", "0.9,0.5"],  # eps above the default delta pi/4
        ["multiplicity", "--lambda", "20", "--cutoff", "4"],  # window beyond the cutoff
        ["branch", "--lambda-grid", "0.5", "--second-near", "0", "--cutoff", "4"],
        ["solve"],  # no --lambda
        ["weyl"],  # no --Lambda
        ["branch"],  # no --lambda-grid
    ],
)
def test_inputs_the_validators_reject_are_config_errors(tmp_path, capsys, argv):
    # each used to escape as a traceback, a silent wrong answer (Lambda < 0),
    # a solver failure, exit 1 (the multiplicity window, second_near 0), or an
    # argparse usage error, exit 2 (a missing value)
    assert run_cli(argv + ["--out", str(tmp_path)]) == 64
    assert capsys.readouterr().err.startswith("config error: ")


@pytest.mark.parametrize(
    "argv, key",
    [
        (["solve", "--lambda", "nan"], "lambda"),  # a ZeroDivisionError traceback in the ray quotient
        (["solve", "--lambda", "inf"], "lambda"),  # a solver failure at lambda = 0, where split snapped it
        (["branch", "--lambda-grid=0.5,nan"], "lambda_grid"),
        (["branch", "--lambda-grid", "0.5:inf:0.5"], "lambda_grid"),
        (["multiplicity", "--lambda", "nan"], "lambda"),  # exit 0 with count 0
        (["testspinor", "--dual-lambda", "nan"], "dual_lambda"),  # exit 0 with nan dual norms
        (["testspinor", "--eps-sweep", "0.2,nan"], "eps_sweep"),
        (["testspinor", "--delta", "nan"], "delta"),
        (["weyl", "--Lambda", "inf"], "Lambda"),
        (["solve", "--lambda", "0.5", "--nl", "power", "--alpha", "inf", "--p", "3"], "alpha"),
        (["solve", "--lambda", "0.5", "--nl", "power", "--alpha", "1", "--p", "nan"], "p"),
        (["solve", "--lambda", "0.5", "--nl", "log-critical", "--alpha", "1", "--q=-inf"], "q"),
    ],
)
def test_values_that_are_not_finite_are_config_errors(tmp_path, capsys, argv, key):
    assert run_cli(argv + ["--cutoff", "4", "--out", str(tmp_path)]) == 64
    assert capsys.readouterr().err.startswith(f"config error: bad value for '{key}': ")
    assert not (tmp_path / "results.csv").exists()


def test_run_config_rejects_second_offsets_that_are_not_finite(tmp_path, capsys):
    path = tmp_path / "nan.ini"
    path.write_text("[run]\ncommand = branch\n\n[problem]\nlambda_grid = 0.5\n\n[branch]\nsecond_offsets = 0.05,nan\n")
    assert run_cli(["run", str(path)]) == 64
    err = capsys.readouterr().err
    assert "line 8" in err and "'second_offsets'" in err and "not a finite number" in err


def test_run_config_rejects_the_tolerances_section(tmp_path, capsys):
    # the solver stop policy is fixed; its section and keys are gone
    path = tmp_path / "tol.ini"
    path.write_text("[problem]\ndim = 2\n\n[tolerances]\nresidual_tol = 1e-6\n")
    assert run_cli(["run", str(path)]) == 64
    err = capsys.readouterr().err
    assert "line 4" in err and "tolerances" in err


def test_run_config_power_out_of_range(tmp_path, capsys):
    path = tmp_path / "bad2.ini"
    path.write_text(
        "[run]\ncommand = solve\n\n[problem]\ndim = 2\nlambda = 0.5\n\n"
        "[nonlinearity]\nkind = power\nalpha = 1.0\np = 5.0\n"
    )
    assert run_cli(["run", str(path)]) == 64
    assert "2 < p < 2*" in capsys.readouterr().err


def test_config_validation_units():
    with pytest.raises(ConfigError):
        parse_lambda_grid("0.5:0.1:0.1")
    assert parse_lambda_grid("0.1:0.3:0.1") == [0.1, 0.2, 0.3]
    assert parse_lambda_grid("0.25, 0.5") == [0.25, 0.5]


def test_config_rejects_bad_grid(tmp_path):
    path = tmp_path / "bad3.ini"
    path.write_text("[run]\ncommand = spectrum\n\n[problem]\ndim = 2\ncutoff = 8\nn_grid = 9\n")
    with pytest.raises(ConfigError):
        load_config(str(path), ["spectrum"])


def test_accept_cli_clifford_suite(tmp_path, capsys):
    code = run_cli(["accept", "clifford", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS] criterion 1" in out
    records = json.loads((tmp_path / "acceptance.json").read_text())
    assert records[0]["passed"]


def test_results_csv_quotes_a_flag_with_commas(tmp_path):
    # the lambda <= 0 gate's verdict dict holds commas; unquoted, the failed
    # row split into 10 fields under the 6-column header
    code = run_cli(["branch", "--lambda-grid=-0.5,0.5", "--cutoff", "4", "--out", str(tmp_path)])
    assert code == 1
    with open(tmp_path / "results.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert [len(row) for row in rows] == [6, 6, 6]
    assert rows[1][0] == "-5.00000000000e-01" and rows[1][5].startswith("solver-failure: ")
    assert "'f5': False" in rows[1][5]


def test_a_failing_solve_writes_its_flagged_row(tmp_path):
    assert run_cli(["solve", "--lambda", "-0.5", "--cutoff", "4", "--out", str(tmp_path)]) == 1
    with open(tmp_path / "results.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["lambda", "level", "energy", "residual", "below_gamma_crit", "flags"]
    assert len(rows) == 2 and rows[1][5].startswith("solver-failure: ")
    assert json.loads((tmp_path / "manifest.json").read_text())["failures"] == 1


# every subcommand's option strings, positionals by name; each flag is one its handler reads
_OPTIONS = {
    "run": ["--help", "--out", "-h", "config"],
    "clifford": ["--dim", "--help", "--out", "-h"],
    "spectrum": ["--cutoff", "--dim", "--help", "--json", "--n-grid", "--out", "-h"],
    "weyl": ["--Lambda", "--cutoff", "--dim", "--help", "--n-grid", "--out", "-h"],
    "testspinor": [
        "--cutoff", "--delta", "--dim", "--dual-lambda", "--eps-sweep", "--help", "--n-grid",
        "--out", "-h",
    ],
    "solve": [
        "--alpha", "--cutoff", "--dim", "--help", "--lambda", "--n-grid", "--nl", "--out", "--p",
        "--q", "-h",
    ],
    "branch": [
        "--alpha", "--cutoff", "--dim", "--help", "--lambda-grid", "--n-grid", "--nl", "--out",
        "--p", "--q", "--second-near", "-h",
    ],
    "multiplicity": ["--cutoff", "--dim", "--help", "--lambda", "--n-grid", "--out", "-h"],
    "accept": ["--help", "--out", "-h", "suite"],
    "quadcheck": ["--cutoff", "--dim", "--help", "--n-grid", "--out", "--p", "--seed", "-h"],
}


def test_every_subcommand_keeps_its_option_strings():
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        name: sorted(s for a in p._actions for s in a.option_strings or [a.dest])
        for name, p in subparsers.choices.items()
    }
    assert options == _OPTIONS
