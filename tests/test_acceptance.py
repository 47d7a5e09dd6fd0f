"""Acceptance suite: every pinned criterion at its stated tolerance.

Each test prints one verdict line per check and asserts the verdict.  Two
checks are expected to be red and are asserted faithfully anyway:

* the small-eps limit of |phi_eps|_2^2/(eps |ln eps|) is pinned at 8 pi, but
  the construction's limit is m^(m-1) omega_(m-1) = 4 pi (the 8 pi figure
  double-counts the radial integral int_0^T r dr/(1+r^2) = (1/2) ln(1+T^2));
* branch energies below gamma_crit = pi for every lambda in 0.1..0.99: the
  flat square torus sits exactly at the sphere bound (lambda_1^+ Vol^(1/2) =
  2 sqrt(pi)), so the near-threshold minimizers concentrate as lambda -> 0+;
  at lambda <= 0.2 the K = 16 levels are resolution-limited and keep falling
  with the cutoff (at lambda = 0.2 they cross pi between K = 64 and K = 96).
"""

import math

import pytest

from diractorus.acceptance import (
    BranchContext,
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
    criterion_11,
    format_record,
)


def _check(records, name_fragment=None):
    failed = []
    for r in records:
        print(format_record(r))
        if name_fragment is not None and name_fragment not in r["name"]:
            continue
        if not r["passed"]:
            failed.append(r)
    assert not failed, "; ".join(format_record(r) for r in failed)


@pytest.fixture(scope="module")
def branch_ctx():
    return BranchContext()


@pytest.fixture(scope="module")
def records_4():
    return criterion_4()


@pytest.fixture(scope="module")
def records_7(branch_ctx):
    return criterion_7(branch_ctx)


def test_criterion_1_clifford_suite():
    _check(criterion_1())


def test_criterion_2_spectral_suite():
    _check(criterion_2())


def test_criterion_3_euclidean_solution_fd_order():
    _check(criterion_3())


def test_criterion_4_l2_mass_exponent(records_4):
    _check([r for r in records_4 if "exponent (fit" in r["name"]])


def test_criterion_4_l2_mass_ratio_8pi(records_4):
    # pinned to 8 pi; the construction's limit is 4 pi (see module docstring)
    _check([r for r in records_4 if "8 pi" in r["name"]])


def test_criterion_4_dual_norm_exponents(records_4):
    _check([r for r in records_4 if "dual norm" in r["name"]])


def test_criterion_4_free_energy_slope(records_4):
    _check([r for r in records_4 if "free energy" in r["name"]])


# criterion 4's measurements as the sweep gives them, the red 8 pi record's
# included; a change to the test-spinor path or the transforms under it that
# moves one shows here, whatever the record's verdict
CRITERION_4_MEASURED = {
    "l2 mass exponent (fit with log power 1)": 1.0170127027894225,
    "l2 mass ratio vs 8 pi at smallest eps": 12.849422398189494,
    "dual norm of phi_eps: exponent 0.5": 0.5103834315597975,
    "dual norm of residual R_eps: exponent 0.5": 0.4765622510740116,
    "free energy gap |E(eps) - pi| slope >= 1.5": 2.0223538959984406,
}


def test_criterion_4_measurements_are_pinned(records_4):
    assert [r["name"] for r in records_4] == list(CRITERION_4_MEASURED)
    for r in records_4:
        want = CRITERION_4_MEASURED[r["name"]]
        assert abs(r["measured"] - want) <= 1e-11 * abs(want), r["name"]


def test_criterion_5_omega_identity():
    _check(criterion_5())


def test_criterion_6_closed_form_anchor(branch_ctx):
    records = criterion_6(branch_ctx)
    _check(records)
    resid = records[2]
    split_norms = (resid["details"]["residual_in_band"], resid["details"]["residual_spill"])
    assert math.isclose(math.hypot(*split_norms), resid["measured"], rel_tol=1e-12)


def test_criterion_7_positive(records_7):
    _check([r for r in records_7 if "positive" in r["name"]])


def test_criterion_7_monotone(records_7):
    _check([r for r in records_7 if "non-increasing" in r["name"]])


def test_criterion_7_below_gamma_crit(records_7):
    # red at lambda = 0.1, 0.2 at desk scale (see module docstring)
    _check([r for r in records_7 if "all < gamma_crit" in r["name"]])


def test_criterion_7_tail_and_kernel_point(records_7):
    _check([r for r in records_7 if "0.99" in r["name"] or "kernel-point" in r["name"]])


def test_criterion_8_second_solutions(branch_ctx):
    _check(criterion_8(branch_ctx))


def test_criterion_9_identities():
    _check(criterion_9())


def test_criterion_10_multiplicity_counts():
    _check(criterion_10())


def test_criterion_11_gradient_checks():
    _check(criterion_11())
