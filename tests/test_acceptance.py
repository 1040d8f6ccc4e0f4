"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Criteria 1-8 run the invariant suites of ``bifold.selftest`` at their own
sizes, seeds and time limits; the suites hold the checks and their
tolerances: exact zero on the rational backend, 1e-12 for float spot
values and inequalities, 1 + 1e-10 for bound ratios.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import subprocess
import sys
import time
from fractions import Fraction

import pytest

from bifold.membership import DEFAULT_ANGLES, ClassSpec
from bifold.selftest import (suite_derivation, suite_inverse, suite_lemma,
                             suite_membership, suite_reductions, suite_sweep)

F = Fraction


def report(number, name, ok, detail=""):
    suffix = f"  [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {number} ({name}) failed {detail}"


def outcome(suite):
    """A suite's check count and its first failures, for a report line."""
    text = f"checks={suite.checks}, failures={len(suite.failures)}"
    if suite.failures:
        text += f" ({'; '.join(suite.failures[:3])})"
    return text


# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def inversion_suite():
    """The inverse suite at the sizes of criteria 1 and 2, run once for
    both; its 100 one-fold draws are also checked against the printed
    pattern.  ``elapsed`` is its wall time."""
    t0 = time.perf_counter()
    suite = suite_inverse(range(1, 7), 100, "ensemble/inversion")
    return suite, time.perf_counter() - t0


def test_criterion_1_inversion_identity(inversion_suite):
    suite, elapsed = inversion_suite
    report(1, "inversion identity (600 functions, exact)",
           suite.ok and elapsed < 10.0,
           f"{outcome(suite)}, runtime={elapsed:.2f}s < 10s")


def test_criterion_2_closed_form_equivalence(inversion_suite):
    suite, _ = inversion_suite
    report(2, "closed form vs reversion (exact, incl. one-fold pattern)",
           suite.ok, outcome(suite))


def test_criterion_3_reduction_identities():
    suite = suite_reductions(10)
    report(3, "lambda=1 reductions, squared forms, exact rational",
           suite.ok, f"grid=10x10 per kind, {outcome(suite)}")


def test_criterion_4_spot_values():
    suite = suite_reductions(0)  # no grid: the spot values alone
    report(4, "spot values B1=sqrt(2), B2=5 at the one-fold corner",
           suite.ok, outcome(suite))


def test_criterion_5_lemma_ensemble():
    suite = suite_lemma(10_000, "acceptance/lemma")
    report(5, "coefficient inequalities over 10^4 seeded samples",
           suite.ok, outcome(suite))


def test_criterion_6_derivation_ensemble():
    # 9 cells x 112 >= 10^3 constrained pairs per kind; the 12 realizable
    # pairs per cell are checked to have zero residuals, so a passing
    # suite has a populated filter
    suite = suite_derivation(112, 12, "acceptance/deriv")
    report(6, "derivation residuals exact; filtered ratios <= 1+1e-10",
           suite.ok, f"pairs/kind={9 * (112 + 12)}, {outcome(suite)}")


def test_criterion_7_bound_sweep():
    t0 = time.perf_counter()
    suite = suite_sweep((1, 2, 3), (0.25, 0.5, 1.0), 10_000,
                        "acceptance/sweep", realizable=25)
    elapsed = time.perf_counter() - t0
    report(7, "no bound violation in 10^4-sample sweeps",
           suite.ok and elapsed < 120.0,
           f"cells=18, {outcome(suite)}, runtime={elapsed:.1f}s < 120s")


def test_criterion_8_membership_sanity():
    specs = [ClassSpec("arg", m=m, lam=lam, alpha=a)
             for m in (1, 2, 3) for lam in (F(1, 2), 1)
             for a in (F(1, 4), 1)]
    specs += [ClassSpec("re", m=m, lam=lam, beta=b)
              for m in (1, 2) for lam in (F(1, 2), 1)
              for b in (0, F(1, 2))]
    assert len(specs) == 20
    suite = suite_membership(specs, angles=120, geo_order=240,
                             geo_angles=DEFAULT_ANGLES)
    report(8, "membership sanity (identity grid, pass/fail, inconclusive)",
           suite.ok, outcome(suite))


def test_criterion_9_determinism():
    def run(*argv):
        proc = subprocess.run([sys.executable, "-m", "bifold", *argv],
                              capture_output=True)
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    selftest_a = run("selftest", "--quick")
    selftest_b = run("selftest", "--quick")
    search_args = ("search", "--kind", "both", "--m", "1,2",
                   "--alpha", "1", "--beta", "0", "--lambda", "1/2,1",
                   "--samples", "150", "--seed", "42", "--no-timestamp")
    search_a = run(*search_args)
    search_b = run(*search_args)
    report(9, "byte-identical selftest and search reruns",
           selftest_a == selftest_b and search_a == search_b,
           f"selftest_bytes={len(selftest_a)}, search_bytes={len(search_a)}")
