"""Built-in invariant suites behind the ``selftest`` CLI command.

Every suite runs on fixed internal seeds, so two invocations print the
same bytes (nothing time- or platform-dependent is emitted).  A failing
check reports the seed that produced it and flips the exit code to 1.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction

from . import bounds as bounds_mod
from .caratheodory import check_lemma1, constrained_pair, sample
from .derivation import (_solve, bound_consistency, forward_verify,
                         realizable_pair)
from .explore import sweep_cell
from .membership import ClassSpec, check_membership
from .mfold import MFoldFunction, catalog
from .series import TruncatedSeries

__all__ = ["run_selftest", "check_inversion"]


class _Suite:
    def __init__(self, name):
        self.name = name
        self.checks = 0
        self.failures = []

    def check(self, ok, detail):
        self.checks += 1
        if not ok:
            self.failures.append(detail)

    @property
    def ok(self):
        return not self.failures


def check_inversion(rng, m):
    """Draw one m-fold function from ``rng`` and check its inverse exactly.

    Returns (closed_ok, identity_ok): the closed-form inverse coefficients
    equal the reversion route's, and f(g(z)) = z through order 3m+2.
    """
    fn = MFoldFunction(m, [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                           for _ in range(3)])
    closed_ok = (fn.inverse_closed_form().as_tuple()
                 == fn.inverse_by_reversion().as_tuple())
    f = fn.to_series(3 * m + 2)
    comp = f.compose(f.revert())
    identity_ok = all(comp.coeff(n) == (1 if n == 1 else 0)
                      for n in range(comp.order + 1))
    return closed_ok, identity_ok


def _suite_inverse(quick) -> _Suite:
    suite = _Suite("inverse-coefficients")
    m_values = (1, 2, 3, 4) if quick else (1, 2, 3, 4, 5, 6)
    per_m = 6 if quick else 20
    for m in m_values:
        rng = random.Random(f"selftest/inverse/{m}")
        for i in range(per_m):
            closed_ok, identity_ok = check_inversion(rng, m)
            suite.check(closed_ok,
                        f"closed/reversion mismatch at m={m} sample={i}")
            suite.check(identity_ok,
                        f"compose identity failed at m={m} sample={i}")
    return suite


def _suite_reductions(quick) -> _Suite:
    suite = _Suite("bound-reductions")
    steps = 4 if quick else 10
    alphas = [Fraction(k, steps) for k in range(1, steps + 1)]
    betas = [Fraction(k - 1, steps) for k in range(1, steps + 1)]
    for row in bounds_mod.verify_reductions(range(1, steps + 1), alphas,
                                            betas):
        where = f"m={row['m']}, {row['kind']}={row['param']}"
        suite.check(row["b1_sq_match"] and row["b2_match"],
                    f"reduction failed at {where}")
        if "onefold_match" in row:
            suite.check(row["onefold_match"],
                        f"one-fold reduction failed at {where}")
    b1, b2 = bounds_mod.bound_alpha(1, 1, 1)
    suite.check(abs(b1 - 2 ** 0.5) < 1e-12 and abs(b2 - 5) < 1e-12,
                "spot value (m=1, alpha=1, lambda=1) != (sqrt 2, 5)")
    b1, b2 = bounds_mod.bound_beta(1, 0, 1)
    suite.check(abs(b1 - 2 ** 0.5) < 1e-12 and abs(b2 - 5) < 1e-12,
                "spot value (m=1, beta=0, lambda=1) != (sqrt 2, 5)")
    return suite


def _suite_lemma(quick) -> _Suite:
    suite = _Suite("caratheodory-lemma")
    count = 300 if quick else 3000
    for i in range(count):
        rng = random.Random(f"selftest/lemma/{i}")
        atoms = rng.randint(1, 6)
        m = rng.randint(1, 4)
        fn = sample(f"selftest/lemma/{i}/draw", atoms, m)
        report = check_lemma1(fn, depth=4)
        suite.check(report.ok, f"coefficient inequality violated at i={i}")
        if atoms == 1:
            mag = abs(fn.coefficient(1))
            suite.check(abs(mag - 2.0) <= 1e-12,
                        f"single atom not extremal at i={i}")
    return suite


def _suite_derivation(quick) -> _Suite:
    suite = _Suite("derivation-residuals")
    per_cell = 4 if quick else 25
    lam_values = (Fraction(1, 4), Fraction(1, 2), Fraction(1))
    params = {"alpha": Fraction(1, 2), "beta": Fraction(1, 4)}
    for kind in ("alpha", "beta"):
        for m in (1, 2, 3):
            for lam in lam_values:
                spec = ClassSpec.from_kind(kind, m, params[kind], lam)
                for i in range(per_cell):
                    tag = f"selftest/derivation/{kind}/{m}/{lam}/{i}"
                    p, q = constrained_pair(tag, m, 3, backend="exact")
                    sol = _solve(p, q, spec)
                    suite.check(sol.max_constructed_residual() == 0.0,
                                f"nonzero constructed residual at {tag}")
                    pr, qr = realizable_pair(tag, spec, backend="exact")
                    solr = _solve(pr, qr, spec)
                    zero = all(complex(v) == 0
                               for v in solr.residuals.values())
                    suite.check(zero, f"realizable residual nonzero at {tag}")
                    consistency = bound_consistency(solr)
                    suite.check(consistency.ok,
                                f"bound ratio above 1 at {tag}")
                    if i == 0:
                        fwd = forward_verify(solr, pr, qr)
                        suite.check(fwd.max_abs == 0.0,
                                    f"forward residual nonzero at {tag}")
    return suite


def _suite_membership(quick) -> _Suite:
    suite = _Suite("membership-sanity")
    angles = 90 if quick else 360
    ident = TruncatedSeries.identity(12)
    specs = [ClassSpec("arg", m=m, lam=lam, alpha=Fraction(1, 2))
             for m in (1, 2) for lam in (Fraction(1, 2), 1)]
    specs += [ClassSpec("re", m=m, lam=lam, beta=Fraction(1, 2))
              for m in (1, 2) for lam in (Fraction(1, 2), 1)]
    for spec in specs:
        verdict = check_membership(ident, spec, angles=angles).verdict
        suite.check(verdict == "pass",
                    f"identity did not pass {spec.describe()}")
    geo = catalog("geometric", 1, 120 if quick else 240)
    good = check_membership(geo, ClassSpec("re", beta=Fraction(2, 5)),
                            angles=angles)
    suite.check(good.verdict == "pass", "z/(1-z) failed at beta=0.4")
    bad = check_membership(geo, ClassSpec("re", beta=Fraction(3, 5)),
                           angles=angles)
    suite.check(bad.verdict == "fail", "z/(1-z) passed at beta=0.6")
    suite.check(bad.f_report.worst_margin < 0, "failure without a witness")
    return suite


def _suite_sweep(quick) -> _Suite:
    suite = _Suite("sweep-ceiling")
    samples = 150 if quick else 1500
    for kind in ("alpha", "beta"):
        for m in (1, 2):
            param = 1 if kind == "alpha" else 0
            rec = sweep_cell(kind, m, param, Fraction(1, 2), samples,
                             seed="selftest/sweep", realizable=5)
            suite.check(rec.ceiling_ok, f"ceiling violated in {kind}, m={m}")
            suite.check(rec.ratio_a_m1 <= 1 + 1e-10,
                        f"ratio above 1 in {kind}, m={m}")
            suite.check(rec.filtered_count > 0,
                        f"no realizable samples recorded in {kind}, m={m}")
    return suite


_SUITES = (
    _suite_inverse,
    _suite_reductions,
    _suite_lemma,
    _suite_derivation,
    _suite_membership,
    _suite_sweep,
)


def run_selftest(quick=False, stream=None) -> int:
    stream = stream or sys.stdout
    failed = False
    for build in _SUITES:
        suite = build(quick)
        if suite.ok:
            stream.write(f"{suite.name}: PASS ({suite.checks} checks)\n")
        else:
            failed = True
            stream.write(f"{suite.name}: FAIL "
                         f"({len(suite.failures)}/{suite.checks} checks)\n")
            for detail in suite.failures[:5]:
                stream.write(f"  {detail}\n")
    stream.write("selftest: FAIL\n" if failed else "selftest: PASS\n")
    return 1 if failed else 0
