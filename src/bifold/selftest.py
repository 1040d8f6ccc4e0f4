"""The invariant suites: the one home of bifold's checks of the paper.

Each suite takes its sizes and seed prefix as arguments.  ``selftest``
runs them at the sizes in ``_QUICK`` or ``_FULL``, and the acceptance
tests run them at their own, larger sizes.  A size sets only how many
draws, cells or rays a check covers: every check runs at every size, so
``selftest`` runs each check the acceptance tests run.

Every suite runs on fixed seeds, so two invocations print the same bytes
(nothing time- or platform-dependent is emitted).  A failing check reports
the seed that produced it and flips the exit code to 1.
"""

from __future__ import annotations

import random
import sys
import time
from fractions import Fraction

from . import bounds as bounds_mod
from .caratheodory import check_lemma1, constrained_pair, sample
from .derivation import (_solve, bound_consistency, forward_verify,
                         realizable_pair)
from .explore import sweep_cell
from .membership import ClassSpec, check_membership
from .mfold import MFoldFunction, catalog
from .series import TruncatedSeries

__all__ = ["run_selftest", "check_inversion", "suite_inverse",
           "suite_reductions", "suite_lemma", "suite_derivation",
           "suite_membership", "suite_sweep"]


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


def _draw_mfold(rng, m):
    """An m-fold function with three seeded coefficients in [-9, 9]/[1, 9]."""
    return MFoldFunction(m, [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                             for _ in range(3)])


def check_inversion(fn):
    """Check the inverse of the m-fold function ``fn`` exactly.

    Returns (closed_ok, identity_ok): the closed-form inverse coefficients
    equal the reversion route's, and f(g(z)) = z through order 3m+2.
    """
    f = fn.to_series(3 * fn.m + 2)  # the order inverse_by_reversion reverts
    g = f.revert()
    closed_ok = (fn.inverse_closed_form().as_tuple()
                 == fn._read_inverse(g).as_tuple())
    comp = f.compose(g)
    identity_ok = comp.order == f.order and all(
        comp.coeff(n) == (1 if n == 1 else 0) for n in range(comp.order + 1))
    return closed_ok, identity_ok


def suite_inverse(m_values, per_m, seed) -> _Suite:
    """``check_inversion`` on ``per_m`` draws from ``{seed}/{m}`` per m.

    Each one-fold draw is also checked against the printed inverse
    pattern (-a2, 2a2^2 - a3, -(5a2^3 - 5a2a3 + a4)).
    """
    suite = _Suite("inverse-coefficients")
    for m in m_values:
        rng = random.Random(f"{seed}/{m}")
        for i in range(per_m):
            fn = _draw_mfold(rng, m)
            closed_ok, identity_ok = check_inversion(fn)
            suite.check(closed_ok,
                        f"closed/reversion mismatch at m={m} sample={i}")
            suite.check(identity_ok,
                        f"compose identity failed at m={m} sample={i}")
            if m == 1:
                a2, a3, a4 = fn.coeffs
                suite.check(fn.inverse_closed_form().as_tuple() == (
                    -a2, 2 * a2 ** 2 - a3,
                    -(5 * a2 ** 3 - 5 * a2 * a3 + a4)),
                    f"one-fold pattern mismatch at sample={i}")
    return suite


def suite_reductions(steps) -> _Suite:
    """The lambda = 1 reductions on the ``steps`` x ``steps`` grid per
    kind, m = 1..steps, plus the one-fold spot values (sqrt 2, 5)."""
    suite = _Suite("bound-reductions")
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


def suite_lemma(count, seed) -> _Suite:
    """The coefficient inequalities to depth 4 on ``count`` seeded
    samples, and |p_m| = 2 for every single-atom sample."""
    suite = _Suite("caratheodory-lemma")
    for i in range(count):
        rng = random.Random(f"{seed}/{i}")
        atoms = rng.randint(1, 6)
        m = rng.randint(1, 4)
        fn = sample(f"{seed}/{i}/draw", atoms, m)
        report = check_lemma1(fn, depth=4)
        suite.check(report.ok, f"coefficient inequality violated at i={i}")
        if atoms == 1:
            mag = abs(fn.coefficient(1))
            suite.check(abs(mag - 2.0) <= 1e-12,
                        f"single atom not extremal at i={i}")
    return suite


def suite_derivation(constrained, realizable, seed) -> _Suite:
    """Exact residuals and bound ratios of solved pairs, per class cell.

    Each cell takes ``constrained`` seeded pairs tagged
    ``{seed}/{kind}/{m}/{lam}/{i}`` and ``realizable`` constructed pairs
    tagged the same way.  The first realizable pair of a cell is also
    expanded by ``forward_verify``.
    """
    suite = _Suite("derivation-residuals")
    params = {"alpha": Fraction(1, 2), "beta": Fraction(1, 4)}
    for kind in ("alpha", "beta"):
        for m in (1, 2, 3):
            for lam in (Fraction(1, 4), Fraction(1, 2), Fraction(1)):
                spec = ClassSpec.from_kind(kind, m, params[kind], lam)
                cell = f"{kind}/{m}/{lam}"
                for i in range(constrained):
                    tag = f"{seed}/{cell}/{i}"
                    p, q = constrained_pair(tag, m, 3, backend="exact")
                    sol = _solve(p, q, spec)
                    # the bound ratios apply once the addition residual is 0
                    suite.check(sol.max_constructed_residual() == 0.0
                                and (sol.realizability != 0.0
                                     or bound_consistency(sol).ok),
                                f"nonzero constructed residual or filtered "
                                f"bound ratio above 1 at {tag}")
                for i in range(realizable):
                    tag = f"{seed}/{cell}/{i}"
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


def suite_membership(specs, angles, geo_order, geo_angles) -> _Suite:
    """Known verdicts of the sampled membership check.

    The identity passes every spec in ``specs`` on ``angles`` rays.  z/(1-z)
    to order ``geo_order`` passes Re > 2/5 and fails Re > 3/5 with a
    witness, on ``geo_angles`` rays.  At betas 1/2, 11/20 and 23/40, near
    the worst Re Phi of its order-8 inverse, a g-side margin inside the
    tail estimate reads inconclusive.
    """
    suite = _Suite("membership-sanity")
    ident = TruncatedSeries.identity(12)
    for spec in specs:
        verdict = check_membership(ident, spec, angles=angles).verdict
        suite.check(verdict == "pass",
                    f"identity did not pass {spec.describe()}")
    geo = catalog("geometric", 1, geo_order)
    good = check_membership(geo, ClassSpec("re", beta=Fraction(2, 5)),
                            angles=geo_angles)
    suite.check(good.verdict == "pass", "z/(1-z) failed at beta=0.4")
    bad = check_membership(geo, ClassSpec("re", beta=Fraction(3, 5)),
                           angles=geo_angles)
    suite.check(bad.verdict == "fail", "z/(1-z) passed at beta=0.6")
    suite.check(bad.f_report.worst_margin < 0, "failure without a witness")
    for beta in (Fraction(1, 2), Fraction(11, 20), Fraction(23, 40)):
        side = check_membership(catalog("geometric", 1, 60),
                                ClassSpec("re", beta=beta), angles=geo_angles,
                                g_order=8).g_report
        suite.check(abs(side.worst_margin) >= side.tail
                    or side.verdict == "inconclusive",
                    f"margin inside the tail read {side.verdict} "
                    f"at beta={beta}")
    return suite


def suite_sweep(m_values, lams, samples, seed, realizable) -> _Suite:
    """``SearchRecord.ok`` and a populated filter in every sweep cell of
    alpha = 1 and beta = 0 over ``m_values`` x ``lams``."""
    suite = _Suite("sweep-ceiling")
    for kind, param in (("alpha", 1), ("beta", 0)):
        for m in m_values:
            for lam in lams:
                rec = sweep_cell(kind, m, param, lam, samples, seed=seed,
                                 realizable=realizable)
                where = f"{kind}, m={m}, lambda={lam}"
                suite.check(rec.ceiling_ok, f"ceiling violated in {where}")
                suite.check(rec.ok, f"ratio above 1 or ceiling violated "
                                    f"in {where}")
                suite.check(rec.filtered_count > 0,
                            f"no realizable samples recorded in {where}")
    return suite


_IDENTITY_SPECS = (
    [ClassSpec("arg", m=m, lam=lam, alpha=Fraction(1, 2))
     for m in (1, 2) for lam in (Fraction(1, 2), 1)]
    + [ClassSpec("re", m=m, lam=lam, beta=Fraction(1, 2))
       for m in (1, 2) for lam in (Fraction(1, 2), 1)])

# the selftest sizes: each suite with its arguments, for --quick and the
# full run
_QUICK = {
    suite_inverse: dict(m_values=range(1, 5), per_m=6,
                        seed="selftest/inverse"),
    suite_reductions: dict(steps=4),
    suite_lemma: dict(count=300, seed="selftest/lemma"),
    suite_derivation: dict(constrained=4, realizable=4,
                           seed="selftest/derivation"),
    suite_membership: dict(specs=_IDENTITY_SPECS, angles=90, geo_order=120,
                           geo_angles=90),
    suite_sweep: dict(m_values=(1, 2), lams=(Fraction(1, 2),), samples=150,
                      seed="selftest/sweep", realizable=5),
}
_FULL = {
    suite_inverse: dict(m_values=range(1, 7), per_m=20,
                        seed="selftest/inverse"),
    suite_reductions: dict(steps=10),
    suite_lemma: dict(count=3000, seed="selftest/lemma"),
    suite_derivation: dict(constrained=25, realizable=25,
                           seed="selftest/derivation"),
    suite_membership: dict(specs=_IDENTITY_SPECS, angles=360, geo_order=240,
                           geo_angles=360),
    suite_sweep: dict(m_values=(1, 2), lams=(Fraction(1, 2),), samples=1500,
                      seed="selftest/sweep", realizable=5),
}


def run_selftest(quick=False) -> int:
    """Run every suite and report to stdout.

    Each suite's wall time goes to stderr as ``<suite>: <seconds> s``, so
    the report itself stays byte-identical from run to run.
    """
    write = sys.stdout.write
    failed = False
    for run, sizes in (_QUICK if quick else _FULL).items():
        start = time.perf_counter()
        suite = run(**sizes)
        sys.stderr.write(
            f"{suite.name}: {time.perf_counter() - start:.3f} s\n")
        if suite.ok:
            write(f"{suite.name}: PASS ({suite.checks} checks)\n")
        else:
            failed = True
            write(f"{suite.name}: FAIL "
                  f"({len(suite.failures)}/{suite.checks} checks)\n")
            for detail in suite.failures[:5]:
                write(f"  {detail}\n")
    write("selftest: FAIL\n" if failed else "selftest: PASS\n")
    return 1 if failed else 0
