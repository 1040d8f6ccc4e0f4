"""Membership functional and disk-sampled verdicts."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from bifold import membership
from bifold.membership import (ClassSpec, arg_margin, check_membership, phi,
                               re_margin, tail_estimate)
from bifold.mfold import MFoldFunction, catalog
from bifold.series import TruncatedSeries

F = Fraction


# ----------------------------------------------------------------------
# the functional


def test_phi_of_identity_is_one():
    out = phi(TruncatedSeries.identity(6), F(1, 3))
    assert out.coeff(0) == 1
    assert all(out.coeff(n) == 0 for n in range(1, 6))


def test_phi_lambda_one_is_ratio():
    f = TruncatedSeries.exact([0, 1, F(1, 2), F(-1, 3), F(1, 5)])
    assert phi(f, 1) == f.derivative().shift_up(1) / f


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_phi_first_coefficient_scaling(m):
    # coefficient of z^m equals m(1+lambda)/(2 lambda) * a_{m+1}
    rng = random.Random(f"phi/scaling/{m}")
    for _ in range(5):
        a = F(rng.randint(-9, 9), rng.randint(1, 9))
        lam = F(rng.randint(1, 8), 8)
        f = TruncatedSeries.from_dict({1: 1, m + 1: a}, 2 * m + 2)
        assert phi(f, lam).coeff(m) == F(m) * (1 + lam) / (2 * lam) * a


def test_phi_keeps_mfold_support():
    fn = MFoldFunction(3, [F(1, 3), F(-1, 4), F(1, 7)])
    out = phi(fn.to_series(11), F(2, 5))
    for n in range(1, out.order + 1):
        if n % 3 != 0:
            assert out.coeff(n) == 0


def test_phi_one_fold_example():
    # f = z + a2 z^2, lambda = 1: Phi = 1 + a2 z + ...
    a2 = F(2, 7)
    out = phi(TruncatedSeries.exact([0, 1, a2, 0, 0]), 1)
    assert out.coeff(1) == a2


def test_phi_requires_normalized():
    with pytest.raises(ValueError):
        phi(TruncatedSeries.exact([1, 1]), 1)


# ----------------------------------------------------------------------
# margins


def test_arg_margin_trivials():
    spec = ClassSpec("arg", alpha=1)
    assert arg_margin(1, spec) == pytest.approx(math.pi / 2)
    assert arg_margin(1j, spec) == pytest.approx(0.0)
    assert arg_margin(0, spec) == float("-inf")


def test_re_margin_trivials():
    spec = ClassSpec("re", beta=0)
    assert re_margin(1, spec) == 1.0
    assert re_margin(0.25 + 5j, ClassSpec("re", beta=F(1, 4))) \
        == pytest.approx(0.0)


def test_spec_validation():
    with pytest.raises(ValueError):
        ClassSpec("arg", alpha=0)
    with pytest.raises(ValueError):
        ClassSpec("re", beta=1)
    with pytest.raises(ValueError):
        ClassSpec("re", beta=0, lam=0)
    with pytest.raises(ValueError):
        ClassSpec("other", alpha=1)
    with pytest.raises(ValueError):
        ClassSpec("arg")  # alpha missing


@pytest.mark.parametrize("m", [1.5, 0])
def test_spec_refuses_what_the_bounds_refuse(m):
    # the spec and its bounds() apply the same fold-order check
    with pytest.raises(ValueError, match="fold order m must be a positive "
                                         "integer"):
        ClassSpec("re", m=m, beta=0)


# ----------------------------------------------------------------------
# verdicts


def test_identity_passes_every_spec():
    ident = TruncatedSeries.identity(12)
    specs = [ClassSpec("arg", m=m, lam=lam, alpha=a)
             for m in (1, 3) for lam in (F(1, 4), 1) for a in (F(1, 10), 1)]
    specs += [ClassSpec("re", m=m, lam=lam, beta=b)
              for m in (1, 3) for lam in (F(1, 4), 1) for b in (0, F(9, 10))]
    for spec in specs:
        report = check_membership(ident, spec, angles=120)
        assert report.verdict == "pass", spec.describe()
        assert report.f_report.verdict == report.g_report.verdict == "pass"


def test_geometric_re_type_pass_and_fail():
    geo = catalog("geometric", 1, 240)
    good = check_membership(geo, ClassSpec("re", beta=F(2, 5)))
    assert good.verdict == "pass"
    bad = check_membership(geo, ClassSpec("re", beta=F(3, 5)))
    assert bad.verdict == "fail"
    # witness: a concrete grid point with a genuinely negative margin
    assert bad.f_report.worst_margin < 0
    witness = bad.f_report.witness
    assert abs(witness) <= 0.96
    # Re(1/(1-z)) -> 1/2 near the boundary, so the worst margin is ~ -0.087
    assert bad.f_report.worst_margin == pytest.approx(
        1 / 1.95 - 0.6, abs=1e-3)


def test_geometric_inverse_side_margins():
    # g = w/(1+w): min Re over |w| <= 0.7 is 1/1.7
    geo = catalog("geometric", 1, 120)
    report = check_membership(geo, ClassSpec("re", beta=F(1, 2)))
    assert report.g_report.verdict == "pass"
    # equality up to the (estimated) truncation tail of the inverse side
    assert report.g_report.worst_margin == pytest.approx(
        1 / 1.7 - 0.5, abs=2 * report.g_report.tail)


def test_low_order_yields_inconclusive_not_pass():
    # with a coarse inverse truncation the tail estimate dwarfs the margin
    geo = catalog("geometric", 1, 60)
    report = check_membership(geo, ClassSpec("re", beta=F(11, 20)),
                              g_order=8)
    side = report.g_report
    assert 0 < side.worst_margin < side.tail
    assert side.verdict == "inconclusive"
    assert report.verdict == "inconclusive"


def test_mfold_symmetry_enforced():
    s = TruncatedSeries.exact([0, 1, 1, 0, 0])
    with pytest.raises(ValueError):
        check_membership(s, ClassSpec("re", m=2, beta=0))


def test_arg_type_on_geometric():
    geo = catalog("geometric", 1, 240)
    assert check_membership(geo, ClassSpec("arg", alpha=1)).verdict == "pass"
    assert check_membership(geo, ClassSpec("arg", alpha=F(3, 10))).verdict \
        == "fail"


def test_tail_estimate_behaviour():
    decaying = TruncatedSeries.floating([2.0 ** -n for n in range(30)])
    assert 0 < tail_estimate(decaying, 0.5) < 1e-9
    assert tail_estimate(TruncatedSeries.zero(10, backend="float"), 0.9) == 0
    growing = TruncatedSeries.floating([2.0 ** n for n in range(25)])
    assert tail_estimate(growing, 0.9) == float("inf")


def test_order_padding_for_polynomials():
    fn = MFoldFunction(2, [F(1, 8), 0, 0])
    report = check_membership(fn, ClassSpec("re", m=2, beta=F(1, 10)),
                              order=120, angles=180)
    assert report.order == 120
    assert report.verdict in ("pass", "fail", "inconclusive")


def test_order_that_drops_a_coefficient_is_refused():
    fn = MFoldFunction(2, [F(1, 2), F(1, 3)])
    spec = ClassSpec("re", m=2, beta=0)
    with pytest.raises(ValueError, match="order >= 5"):
        check_membership(fn, spec, order=1, angles=36)
    with pytest.raises(ValueError, match="order >= 5"):
        check_membership(fn, spec, order=4, angles=36)
    assert check_membership(fn, spec, order=5, angles=36).order == 5


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_identity_passes_at_low_orders(order):
    for spec in (ClassSpec("re", beta=F(1, 2), lam=F(1, 2)),
                 ClassSpec("arg", alpha=F(1, 3))):
        report = check_membership(MFoldFunction(1, [F(0)]), spec,
                                  order=order, angles=36)
        assert report.verdict == "pass"
        assert report.f_report.tail == 0 and report.g_report.tail == 0


def test_tail_estimate_ignores_the_constant_term():
    assert tail_estimate(TruncatedSeries.exact([1]), 0.5) == 0
    assert tail_estimate(TruncatedSeries.exact([1, 0, 0]), 0.5) == 0
    assert tail_estimate(TruncatedSeries.exact([7, 0, 1]), 0.5) > 0


def test_membership_needs_angles():
    with pytest.raises(ValueError, match="angles"):
        check_membership(TruncatedSeries.identity(8), ClassSpec("re", beta=0),
                         angles=0)


# ----------------------------------------------------------------------
# the one-pass grid scan against the per-radius loop


def reference_scan_side(side, phi_series, ratio_series, spec, radii, angles):
    """The grid scan before it stacked the radii: one pass per radius."""
    worst = math.inf
    worst_point = 0j
    worst_value = 0j
    worst_tail = 0.0
    flagged = 0
    all_clear = True
    for r in radii:
        theta = 2.0 * np.pi * np.arange(angles) / angles
        points = r * np.exp(1j * theta)
        values = phi_series.eval_many(points)
        margins = membership._margins(values, spec)
        flagged += int(np.count_nonzero(
            ratio_series.eval_many(points).real <= 0))
        tail = tail_estimate(phi_series, r)
        idx = int(np.argmin(margins))
        local = float(margins[idx])
        if local < worst:
            worst = local
            worst_point = complex(points[idx])
            worst_value = complex(values[idx])
            worst_tail = tail
        if not np.all(margins > tail):
            all_clear = False
    if worst < -worst_tail:
        verdict = "fail"
    elif all_clear:
        verdict = "pass"
    else:
        verdict = "inconclusive"
    return membership.SideReport(
        side=side, verdict=verdict, worst_margin=worst, witness=worst_point,
        witness_value=worst_value, radii=tuple(radii), tail=worst_tail,
        nonpositive_ratio_points=flagged)


def report_bits(report):
    """A SideReport's fields, floats as hex: equal when the bits are."""
    def bits(value):
        if isinstance(value, complex):
            return value.real.hex(), value.imag.hex()
        if isinstance(value, float):
            return value.hex()
        if isinstance(value, tuple):
            return tuple(bits(v) for v in value)
        return value
    return {name: bits(value) for name, value in vars(report).items()}


SCAN_SOURCES = ["geometric", "log", "mfold-log", "mfold-atanh",
                "mfold-geometric", "poly", "identity"]
SCAN_RADII = [membership.DEFAULT_RADII, (0.95, 0.3, 0.3, 0.05), (0.5,)]


@pytest.mark.parametrize("kind", ["arg", "re"])
@pytest.mark.parametrize("source", SCAN_SOURCES)
def test_one_pass_scan_matches_the_per_radius_loop(source, kind):
    rng = random.Random(f"scan/{source}/{kind}")
    m = 1 if source in ("geometric", "log") else rng.choice([2, 3])
    order = rng.randint(40, 60)
    if source == "poly":
        f = MFoldFunction(m, [F(rng.randint(-3, 3), 4 * (k * m + 1))
                              for k in (1, 2, 3)]).to_series(order)
    elif source == "identity":
        f = TruncatedSeries.identity(order)
    else:
        f = catalog(source, m, order)
    lam = rng.choice([F(1, 3), F(1, 2), F(1)])
    if kind == "arg":
        spec = ClassSpec("arg", m=m, lam=lam, alpha=F(rng.randint(1, 20), 20))
    else:
        spec = ClassSpec("re", m=m, lam=lam, beta=F(rng.randint(0, 19), 20))
    sides = {"f": f.to_float(), "g": f.truncate(16).revert().to_float()}
    for radii in SCAN_RADII:
        for angles in (1, 7, 720):
            report = check_membership(f, spec, radii=radii, angles=angles,
                                      g_order=16)
            g_radii = sorted({min(r, membership.G_SIDE_RADIUS_CAP)
                              for r in radii})
            for got, side_radii in ((report.f_report, radii),
                                    (report.g_report, g_radii)):
                series = sides[got.side]
                ratio = series.derivative().shift_up(1) / series
                expected = reference_scan_side(
                    got.side, phi(series, lam), ratio, spec,
                    tuple(side_radii), angles)
                assert report_bits(got) == report_bits(expected)



LAMBDA_ONE_CASES = [("geometric", 1), ("log", 1), ("mfold-log", 2),
                    ("mfold-atanh", 3), ("overflow", 1)]


@pytest.mark.parametrize("kind", ["arg", "re"])
@pytest.mark.parametrize("source,m", LAMBDA_ONE_CASES)
def test_lambda_one_scan_evaluates_each_side_once(source, m, kind,
                                                  monkeypatch):
    if source == "overflow":  # coefficients 60^k: f's ratio overflows
        f = MFoldFunction(1, [F(60)]).to_series(240)
    else:
        f = catalog(source, m, 120)
    if kind == "arg":
        spec = ClassSpec("arg", m=m, lam=F(1), alpha=F(1, 2))
    else:
        spec = ClassSpec("re", m=m, lam=F(1), beta=F(1, 4))
    calls = []
    eval_many = TruncatedSeries.eval_many
    monkeypatch.setattr(TruncatedSeries, "eval_many",
                        lambda self, points: calls.append(1) or
                        eval_many(self, points))
    report = check_membership(f, spec, angles=90)
    assert len(calls) == 2  # Phi is the ratio: one grid evaluation a side
    monkeypatch.undo()

    g_radii = sorted({min(r, membership.G_SIDE_RADIUS_CAP)
                      for r in membership.DEFAULT_RADII})
    g = f.truncate(32).revert().to_float()
    for got, series, radii in ((report.f_report, f.to_float(),
                                membership.DEFAULT_RADII),
                               (report.g_report, g, g_radii)):
        ratio = membership._log_derivative(series)
        # the reference evaluates the ratio again for the flagged count
        expected = reference_scan_side(got.side, ratio, ratio, spec,
                                       tuple(radii), 90)
        assert report_bits(got) == report_bits(expected)
