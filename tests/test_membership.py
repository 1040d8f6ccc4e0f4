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


CATALOG_CASES = [("geometric", 1), ("log", 1), ("atanh", 1),
                 ("mfold-geometric", 2), ("mfold-geometric", 3),
                 ("mfold-log", 2), ("mfold-log", 3),
                 ("mfold-atanh", 2), ("mfold-atanh", 3)]


@pytest.mark.parametrize("lam", [F(1, 3), F(1, 2), F(1)])
@pytest.mark.parametrize("name, m", CATALOG_CASES)
def test_float_phi_is_close_to_exact_phi_at_order_240(name, m, lam):
    # sum_k |float c_k - exact c_k| r^k bounds what the float coefficients
    # add to the error of every value of Phi on the circle of radius r;
    # the worst case measured over these entries is 2.5 u sum_k |c_k| r^k
    f = catalog(name, m, 240)
    exact = [complex(c) for c in phi(f, lam)]
    got = [complex(c) for c in phi(f.to_float(), lam)]
    for r in (0.5, 0.95):
        error = sum(abs(x - y) * r ** k
                    for k, (x, y) in enumerate(zip(got, exact)))
        scale = sum(abs(y) * r ** k for k, y in enumerate(exact))
        assert error <= 6 * 2.0 ** -53 * scale


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


@pytest.mark.parametrize("spec", [ClassSpec("arg", m=2, lam=F(1, 2),
                                            alpha=F(1, 2)),
                                  ClassSpec("re", m=2, lam=F(1, 2),
                                            beta=F(1, 4))],
                         ids=["arg", "re"])
def test_scalar_margin_is_the_grid_margin_bit_for_bit(spec):
    margin = arg_margin if spec.kind == "arg" else re_margin
    report = check_membership(catalog("mfold-log", 2, 40), spec, angles=60)
    for side in (report.f_report, report.g_report):
        assert margin(side.witness_value, spec) == side.worst_margin
    # Phi-like points, where cmath.phase and np.angle can round apart
    rng = np.random.default_rng(0)
    values = 1 + 0.8 * (rng.standard_normal(2000)
                        + 1j * rng.standard_normal(2000)) / math.sqrt(2)
    grid = membership._margins(values, spec)
    assert [margin(v, spec) for v in values] == grid.tolist()
    with pytest.raises(ValueError, match="needs a spec of kind"):
        (re_margin if spec.kind == "arg" else arg_margin)(1, spec)


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


@pytest.mark.parametrize("m", [1.5, 0, True])
def test_spec_refuses_what_the_bounds_refuse(m):
    # the spec and its bounds() apply the same fold-order check; a bool,
    # though an int, is no fold order
    with pytest.raises(ValueError, match="fold order m must be a positive "
                                         "integer"):
        ClassSpec("re", m=m, beta=0)


def test_spec_takes_a_numpy_fold_order_as_an_int():
    spec = ClassSpec("re", m=np.int64(2), beta=0)
    assert type(spec.m) is int and spec.m == 2
    assert spec == ClassSpec("re", m=2, beta=0)
    assert spec.describe() == "re-type(m=2, beta=0, lambda=1)"


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


def test_rounding_noise_in_phi_does_not_hide_a_fail():
    # the last coefficients of the float Phi are rounding noise around an
    # exact tail of 1e-48 to 1e-50; noise alternating between about 1e-20
    # and 1e-53 once made the tail estimate inf and this f side
    # inconclusive, though its worst margin is -0.452
    f = MFoldFunction(1, (F(1, 8), F(-1, 7), F(1, 14))).to_series(227)
    spec = ClassSpec("re", m=1, lam=F(1, 3), beta=F(11, 20))
    side = check_membership(f, spec).f_report
    assert side.verdict == "fail"
    assert math.isfinite(side.tail)
    assert side.worst_margin == pytest.approx(-0.452, abs=1e-3)


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


def test_tail_estimate_takes_the_largest_ratio_as_the_growth_rate():
    # window c_3..c_8 = 1, 1, 1, 1, 1, 4: adjacent ratios 1, 1, 1, 1, 4
    series = TruncatedSeries.floating([1, 0, 0, 1, 1, 1, 1, 1, 4])
    # rho = 4: q = 0.8, lead = max(0.2^3, ..., 4 * 0.2^8) = 0.2^3
    assert tail_estimate(series, 0.2) == pytest.approx(0.2 ** 3 * 0.8 / 0.2)
    # rho = 4 at r = 0.5 gives q = 2: the extrapolated terms grow
    assert tail_estimate(series, 0.5) == math.inf


def test_scan_side_fails_a_margin_below_minus_the_tail():
    # Phi = -1/2 + 64 z^6 on |z| = 1/2: the tail estimate is 1 (no
    # adjacent nonzero pair, so rho = 1 and q = 1/2; lead 64 / 2^6), and
    # Re Phi reaches -1/2 - 1 = -3/2 at z^6 = -1/64, which the 12-point
    # circle holds.  A margin of -3/2 lies below -tail by more than the
    # noise: a fail, not an inconclusive.
    phi_series = TruncatedSeries.floating([-0.5, 0, 0, 0, 0, 0, 64])
    spec = ClassSpec("re", beta=0)
    report = membership._scan_side("f", phi_series, phi_series, spec,
                                   (0.5,), 12)
    assert report.tail == 1.0
    assert report.worst_margin == pytest.approx(-1.5, abs=1e-12)
    assert report.verdict == "fail"
    # inside the tail the same scan cannot tell
    shallow = TruncatedSeries.floating([0.5, 0, 0, 0, 0, 0, 64])
    report = membership._scan_side("f", shallow, shallow, spec, (0.5,), 12)
    assert report.worst_margin == pytest.approx(-0.5, abs=1e-12)
    assert report.verdict == "inconclusive"


def test_membership_needs_angles():
    with pytest.raises(ValueError, match="angles"):
        check_membership(TruncatedSeries.identity(8), ClassSpec("re", beta=0),
                         angles=0)


@pytest.mark.parametrize("angles", [7.5, True, -1, "7", 90.0])
def test_membership_refuses_angles_that_are_not_positive_integers(angles):
    with pytest.raises(ValueError, match="angles must be a positive integer"):
        check_membership(catalog("geometric", 1, 40),
                         ClassSpec("re", beta=F(3, 5)), angles=angles)


def test_membership_refuses_an_order_past_the_series():
    # zero padding would judge the polynomial z + ... + z^8, which fails at
    # beta = 0, and not z/(1-z), which passes
    with pytest.raises(ValueError, match="^cannot extend a series trusted "
                                         "to order 8 out to 240$"):
        check_membership(catalog("geometric", 1, 8), ClassSpec("re", beta=0),
                         order=240)


def test_membership_truncates_a_series_to_order():
    spec = ClassSpec("re", beta=F(1, 5))
    got = check_membership(catalog("geometric", 1, 40), spec, angles=36,
                           order=8)
    assert got.order == 8
    assert got == check_membership(catalog("geometric", 1, 8), spec,
                                   angles=36)


def test_membership_takes_numpy_and_rational_grid_sizes():
    spec = ClassSpec("re", beta=F(3, 5))
    f = catalog("geometric", 1, 40)
    expected = check_membership(f, spec, angles=36, g_order=16)
    got = check_membership(f, spec, angles=np.int64(36),
                           g_order=np.int64(16))
    assert got.f_report.worst_margin == expected.f_report.worst_margin
    assert got.g_report.worst_margin == expected.g_report.worst_margin


# ----------------------------------------------------------------------
# the one-pass grid scan against the per-radius loop


def horner_circle(series, r, angles):
    """The series at the rounded grid points of one circle, by Horner."""
    theta = 2.0 * np.pi * np.arange(angles) / angles
    return series.eval_many(r * np.exp(1j * theta))


def fft_circle(series, r, angles):
    """The series on one circle, by the scan's own FFT evaluator."""
    return series.eval_polar((r,), angles)[0]


def reference_scan_side(side, phi_series, ratio_series, spec, radii, angles,
                        circle=horner_circle):
    """The grid scan before it stacked the radii: one pass per radius,
    each circle evaluated by ``circle``."""
    worst = math.inf
    worst_point = 0j
    worst_value = 0j
    worst_tail = 0.0
    flagged = 0
    all_clear = True
    for r in radii:
        theta = 2.0 * np.pi * np.arange(angles) / angles
        points = r * np.exp(1j * theta)
        values = circle(phi_series, r, angles)
        margins = membership._margins(values, spec)
        flagged += int(np.count_nonzero(
            circle(ratio_series, r, angles).real <= 0))
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
SCAN_RADII = [membership.RADII, (0.95, 0.3, 0.3, 0.05), (0.5,)]


def scan_pairs(source, kind, circle):
    """Each side report of the scan with the per-radius reference's, on a
    seeded f and spec.  The scan runs on each radii set through
    ``_scan_side``, each side's series built as ``check_membership``
    builds them."""
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
        g_radii = tuple(sorted({min(r, membership.G_SIDE_RADIUS_CAP)
                                for r in radii}))
        for angles in (1, 7, 720):
            for side, side_radii in (("f", radii), ("g", g_radii)):
                series = sides[side]
                ratio = membership._log_derivative(series)
                got = membership._scan_side(
                    side, membership._phi_of_ratio(ratio, spec.lam), ratio,
                    spec, side_radii, angles)
                phi_series = phi(series, spec.lam)
                expected = reference_scan_side(
                    side, phi_series, ratio, spec, side_radii, angles,
                    circle)
                yield got, expected, phi_series, spec


@pytest.mark.parametrize("kind", ["arg", "re"])
@pytest.mark.parametrize("source", SCAN_SOURCES)
def test_one_pass_scan_matches_the_per_radius_loop(source, kind):
    # Horner at the rounded points is an independent oracle: the FFT may
    # round a margin differently, and pick a different point of a
    # symmetric tie as the witness, but never change a verdict.  A margin
    # is a difference of O(1) terms (alpha*pi/2 - |arg|, Re - beta), so
    # near zero its rounding is absolute, not relative.
    close = dict(rel_tol=1e-13, abs_tol=1e-13)
    for got, expected, phi_series, spec in scan_pairs(source, kind,
                                                      horner_circle):
        assert (got.verdict, got.tail, got.radii,
                got.nonpositive_ratio_points) == \
            (expected.verdict, expected.tail, expected.radii,
             expected.nonpositive_ratio_points)
        assert math.isclose(got.worst_margin, expected.worst_margin, **close)
        at_witness = membership._margins(
            phi_series.eval_many(np.array([got.witness])), spec)[0]
        assert math.isclose(at_witness, expected.worst_margin, **close)


@pytest.mark.parametrize("kind", ["arg", "re"])
@pytest.mark.parametrize("source", SCAN_SOURCES)
def test_one_pass_scan_keeps_the_bits_of_a_per_radius_fft(source, kind):
    for got, expected, _, _ in scan_pairs(source, kind, fft_circle):
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
    eval_polar = TruncatedSeries.eval_polar
    monkeypatch.setattr(TruncatedSeries, "eval_polar",
                        lambda self, radii, angles: calls.append(1) or
                        eval_polar(self, radii, angles))
    report = check_membership(f, spec, angles=90)
    assert len(calls) == 2  # Phi is the ratio: one grid evaluation a side
    monkeypatch.undo()

    g_radii = sorted({min(r, membership.G_SIDE_RADIUS_CAP)
                      for r in membership.RADII})
    g = f.truncate(32).revert().to_float()
    for got, series, radii in ((report.f_report, f.to_float(),
                                membership.RADII),
                               (report.g_report, g, g_radii)):
        ratio = membership._log_derivative(series)
        # the reference evaluates the ratio again for the flagged count
        expected = reference_scan_side(got.side, ratio, ratio, spec,
                                       tuple(radii), 90, fft_circle)
        assert report_bits(got) == report_bits(expected)
