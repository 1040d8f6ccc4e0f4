"""Closed-form bound values, reductions, and parameter validation."""

import math
from fractions import Fraction

import pytest

from bifold.bounds import (bound_alpha, bound_alpha_exact, bound_beta,
                           bound_beta_exact, corollary_bounds,
                           corollary_bounds_exact, structural_ceiling,
                           verify_reductions)
from bifold.membership import ClassSpec, phi
from bifold.series import TruncatedSeries

F = Fraction


def test_spot_values_arg_type():
    b1, b2 = bound_alpha(1, 1, 1)
    assert abs(b1 - math.sqrt(2)) < 1e-12
    assert abs(b2 - 5.0) < 1e-12


def test_spot_values_re_type():
    b1, b2 = bound_beta(1, 0, 1)
    assert abs(b1 - math.sqrt(2)) < 1e-12
    assert abs(b2 - 5.0) < 1e-12


def test_bounds_vanish_with_parameter():
    for eps in (F(1, 100), F(1, 10000)):
        b1, b2 = bound_alpha(1, eps, F(1, 2))
        assert 0 < b1 < 0.05 and 0 < b2 < 0.05
    b1, b2 = bound_beta(1, F(9999, 10000), F(1, 2))
    assert 0 < b1 < 0.05 and 0 < b2 < 0.05


def test_corollary_spot_values():
    b1, _ = corollary_bounds(6, m=2, alpha=1)
    assert abs(b1 - 1 / math.sqrt(2)) < 1e-15
    b1, _ = corollary_bounds(7, m=1, beta=F(1, 2))
    assert abs(b1 - 1.0) < 1e-15
    _, b2 = corollary_bounds(11, beta=0)
    assert b2 == 5.0


def test_lambda_one_radicand_simplifies():
    # the arg-type radicand at lambda=1 collapses to 4(alpha+1)
    for k in range(1, 11):
        a = F(k, 10)
        radicand = (1 + 1) * (4 * a + 2 * (1 - a)) + 0
        assert radicand == 4 * (a + 1)
        b1_sq, _ = bound_alpha_exact(3, a, 1)
        assert b1_sq == 16 * a ** 2 / (9 * radicand)


def test_reduction_identities_exact_grid():
    rows = verify_reductions(
        range(1, 6),
        [F(k, 5) for k in range(1, 6)],
        [F(k, 5) for k in range(5)])
    assert rows
    for row in rows:
        assert row["b1_sq_match"] and row["b2_match"]
        if row["m"] == 1:
            assert row["onefold_match"]


def test_one_fold_reduction_is_corollary_form():
    # m=1, lambda=1 arg-type second bound equals alpha + 4 alpha^2
    for k in range(1, 11):
        a = F(k, 10)
        _, b2 = bound_alpha_exact(1, a, 1)
        assert b2 == a + 4 * a ** 2
        _, c2 = corollary_bounds_exact(10, alpha=a)
        assert c2 == 4 * a ** 2 + a


def test_monotone_decreasing_in_m():
    params = [(F(1, 4), F(1, 3)), (F(1, 2), F(1, 2)), (F(1), F(1))]
    for a, lam in params:
        vals = [bound_alpha(m, a, lam) for m in range(1, 7)]
        assert all(x[0] > y[0] and x[1] > y[1]
                   for x, y in zip(vals, vals[1:]))
    for b, lam in [(F(0), F(1, 3)), (F(1, 2), F(1))]:
        vals = [bound_beta(m, b, lam) for m in range(1, 7)]
        assert all(x[0] > y[0] and x[1] > y[1]
                   for x, y in zip(vals, vals[1:]))


def test_positive_on_domain_grid():
    for m in (1, 3, 7):
        for k in range(1, 8):
            a = F(k, 8)
            lam = F(k, 8)
            b1_sq, b2 = bound_alpha_exact(m, a, lam)
            assert b1_sq > 0 and b2 > 0
            b1_sq, b2 = bound_beta_exact(m, F(k - 1, 8), lam)
            assert b1_sq > 0 and b2 > 0


@pytest.mark.parametrize("call", [
    lambda: bound_alpha(1, 0, 1),
    lambda: bound_alpha(1, F(11, 10), 1),
    lambda: bound_alpha(1, 1, 0),
    lambda: bound_alpha(1, 1, 2),
    lambda: bound_alpha(0, 1, 1),
    lambda: bound_beta(1, 1, 1),
    lambda: bound_beta(1, F(-1, 10), 1),
    lambda: corollary_bounds(10, m=2, alpha=1),
    lambda: corollary_bounds(8, m=1, alpha=1),
    lambda: corollary_bounds(6, m=1),
    lambda: ClassSpec("arg"),
    lambda: ClassSpec("re"),
    lambda: ClassSpec("arg", lam=0, alpha=1),
    lambda: phi(TruncatedSeries.exact([0, 1, 1]), 0),
    lambda: bound_alpha_exact(1, 1, 0),
    # a bool compares as 0 or 1 but is no class parameter
    lambda: ClassSpec("arg", alpha=True),
    lambda: ClassSpec("arg", alpha=1, lam=True),
    lambda: ClassSpec("re", beta=False),
    lambda: phi(TruncatedSeries.exact([0, 1, 1]), True),
    # nor is it one to the bound functions, which convert only after the
    # range checks
    lambda: bound_alpha(1, True, True),
    lambda: bound_alpha(1, F(1, 2), True),
    lambda: bound_beta(1, False, True),
    lambda: bound_beta(1, False, F(1, 2)),
    lambda: bound_alpha_exact(2, True, 1),
    lambda: bound_beta_exact(2, F(1, 4), True),
    lambda: corollary_bounds_exact(6, 1, alpha=True),
    lambda: corollary_bounds_exact(11, beta=False),
    lambda: corollary_bounds(7, m=2, beta=False),
])
def test_out_of_range_rejected(call):
    with pytest.raises(ValueError):
        call()


def test_range_messages_come_from_one_validator():
    messages = set()
    for call in (lambda: ClassSpec("arg", lam=0, alpha=1),
                 lambda: phi(TruncatedSeries.exact([0, 1, 1]), F(0)),
                 lambda: bound_alpha_exact(1, 1, 0)):
        with pytest.raises(ValueError) as info:
            call()
        messages.add(str(info.value))
    assert messages == {"lambda must lie in (0, 1], got 0"}


def test_structural_ceiling_values():
    assert structural_ceiling(ClassSpec("arg", m=1, lam=1, alpha=1)) == 2.0
    assert structural_ceiling(ClassSpec("arg", m=2, lam=F(1, 2),
                                        alpha=F(1, 2))) \
        == pytest.approx(1 / 3)
    assert structural_ceiling(ClassSpec("re", m=1, lam=1, beta=0)) == 2.0


def test_ceiling_exceeds_bound():
    # the linear cap is coarser than the class bound everywhere
    for m in (1, 2, 4):
        for k in range(1, 5):
            a = F(k, 4)
            lam = F(k, 4)
            spec = ClassSpec("arg", m=m, lam=lam, alpha=a)
            assert structural_ceiling(spec) > bound_alpha(m, a, lam)[0]
