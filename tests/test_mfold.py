"""Inverse-coefficient closed forms, reversion route, root transform, catalog."""

import random
from fractions import Fraction

import pytest

from bifold.mfold import CATALOG_NAMES, MFoldFunction, catalog, root_transform
from bifold.series import TruncatedSeries

F = Fraction


def test_to_series_two_fold():
    fn = MFoldFunction(2, [1, 0, 0])
    assert fn.to_series(4).coeffs == (0, 1, 0, 1, 0)  # z + z^3


def test_to_series_one_fold_is_plain():
    fn = MFoldFunction(1, [F(1, 2), F(1, 3), F(1, 4)])
    assert fn.to_series(4).coeffs == (0, 1, F(1, 2), F(1, 3), F(1, 4))


def test_to_series_identity():
    fn = MFoldFunction(3, [0, 0, 0])
    s = fn.to_series(11)
    assert s.coeff(1) == 1
    assert all(s.coeff(n) == 0 for n in range(2, 12))


def test_closed_form_one_fold_symbolic_pattern():
    rng = random.Random("mfold/eq2-pattern")
    for _ in range(5):
        a2, a3, a4 = (F(rng.randint(-9, 9), rng.randint(1, 9))
                      for _ in range(3))
        inv = MFoldFunction(1, [a2, a3, a4]).inverse_closed_form()
        assert inv.b_m1 == -a2
        assert inv.b_2m1 == 2 * a2 ** 2 - a3
        assert inv.b_3m1 == -(5 * a2 ** 3 - 5 * a2 * a3 + a4)


def test_closed_form_identity_function():
    for m in (1, 2, 5):
        inv = MFoldFunction(m, [0, 0, 0]).inverse_closed_form()
        assert inv.as_tuple() == (0, 0, 0)


def test_closed_form_two_fold_frozen_values():
    # m=2, a3=1/2, a5=1/3, a7=0; b5 = 3*(1/4) - 1/3 = 5/12 and
    # b7 = -(12*(1/8) - 8*(1/6) + 0) = -1/6, cross-checked by reversion.
    fn = MFoldFunction(2, [F(1, 2), F(1, 3), 0])
    closed = fn.inverse_closed_form()
    assert closed.as_tuple() == (F(-1, 2), F(5, 12), F(-1, 6))
    assert fn.inverse_by_reversion().as_tuple() == closed.as_tuple()


def test_reversion_route_two_fold_unit():
    fn = MFoldFunction(2, [1, 0, 0])
    inv = fn.inverse_by_reversion()
    assert inv.as_tuple() == (-1, 3, -12)


def test_reversion_route_one_fold_identity():
    assert MFoldFunction(1, [0, 0, 0]).inverse_by_reversion().as_tuple() \
        == (0, 0, 0)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_closed_form_equals_reversion_random(m):
    rng = random.Random(f"mfold/equivalence/{m}")
    for _ in range(10):
        coeffs = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3)]
        fn = MFoldFunction(m, coeffs)
        assert fn.inverse_closed_form().as_tuple() \
            == fn.inverse_by_reversion().as_tuple()


def test_check_inversion_reverts_once(monkeypatch):
    from bifold.selftest import check_inversion

    orders = []
    revert = TruncatedSeries.revert
    monkeypatch.setattr(TruncatedSeries, "revert",
                        lambda self: orders.append(self.order) or revert(self))
    assert check_inversion(random.Random("mfold/revert-once"), 3) == \
        (True, True)
    assert orders == [11]  # one reversion at order 3m + 2


def test_reverted_series_keeps_symmetry():
    fn = MFoldFunction(3, [F(1, 2), F(-1, 3), F(1, 5)])
    g = fn.to_series(11).revert()
    for n in range(2, 12):
        if (n - 1) % 3 != 0:
            assert g.coeff(n) == 0


@pytest.mark.parametrize("m", [2.5, 0])
def test_fold_order_must_be_a_positive_integer(m):
    # 2.5 used to build a fold-2 function
    with pytest.raises(ValueError, match="^fold order m must be a positive "
                                         f"integer, got {m!r}$"):
        MFoldFunction(m, [1, 0, 0])


def test_depth_requirement():
    with pytest.raises(ValueError):
        MFoldFunction(2, [1, 2]).inverse_closed_form()


# ----------------------------------------------------------------------
# root transform


def test_root_transform_of_identity():
    z = TruncatedSeries.identity(9)
    for m in (1, 2, 3):
        h = root_transform(z, m)
        assert h.coeff(1) == 1
        assert all(h.coeff(n) == 0 for n in range(2, h.order + 1))


def test_root_transform_geometric_binomial_oracle():
    # sqrt(f(z^2)) for f = z/(1-z) is z (1-z^2)^(-1/2); the binomial
    # oracle gives 1, 1/2, 3/8, 5/16 for the z^(2k+1) coefficients.
    h = root_transform(catalog("geometric", 1, 8), 2)
    assert h.coeff(1) == 1
    assert h.coeff(3) == F(1, 2)
    assert h.coeff(5) == F(3, 8)
    assert h.coeff(7) == F(5, 16)
    assert h.coeff(2) == h.coeff(4) == h.coeff(6) == 0


def test_root_transform_m1_is_identity_transform():
    f = catalog("geometric", 1, 10)
    assert root_transform(f, 1) == f


@pytest.mark.parametrize("m", [2, 3, 4])
def test_root_transform_power_identity(m):
    # h(z)^m = f(z^m) up to the truncation order
    rng = random.Random(f"mfold/root/{m}")
    coeffs = [F(0), F(1)] + [F(rng.randint(-4, 4), rng.randint(1, 4))
                             for _ in range(5)]
    f = TruncatedSeries.exact(coeffs)
    h = root_transform(f, m)
    lhs = h.pow(m)
    rhs = f.stretch(m).truncate(lhs.order)
    assert lhs == rhs


def test_root_transform_needs_normalized():
    with pytest.raises(ValueError):
        root_transform(TruncatedSeries.exact([1, 1]), 2)


# ----------------------------------------------------------------------
# catalog


def test_catalog_geometric():
    s = catalog("geometric", 1, 6)
    assert s.coeffs == (0, 1, 1, 1, 1, 1, 1)


def test_catalog_log():
    s = catalog("log", 1, 4)
    assert s.coeffs == (0, 1, F(1, 2), F(1, 3), F(1, 4))


def test_catalog_atanh():
    s = catalog("atanh", 1, 5)
    assert s.coeffs == (0, 1, 0, F(1, 3), 0, F(1, 5))


def test_catalog_mfold_geometric_matches_root_transform():
    for m in (2, 3):
        direct = catalog("mfold-geometric", m, 3 * m + 2)
        via_transform = root_transform(catalog("geometric", 1, 3 * m + 2), m)
        assert direct == via_transform.truncate(direct.order)


def test_catalog_mfold_entries_are_normalized_mfold():
    for name in ("mfold-geometric", "mfold-log", "mfold-atanh"):
        for m in (2, 4):
            s = catalog(name, m)
            assert s.is_normalized()
            for n in range(2, s.order + 1):
                if (n - 1) % m != 0:
                    assert s.coeff(n) == 0, (name, m, n)


def test_catalog_rejects_unknown_and_misused_names():
    with pytest.raises(ValueError):
        catalog("koebe", 1)
    with pytest.raises(ValueError):
        catalog("geometric", 2)
    assert "geometric" in CATALOG_NAMES


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_catalog_refuses_order_zero(name):
    with pytest.raises(ValueError, match="order must be >= 1"):
        catalog(name, 1, 0)


def test_from_series_checks_symmetry():
    s = TruncatedSeries.exact([0, 1, 1, 0, 0])
    with pytest.raises(ValueError):
        MFoldFunction.from_series(s, 2, 1)
    ok = MFoldFunction.from_series(
        MFoldFunction(2, [F(1, 2), F(1, 3), 0]).to_series(8), 2, 3)
    assert ok.coeffs == (F(1, 2), F(1, 3), 0)


def reference_mfold_entry(name, m, order):
    """The m-fold catalog recipe before it went through root_transform: the
    base entry to ``order``, stretched, and its 1/m-th power."""
    base = catalog(name.removeprefix("mfold-"), 1, order)
    inner = base.stretch(m).shift_down(m).truncate(order - 1)
    return inner.pow(F(1, m)).shift_up(1)


@pytest.mark.parametrize("name", ["mfold-geometric", "mfold-log",
                                  "mfold-atanh"])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_catalog_mfold_entries_match_the_stretched_power(name, m):
    for order in (5, 6, 7, 12, 13, 29, 61):
        assert list(catalog(name, m, order)) == \
            list(reference_mfold_entry(name, m, order)), order
