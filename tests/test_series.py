"""Truncated-series arithmetic against independent oracles."""

import operator
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bifold.series import (ComplexBatch, QComplex, TruncatedSeries,
                           geometric_series)

S = TruncatedSeries.exact


def brute_mul(a, b):
    """Schoolbook polynomial product (independent of the series code)."""
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


fractions_st = st.fractions(min_value=-4, max_value=4, max_denominator=6)


# ----------------------------------------------------------------------
# ring operations


def test_difference_of_squares():
    assert (S([1, 1, 0]) * S([1, -1, 0])).coeffs == (1, 0, -1)


def test_monomial_product():
    z = TruncatedSeries.identity(2)
    assert (z * z).coeffs == (0, 0, 1)


def test_identity_element():
    a = S([1, 2, 2])
    assert (a * TruncatedSeries.one(2)) == a


def test_geometric_division():
    one = TruncatedSeries.one(10)
    out = one / S([1, -1] + [0] * 9)
    assert out == geometric_series(10)


def test_z_over_z():
    z = TruncatedSeries.identity(5)
    assert (z / z) == TruncatedSeries.one(4)


def test_zfprime_over_f_geometric():
    # z f'/f for f = z/(1-z) equals 1/(1-z): the termwise-derivative oracle
    # gives z f' = z + 2z^2 + 3z^3 + ..., and dividing by f must return the
    # all-ones series.
    f = geometric_series(12).shift_up(1).truncate(12)
    zfp = f.derivative().shift_up(1)
    assert (zfp / f) == geometric_series(11)


def test_backend_mismatch_raises():
    with pytest.raises(ValueError, match="backend"):
        S([1, 0]) + TruncatedSeries.floating([1, 0])


def test_coefficient_beyond_order_is_an_error():
    with pytest.raises(IndexError):
        S([1, 2, 3]).coeff(3)


def test_division_by_zero_series():
    with pytest.raises(ZeroDivisionError):
        S([1, 1]) / S([0, 0])


def test_division_without_shared_z_factor():
    with pytest.raises(ZeroDivisionError):
        S([1, 1, 1]) / S([0, 1, 1])


# ----------------------------------------------------------------------
# composition


def test_compose_identity_inner():
    f = S([0, 1, 1, 0])
    z = TruncatedSeries.identity(3)
    assert f.compose(z) == f


def test_compose_identity_outer():
    inner = S([0, 1, 1, 0])
    z = TruncatedSeries.identity(3)
    assert z.compose(inner) == inner


def test_compose_against_brute_expansion():
    # compose(z - z^2, z + z^2): expand (z+z^2) - (z+z^2)^2 by schoolbook
    # multiplication and compare.
    inner = [Fraction(0), Fraction(1), Fraction(1), Fraction(0), Fraction(0)]
    sq = brute_mul(inner, inner)[:5]
    expected = [a - b for a, b in zip(inner, sq)]
    assert expected == [0, 1, 0, -2, -1]  # z - 2z^3 - z^4 truncated
    out = S([0, 1, -1, 0, 0]).compose(S([0, 1, 1, 0, 0]))
    assert list(out.coeffs) == expected


def test_compose_requires_zero_constant_term():
    with pytest.raises(ValueError):
        S([0, 1, 1]).compose(S([1, 1, 0]))


# ----------------------------------------------------------------------
# calculus


def test_derivative_of_z():
    assert TruncatedSeries.identity(1).derivative().coeffs == (1,)


def test_derivative_shifts_coefficients():
    a2 = Fraction(5, 3)
    assert S([0, 1, a2]).derivative().coeffs == (1, 2 * a2)


def test_derivative_of_geometric():
    # termwise rule: d/dz sum z^n = sum n z^(n-1) = 1 + 2z + 3z^2 + ...
    f = geometric_series(8).shift_up(1).truncate(8)
    assert list(f.derivative().coeffs) == list(range(1, 9))


def test_product_rule():
    a = S([1, 2, -1, 3])
    b = S([0, 1, 5, -2])
    lhs = (a * b).derivative()
    rhs = a.derivative() * b.truncate(2) + a.truncate(2) * b.derivative()
    assert lhs == rhs


# ----------------------------------------------------------------------
# log / exp / pow


def test_pow_exponent_one():
    a = S([1, 1, 0])
    assert a.pow(1) == a


def binomial_coefficient(r, n):
    out = Fraction(1)
    for k in range(n):
        out *= (r - k) / (k + 1)
    return out


def test_square_root_binomial_series():
    # oracle: (1+z)^(1/2) coefficients are the generalized binomials
    out = S([1, 1] + [0] * 6).pow(Fraction(1, 2))
    expected = [binomial_coefficient(Fraction(1, 2), n) for n in range(8)]
    assert list(out.coeffs) == expected
    assert expected[:3] == [1, Fraction(1, 2), Fraction(-1, 8)]


def test_log_of_geometric_by_integration_oracle():
    # log(1/(1-z)) = integral of 1/(1-z) dz = sum z^n / n
    geo = geometric_series(10)
    expected = geo.truncate(9).integrate()
    assert geo.log1() == expected
    assert list(geo.log1().coeffs[1:4]) == [1, Fraction(1, 2), Fraction(1, 3)]


def test_exp0_requires_zero_constant():
    with pytest.raises(ValueError):
        S([1, 1]).exp0()


def test_pow_requires_unit_constant():
    with pytest.raises(ValueError):
        S([2, 1]).pow(Fraction(1, 2))


@given(st.lists(fractions_st, min_size=3, max_size=8),
       st.fractions(min_value=-3, max_value=3, max_denominator=4))
@settings(max_examples=60, deadline=None)
def test_pow_times_pow_negated_is_one(tail, r):
    a = S([Fraction(1)] + tail)
    prod = a.pow(r) * a.pow(-r)
    assert prod == TruncatedSeries.one(a.order)


# ----------------------------------------------------------------------
# reversion


def test_revert_identity():
    z = TruncatedSeries.identity(6)
    assert z.revert() == z


def test_revert_one_fold_pattern():
    # inverse of z + a2 z^2 + a3 z^3 + a4 z^4:
    #   w - a2 w^2 + (2 a2^2 - a3) w^3 - (5 a2^3 - 5 a2 a3 + a4) w^4
    a2, a3, a4 = Fraction(3, 7), Fraction(-2, 5), Fraction(1, 3)
    g = S([0, 1, a2, a3, a4]).revert()
    assert g.coeff(2) == -a2
    assert g.coeff(3) == 2 * a2 ** 2 - a3
    assert g.coeff(4) == -(5 * a2 ** 3 - 5 * a2 * a3 + a4)


def test_revert_two_fold_unit():
    g = S([0, 1, 0, 1, 0, 0, 0, 0]).revert()  # z + z^3
    assert list(g.coeffs[:8]) == [0, 1, 0, -1, 0, 3, 0, -12]
    # odd symmetry of the inverse
    assert g.coeff(2) == g.coeff(4) == g.coeff(6) == 0


def test_revert_requires_normalized():
    with pytest.raises(ValueError):
        S([0, 2, 1]).revert()


@given(st.lists(fractions_st, min_size=1, max_size=10))
@settings(max_examples=40, deadline=None)
def test_revert_round_trip_both_ways(tail):
    f = S([Fraction(0), Fraction(1)] + tail)
    g = f.revert()
    ident = TruncatedSeries.identity(f.order)
    assert f.compose(g) == ident
    assert g.compose(f) == ident


def test_revert_round_trip_order_25():
    import random

    rng = random.Random("series/deep-roundtrip")
    coeffs = [Fraction(0), Fraction(1)] + [
        Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(24)]
    f = S(coeffs)
    assert f.compose(f.revert()) == TruncatedSeries.identity(25)


# ----------------------------------------------------------------------
# evaluation (float backend)


def test_eval_constant():
    assert S([1, 1, 1]).eval(0) == 1


def test_eval_identity():
    assert TruncatedSeries.identity(3).eval(0.5j) == 0.5j


def test_eval_geometric_closed_form():
    value = geometric_series(30).eval(0.5)
    assert abs(value - 2.0) < 1e-9


@st.composite
def equal_length_pairs(draw):
    n = draw(st.integers(min_value=21, max_value=24))
    coeff = st.floats(-1, 1)
    return (draw(st.lists(coeff, min_size=n, max_size=n)),
            draw(st.lists(coeff, min_size=n, max_size=n)))


@given(equal_length_pairs(), st.complex_numbers(max_magnitude=0.5))
@settings(max_examples=60, deadline=None)
def test_eval_distributes(pair, z):
    a = TruncatedSeries.floating(pair[0])
    b = TruncatedSeries.floating(pair[1])
    add_gap = abs((a + b).eval(z) - (a.eval(z) + b.eval(z)))
    scale = max(1.0, abs(a.eval(z)) + abs(b.eval(z)))
    assert add_gap <= 1e-12 * scale
    n = a.order
    prod_val = (a * b).eval(z)
    direct = a.eval(z) * b.eval(z)
    # the truncated product drops the convolution terms beyond order n
    tail = sum(abs(z) ** k for k in range(n + 1, 2 * n + 1)) * (n + 1)
    assert abs(prod_val - direct) <= 1e-12 * max(1.0, abs(direct)) + tail


# ----------------------------------------------------------------------
# exact complex scalars


def test_qcomplex_field_ops():
    a = QComplex(Fraction(3, 5), Fraction(4, 5))
    b = QComplex(Fraction(-1, 2), Fraction(1, 3))
    assert (a + b) - b == a
    assert (a * b) / b == a
    assert a * a.conjugate() == a.abs2() == 1
    assert (a ** 5).abs2() == 1


def test_qcomplex_mixes_with_fractions():
    a = QComplex(1, 2)
    assert Fraction(1, 2) * a == QComplex(Fraction(1, 2), 1)
    assert 1 + a == QComplex(2, 2)
    assert (Fraction(1) / QComplex(0, 1)) == QComplex(0, -1)


def test_qcomplex_in_series():
    i = QComplex(0, 1)
    s = TruncatedSeries.exact([1, i, Fraction(1, 2)])
    sq = s * s
    assert sq.coeff(1) == QComplex(0, 2)
    assert sq.coeff(2) == QComplex(0)  # 2*(1/2) + i^2 = 0


# ----------------------------------------------------------------------
# complex float batches


def bits(z):
    """(real, imaginary) as hex strings: equal exactly when the bits are."""
    z = complex(z)
    return z.real.hex(), z.imag.hex()


def random_complexes(rng, count):
    def part():
        return rng.choice([0.0, -0.0, 1.0, rng.uniform(-2, 2),
                           rng.uniform(-2, 2) * 10.0 ** rng.randint(-9, 9)])
    return [complex(part(), part()) for _ in range(count)]


def as_batch(values):
    return ComplexBatch(np.array([z.real for z in values]),
                        np.array([z.imag for z in values]))


def entries(batch):
    return [complex(r, i) for r, i in zip(batch.re, batch.im)]


BATCH_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul}


@pytest.mark.parametrize("op", sorted(BATCH_OPS))
def test_batch_arithmetic_matches_complex_bit_for_bit(op):
    fn = BATCH_OPS[op]
    rng = random.Random(f"batch/{op}")
    a, b = random_complexes(rng, 400), random_complexes(rng, 400)
    x, y = as_batch(a), as_batch(b)
    cases = [(fn(x, y), [fn(s, t) for s, t in zip(a, b)])]
    for scalar in (0, 3, -2, 0.0, -0.0, 0.37, -1e-7, 2 - 0.5j, -0.0j):
        cases.append((fn(x, scalar), [fn(s, scalar) for s in a]))
        cases.append((fn(scalar, x), [fn(scalar, s) for s in a]))
    weights = np.array([rng.uniform(0, 1) for _ in a])  # a real array
    cases.append((fn(weights, x),
                  [fn(float(w), s) for w, s in zip(weights, a)]))
    for batch, expected in cases:
        assert [bits(z) for z in entries(batch)] == [bits(z) for z in expected]


def test_batch_division_by_a_real_and_abs_match_complex():
    rng = random.Random("batch/divide")
    a = random_complexes(rng, 400)
    x = as_batch(a)
    for divisor in (1, -3, 2.0, 0.1, -7.25, 4 * 0.3):
        assert [bits(z) for z in entries(x / divisor)] == \
            [bits(s / divisor) for s in a]
    assert [v.hex() for v in abs(x)] == [abs(s).hex() for s in a]
    with pytest.raises(ZeroDivisionError):
        x / 0.0
