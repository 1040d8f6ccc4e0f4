"""Truncated-series arithmetic against independent oracles."""

import math
import operator
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bifold.caratheodory import CaratheodoryFunction
from bifold.derivation import class_constants
from bifold.membership import ClassSpec
from bifold.series import (ComplexBatch, QComplex, TruncatedSeries,
                           _to_ints, geometric_series)

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


@pytest.mark.parametrize("build", [
    lambda: TruncatedSeries([0, 1], backend="exakt"),
    lambda: CaratheodoryFunction([(1, 1)], backend="exakt"),
    lambda: class_constants(ClassSpec("re", beta=Fraction(1, 4)), "exakt"),
], ids=["series", "caratheodory", "class-constants"])
def test_unknown_backend_word_is_refused(build):
    with pytest.raises(ValueError, match="^backend must be 'exact' or "
                       "'float', got 'exakt'$"):
        build()


def test_negative_truncation_order_is_an_error():
    with pytest.raises(ValueError, match="got -3"):
        geometric_series(240).truncate(-3)


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


QCOMPLEX_OPERANDS = [QComplex(0), QComplex(2), QComplex(0, Fraction(-1, 7)),
                     QComplex(Fraction(3, 5), Fraction(-4, 5)),
                     QComplex(Fraction(-10 ** 12, 2 ** 31 - 1),
                              Fraction(5 ** 13, 3))]
REAL_OPERANDS = [0, 3, -2, True, Fraction(0), Fraction(1, 3),
                 Fraction(-7, 10 ** 9 + 7)]
REAL_OPERATIONS = {
    "z + r": operator.add, "r + z": lambda z, r: r + z,
    "z - r": operator.sub, "r - z": lambda z, r: r - z,
    "z * r": operator.mul, "r * z": lambda z, r: r * z,
    "z / r": operator.truediv,
}


@pytest.mark.parametrize("op", sorted(REAL_OPERATIONS))
def test_qcomplex_real_operand_paths_match_the_coerced_operand(op):
    fn = REAL_OPERATIONS[op]
    for z in QCOMPLEX_OPERANDS:
        for r in REAL_OPERANDS:
            if op == "z / r" and not r:
                continue
            value = fn(z, r)
            assert value == fn(z, QComplex(r))
            assert type(value) is QComplex
            assert type(value.re) is Fraction and type(value.im) is Fraction


@pytest.mark.parametrize("zero", [0, Fraction(0), False, QComplex(0)])
def test_qcomplex_division_by_a_zero_real(zero):
    with pytest.raises(ZeroDivisionError, match="^division by zero QComplex$"):
        QComplex(1, 2) / zero


def test_qcomplex_keeps_fraction_parts_and_makes_int_parts_fractions():
    third = Fraction(1, 3)
    z = QComplex(third, 2)
    assert z.re is third
    assert type(z.im) is Fraction and z.im == 2


def test_qcomplex_compares_with_floats_exactly():
    third = QComplex(Fraction(1, 3))
    assert third != 1 / 3 and not third == 1 / 3  # Fraction(1, 3) != 1/3
    assert len({third, 1 / 3}) == 2
    assert QComplex(Fraction(1, 2)) != 0.5 + 0.25j
    assert QComplex(1) != float("nan")
    for value, other in [
            (QComplex(Fraction(1, 2)), 0.5),
            (QComplex(Fraction(1, 2), Fraction(1, 4)), 0.5 + 0.25j),
            (QComplex(Fraction(-3, 8), -5), complex(-0.375, -5.0)),
            (QComplex(0, -1), -1j),  # -1j has a -0.0 real part
            (QComplex(3), 3), (QComplex(-1), -1),
            (QComplex(Fraction(-1, 3)), Fraction(-1, 3)),
            (QComplex(Fraction(2, 7), Fraction(-9, 11)),
             QComplex(Fraction(4, 14), Fraction(-18, 22)))]:
        assert value == other and other == value
        assert hash(value) == hash(other)
        assert len({value, other}) == 1


def old_to_ints(coeffs, order):
    """``_to_ints`` as it read the parts before: through .real and .imag."""
    reals = [c.real for c in coeffs[: order + 1]]
    imags = [c.imag for c in coeffs[: order + 1]]
    if not any(imags):
        imags = None
    parts = reals + (imags or [])
    den = math.lcm(*(x.denominator for x in parts))
    re = [x.numerator * (den // x.denominator) for x in reals]
    im = imags and [x.numerator * (den // x.denominator) for x in imags]
    return re, im, den


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


# ----------------------------------------------------------------------
# exp0 and integrate: one loop for both backends


def reference_exp0(coeffs, zero, one):
    """The float exp0 loop before both backends shared one: no zero skip."""
    out = [one]
    for j in range(1, len(coeffs)):
        acc = zero
        for k in range(1, j + 1):
            acc += k * coeffs[k] * out[j - k]
        out.append(acc / j)
    return out


def reference_integrate_float(coeffs):
    return [0j] + [c / (n + 1) for n, c in enumerate(coeffs)]


def reference_integrate_exact(coeffs):
    return [Fraction(0)] + [c * Fraction(1, n + 1)
                            for n, c in enumerate(coeffs)]


def rational_coefficients(rng, count):
    def fraction():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return [rng.choice([Fraction(0), fraction(),
                        QComplex(fraction(), fraction())])
            for _ in range(count)]


@pytest.mark.parametrize("seed", range(40))
def test_merged_exp0_and_integrate_match_the_old_loops(seed):
    rng = random.Random(f"merged-loops/{seed}")
    n = rng.randint(1, 16)
    floats = random_complexes(rng, n + 1)
    floats[0] = rng.choice([0j, complex(-0.0, 0.0), complex(0.0, -0.0),
                            complex(-0.0, -0.0)])
    series = TruncatedSeries.floating(floats)
    assert [bits(z) for z in series.exp0()] == \
        [bits(z) for z in reference_exp0(floats, 0j, 1 + 0j)]
    assert [bits(z) for z in series.integrate()] == \
        [bits(z) for z in reference_integrate_float(floats)]

    exact = [Fraction(0)] + rational_coefficients(rng, n)
    series = S(exact)
    assert list(series.exp0()) == \
        reference_exp0(exact, Fraction(0), Fraction(1))
    assert list(series.integrate()) == reference_integrate_exact(exact)


# ----------------------------------------------------------------------
# zero-skipping division and exp0 against the loops that form every term


def reference_truediv(num, den):
    """The series division loop before zero skipping: every term formed."""
    out = []
    for k in range(min(len(num), len(den))):
        acc = num[k]
        for i in range(k):
            acc = acc - out[i] * den[k - i]
        out.append(acc / den[0])
    return out


FLOAT_ZEROS = [0j, complex(-0.0, 0.0), complex(0.0, -0.0),
               complex(-0.0, -0.0)]


def sparse_coefficients(rng, count, m, nonzero, zeros):
    """m-fold sparse coefficients: drawn values at multiples of m, zeros of
    every kind elsewhere (and at some multiples of m too)."""
    return [nonzero() if k % m == 0 and rng.random() < 0.8
            else rng.choice(zeros) for k in range(count)]


@pytest.mark.parametrize("m", [1, 2, 3, 5])
@pytest.mark.parametrize("seed", range(12))
def test_zero_skipping_division_and_exp0_match_the_old_loops(m, seed):
    rng = random.Random(f"zero-skip/{m}/{seed}")
    n = rng.randint(1, 24)

    def draw(nonzero, zeros):
        return sparse_coefficients(rng, n + 1, m, nonzero, zeros)

    def float_value():
        return random_complexes(rng, 1)[0]

    num, den = draw(float_value, FLOAT_ZEROS), draw(float_value, FLOAT_ZEROS)
    den[0] = rng.choice([1 + 0j, complex(rng.uniform(0.5, 2), -0.0),
                         complex(rng.uniform(-2, 2), rng.uniform(-2, 2))])
    quotient = TruncatedSeries.floating(num) / TruncatedSeries.floating(den)
    assert [bits(z) for z in quotient] == \
        [bits(z) for z in reference_truediv(num, den)]
    num[0] = rng.choice(FLOAT_ZEROS)
    assert [bits(z) for z in TruncatedSeries.floating(num).exp0()] == \
        [bits(z) for z in reference_exp0(num, 0j, 1 + 0j)]

    def exact_value():
        return rational_coefficients(rng, 1)[0] or Fraction(1, 7)

    exact_zeros = [Fraction(0), QComplex(0)]
    num, den = draw(exact_value, exact_zeros), draw(exact_value, exact_zeros)
    den[0] = rng.choice([Fraction(1), exact_value()])
    assert list(S(num) / S(den)) == reference_truediv(num, den)
    num[0] = Fraction(0)
    assert list(S(num).exp0()) == \
        reference_exp0(num, Fraction(0), Fraction(1))


def test_division_forms_every_term_after_a_negative_zero_start():
    # a -0.0 start survives only if no -0.0 part is subtracted; here the
    # zero term out[0] * den[1] = (-1+0j) * (0+0j) has real part -0.0, so
    # skipping it would leave -0.0 where the old loop gives +0.0
    num = [complex(-1.0, 0.0), complex(-0.0, 0.0)]
    den = [1 + 0j, 0j]
    expected = reference_truediv(num, den)
    assert bits(expected[1]) == ("0x0.0p+0", "0x0.0p+0")
    quotient = TruncatedSeries.floating(num) / TruncatedSeries.floating(den)
    assert [bits(z) for z in quotient] == [bits(z) for z in expected]


# ----------------------------------------------------------------------
# integer kernels against the Fraction loops they replaced


def schoolbook_mul(a, b):
    """The exact product kernel before the integer kernels, truncated to
    len(a): one Fraction operation per nonzero term."""
    out = [Fraction(0)] * len(a)
    for i, x in enumerate(a):
        for j, y in enumerate(b[: len(a) - i]):
            if x and y:
                out[i + j] = out[i + j] + x * y
    return out


def reference_revert(coeffs, mul, zero, one):
    """The reversion loop before the integer kernels: every power f^k by
    ``mul``, every term of the recursion formed."""
    n = len(coeffs) - 1
    powers = [None, list(coeffs)]
    for _ in range(2, n + 1):
        powers.append(mul(powers[-1], coeffs))
    b = [zero, one]
    for j in range(2, n + 1):
        acc = zero
        for k in range(1, j):
            acc = acc + b[k] * powers[k][j]
        b.append(-acc)
    return b


def reference_pow(series, exponent):
    """The rational power before Miller's recurrence."""
    return list((series.log1() * exponent).exp0())


def float_mul(a, b):
    return list(TruncatedSeries.floating(a) * TruncatedSeries.floating(b))


# small and large pairwise coprime denominators
DENOMINATORS = [1, 2, 3, 7, 9, 2 ** 31 - 1, 10 ** 9 + 7, 5 ** 13, 3 ** 20]

rationals_st = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6),
                         st.sampled_from(DENOMINATORS))
exact_values_st = st.one_of(
    rationals_st,
    st.builds(QComplex, rationals_st,
              rationals_st.filter(bool)))  # a nonzero imaginary part


@st.composite
def m_fold_tails(draw, offset):
    """Coefficients c[0..n] that vanish unless n = offset (mod m)."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(2, 24))
    return [draw(exact_values_st) if k % m == offset % m else Fraction(0)
            for k in range(n + 1)]


@given(m_fold_tails(offset=1))
@settings(max_examples=60, deadline=None)
def test_exact_revert_matches_the_schoolbook_recursion(coeffs):
    coeffs[:2] = [Fraction(0), Fraction(1)]
    assert list(S(coeffs).revert()) == \
        reference_revert(coeffs, schoolbook_mul, Fraction(0), Fraction(1))


@given(m_fold_tails(offset=0),
       st.builds(Fraction, st.integers(-7, 7), st.integers(1, 7)))
@settings(max_examples=60, deadline=None)
@example([Fraction(1), QComplex(Fraction(1, 3), 2), Fraction(5, 7)],
         Fraction(-3, 2))
@example([Fraction(1), Fraction(0), Fraction(2, 10 ** 9 + 7)], Fraction(0))
def test_exact_pow_matches_exp0_of_log1(coeffs, exponent):
    coeffs[0] = Fraction(1)
    series = S(coeffs)
    assert list(series.pow(exponent)) == reference_pow(series, exponent)


def test_exact_pow_with_a_complex_exponent_matches_exp0_of_log1():
    series = S([Fraction(1), Fraction(1, 2), QComplex(0, Fraction(2, 3)),
                Fraction(0), Fraction(-5, 7), QComplex(1, 1)])
    for exponent in (QComplex(Fraction(1, 2), Fraction(-1, 3)),
                     QComplex(0, 1), QComplex(Fraction(-2, 5))):
        assert list(series.pow(exponent)) == reference_pow(series, exponent)


@given(m_fold_tails(offset=0), m_fold_tails(offset=0))
@settings(max_examples=60, deadline=None)
def test_exact_product_matches_the_schoolbook_product(a, b):
    n = min(len(a), len(b)) - 1
    assert list(S(a) * S(b)) == brute_mul(a, b)[: n + 1]


@pytest.mark.parametrize("seed", range(20))
def test_float_revert_and_pow_keep_every_bit(seed):
    rng = random.Random(f"float-kernels/{seed}")
    n = rng.randint(2, 24)
    m = rng.randint(1, 3)
    tail = [random_complexes(rng, 1)[0] if k % m == 1 % m
            else rng.choice(FLOAT_ZEROS) for k in range(2, n + 1)]
    coeffs = [0j, 1 + 0j] + tail
    assert [bits(z) for z in TruncatedSeries.floating(coeffs).revert()] == \
        [bits(z) for z in reference_revert(coeffs, float_mul, 0j, 1 + 0j)]
    series = TruncatedSeries.floating([1 + 0j] + tail)
    for exponent in (0.5, -1 / 3, -2.0, 0.0, 1.5 - 0.25j):
        assert [bits(z) for z in series.pow(exponent)] == \
            [bits(z) for z in reference_pow(series, exponent)]


@given(st.lists(exact_values_st | st.just(Fraction(0)), min_size=1,
                max_size=12), st.integers(0, 14))
@settings(max_examples=80, deadline=None)
@example([Fraction(1), Fraction(0), Fraction(-2, 3)], 1)  # no imaginary part
def test_to_ints_reads_the_parts_as_before(coeffs, order):
    re, im, den = _to_ints(coeffs, order)
    assert (re, im, den) == old_to_ints(coeffs, order)
    assert all(type(x) is int for x in re + (im or []))


# ----------------------------------------------------------------------
# float division and exp0 as numpy column updates against the scalar loops


def _has_negative_zero(value):
    return any(not part and math.copysign(1.0, part) < 0
               for part in (value.real, value.imag))


def skipping_truediv(num, den):
    """The zero-skipping scalar division loop the numpy kernel replaced."""
    b0 = den[0]
    out = []
    nonzero = []
    for k in range(min(len(num), len(den))):
        acc = num[k]
        every = _has_negative_zero(acc)
        for i in range(k) if every else nonzero:
            d = den[k - i]
            if every or d:
                acc = acc - out[i] * d
        out.append(acc / b0)
        if out[k]:
            nonzero.append(k)
    return out


def skipping_exp0(coeffs):
    """The zero-skipping scalar exp0 loop the numpy kernel replaced."""
    out = [1 + 0j]
    terms = [(k, k * ak) for k, ak in enumerate(coeffs) if k and ak]
    for j in range(1, len(coeffs)):
        acc = 0j
        for k, kak in terms:
            if k > j:
                break
            if out[j - k]:
                acc = acc + kak * out[j - k]
        out.append(acc / j)
    return out


INF, NAN = float("inf"), float("nan")


def kernel_inputs(rng, n, m, special):
    """m-fold sparse float coefficients with signed zeros of every kind;
    "overflow" scales them so that the kernels run into inf, "nan" plants
    inf and nan parts."""
    def part():
        if special == "nan" and rng.random() < 0.05:
            return rng.choice([INF, -INF, NAN])
        return rng.choice([0.0, -0.0, 1.0, rng.uniform(-2, 2),
                           rng.uniform(-2, 2), rng.uniform(-2, 2)])

    def value():
        return complex(part(), rng.choice([0.0, -0.0, 0.0, part()]))

    coeffs = sparse_coefficients(rng, n + 1, m, value, FLOAT_ZEROS)
    if special == "overflow":
        coeffs = [c * 1e200 if k % m == 0 else c
                  for k, c in enumerate(coeffs)]
    return coeffs


B0S = {"one": 1 + 0j, "negative": complex(-1.75, 0.0),
       "negative-signed": complex(-0.625, -0.0), "complex": 0.5 - 1.25j}


@pytest.mark.parametrize("special", ["finite", "overflow", "nan"])
@pytest.mark.parametrize("b0", sorted(B0S))
@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_float_division_and_exp0_keep_the_scalar_loops_bits(m, b0, special):
    rng = random.Random(f"float-kernels/{m}/{b0}/{special}")
    for n in (0, 1, 15, 16, 17, 40, rng.randint(41, 239), 240):
        num = kernel_inputs(rng, n, m, special)
        den = kernel_inputs(rng, n, m, special)
        den[0] = B0S[b0]
        quotient = TruncatedSeries.floating(num) / \
            TruncatedSeries.floating(den)
        assert [bits(z) for z in quotient] == \
            [bits(z) for z in skipping_truediv(num, den)]
        num[0] = rng.choice(FLOAT_ZEROS)
        assert [bits(z) for z in TruncatedSeries.floating(num).exp0()] == \
            [bits(z) for z in skipping_exp0(num)]


def test_float_division_with_negative_zero_starts_keeps_the_loops_bits():
    # slots past the first numpy block that start on -0.0 parts, among
    # quotients that overflow: every term is formed there, inf times zero
    # included
    rng = random.Random("negative-zero-starts")
    num = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) * 1e300
           for _ in range(121)]
    for k in (0, 17, 40, 41, 100, 120):
        num[k] = rng.choice(FLOAT_ZEROS[1:])
    den = [1 + 0j] + [complex(rng.uniform(-8, 8), 0.0) if k % 3 else 0j
                      for k in range(1, 121)]
    quotient = TruncatedSeries.floating(num) / TruncatedSeries.floating(den)
    expected = skipping_truediv(num, den)
    assert any(math.isnan(z.real) for z in expected)
    assert [bits(z) for z in quotient] == [bits(z) for z in expected]


@pytest.mark.parametrize("order", [0, 1, 40, 240])
def test_eval_many_keeps_the_bits_of_polyval(order):
    rng = random.Random(f"eval-many/{order}")
    coeffs = [complex(rng.uniform(-3, 3), rng.choice([0.0, rng.uniform(-1, 1)]))
              for _ in range(order + 1)]
    points = np.array([0.1, 0.5, 0.95])[:, None] * \
        np.exp(2j * np.pi * np.arange(720) / 720)
    got = TruncatedSeries.floating(coeffs).eval_many(points)
    expected = np.polyval(np.array(coeffs[::-1]), points)
    assert got.shape == expected.shape
    assert [bits(z) for z in got.ravel()] == \
        [bits(z) for z in expected.ravel()]
