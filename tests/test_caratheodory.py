"""Herglotz-atom sampling, expansions, and the coefficient inequalities."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from bifold.caratheodory import (CaratheodoryFunction, _base, _moments,
                                 _negative, _off_circle, _off_simplex,
                                 check_lemma1, constrained_pair, sample,
                                 sample_exact, unimodular_exact, with_moments)
from bifold.series import QComplex

F = Fraction
ONE = QComplex(1, 0)


def test_single_kernel_expansion():
    p = CaratheodoryFunction([(1, ONE)])
    s = p.expand(4)
    assert s.coeffs == (QComplex(1), QComplex(2), QComplex(2), QComplex(2),
                        QComplex(2))


def test_exact_weights_become_fractions_and_fractions_stay_as_given():
    half = F(1, 2)
    p = CaratheodoryFunction([(half, ONE), (half, -ONE)])
    assert all(w is half for w, _ in p.atoms)
    (w, _), = CaratheodoryFunction([(1, ONE)]).atoms
    assert type(w) is Fraction and w == 1
    with pytest.raises(ValueError):
        CaratheodoryFunction([(F(3, 4), ONE), (F(1, 2), -ONE)])


def test_opposite_atoms_cancel_odd_coefficients():
    p = CaratheodoryFunction([(F(1, 2), ONE), (F(1, 2), -ONE)])
    s = p.expand(4)
    assert s.coeff(1) == s.coeff(3) == 0
    assert s.coeff(2) == s.coeff(4) == 2


def test_threefold_substitution():
    p = CaratheodoryFunction([(1, ONE)], fold=3)
    s = p.expand(7)
    assert s.coeff(3) == 2 and s.coeff(6) == 2
    assert all(s.coeff(n) == 0 for n in (1, 2, 4, 5, 7))


def test_expansion_linear_in_weights():
    z1 = unimodular_exact(F(1, 3))
    z2 = unimodular_exact(F(-2, 5))
    mixed = CaratheodoryFunction([(F(1, 4), z1), (F(3, 4), z2)])
    a = CaratheodoryFunction([(1, z1)])
    b = CaratheodoryFunction([(1, z2)])
    for k in (1, 2, 3):
        assert mixed.coefficient(k) == \
            F(1, 4) * a.coefficient(k) + F(3, 4) * b.coefficient(k)


def test_constant_one_function():
    p = CaratheodoryFunction.constant_one()
    assert p.moments(3) == [QComplex(0)] * 3
    assert p.eval(0.5 + 0.2j) == 1
    report = check_lemma1(p)
    assert report.ok and report.second_lhs == 0.0


@pytest.mark.parametrize("fold", [2.5, 0, True])
def test_fold_order_must_be_a_positive_integer(fold):
    # 2.5 used to build a fold-2 function, and True a fold-1 one
    with pytest.raises(ValueError, match="^fold order m must be a positive "
                                         f"integer, got {fold!r}$"):
        CaratheodoryFunction([(1, ONE)], fold=fold)


@pytest.mark.parametrize("build,text", [
    (lambda: CaratheodoryFunction([("1", "1")], backend="float"), "'1'"),
    (lambda: CaratheodoryFunction([("1", 1)]), "'1'"),
    (lambda: CaratheodoryFunction([(1.0, b"1")], backend="float"), "b'1'"),
    (lambda: with_moments("0.01", "0.02j", backend="float"), "'0.01'"),
], ids=["float-atom", "inferred-backend", "bytes-point", "with-moments"])
def test_float_backend_refuses_text(build, text):
    # float() and complex() would parse the text as a number
    with pytest.raises(TypeError, match=f"^float backend cannot hold "
                       f"{text}$"):
        build()


def test_constructor_invariants():
    with pytest.raises(ValueError):
        CaratheodoryFunction([(F(1, 2), ONE)])  # weights must sum to 1
    with pytest.raises(ValueError):
        CaratheodoryFunction([(1, QComplex(1, 1))])  # not unimodular
    with pytest.raises(ValueError):
        CaratheodoryFunction([(0.5, 1 + 0j), (0.5, 0.7 + 0j)],
                             backend="float")


NAN = float("nan")


@pytest.mark.parametrize("atoms", [
    [(NAN, 1 + 0j)],
    [(1.0, complex(NAN, 0.0))],
    [(1.0, complex(1.0, NAN))],
    [(0.5, 1 + 0j), (NAN, 1j)],
    [(0.5, 1 + 0j), (0.5, complex(NAN, NAN))],
], ids=["weight", "point-re", "point-im", "second-weight", "second-point"])
def test_nan_atoms_are_refused(atoms):
    with pytest.raises(ValueError):
        CaratheodoryFunction(atoms)


def test_nan_fails_each_float_check():
    assert _negative(NAN) and _off_circle(complex(NAN, 0.0))
    assert _off_simplex([0.5, NAN])
    assert not (_negative(0.0) or _off_circle(1j) or _off_simplex([0.5, 0.5]))


# ----------------------------------------------------------------------
# inequalities


def test_lemma_equality_case():
    report = check_lemma1(CaratheodoryFunction([(1, ONE)]), depth=4)
    assert report.ok
    assert all(abs(mag - 2.0) < 1e-15 for _, mag, _ in report.magnitudes)
    assert report.second_lhs == 0.0 and report.second_rhs == 0.0


def test_lemma_monte_carlo_float():
    for i in range(400):
        fn = sample(f"lemma-mc/{i}", 5, 1)
        assert check_lemma1(fn, depth=4).ok


def test_lemma_exact_backend_is_exact():
    for i in range(50):
        fn = sample_exact(f"lemma-exact/{i}", 4, 2)
        report = check_lemma1(fn, depth=3)
        assert report.ok


def test_lemma_needs_depth_two():
    with pytest.raises(ValueError):
        check_lemma1(CaratheodoryFunction([(1, ONE)]), depth=1)


# ----------------------------------------------------------------------
# samplers


def test_sample_is_deterministic():
    a = sample(99, 4, 2)
    b = sample(99, 4, 2)
    assert a.atoms == b.atoms and a.fold == b.fold


def test_sample_structural_invariants():
    fn = sample(5, 6, 3)
    assert abs(sum(w for w, _ in fn.atoms) - 1.0) < 1e-12
    assert all(abs(abs(z) - 1.0) < 1e-12 for _, z in fn.atoms)
    assert all(w >= 0 for w, _ in fn.atoms)


def test_sample_exact_structural_invariants():
    fn = sample_exact(5, 6, 3)
    assert sum(w for w, _ in fn.atoms) == 1
    assert all(z.abs2() == 1 for _, z in fn.atoms)


def test_single_atom_sample_is_extremal():
    for i in range(20):
        fn = sample(f"extremal/{i}", 1, 1)
        assert abs(abs(fn.coefficient(1)) - 2.0) <= 1e-12


def test_positive_real_part_on_grid():
    fn = sample(17, 5, 2)
    for k in range(1000):
        r = 0.95 * ((k % 10) + 1) / 10.0
        z = r * complex(__import__("cmath").exp(2j * 3.14159265 * k / 1000))
        assert fn.eval(z).real > 0


def test_pythagorean_points_are_unimodular():
    for t in (F(0), F(1), F(-3, 7), F(22, 5)):
        assert unimodular_exact(t).abs2() == 1


# ----------------------------------------------------------------------
# constrained pairs


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_constrained_pair_exact_backend(m):
    p, q = constrained_pair(31, m, 3, backend="exact")
    assert p.coefficient(1) + q.coefficient(1) == QComplex(0)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_constrained_pair_float_backend_is_bit_exact(m):
    worst = 0.0
    for i in range(250):
        p, q = constrained_pair(f"pair/{m}/{i}", m, 3, backend="float")
        worst = max(worst, abs(p.coefficient(1) + q.coefficient(1)))
    assert worst == 0.0


def test_constrained_pair_second_moments_differ():
    p, q = constrained_pair(8, 2, 3, backend="exact")
    assert p.coefficient(2) != q.coefficient(2)


def test_constrained_pair_deterministic():
    a = constrained_pair(123, 3, 5)
    b = constrained_pair(123, 3, 5)
    assert a[0].atoms == b[0].atoms and a[1].atoms == b[1].atoms


def test_self_negating_zero_moment():
    # p with p_m = 0 pairs with itself
    p = with_moments(0, 0)
    assert p.coefficient(1) + p.coefficient(1) == QComplex(0)


# ----------------------------------------------------------------------
# prescribed moments


def test_zero_moment_base_moments():
    # with_moments(0, 0) is the base mixture itself, on both backends
    for backend in ("exact", "float"):
        fn = with_moments(0, 0, fold=3, backend=backend)
        assert fn.atoms == tuple(zip(*_base(backend)))
        assert fn.fold == 3
    base = with_moments(0, 0)
    points = [z for _, z in base.atoms]
    # the closed form of with_moments rests on this layout: the fourth roots
    # of unity, then a conjugate pair
    assert points[:4] == [QComplex(1), QComplex(0, 1), QComplex(-1),
                          QComplex(0, -1)]
    assert points[5] == QComplex(points[4].re, -points[4].im)
    assert base.coefficient(1) == QComplex(0)
    assert base.coefficient(2) == QComplex(0)
    assert sum(w for w, _ in base.atoms) == 1


def test_with_moments_hits_targets_exactly():
    c1 = QComplex(F(1, 10), F(-1, 12))
    c2 = QComplex(F(1, 16), F(1, 9))
    fn = with_moments(c1, c2)
    assert fn.coefficient(1) == c1 + c1
    assert fn.coefficient(2) == c2 + c2


def test_with_moments_rejects_unreachable_targets():
    with pytest.raises(ValueError):
        with_moments(QComplex(1), QComplex(1))


@pytest.mark.parametrize("c1", [0.01, 0.01 + 0.01j])
def test_exact_with_moments_refuses_float_targets(c1):
    with pytest.raises(TypeError, match="exact backend cannot hold"):
        with_moments(c1, 0.02)


def reference_weights(c1, c2):
    """The base weights plus the solution of the 5x5 moment system by
    Gauss-Jordan elimination over Fractions, the sixth weight held fixed:
    the solver that the closed form replaced."""
    base, points = zip(*with_moments(0, 0).atoms)
    points = points[:5]
    rows = [[F(1)] * 5 + [F(0)],
            [z.re for z in points] + [c1.re],
            [z.im for z in points] + [c1.im],
            [(z * z).re for z in points] + [c2.re],
            [(z * z).im for z in points] + [c2.im]]
    for col in range(5):
        pivot = next(r for r in range(col, 5) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for r in range(5):
            if r != col:
                rows[r] = [x - rows[r][col] * y
                           for x, y in zip(rows[r], rows[col])]
    return [w + d for w, d in zip(base, [row[5] for row in rows] + [0])]


targets_st = st.tuples(*[st.fractions(F(-1, 4), F(1, 4), max_denominator=97)
                         for _ in range(4)])


@given(targets_st)
@settings(max_examples=200, deadline=None)
@example((F(-1, 4), F(0), F(0), F(0)))  # the first weight lands on 0
def test_exact_with_moments_is_the_unique_nonnegative_solution(parts):
    c1, c2 = QComplex(*parts[:2]), QComplex(*parts[2:])
    expected = reference_weights(c1, c2)
    if min(expected) < 0:
        with pytest.raises(ValueError, match="weight simplex"):
            with_moments(c1, c2)
        return
    fn = with_moments(c1, c2, fold=3)
    assert [w for w, _ in fn.atoms] == expected
    assert fn.coefficient(1) == 2 * c1
    assert fn.coefficient(2) == 2 * c2


# A float weight is base + delta, with base under 0.3 and delta a quarter
# sum of terms each under |c1| + 1.4 |c2|, every one a few roundings deep
# (the constants 3/5, 4/5, -7/25 and 24/25 round too).  A first-order count
# gives an error under 5 u (1 + |c1| + |c2|), u = 2^-53; the bound below is
# 8 u (1 + |c1| + |c2|), and the worst error measured over 35,000 random
# targets in [-1/4, 1/4] was 0.47 u (1 + |c1| + |c2|).
FLOAT_WEIGHT_BOUND = 8 * 2.0 ** -53


@given(st.tuples(*[st.floats(-0.25, 0.25) for _ in range(4)]))
@settings(max_examples=200, deadline=None)
def test_float_with_moments_matches_the_exact_weights(parts):
    c1, c2 = complex(*parts[:2]), complex(*parts[2:])
    expected = reference_weights(*(QComplex(F(c.real), F(c.imag))
                                   for c in (c1, c2)))
    bound = FLOAT_WEIGHT_BOUND * (1 + abs(c1) + abs(c2))
    if min(expected) < -bound:
        with pytest.raises(ValueError, match="weight simplex"):
            with_moments(c1, c2, backend="float")
    elif min(expected) > bound:
        fn = with_moments(c1, c2, backend="float")
        for (w, _), e in zip(fn.atoms, expected):
            assert abs(w - e) <= bound


# ----------------------------------------------------------------------
# exact atom moments on integers


def reference_moment(atoms, k):
    """The iterated-QComplex moment loop that the integer kernel replaced:
    each weight is coerced to a QComplex, each zeta^k is a product chain."""
    acc = QComplex(0)
    for w, z in atoms:
        zk = QComplex(1)
        for _ in range(k):
            zk = zk * z
        acc = acc + QComplex(w) * zk
    return acc + acc


BASE_POINTS = [z for _, z in with_moments(0, 0).atoms]
# small and large pairwise coprime denominators of tangent-half parameters
DENOMINATORS = [1, 2, 3, 7, 11, 2 ** 31 - 1, 10 ** 9 + 7, 5 ** 13]

points_st = st.one_of(
    st.sampled_from(BASE_POINTS),  # +-1, +-i and 3/5 +- 4i/5
    st.builds(lambda a, b: unimodular_exact(F(a, b)),
              st.integers(-10 ** 6, 10 ** 6), st.sampled_from(DENOMINATORS)))
# raw integer weights, zeros included; at least one is nonzero
raw_weights_st = st.lists(st.integers(0, 60) | st.just(0), min_size=1,
                          max_size=8).filter(any)


@given(raw_weights_st, st.data())
@settings(max_examples=80, deadline=None)
@example([0, 3, 0, 1, 0, 2, 5], None)  # zero weights on the base points
def test_exact_moments_match_the_iterated_qcomplex_loop(raw, data):
    if data is None:
        points = BASE_POINTS + [-BASE_POINTS[4]]
    else:
        points = data.draw(st.lists(points_st, min_size=len(raw),
                                    max_size=len(raw)))
    atoms = [(F(r, sum(raw)), z) for r, z in zip(raw, points)]
    p = CaratheodoryFunction(atoms, fold=2)
    for k in range(1, 5):
        value = p.coefficient(k)
        assert value == reference_moment(p.atoms, k)
        assert type(value) is QComplex
        assert type(value.re) is F and type(value.im) is F


@pytest.mark.parametrize("k", range(1, 5))
def test_exact_moments_of_special_atom_sets(k):
    empty = _moments((), k, QComplex)
    assert empty == [QComplex(0)] * k
    assert all(type(value) is QComplex for value in empty)
    base = with_moments(0, 0)
    assert base.coefficient(k) == reference_moment(base.atoms, k)
    # integer points only, so no imaginary numerators at all
    real = [(F(1, 3), ONE), (F(2, 3), -ONE)]
    assert _moments(real, k, QComplex)[-1] == reference_moment(real, k)
    # the kernel needs neither unimodular points nor a unit weight sum
    loose = [(F(2, 7), QComplex(F(1, 3), F(-5, 11))),
             (F(0), QComplex(F(9, 2))), (F(-4, 13), QComplex(0, F(1, 17)))]
    assert _moments(loose, k, QComplex)[-1] == reference_moment(loose, k)


def reference_float_moment(atoms, k):
    """The per-k float moment loop that ``_moments`` replaced: zeta^k as a
    fresh product chain from 1 for every k."""
    acc = 0j
    for w, z in atoms:
        zk = 1 + 0j
        for _ in range(k):
            zk = zk * z
        acc = acc + w * zk
    return acc + acc


def float_bits(z):
    return z.real.hex(), z.imag.hex()


@given(raw_weights_st, st.data())
@settings(max_examples=60, deadline=None)
def test_moments_in_one_pass_match_the_per_k_moments(raw, data):
    points = data.draw(st.lists(points_st, min_size=len(raw),
                                max_size=len(raw)))
    exact = [(F(r, sum(raw)), z) for r, z in zip(raw, points)]
    # float atoms with signed zeros, where a reordered product would show
    floats = [(float(w), complex(z)) for w, z in exact]
    floats += [(0.25, complex(-0.0, 1.0)), (0.5, complex(-1.0, -0.0)),
               (0.25, complex(0.6, -0.8))]
    depth = 6
    got_exact = _moments(exact, depth, QComplex)
    got_float = _moments(floats, depth, complex)
    assert len(got_exact) == len(got_float) == depth
    for k in range(1, depth + 1):
        assert got_exact[k - 1] == reference_moment(exact, k)
        assert type(got_exact[k - 1]) is QComplex
        assert float_bits(got_float[k - 1]) == \
            float_bits(reference_float_moment(floats, k))
    for fn in (CaratheodoryFunction(exact, fold=3),
               CaratheodoryFunction(floats[len(exact):], fold=2)):
        moments = fn.moments(depth)
        assert moments == [fn.coefficient(k) for k in range(1, depth + 1)]
        series = fn.expand(depth * fn.fold + 1)
        assert [series.coeff(k * fn.fold) for k in range(1, depth + 1)] == \
            moments
