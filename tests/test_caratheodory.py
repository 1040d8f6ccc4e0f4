"""Herglotz-atom sampling, expansions, and the coefficient inequalities."""

import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from bifold.caratheodory import (CaratheodoryFunction, _moment, _negative,
                                 _off_circle, _off_simplex, _pair_atoms,
                                 _pair_atoms_block, check_lemma1,
                                 constrained_pair, sample, sample_exact,
                                 solve_linear_exact, unimodular_exact,
                                 with_moments, zero_moment_base)
from bifold.series import FLOAT, QComplex

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


@pytest.mark.parametrize("fold", [2.5, 0])
def test_fold_order_must_be_a_positive_integer(fold):
    # 2.5 used to build a fold-2 function
    with pytest.raises(ValueError, match="^fold order m must be a positive "
                                         f"integer, got {fold!r}$"):
        CaratheodoryFunction([(1, ONE)], fold=fold)


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
        assert check_lemma1(fn, depth=4, tolerance=1e-12).ok


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


@pytest.mark.parametrize("atom_count", range(1, 7))
def test_pair_atoms_block_equals_one_tag_at_a_time(atom_count):
    # float.hex tells -0.0 from 0.0, so every bit and every sign counts
    def bits(w, z):
        return float(w).hex(), float(z.real).hex(), float(z.imag).hex()

    for m in (1, 2, 3, 5):
        for size in (1, 2, 257):
            for tags in (list(range(size)),
                         [f"block/{atom_count}/{i}" for i in range(size)]):
                block = _pair_atoms_block(tags, m, atom_count)
                for i, tag in enumerate(tags):
                    one = _pair_atoms(tag, m, atom_count, FLOAT)
                    for atoms, batch in zip(one, block):
                        assert [bits(*atom) for atom in atoms] == [
                            bits(w[i], complex(z.re[i], z.im[i]))
                            for w, z in batch], (tag, m, atom_count)


class _Fixed(random.Random):
    """A stream whose uniforms are given: ``expovariate`` draws from it."""

    def __init__(self, u):
        super().__init__(0)
        self.u = u

    def random(self):
        return self.u


def test_pair_atoms_block_transforms_are_the_stdlib_recipes():
    # _pair_atoms_block writes the float recipe's two variates as column
    # transforms; a stdlib change to either would otherwise show only as a
    # golden diff
    stream = random.Random("transforms")
    edges = [0.0, 0.25, 0.5, 0.75, 1 - 2.0 ** -53, 2.0 ** -53]
    for u in edges + [stream.random() for _ in range(20000)]:
        assert (-math.log(1.0 - u)).hex() == \
            _Fixed(u).expovariate(1.0).hex(), \
            f"expovariate(1.0) is no longer -log(1.0 - u) at u = {u!r}"
        x = 2 * math.pi * u
        z = cmath.exp(2j * cmath.pi * u)
        assert (math.cos(x).hex(), math.sin(x).hex()) == \
            (z.real.hex(), z.imag.hex()), \
            f"cmath.exp(2j*pi*u) is no longer (cos, sin)(2*pi*u) at u = {u!r}"


def test_constrained_pair_second_moments_differ():
    p, q = constrained_pair(8, 2, 3, backend="exact")
    assert p.coefficient(2) != q.coefficient(2)


def test_constrained_pair_deterministic():
    a = constrained_pair(123, 3, 5)
    b = constrained_pair(123, 3, 5)
    assert a[0].atoms == b[0].atoms and a[1].atoms == b[1].atoms


def test_reflection_negates_first_moment():
    p = CaratheodoryFunction([(1, unimodular_exact(F(2, 3)))])
    q = p.reflect()
    assert q.coefficient(1) == -p.coefficient(1)


def test_self_negating_zero_moment():
    # p with p_m = 0 pairs with itself
    p = zero_moment_base()
    assert p.coefficient(1) + p.coefficient(1) == QComplex(0)


# ----------------------------------------------------------------------
# prescribed moments / exact linear solver


def test_zero_moment_base_moments():
    base = zero_moment_base()
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


def test_solve_linear_exact_and_singular():
    x = solve_linear_exact([[2, 1], [1, 3]], [5, 10])
    assert x == [F(1), F(3)]
    with pytest.raises(ZeroDivisionError):
        solve_linear_exact([[1, 2], [2, 4]], [1, 2])


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


BASE_POINTS = [z for _, z in zero_moment_base().atoms]
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
    empty = _moment((), k, QComplex)
    assert empty == QComplex(0) and type(empty) is QComplex
    base = zero_moment_base()
    assert base.coefficient(k) == reference_moment(base.atoms, k)
    # integer points only, so no imaginary numerators at all
    real = [(F(1, 3), ONE), (F(2, 3), -ONE)]
    assert _moment(real, k, QComplex) == reference_moment(real, k)
    # the kernel needs neither unimodular points nor a unit weight sum
    loose = [(F(2, 7), QComplex(F(1, 3), F(-5, 11))),
             (F(0), QComplex(F(9, 2))), (F(-4, 13), QComplex(0, F(1, 17)))]
    assert _moment(loose, k, QComplex) == reference_moment(loose, k)
