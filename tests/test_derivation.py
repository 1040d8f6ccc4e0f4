"""The coefficient-system solver, its residual ledger, and realizable pairs."""

from dataclasses import replace
from fractions import Fraction

import pytest

from bifold.bounds import bound_alpha_exact, structural_ceiling
from bifold.caratheodory import CaratheodoryFunction, constrained_pair
from bifold.derivation import (bound_consistency, class_constants,
                               forward_verify, realizable_pair, solve_alpha,
                               solve_beta, solve_moments)
from bifold.membership import ClassSpec
from bifold.series import QComplex

F = Fraction
ONE = QComplex(1, 0)


def test_degenerate_symmetric_pair():
    p = CaratheodoryFunction.constant_one()
    sol = solve_alpha(p, p, 1, F(1), F(1))
    assert sol.a_m1 == 0 and sol.a_2m1 == 0
    assert all(complex(v) == 0 for v in sol.residuals.values())


def test_worked_inconsistent_pair():
    # p = (1+z)/(1-z), q = (1-z)/(1+z) at m=1, lambda=1, alpha=1:
    # p1 = 2, q1 = -2, p2 = q2 = 2.  The linear relation gives a2 = 2, the
    # difference relation a3 = 4, and plugging back into the f-side second
    # relation leaves LHS 4 vs RHS 2: the pair is not realizable, which the
    # residual reports instead of failing.
    p = CaratheodoryFunction([(1, ONE)])
    q = CaratheodoryFunction([(1, -ONE)])
    sol = solve_alpha(p, q, 1, F(1), F(1))
    assert sol.p_m == QComplex(2) and sol.q_m == QComplex(-2)
    assert sol.a_m1 == QComplex(2)
    assert sol.a_2m1 == QComplex(4)
    assert sol.residuals["second_f"] == QComplex(2)
    assert sol.residuals["subtraction"] == QComplex(0)
    assert sol.realizability == 4.0


def test_constraint_violation_raises():
    p = CaratheodoryFunction([(1, ONE)])
    with pytest.raises(ValueError, match="constraint"):
        solve_beta(p, p, 1, F(0), F(1))


def test_fold_mismatch_raises():
    p, q = constrained_pair(3, 2, 2, backend="exact")
    with pytest.raises(ValueError):
        solve_alpha(p, q, 3, F(1), F(1))


def test_exact_backend_needs_rational_parameters():
    p, q = constrained_pair(3, 1, 2, backend="exact")
    with pytest.raises(TypeError):
        solve_alpha(p, q, 1, 0.5, F(1))


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("lam", [F(1, 4), F(1, 2), F(1)])
def test_constructed_residuals_vanish_exactly(m, lam):
    for i in range(4):
        p, q = constrained_pair(f"deriv/{m}/{lam}/{i}", m, 3, backend="exact")
        for sol in (solve_alpha(p, q, m, F(1, 2), lam),
                    solve_beta(p, q, m, F(1, 4), lam)):
            assert sol.residuals["first_f"] == QComplex(0)
            assert sol.residuals["first_g"] == QComplex(0)
            assert sol.residuals["subtraction"] == QComplex(0)
            assert sol.residuals["squared"] == QComplex(0)
            assert sol.residuals["odd_square_cancel"] == QComplex(0)


def test_float_backend_constructed_residuals():
    p, q = constrained_pair(11, 2, 3, backend="float")
    sol = solve_beta(p, q, 2, 0.25, 0.5)
    assert sol.max_constructed_residual() < 1e-13
    assert sol.backend == "float"


# ----------------------------------------------------------------------
# realizable pairs: the full system holds


@pytest.mark.parametrize("kind,param", [("arg", F(1, 2)), ("re", F(1, 4))])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_realizable_pair_solves_whole_system(kind, param, m):
    spec = (ClassSpec("arg", m=m, lam=F(1, 2), alpha=param) if kind == "arg"
            else ClassSpec("re", m=m, lam=F(1, 2), beta=param))
    for i in range(3):
        p, q = realizable_pair(f"real/{kind}/{m}/{i}", spec)
        sol = (solve_alpha(p, q, m, spec.alpha, spec.lam) if kind == "arg"
               else solve_beta(p, q, m, spec.beta, spec.lam))
        assert all(complex(v) == 0 for v in sol.residuals.values())
        report = bound_consistency(sol)
        assert report.ok
        assert report.ratio_a_m1 <= 1 + 1e-10
        assert report.ratio_a_2m1 <= 1 + 1e-10


def test_realizable_pair_float_backend():
    spec = ClassSpec("re", m=2, lam=0.5, beta=0.25)
    p, q = realizable_pair(4, spec, backend="float")
    sol = solve_beta(p, q, 2, 0.25, 0.5)
    assert sol.realizability < 1e-13
    assert bound_consistency(sol).ok


# ----------------------------------------------------------------------
# forward verification


def test_forward_verify_zero_data():
    p = CaratheodoryFunction.constant_one(fold=2)
    sol = solve_beta(p, p, 2, F(0), F(1))
    report = forward_verify(sol, p, p)
    assert report.max_abs == 0.0


def test_forward_verify_realizable_pair_exact_zero():
    spec = ClassSpec("arg", m=2, lam=F(1, 4), alpha=F(1, 2))
    p, q = realizable_pair(21, spec)
    sol = solve_alpha(p, q, 2, spec.alpha, spec.lam)
    report = forward_verify(sol, p, q)
    assert report.max_abs == 0.0
    assert report.residual_at("f", 2) == QComplex(0)
    assert report.residual_at("g", 4) == QComplex(0)


def test_forward_verify_order_m_always_zero():
    # the order-m residual is structural: a_{m+1} comes from that relation
    for i in range(3):
        m = 2
        p, q = constrained_pair(f"fwd/{i}", m, 3, backend="exact")
        sol = solve_beta(p, q, m, F(1, 3), F(2, 3))
        report = forward_verify(sol, p, q)
        assert report.residual_at("f", m) == QComplex(0)
        assert report.residual_at("g", m) == QComplex(0)


def test_forward_verify_corruption_is_linear():
    # shifting a_{2m+1} by +1 moves the order-2m residual by m(1+lam)/lam
    m, lam = 2, F(1, 2)
    spec = ClassSpec("re", m=m, lam=lam, beta=F(1, 4))
    p, q = realizable_pair(33, spec)
    sol = solve_beta(p, q, m, spec.beta, lam)
    clean = forward_verify(sol, p, q)
    dirty = forward_verify(replace(sol, a_2m1=sol.a_2m1 + 1), p, q)
    shift = dirty.residual_at("f", 2 * m) - clean.residual_at("f", 2 * m)
    assert shift == F(m) * (1 + lam) / lam


# ----------------------------------------------------------------------
# values attained within the paper's coefficient system


@pytest.mark.parametrize("kind,param", [("alpha", F(1, 2)), ("beta", F(1, 4))],
                         ids=["alpha", "beta"])
@pytest.mark.parametrize("lam", [F(1, 4), F(1, 2), F(1)],
                         ids=lambda lam: f"lam{float(lam):g}")
@pytest.mark.parametrize("m", [1, 2, 3])
def test_single_atom_pair_attains_linear_ceiling(kind, param, lam, m):
    """p = delta(1), q = delta(-1) has |p_m| = 2, so the linear relation
    K1 a_{m+1} = t p_m puts a_{m+1} on the cap 4 lam t/(m(1+lam))."""
    p = CaratheodoryFunction([(1, ONE)], fold=m)
    q = CaratheodoryFunction([(1, -ONE)], fold=m)
    solve, t = ((solve_alpha, param) if kind == "alpha"
                else (solve_beta, 1 - param))
    sol = solve(p, q, m, param, lam)
    ceiling = 4 * lam * t / (m * (1 + lam))
    assert sol.a_m1 == QComplex(ceiling)
    assert float(ceiling) == structural_ceiling(
        ClassSpec.from_kind(kind, m, param, lam))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_two_atom_pair_attains_arg_type_b1(m):
    """At alpha = 1, lambda = 1/2 the pair below attains B1 = 1/m within the
    paper's coefficient system: a_{m+1}^2 = B1^2 and every equation of the
    system, the addition relation included, holds exactly.  The radicand of
    B1 is 4 there, so s = (1 + lambda)/sqrt(4) = 3/4 gives p_m = 2s and
    a_{m+1} = 4 lambda s/(m(1 + lambda)) = 1/m."""
    s = F(3, 4)
    p = CaratheodoryFunction([((1 + s) / 2, ONE), ((1 - s) / 2, -ONE)],
                             fold=m)
    q = CaratheodoryFunction([((1 - s) / 2, ONE), ((1 + s) / 2, -ONE)],
                             fold=m)
    sol = solve_alpha(p, q, m, F(1), F(1, 2))
    b1_sq = bound_alpha_exact(m, 1, F(1, 2))[0]
    assert b1_sq == F(1, m * m)
    assert sol.a_m1 * sol.a_m1 == QComplex(b1_sq)
    assert all(v == QComplex(0) for v in sol.residuals.values())
    report = forward_verify(sol, p, q)
    assert all(v == 0 for _, v in report.residuals_f + report.residuals_g)


def test_bound_consistency_reports_realizability():
    p = CaratheodoryFunction([(1, ONE)])
    q = CaratheodoryFunction([(1, -ONE)])
    sol = solve_alpha(p, q, 1, F(1), F(1))
    report = bound_consistency(sol)
    assert report.realizability == 4.0
    # |a_2| = 2 exceeds sqrt(2): exactly why unrealizable pairs are filtered
    assert report.ratio_a_m1 > 1


@pytest.mark.parametrize("spec, t", [
    (ClassSpec("arg", m=3, lam=F(1, 3), alpha=F(2, 5)), F(2, 5)),
    (ClassSpec("re", m=3, lam=F(1, 3), beta=F(1, 4)), F(3, 4)),
])
def test_class_constants_and_rhs_inverse(spec, t):
    c = class_constants(spec, "exact")
    m, lam = spec.m, spec.lam
    assert c.k1 == m * (1 + lam) / (2 * lam)
    assert c.k2 == m * m * (1 - lam) / (4 * lam * lam)
    assert c.t == t
    x_m, x_2m = QComplex(F(1, 3), F(-1, 2)), QComplex(F(2, 7), F(1, 9))
    assert c.rhs_inverse(c.rhs(x_m, x_2m), x_m) == x_2m
    floats = class_constants(spec, "float")
    assert isinstance(floats.k1, float) and floats.k1 == float(c.k1)


@pytest.mark.parametrize("spec", [
    ClassSpec("arg", m=2, lam=1 / 3, alpha=2 / 3),
    ClassSpec("re", m=3, lam=0.5, beta=0.25),
])
def test_solve_moments_runs_on_arrays(spec):
    np = pytest.importorskip("numpy")
    pairs = [constrained_pair(f"arrays/{i}", spec.m, 3) for i in range(20)]
    moments = np.array([[p.coefficient(1), p.coefficient(2),
                         q.coefficient(1), q.coefficient(2)]
                        for p, q in pairs]).T
    batch = solve_moments(*moments, class_constants(spec, "float"))
    for i, (p, q) in enumerate(pairs):
        one = solve_alpha(p, q, spec.m, spec.alpha, spec.lam) \
            if spec.kind == "arg" else solve_beta(p, q, spec.m, spec.beta,
                                                  spec.lam)
        assert batch.a_m1[i] == pytest.approx(one.a_m1, abs=1e-14)
        assert batch.a_2m1[i] == pytest.approx(one.a_2m1, abs=1e-14)
        for key, value in one.residuals.items():
            assert batch.residuals[key][i] == pytest.approx(value, abs=1e-14)


@pytest.mark.parametrize("spec", [
    ClassSpec("arg", m=2, lam=1 / 3, alpha=2 / 3),
    ClassSpec("re", m=3, lam=0.5, beta=0.25),
])
def test_solve_moments_on_a_batch_is_bit_identical(spec):
    # a sweep block against its draws solved one at a time, as replay does
    np = pytest.importorskip("numpy")
    pairs = [constrained_pair(f"batch/{i}", spec.m, 3) for i in range(50)]
    moments = np.array([[p.coefficient(1), p.coefficient(2),
                         q.coefficient(1), q.coefficient(2)]
                        for p, q in pairs])
    constants = class_constants(spec, "float")
    batch = solve_moments(*moments.T, constants)

    def bits(value):
        value = complex(value)
        return value.real.hex(), value.imag.hex()

    for i, row in enumerate(moments):
        one = solve_moments(*(np.array([x]) for x in row), constants)
        assert bits(batch.a_m1[i]) == bits(one.a_m1[0])
        assert bits(batch.a_2m1[i]) == bits(one.a_2m1[0])
        for key, value in one.residuals.items():
            assert bits(batch.residuals[key][i]) == bits(value[0]), key
