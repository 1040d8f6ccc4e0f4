"""Replays the coefficient derivations behind the class bounds.

Matching series coefficients in the functional equations

    Phi(f)  = [p]^alpha          (arg-type)      Phi(f)  = beta + (1-beta) p
    Phi(g)  = [q]^alpha                          Phi(g)  = beta + (1-beta) q

at orders m and 2m produces four scalar equations in a_{m+1} and a_{2m+1},
with g the inverse of f.  Writing K1 = m(1+lam)/(2 lam), K2 = m^2(1-lam)/
(4 lam^2) and t = alpha or (1-beta), they read

    (first, f side)    K1 * a_{m+1}                        = t p_m  (+ ...)
    (first, g side)   -K1 * a_{m+1}                        = t q_m
    (second, f side)   K1 (2 a_{2m+1} - a_{m+1}^2) + K2 a_{m+1}^2 = R_f
    (second, g side)   K1 ((2m+1) a_{m+1}^2 - 2 a_{2m+1}) + K2 a_{m+1}^2 = R_g

where R = t p_{2m} plus, in the arg case only, (alpha(alpha-1)/2) p_m^2.
The first pair forces p_m = -q_m.  a_{m+1} is taken from the linear f-side
relation (no branch ambiguity); a_{2m+1} from the difference of the second
pair.  The *sum* of the second pair is then an extra constraint a sampled
(p, q) has no reason to satisfy: its residual is reported as a
realizability score instead of failing, because the derivation states
necessary conditions on class members, not a parametrization of the class.

Everything is exact on the rational backend with rational parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .bounds import RATIO_SLACK
from .caratheodory import (CaratheodoryFunction, with_moments,
                           zero_moment_base, _float_faults, _moment, _sample,
                           _subseed)
from .membership import ClassSpec, phi
from .series import EXACT, FLOAT, TruncatedSeries, scalar_types

__all__ = [
    "CoefficientSolution",
    "ClassConstants",
    "class_constants",
    "solve_moments",
    "solve_alpha",
    "solve_beta",
    "forward_verify",
    "ForwardReport",
    "bound_consistency",
    "ConsistencyReport",
    "realizable_pair",
]


@dataclass
class CoefficientSolution:
    """Solved coefficients plus the residuals of every derivation equation.

    ``residuals`` holds, per equation, LHS - RHS as computed:

    - ``first_f`` / ``first_g``: the two linear relations (zero by
      construction / by the moment constraint);
    - ``second_f`` / ``second_g``: the two quadratic relations;
    - ``subtraction``: their difference (zero by construction);
    - ``addition``: their sum, the realizability score;
    - ``squared``: the squared-linear identity K1^2 a^2 * 2 = t^2
      (p_m^2 + q_m^2), automatic once first_f holds and p_m = -q_m;
    - ``odd_square_cancel``: the (alpha(alpha-1)/2)(p_m^2 - q_m^2) term
      that the constraint kills (arg kind only, else 0).
    """

    spec: ClassSpec
    a_m1: object
    a_2m1: object
    p_m: object
    p_2m: object
    q_m: object
    q_2m: object
    residuals: dict
    backend: str

    @property
    def realizability(self) -> float:
        """|addition residual|; small means the pair looks like a real
        class member at this coefficient depth."""
        return abs(complex(self.residuals["addition"]))

    def max_constructed_residual(self) -> float:
        keys = ("first_f", "first_g", "subtraction", "squared",
                "odd_square_cancel")
        return max(abs(complex(self.residuals[k])) for k in keys)


class ClassConstants(NamedTuple):
    """A class's coefficient-system constants in one backend's scalars.

    ``square`` is alpha(alpha-1)/2, the p_m^2 weight of the arg-type
    right-hand side; the re-type side has no such term and keeps None.
    """

    spec: ClassSpec
    backend: str
    lam: object
    param: object  # alpha or beta
    t: object  # alpha or 1 - beta
    square: object
    k1: object
    k2: object

    def first_coefficient(self, p_m):
        """a_{m+1} from the linear f-side relation K1 a_{m+1} = t p_m."""
        return self.t * p_m / self.k1

    def rhs(self, x_m, x_2m):
        """R = t x_2m, plus square * x_m^2 on the arg type."""
        if self.square is None:
            return self.t * x_2m
        return self.t * x_2m + self.square * x_m * x_m

    def rhs_inverse(self, r, x_m):
        """The x_2m with rhs(x_m, x_2m) = r."""
        if self.square is None:
            return r / self.t
        return (r - self.square * x_m * x_m) / self.t


def class_constants(spec: ClassSpec, backend: str) -> ClassConstants:
    """K1, K2, t and the right-hand-side weights of ``spec``.

    On the ``"exact"`` backend the constants are Fractions and need rational
    parameters; on ``"float"`` they are floats.
    """
    if backend == EXACT:
        for name, value in (("lambda", spec.lam), ("param", spec.param)):
            if not isinstance(value, (int, Fraction)):
                raise TypeError(
                    f"exact-backend derivation needs rational parameters; "
                    f"{name}={value!r} is not")
    real, _ = scalar_types(backend)
    lam, param, m = real(spec.lam), real(spec.param), spec.m
    if spec.kind == "arg":
        t, square = param, param * (param - 1) / 2
    else:
        t, square = 1 - param, None
    # positional: a sweep builds one per solve
    return ClassConstants(spec, backend, lam, param, t, square,
                          m * (1 + lam) / (2 * lam),
                          m * m * (1 - lam) / (4 * lam * lam))


def solve_moments(p_m, p_2m, q_m, q_2m,
                  constants: ClassConstants) -> CoefficientSolution:
    """Solve the coefficient system from the four moments of a pair.

    Plain arithmetic on whatever scalars come in; the caller checks the
    moment constraint p_m = -q_m.
    """
    c = constants
    m = c.spec.m
    rhs_f = c.rhs(p_m, p_2m)
    rhs_g = c.rhs(q_m, q_2m)
    if c.square is None:
        odd_cancel = 0 * p_m
    else:
        odd_cancel = c.square * (p_m * p_m - q_m * q_m)
    k1, k2, t = c.k1, c.k2, c.t

    a1 = c.first_coefficient(p_m)
    a1_sq = a1 * a1
    a2 = (rhs_f - rhs_g) / (4 * k1) + (m + 1) * a1_sq / 2

    second_f = k1 * (2 * a2 - a1_sq) + k2 * a1_sq - rhs_f
    second_g = k1 * ((2 * m + 1) * a1_sq - 2 * a2) + k2 * a1_sq - rhs_g
    residuals = {
        "first_f": k1 * a1 - t * p_m,
        "first_g": -k1 * a1 - t * q_m,
        "second_f": second_f,
        "second_g": second_g,
        "subtraction": second_f - second_g,
        "addition": second_f + second_g,
        "squared": 2 * k1 * k1 * a1_sq - t * t * (p_m * p_m + q_m * q_m),
        "odd_square_cancel": odd_cancel,
    }
    return CoefficientSolution(
        spec=c.spec, a_m1=a1, a_2m1=a2, p_m=p_m, p_2m=p_2m, q_m=q_m,
        q_2m=q_2m, residuals=residuals, backend=c.backend)


_GAP_TOL = 1e-12  # float moment constraint: |p_m + q_m| <= tol max(1, |p_m|)


def _gap_too_large(p_m, q_m):
    """The float moment-constraint check; on a batch, one flag per pair."""
    gap = abs(p_m + q_m)
    return (gap > _GAP_TOL) & (gap > _GAP_TOL * abs(p_m))


def _solve(p: CaratheodoryFunction, q: CaratheodoryFunction,
           spec: ClassSpec) -> CoefficientSolution:
    if p.backend != q.backend:
        raise ValueError("p and q must share a backend")
    if p.fold != spec.m or q.fold != spec.m:
        raise ValueError("fold order of p, q must match the class spec")
    constants = class_constants(spec, p.backend)
    p_m, p_2m = p.coefficient(1), p.coefficient(2)
    q_m, q_2m = q.coefficient(1), q.coefficient(2)

    if p.backend == EXACT:
        gap = p_m + q_m
        if gap != 0:
            raise ValueError(f"moment constraint violated: p_m + q_m = {gap!r}")
    elif _gap_too_large(p_m, q_m):
        raise ValueError(
            f"moment constraint violated: |p_m + q_m| = {abs(p_m + q_m)}")
    return solve_moments(p_m, p_2m, q_m, q_2m, constants)


def _solve_batch(p_atoms, q_atoms, constants) -> CoefficientSolution:
    """``_solve`` for a batch of float pairs, bit for bit.

    ``p_atoms`` and ``q_atoms`` hold the pairs' atoms by position: per
    atom, a float64 weight array and ComplexBatch points with one entry per
    pair.  The checks, the moments and ``solve_moments`` run on the whole
    batch; the solution holds ComplexBatch values.  A pair that fails a
    check is rebuilt and solved alone, so the first one raises the error
    ``CaratheodoryFunction`` or ``_solve`` raises for it.
    """
    spec = constants.spec
    p_m, p_2m = _moment(p_atoms, 1, complex), _moment(p_atoms, 2, complex)
    q_m, q_2m = _moment(q_atoms, 1, complex), _moment(q_atoms, 2, complex)
    bad = (_float_faults(p_atoms) | _float_faults(q_atoms)
           | _gap_too_large(p_m, q_m))
    for i in np.flatnonzero(bad):
        p, q = (CaratheodoryFunction(
            [(w[i], complex(z.re[i], z.im[i])) for w, z in atoms],
            fold=spec.m, backend=FLOAT) for atoms in (p_atoms, q_atoms))
        _solve(p, q, spec)
    return solve_moments(p_m, p_2m, q_m, q_2m, constants)


def solve_alpha(p, q, m, alpha, lam) -> CoefficientSolution:
    """Solve the arg-type coefficient system for a constrained pair."""
    return _solve(p, q, ClassSpec("arg", m=m, lam=lam, alpha=alpha))


def solve_beta(p, q, m, beta, lam) -> CoefficientSolution:
    """Solve the re-type coefficient system for a constrained pair."""
    return _solve(p, q, ClassSpec("re", m=m, lam=lam, beta=beta))


# ----------------------------------------------------------------------
# forward verification: rebuild f and expand the functional equations


@dataclass
class ForwardReport:
    """Per-coefficient residuals of Phi(f) - target and Phi(g) - target."""

    residuals_f: list  # (order, residual scalar)
    residuals_g: list

    def residual_at(self, side, n):
        rows = self.residuals_f if side == "f" else self.residuals_g
        for order, value in rows:
            if order == n:
                return value
        raise KeyError(n)

    @property
    def max_abs(self) -> float:
        all_rows = list(self.residuals_f) + list(self.residuals_g)
        return max(abs(complex(v)) for _, v in all_rows)


def forward_verify(solution: CoefficientSolution, p, q) -> ForwardReport:
    """Expand the functional equations and report coefficient residuals.

    Builds f = z + a_{m+1} z^{m+1} + a_{2m+1} z^{2m+1} (higher terms zero),
    reverts it, and compares Phi(f), Phi(g) coefficientwise against the
    target series up to order 2m.  With the solved coefficients the order-m
    residuals vanish identically and the order-2m ones reproduce the
    second_f / second_g residuals (scaled); residuals are data, not errors.
    """
    spec = solution.spec
    m = spec.m
    backend = solution.backend
    c = class_constants(spec, backend)
    f = TruncatedSeries.from_dict(
        {1: 1, m + 1: solution.a_m1, 2 * m + 1: solution.a_2m1},
        2 * m + 1, backend=backend)
    g = f.revert()

    def target(carath):
        series = carath.expand(2 * m)
        if backend == EXACT and series.backend != EXACT:
            raise ValueError("exact solution needs exact p, q")
        if backend != EXACT:
            series = series.to_float()
        if spec.kind == "arg":
            return series.pow(c.param)
        return c.t * series + c.param

    rows_f = []
    rows_g = []
    phi_f = phi(f, c.lam)
    phi_g = phi(g, c.lam)
    tf = target(p)
    tg = target(q)
    for n in range(0, 2 * m + 1):
        rows_f.append((n, phi_f.coeff(n) - tf.coeff(n)))
        rows_g.append((n, phi_g.coeff(n) - tg.coeff(n)))
    return ForwardReport(residuals_f=rows_f, residuals_g=rows_g)


# ----------------------------------------------------------------------
# bound consistency


@dataclass
class ConsistencyReport:
    spec: ClassSpec
    abs_a_m1: float
    abs_a_2m1: float
    bound_a_m1: float
    bound_a_2m1: float
    realizability: float

    @property
    def ratio_a_m1(self) -> float:
        return self.abs_a_m1 / self.bound_a_m1

    @property
    def ratio_a_2m1(self) -> float:
        return self.abs_a_2m1 / self.bound_a_2m1

    @property
    def ok(self) -> bool:
        return (self.ratio_a_m1 <= 1 + RATIO_SLACK
                and self.ratio_a_2m1 <= 1 + RATIO_SLACK)


def bound_consistency(solution: CoefficientSolution) -> ConsistencyReport:
    """Compare |a_{m+1}|, |a_{2m+1}| against the class bounds.

    Meaningful for solutions whose realizability score is (near) zero: the
    first-coefficient bound rests on the addition relation.  The second
    bound holds for every constrained pair.  A ratio above
    1 + ``bounds.RATIO_SLACK`` is a reportable finding, not an exception.
    """
    b1, b2 = solution.spec.bounds()
    return ConsistencyReport(
        spec=solution.spec,
        abs_a_m1=abs(complex(solution.a_m1)),
        abs_a_2m1=abs(complex(solution.a_2m1)),
        bound_a_m1=b1,
        bound_a_2m1=b2,
        realizability=solution.realizability)


# ----------------------------------------------------------------------
# pairs that satisfy the addition relation by construction


def realizable_pair(seed, spec: ClassSpec, backend=EXACT, atom_count=3):
    """A seeded (p, q) pair whose full coefficient system is consistent.

    p mixes a random sample with the zero-moment base so its first two
    coefficients are small; q is then built on the fixed base points with
    q_m = -p_m and the exact q_{2m} that makes the addition relation (and
    with it every residual) vanish.  The solved coefficients of such a pair
    are honest class-member candidates at coefficient depth 2m, so the
    bound ratios apply to them with no filtering caveat.
    """
    c = class_constants(spec, backend)
    m = spec.m
    real, _ = scalar_types(backend)
    raw = _sample(_subseed(seed, "realizable", spec.kind, m), atom_count, m,
                  backend)
    base = zero_moment_base(fold=m, backend=backend)
    eps = real(1) / 4
    for _ in range(12):
        atoms = [(w * eps, z) for (w, z) in raw.atoms]
        atoms += [(w * (1 - eps), z) for (w, z) in base.atoms]
        p = CaratheodoryFunction(atoms, fold=m, backend=backend)
        p_m, p_2m = p.coefficient(1), p.coefficient(2)
        a1 = c.first_coefficient(p_m)
        # the q_2m whose g-side relation zeroes the addition residual
        rhs_g = (2 * m * c.k1 + 2 * c.k2) * (a1 * a1) - c.rhs(p_m, p_2m)
        q_2m = c.rhs_inverse(rhs_g, -p_m)
        try:
            q = with_moments(-p_m / 2, q_2m / 2, fold=m, backend=backend)
            return p, q
        except ValueError:
            eps = eps / 2
    raise RuntimeError(f"no realizable pair found for seed={seed!r}, "
                       f"{spec.describe()}")
