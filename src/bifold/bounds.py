"""Closed-form coefficient bounds for the two function classes.

For an m-fold symmetric bi-univalent function in the arg-type class with
parameters (alpha, lambda), the first two free coefficients satisfy

    |a_{m+1}|  <=  4*L*A / (m * sqrt((1+L)[4*L*A + (1+L)(1-A)] + 2*A*(1-L)))
    |a_{2m+1}| <=  2*L*A/(m*(1+L)) + 8*(m+1)*L^2*A^2/(m^2*(1+L)^2)

and for the re-type class with parameters (beta, lambda)

    |a_{m+1}|  <=  (2*L/m) * sqrt(2*(1-B) / (2*L^2 + L + 1))
    |a_{2m+1}| <=  8*(m+1)*L^2*(1-B)^2/(m^2*(1+L)^2) + 2*L*(1-B)/(m*(1+L))

(A = alpha, B = beta, L = lambda).  At lambda = 1 both collapse to the
classical special cases, which this module exposes separately so the
reductions can be cross-checked; the first-coefficient comparisons are done
on squared quantities in exact rational arithmetic, because the bounds
themselves carry a square root and are otherwise float-only.

Parameters outside the stated ranges are rejected, not clamped; the
``_check_*`` helpers here are the one home of those ranges, which
``membership.ClassSpec`` and ``membership.phi`` use too, and
``_is_integer`` is the one integer rule (an Integral but not a bool) for
fold orders and for the counts that ``membership`` and ``explore`` take.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Integral

__all__ = [
    "bound_alpha",
    "bound_beta",
    "bound_alpha_exact",
    "bound_beta_exact",
    "corollary_bounds",
    "corollary_bounds_exact",
    "verify_reductions",
    "structural_ceiling",
]

# the float slack on an achieved/bound ratio: a ratio above 1 + RATIO_SLACK
# is a finding
RATIO_SLACK = 1e-10


def _is_integer(value) -> bool:
    """An integral count: a bool, though an int, is refused."""
    # a plain int first: the Integral check is a far slower ABC lookup
    return type(value) is int or (isinstance(value, Integral)
                                  and not isinstance(value, bool))


def _check_m(m):
    if not _is_integer(m) or m < 1:
        raise ValueError(f"fold order m must be a positive integer, got {m!r}")


def _check_alpha(alpha):
    if alpha is None or isinstance(alpha, bool) or not 0 < alpha <= 1:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")


def _check_beta(beta):
    if beta is None or isinstance(beta, bool) or not 0 <= beta < 1:
        raise ValueError(f"beta must lie in [0, 1), got {beta}")


def _check_lambda(lam):
    if isinstance(lam, bool) or not 0 < lam <= 1:
        raise ValueError(f"lambda must lie in (0, 1], got {lam}")


def bound_alpha_exact(m, alpha, lam):
    """(B1^2, B2) for the arg-type class as exact rationals."""
    _check_m(m)
    _check_alpha(alpha)
    _check_lambda(lam)
    alpha, lam = Fraction(alpha), Fraction(lam)
    radicand = ((1 + lam) * (4 * lam * alpha + (1 + lam) * (1 - alpha))
                + 2 * alpha * (1 - lam))
    b1_sq = 16 * lam ** 2 * alpha ** 2 / (m ** 2 * radicand)
    b2 = (2 * lam * alpha / (m * (1 + lam))
          + 8 * (m + 1) * lam ** 2 * alpha ** 2 / (m ** 2 * (1 + lam) ** 2))
    return b1_sq, b2


def bound_beta_exact(m, beta, lam):
    """(B1^2, B2) for the re-type class as exact rationals."""
    _check_m(m)
    _check_beta(beta)
    _check_lambda(lam)
    beta, lam = Fraction(beta), Fraction(lam)
    b1_sq = 8 * lam ** 2 * (1 - beta) / (m ** 2 * (2 * lam ** 2 + lam + 1))
    b2 = (8 * (m + 1) * lam ** 2 * (1 - beta) ** 2 / (m ** 2 * (1 + lam) ** 2)
          + 2 * lam * (1 - beta) / (m * (1 + lam)))
    return b1_sq, b2


def bound_alpha(m, alpha, lam):
    """(B1, B2) for the arg-type class, as floats."""
    b1_sq, b2 = bound_alpha_exact(m, alpha, lam)
    return math.sqrt(b1_sq), float(b2)


def bound_beta(m, beta, lam):
    """(B1, B2) for the re-type class, as floats."""
    b1_sq, b2 = bound_beta_exact(m, beta, lam)
    return math.sqrt(b1_sq), float(b2)


def corollary_bounds_exact(which, m=1, alpha=None, beta=None):
    """(B1^2, B2) for the four lambda = 1 special cases, exact.

    which = 6:  general m, arg-type:  B1 = 2a/(m sqrt(a+1)),
                B2 = a/m + 2(m+1)a^2/m^2
    which = 7:  general m, re-type:   B1 = sqrt(2(1-b))/m,
                B2 = 2(m+1)(1-b)^2/m^2 + (1-b)/m
    which = 10: m = 1, arg-type:      B1 = 2a/sqrt(a+1), B2 = 4a^2 + a
    which = 11: m = 1, re-type:       B1 = sqrt(2(1-b)), B2 = 4(1-b)^2 + (1-b)

    10 and 11 are written as printed, not as 6 and 7 at m = 1, so
    ``verify_reductions``' one-fold check compares two formulas.
    """
    _check_m(m)
    if which in (10, 11) and m != 1:
        raise ValueError(f"corollary {which} is the m=1 case")
    if which in (6, 10):
        if alpha is None:
            raise ValueError("arg-type corollary needs alpha")
        _check_alpha(alpha)
        a = Fraction(alpha)
        if which == 10:
            return 4 * a ** 2 / (a + 1), 4 * a ** 2 + a
        b1_sq = 4 * a ** 2 / (m ** 2 * (a + 1))
        b2 = a * Fraction(1, m) + 2 * (m + 1) * a ** 2 * Fraction(1, m ** 2)
        return b1_sq, b2
    if which in (7, 11):
        if beta is None:
            raise ValueError("re-type corollary needs beta")
        _check_beta(beta)
        b = Fraction(beta)
        if which == 11:
            return 2 * (1 - b), 4 * (1 - b) ** 2 + (1 - b)
        b1_sq = 2 * (1 - b) / Fraction(m ** 2)
        b2 = (2 * (m + 1) * (1 - b) ** 2 * Fraction(1, m ** 2)
              + (1 - b) * Fraction(1, m))
        return b1_sq, b2
    raise ValueError(f"unknown corollary {which!r}; expected 6, 7, 10 or 11")


def corollary_bounds(which, m=1, alpha=None, beta=None):
    """(B1, B2) for the lambda = 1 special cases, as floats."""
    b1_sq, b2 = corollary_bounds_exact(which, m=m, alpha=alpha, beta=beta)
    return math.sqrt(b1_sq), float(b2)


def verify_reductions(m_values, alpha_values, beta_values):
    """Check that the lambda = 1 bounds equal their special-case formulas.

    Returns a list of row dicts, one per (kind, m, parameter) cell, each
    carrying the exact squared-B1 comparison and the exact B2 comparison.
    Mismatch is an outcome, not an exception.  The m = 1 rows additionally
    compare against the printed one-fold special case.
    """
    rows = []
    for m in m_values:
        for kind, values, exact_bound, general, onefold in (
                ("alpha", alpha_values, bound_alpha_exact, 6, 10),
                ("beta", beta_values, bound_beta_exact, 7, 11)):
            for value in values:
                value = Fraction(value)
                b1_sq, b2 = exact_bound(m, value, 1)
                c1_sq, c2 = corollary_bounds_exact(general, m=m,
                                                   **{kind: value})
                row = {"kind": kind, "m": m, "param": value,
                       "b1_sq_match": b1_sq == c1_sq, "b2_match": b2 == c2}
                if m == 1:
                    row["onefold_match"] = (
                        (b1_sq, b2)
                        == corollary_bounds_exact(onefold, **{kind: value}))
                rows.append(row)
    return rows


def structural_ceiling(spec):
    """The linear-relation cap on |a_{m+1}|: 4*L*t/(m*(1+L)).

    ``spec`` is a ``ClassSpec``; t is alpha for the arg-type class and
    (1-beta) for the re-type class.  The cap follows from |p_m| <= 2 alone
    and is coarser than the class bound, so every sampled solution must
    respect it.
    """
    lam, param = Fraction(spec.lam), Fraction(spec.param)
    t = param if spec.kind == "arg" else 1 - param
    return float(4 * lam * t / (spec.m * (1 + lam)))
