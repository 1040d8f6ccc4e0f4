"""m-fold symmetric normalized functions and their inverse-series coefficients.

An m-fold symmetric normalized function has the expansion

    f(z) = z + a_{m+1} z^{m+1} + a_{2m+1} z^{2m+1} + ...

with nonzero coefficients only at exponents congruent to 1 mod m.  This
module holds the closed forms for the first three coefficients of the
compositional inverse, an independent route to the same numbers through
generic series reversion, the m-th root transform that turns any normalized
univalent function into an m-fold symmetric one, and a small catalog of
classical examples.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import bounds as bounds_mod
from .series import EXACT, TruncatedSeries, geometric_series, scalar_types

__all__ = [
    "MFoldFunction",
    "InverseCoefficients",
    "root_transform",
    "catalog",
    "CATALOG_NAMES",
]


def off_shape_exponent(series: TruncatedSeries, m):
    """The first exponent n >= 2 with (n - 1) mod m != 0 and a nonzero
    coefficient, or None when the series has the m-fold shape."""
    for n in range(2, series.order + 1):
        if (n - 1) % m != 0 and series.coeffs[n] != 0:
            return n
    return None


@dataclass(frozen=True)
class InverseCoefficients:
    """First three inverse coefficients b_{m+1}, b_{2m+1}, b_{3m+1}."""

    m: int
    b_m1: object
    b_2m1: object
    b_3m1: object

    def as_tuple(self):
        return (self.b_m1, self.b_2m1, self.b_3m1)


class MFoldFunction:
    """Fold order m plus the coefficients a_{m+1}, a_{2m+1}, a_{3m+1}, ...

    Coefficients are exact scalars (Fraction or QComplex).  ``depth`` is the
    number of stored coefficients; closed-form inverse checks need depth >= 3.
    """

    __slots__ = ("m", "coeffs")

    def __init__(self, m, coeffs):
        bounds_mod._check_m(m)
        object.__setattr__(self, "m", int(m))
        object.__setattr__(self, "coeffs", tuple(
            c if not isinstance(c, int) else Fraction(c) for c in coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("MFoldFunction is immutable")

    @property
    def depth(self) -> int:
        return len(self.coeffs)

    def coefficient(self, k):
        """a_{km+1} for k >= 1 (a_1 = 1 implicitly)."""
        if k < 1 or k > self.depth:
            raise IndexError(f"coefficient index k={k} outside stored depth")
        return self.coeffs[k - 1]

    def to_series(self, order=None) -> TruncatedSeries:
        """Expand to a TruncatedSeries; default order 3m+2.

        The coefficient at z^{mk+1} is a_{mk+1}; all others vanish,
        including slots beyond the stored depth (the function is the
        polynomial its coefficient list spells out).
        """
        if order is None:
            order = 3 * self.m + 2
        if order < 1:
            raise ValueError("order must be >= 1")
        entries = {1: Fraction(1)}
        for k in range(1, self.depth + 1):
            n = k * self.m + 1
            if n <= order:
                entries[n] = self.coeffs[k - 1]
        return TruncatedSeries.from_dict(entries, order, backend=EXACT)

    @classmethod
    def from_series(cls, series: TruncatedSeries, m, depth):
        """Extract a_{km+1} from a normalized series, checking the m-fold shape."""
        if not series.is_normalized():
            raise ValueError("series is not normalized")
        n = off_shape_exponent(series, m)
        if n is not None:
            raise ValueError(
                f"series is not {m}-fold symmetric: nonzero coefficient "
                f"at z^{n}")
        coeffs = []
        for k in range(1, depth + 1):
            coeffs.append(series.coeff(k * m + 1))
        return cls(m, coeffs)

    # ------------------------------------------------------------------

    def inverse_closed_form(self) -> InverseCoefficients:
        """Closed forms for the first three inverse coefficients.

        b_{m+1}  = -a_{m+1}
        b_{2m+1} = (m+1) a_{m+1}^2 - a_{2m+1}
        b_{3m+1} = -[ (m+1)(3m+2)/2 * a_{m+1}^3
                      - (3m+2) a_{m+1} a_{2m+1} + a_{3m+1} ]
        """
        if self.depth < 3:
            raise ValueError("closed-form inverse needs depth >= 3")
        m = self.m
        a1, a2, a3 = self.coeffs[0], self.coeffs[1], self.coeffs[2]
        b1 = -a1
        b2 = (m + 1) * a1 * a1 - a2
        b3 = -(Fraction(1, 2) * (m + 1) * (3 * m + 2) * a1 * a1 * a1
               - (3 * m + 2) * a1 * a2 + a3)
        return InverseCoefficients(m, b1, b2, b3)

    def inverse_by_reversion(self, order=None) -> InverseCoefficients:
        """Same three coefficients through generic series reversion.

        Reverts the expansion and reads off the w^{m+1}, w^{2m+1}, w^{3m+1}
        coefficients.  Every other coefficient up to the truncation order
        must vanish: the inverse of an m-fold function is m-fold, and a
        nonzero stray coefficient signals a reversion bug.
        """
        if self.depth < 3:
            raise ValueError("inverse extraction needs depth >= 3")
        if order is None:
            order = 3 * self.m + 2
        order = max(order, 3 * self.m + 1)
        return self._read_inverse(self.to_series(order).revert())

    def _read_inverse(self, g) -> InverseCoefficients:
        """The three inverse coefficients of g, the reverted expansion."""
        m = self.m
        n = off_shape_exponent(g, m)
        if n is not None:
            raise ArithmeticError(
                f"reverted series lost {m}-fold symmetry at w^{n}")
        return InverseCoefficients(m, g.coeff(m + 1), g.coeff(2 * m + 1),
                                   g.coeff(3 * m + 1))


def root_transform(f: TruncatedSeries, m: int) -> TruncatedSeries:
    """The m-th root transform h(z) = (f(z^m))^(1/m) of a normalized f.

    Computed on the factored form z * (f(z^m)/z^m)^(1/m), whose inner series
    has constant term 1.  The result is m-fold symmetric and normalized.
    """
    if not f.is_normalized():
        raise ValueError("root transform needs a normalized series")
    if m < 1:
        raise ValueError("m must be a positive integer")
    if m == 1:
        return f
    inner = f.stretch(m).shift_down(m)
    real, _ = scalar_types(f.backend)
    return inner.pow(real(1) / m).shift_up(1)


_BASE_NAMES = ("geometric", "log", "atanh")

CATALOG_NAMES = _BASE_NAMES + ("mfold-geometric", "mfold-log", "mfold-atanh")


def catalog(name: str, m: int = 1, order=None) -> TruncatedSeries:
    """Named classical examples, expanded to ``order`` (default 3m+2).

    Base entries (m = 1):

    - ``geometric``: z/(1-z) = z + z^2 + z^3 + ...
    - ``log``: -log(1-z) = z + z^2/2 + z^3/3 + ...
    - ``atanh``: (1/2) log((1+z)/(1-z)) = z + z^3/3 + z^5/5 + ...

    m-fold entries substitute z -> z^m and take the 1/m-th root so the
    result is normalized (leading term z):

    - ``mfold-geometric``: (z^m/(1-z^m))^(1/m)
    - ``mfold-log``: (-log(1-z^m))^(1/m)
    - ``mfold-atanh``: ((1/2) log((1+z^m)/(1-z^m)))^(1/m)
    """
    if order is None:
        order = 3 * m + 2
    if order < 1:
        raise ValueError("order must be >= 1")
    if name in _BASE_NAMES and m != 1:
        raise ValueError(f"catalog entry {name!r} is defined for m=1; "
                         f"use 'mfold-{name}' for general m")
    if name == "geometric":
        return geometric_series(order - 1).shift_up(1)
    if name == "log":
        return TruncatedSeries.exact(
            [0] + [Fraction(1, n) for n in range(1, order + 1)])
    if name == "atanh":
        return TruncatedSeries.exact(
            [Fraction(1, n) if n % 2 == 1 else Fraction(0)
             for n in range(order + 1)])
    if name in ("mfold-geometric", "mfold-log", "mfold-atanh"):
        # the base to order ceil(order/m) fixes the root through z^order
        base = catalog(name.removeprefix("mfold-"), 1, -(-order // m))
        return root_transform(base, m).truncate(order)
    raise ValueError(f"unknown catalog entry {name!r}")
