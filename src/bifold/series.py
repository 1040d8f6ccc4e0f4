"""Truncated formal power series over exact rationals or complex floats.

A :class:`TruncatedSeries` stores the coefficients ``c[0] .. c[order]`` of a
power series and the truncation order up to which those coefficients are
trustworthy.  Every operation propagates the order explicitly: asking for a
coefficient beyond it raises ``IndexError`` instead of returning silent
garbage, which matters once reversion and fractional powers enter the mix.

Two coefficient backends are supported:

``exact``
    Arbitrary-precision rationals (:class:`fractions.Fraction`) and exact
    complex rationals (:class:`QComplex`, a pair of Fractions).  Sums,
    products, quotients, composition, reversion and rational powers stay
    exact: ``pow(a, r) = exp0(r * log1(a))`` only ever divides by integers,
    so a rational exponent keeps the whole pipeline rational.

``float``
    Machine-precision ``complex`` coefficients with numpy-backed
    convolution.  Comparisons need explicit tolerances.

Series are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from fractions import Fraction
from math import copysign, hypot
from numbers import Rational

import numpy as np

__all__ = ["QComplex", "ComplexBatch", "TruncatedSeries",
           "geometric_series"]


class QComplex:
    """Exact complex number with rational real and imaginary parts.

    Closed under +, -, *, / (nonzero divisor) with no rounding; mixes freely
    with ``int`` and ``Fraction`` operands.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("QComplex is immutable")

    @property
    def real(self) -> Fraction:
        return self.re

    @property
    def imag(self) -> Fraction:
        return self.im

    @staticmethod
    def _coerce(value):
        if isinstance(value, QComplex):
            return value
        if isinstance(value, (int, Fraction)):
            return QComplex(value)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QComplex(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QComplex(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QComplex(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QComplex(self.re * o.re - self.im * o.im,
                        self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero QComplex")
        return QComplex((self.re * o.re + self.im * o.im) / d,
                        (self.im * o.re - self.re * o.im) / d)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return QComplex(1) / self ** (-n)
        out = QComplex(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __neg__(self):
        return QComplex(-self.re, -self.im)

    def __pos__(self):
        return self

    def conjugate(self):
        return QComplex(self.re, -self.im)

    def abs2(self) -> Fraction:
        """|z|^2 as an exact rational."""
        return self.re * self.re + self.im * self.im

    def __abs__(self) -> float:
        return hypot(float(self.re), float(self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            if isinstance(other, (float, complex)):
                return complex(self) == complex(other)
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __repr__(self):
        if not self.im:
            return f"QComplex({self.re!s})"
        return f"QComplex({self.re!s}, {self.im!s})"


class ComplexBatch:
    """A batch of complex floats that rounds exactly as Python's ``complex``.

    Holds float64 arrays of real and imaginary parts and applies CPython's
    own formulas elementwise, with the mixed-mode rule of CPython up to
    3.13 (``int``, ``float`` and float-array operands become x+0j first):

    - sums and differences part by part;
    - products as (ar*br - ai*bi, ar*bi + ai*br);
    - division by a real in Smith's form, as ``complex.__truediv__`` does;
    - ``abs`` by ``hypot``.

    So every element equals the scalar result bit for bit, which numpy's
    complex128 does not promise: it divides by multiplying with a reciprocal.
    Scalar code written with these operators runs unchanged on a batch.
    """

    __slots__ = ("re", "im")
    __array_ufunc__ = None  # ndarray operands defer to the methods below

    def __init__(self, re, im):
        self.re = re
        self.im = im

    @staticmethod
    def _parts(value):
        if isinstance(value, ComplexBatch):
            return value.re, value.im
        if isinstance(value, complex):
            return value.real, value.imag
        if isinstance(value, (int, float)):
            return float(value), 0.0
        if isinstance(value, np.ndarray) and value.dtype.kind == "f":
            return value, 0.0
        return None

    def __add__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        return ComplexBatch(self.re + o[0], self.im + o[1])

    __radd__ = __add__  # IEEE addition commutes

    def __sub__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        return ComplexBatch(self.re - o[0], self.im - o[1])

    def __rsub__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        return ComplexBatch(o[0] - self.re, o[1] - self.im)

    def __mul__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        ar, ai = self.re, self.im
        br, bi = o
        return ComplexBatch(ar * br - ai * bi, ar * bi + ai * br)

    __rmul__ = __mul__  # the formula is symmetric in its operands

    def __truediv__(self, other):
        if not isinstance(other, (int, float)):
            return NotImplemented
        b = float(other)
        if b == 0.0:
            raise ZeroDivisionError("complex division by zero")
        ratio = 0.0 / b  # Smith's form for the divisor b + 0j
        denom = b + 0.0 * ratio
        return ComplexBatch((self.re + self.im * ratio) / denom,
                            (self.im - self.re * ratio) / denom)

    def __abs__(self):
        return np.hypot(self.re, self.im)


EXACT = "exact"
FLOAT = "float"


def scalar_types(backend):
    """(real, complex) scalar types of a backend.

    ``(Fraction, QComplex)`` on the exact backend, ``(float, complex)`` on
    floats: code that needs a backend's constants builds them from these,
    as in ``real(1) / 2`` or ``cplx(0)``, instead of branching on the
    backend.
    """
    if backend == EXACT:
        return Fraction, QComplex
    return float, complex


def _coerce_scalar(value, backend):
    if backend == EXACT:
        if isinstance(value, (QComplex, Fraction)):
            return value
        if isinstance(value, (int, Rational)):
            return Fraction(value)
        raise TypeError(f"exact backend cannot hold {value!r}; "
                        "use Fraction or QComplex values")
    return complex(value)


def _is_zero(value) -> bool:
    return not value


def _has_negative_zero(value) -> bool:
    """True when a part of value is -0.0; exact scalars have no signed zero."""
    return any(not part and copysign(1.0, part) < 0
               for part in (value.real, value.imag))


# Zero skipping.  The exact product kernel, the division and exp0 form no
# term with a zero factor, which leaves the zero slots of an m-fold series
# free.  Exact values do not change (a coefficient may come out as a
# Fraction where a formed zero QComplex term made it a QComplex).  Float
# bits do not change for finite input: a skipped term is a complex with
# parts +-0.0, and adding or subtracting +-0.0 leaves every part alone
# except a -0.0, which -0.0 + (+0.0) and -0.0 - (-0.0) turn into +0.0.
# - exp0's accumulator starts at +0j, and a sum or difference is -0.0 only
#   when its first operand is, so it never holds -0.0.
# - The division's accumulator starts at a numerator coefficient, which may
#   hold -0.0, and keeps it while only +0.0 parts are subtracted.  So a slot
#   that starts on a -0.0 part skips no term.  The reference-loop tests in
#   tests/test_series.py pin this case: sparse series with -0.0 and
#   complex(0.0, -0.0) coefficients, and one such slot spelled out.


def _mul_coeffs_exact(a, b, order):
    out = [Fraction(0)] * (order + 1)
    for i, ai in enumerate(a):
        if i > order:
            break
        if _is_zero(ai):
            continue
        for j, bj in enumerate(b):
            if i + j > order:
                break
            if _is_zero(bj):
                continue
            out[i + j] = out[i + j] + ai * bj
    return out


def _mul_coeffs_float(a, b, order):
    conv = np.convolve(np.asarray(a, dtype=complex),
                       np.asarray(b, dtype=complex))[: order + 1]
    return list(conv)


class TruncatedSeries:
    """Power series coefficients ``c[0..order]``, exact up to ``order``."""

    __slots__ = ("coeffs", "backend")

    def __init__(self, coeffs, backend=EXACT):
        coeffs = tuple(_coerce_scalar(c, backend) for c in coeffs)
        if not coeffs:
            raise ValueError("a series needs at least the constant coefficient")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "backend", backend)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def exact(cls, coeffs):
        return cls(coeffs, backend=EXACT)

    @classmethod
    def floating(cls, coeffs):
        return cls(coeffs, backend=FLOAT)

    @classmethod
    def zero(cls, order, backend=EXACT):
        return cls([0] * (order + 1), backend=backend)

    @classmethod
    def one(cls, order, backend=EXACT):
        return cls([1] + [0] * order, backend=backend)

    @classmethod
    def identity(cls, order, backend=EXACT):
        """The series ``z`` truncated at ``order``."""
        if order < 1:
            raise ValueError("identity series needs order >= 1")
        return cls([0, 1] + [0] * (order - 1), backend=backend)

    @classmethod
    def from_dict(cls, entries, order, backend=EXACT):
        """Series with coefficient ``entries[n]`` at ``z^n``, zero elsewhere."""
        coeffs = [0] * (order + 1)
        for n, value in entries.items():
            if 0 <= n <= order:
                coeffs[n] = value
        return cls(coeffs, backend=backend)

    # ------------------------------------------------------------------
    # basic structure

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, n):
        """Coefficient of z^n.  Raises IndexError beyond the trusted order."""
        if n < 0 or n > self.order:
            raise IndexError(
                f"coefficient {n} requested but series is only trusted "
                f"up to order {self.order}")
        return self.coeffs[n]

    def __getitem__(self, n):
        return self.coeff(n)

    def __len__(self):
        return len(self.coeffs)

    def __iter__(self):
        return iter(self.coeffs)

    def valuation(self):
        """Index of the first nonzero coefficient, or None for the zero series."""
        for n, c in enumerate(self.coeffs):
            if not _is_zero(c):
                return n
        return None

    def is_normalized(self) -> bool:
        """True iff c[0] = 0 and c[1] = 1 (the shape ``z + a2 z^2 + ...``)."""
        return self.order >= 1 and _is_zero(self.coeffs[0]) and self.coeffs[1] == 1

    def truncate(self, order):
        if order > self.order:
            raise ValueError(f"cannot extend a series trusted to order "
                             f"{self.order} out to {order}")
        return TruncatedSeries(self.coeffs[: order + 1], backend=self.backend)

    def to_float(self):
        return TruncatedSeries(self.coeffs, backend=FLOAT)

    def _check_backend(self, other):
        if self.backend != other.backend:
            raise ValueError(
                f"backend mismatch: {self.backend} vs {other.backend}")

    # ------------------------------------------------------------------
    # ring operations

    def __add__(self, other):
        if isinstance(other, TruncatedSeries):
            self._check_backend(other)
            n = min(self.order, other.order)
            return TruncatedSeries(
                [self.coeffs[i] + other.coeffs[i] for i in range(n + 1)],
                backend=self.backend)
        coeffs = list(self.coeffs)
        coeffs[0] = coeffs[0] + _coerce_scalar(other, self.backend)
        return TruncatedSeries(coeffs, backend=self.backend)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return TruncatedSeries([-c for c in self.coeffs], backend=self.backend)

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            self._check_backend(other)
            n = min(self.order, other.order)
            if self.backend == EXACT:
                out = _mul_coeffs_exact(self.coeffs, other.coeffs, n)
            else:
                out = _mul_coeffs_float(self.coeffs, other.coeffs, n)
            return TruncatedSeries(out, backend=self.backend)
        scalar = _coerce_scalar(other, self.backend)
        return TruncatedSeries([c * scalar for c in self.coeffs],
                               backend=self.backend)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, TruncatedSeries):
            scalar = _coerce_scalar(other, self.backend)
            return TruncatedSeries([c / scalar for c in self.coeffs],
                                   backend=self.backend)
        self._check_backend(other)
        v = other.valuation()
        if v is None:
            raise ZeroDivisionError("division by the zero series")
        if v > 0:
            # factor z^v from both; the numerator must allow it
            for n in range(min(v, self.order + 1)):
                if not _is_zero(self.coeffs[n]):
                    raise ZeroDivisionError(
                        "denominator has zero leading coefficient and the "
                        "numerator does not share the z factor")
            num = self.shift_down(v) if self.order >= v else None
            if num is None:
                raise ZeroDivisionError(
                    "numerator truncates before the shared z factor ends")
            return num / other.shift_down(v)
        n = min(self.order, other.order)
        b0 = other.coeffs[0]
        out = []
        nonzero = []  # ascending indices i of the nonzero out[i]
        for k in range(n + 1):
            acc = self.coeffs[k]
            # skip zero terms, unless acc starts on a -0.0 part (see the
            # note on zero skipping above)
            every = _has_negative_zero(acc)
            for i in range(k) if every else nonzero:
                d = other.coeffs[k - i]
                if every or not _is_zero(d):
                    acc = acc - out[i] * d
            out.append(acc / b0)
            if not _is_zero(out[k]):
                nonzero.append(k)
        return TruncatedSeries(out, backend=self.backend)

    def __rtruediv__(self, other):
        return TruncatedSeries([other] + [0] * self.order,
                               backend=self.backend) / self

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self.backend == other.backend
                and self.order == other.order
                and all(a == b for a, b in zip(self.coeffs, other.coeffs)))

    def __hash__(self):
        return hash((self.backend, self.coeffs))

    def max_abs_diff(self, other) -> float:
        """Largest coefficientwise |difference| up to the shared order."""
        n = min(self.order, other.order)
        return max(abs(complex(self.coeffs[i]) - complex(other.coeffs[i]))
                   for i in range(n + 1))

    # ------------------------------------------------------------------
    # shifts and substitutions

    def shift_up(self, k=1):
        """Multiply by z^k.  Trusted order grows with the shift."""
        return TruncatedSeries([0] * k + list(self.coeffs),
                               backend=self.backend)

    def shift_down(self, k=1):
        """Divide by z^k; the first k coefficients must vanish."""
        if self.order < k:
            raise ValueError("series truncates before the z factor ends")
        for n in range(k):
            if not _is_zero(self.coeffs[n]):
                raise ValueError(f"coefficient at z^{n} is nonzero; cannot "
                                 f"divide by z^{k}")
        return TruncatedSeries(self.coeffs[k:], backend=self.backend)

    def stretch(self, m):
        """Substitute z -> z^m.  Result is trusted to order m*order + m - 1."""
        if m < 1:
            raise ValueError("stretch factor must be a positive integer")
        if m == 1:
            return self
        out = [0] * (m * self.order + m)
        for n, c in enumerate(self.coeffs):
            out[m * n] = c
        return TruncatedSeries(out[: m * self.order + m], backend=self.backend)

    # ------------------------------------------------------------------
    # calculus

    def derivative(self):
        """Termwise derivative; the trusted order drops by one."""
        if self.order < 1:
            raise ValueError("cannot differentiate a series of order 0")
        return TruncatedSeries(
            [n * self.coeffs[n] for n in range(1, self.order + 1)],
            backend=self.backend)

    def integrate(self):
        """Termwise antiderivative with constant 0; order grows by one."""
        return TruncatedSeries(
            [0] + [self.coeffs[n] / (n + 1) for n in range(self.order + 1)],
            backend=self.backend)

    # ------------------------------------------------------------------
    # composition and reversion

    def compose(self, inner):
        """Series of self(inner(z)); requires inner(0) = 0."""
        self._check_backend(inner)
        if not _is_zero(inner.coeffs[0]):
            raise ValueError("inner series must have zero constant term")
        n = min(self.order, inner.order)
        outer = self.coeffs[: n + 1]
        acc = TruncatedSeries([outer[-1]] + [0] * n, backend=self.backend)
        inner_t = inner.truncate(n) if inner.order > n else inner
        for k in range(len(outer) - 2, -1, -1):
            acc = acc * inner_t + outer[k]
        return acc

    def revert(self):
        """Compositional inverse g with self(g(w)) = w up to the order.

        Requires the normalized shape c[0] = 0, c[1] = 1.  Solved by
        coefficient recursion on the identity g(f(z)) = z, using the
        precomputed powers f^k.
        """
        if not self.is_normalized():
            raise ValueError("reversion needs a normalized series "
                             "(c[0] = 0, c[1] = 1)")
        n = self.order
        zero = _coerce_scalar(0, self.backend)
        powers = [None, self]
        for k in range(2, n + 1):
            powers.append(powers[-1] * self)
        b = [zero, _coerce_scalar(1, self.backend)]
        for j in range(2, n + 1):
            acc = zero
            for k in range(1, j):
                acc = acc + b[k] * powers[k].coeffs[j]
            b.append(-acc)
        return TruncatedSeries(b, backend=self.backend)

    # ------------------------------------------------------------------
    # analytic functions of series

    def log1(self):
        """log of a series with constant term 1, via integrate(a'/a)."""
        if self.coeffs[0] != 1:
            raise ValueError("log1 needs constant term exactly 1")
        if self.order < 1:
            return TruncatedSeries.zero(0, backend=self.backend)
        return (self.derivative() / self.truncate(self.order - 1)).integrate()

    def exp0(self):
        """exp of a series with constant term 0.

        Recursion from E' = a' E, so E_n = (1/n) sum_{k<=n} k a_k E_{n-k}.
        """
        if not _is_zero(self.coeffs[0]):
            raise ValueError("exp0 needs constant term exactly 0")
        zero = _coerce_scalar(0, self.backend)
        out = [_coerce_scalar(1, self.backend)]
        # the nonzero k*a_k in ascending k; terms with a zero out[j-k] are
        # skipped too (see the note on zero skipping above)
        terms = [(k, k * ak) for k, ak in enumerate(self.coeffs)
                 if k and not _is_zero(ak)]
        for j in range(1, self.order + 1):
            acc = zero
            for k, kak in terms:
                if k > j:
                    break
                if not _is_zero(out[j - k]):
                    acc = acc + kak * out[j - k]
            out.append(acc / j)
        return TruncatedSeries(out, backend=self.backend)

    def pow(self, exponent):
        """Raise to a power.

        Nonnegative integer exponents work for any series (repeated
        multiplication).  Fractional (or negative) exponents require
        constant term exactly 1 and go through exp0(exponent * log1(a)),
        which keeps rational input rational.
        """
        if isinstance(exponent, int) and exponent >= 0:
            if exponent == 0:
                return TruncatedSeries.one(self.order, backend=self.backend)
            acc = self
            for _ in range(exponent - 1):
                acc = acc * self
            return acc
        # the coefficient rule: the exact backend refuses a float exponent
        exponent = _coerce_scalar(exponent, self.backend)
        if self.coeffs[0] != 1:
            raise ValueError("fractional powers need constant term exactly 1")
        if exponent == 1:
            return self
        return (self.log1() * exponent).exp0()

    __pow__ = pow

    # ------------------------------------------------------------------
    # numerical evaluation

    def eval(self, z):
        """Horner evaluation of the truncated polynomial at a complex point.

        Truncation error is the caller's concern; the series itself only
        promises coefficients up to its order.
        """
        z = complex(z)
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + complex(c)
        return acc

    def __call__(self, z):
        return self.eval(z)

    def eval_many(self, points):
        """Vectorized Horner evaluation at an array of complex points."""
        coeffs = np.asarray([complex(c) for c in reversed(self.coeffs)])
        return np.polyval(coeffs, np.asarray(points, dtype=complex))

    # ------------------------------------------------------------------

    def __repr__(self):
        shown = ", ".join(repr(c) for c in self.coeffs[:6])
        if self.order > 5:
            shown += ", ..."
        return f"TruncatedSeries([{shown}], order={self.order}, backend={self.backend!r})"


DEFAULT_ORDER = 30  # for workflows not driven by a fold order


def geometric_series(order=DEFAULT_ORDER, backend=EXACT):
    """1/(1-z) truncated at ``order``: all coefficients 1."""
    return TruncatedSeries([1] * (order + 1), backend=backend)
