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
    exact.  Products, reversion, quotients, exp0 and rational powers run
    on Python ints over one common denominator and form one Fraction per
    coefficient.  A rational power, exp0 and the reciprocal that a
    quotient multiplies by share Miller's recurrence, whose weights are
    integers.
    A QComplex with an int or Fraction operand works on its two parts
    instead of on r + 0i, and it compares with a float or complex exactly.

``float``
    Machine-precision ``complex`` coefficients with numpy-backed
    convolution; ``pow(a, r) = exp0(r * log1(a))``.  Division and exp0 run
    as numpy column updates that form each term by CPython's complex
    formulas in the scalar loops' order, so they keep those loops' bits.
    Comparisons need explicit tolerances.

Series are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from fractions import Fraction
from math import copysign, gcd, hypot, lcm
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
        # a Fraction part is kept as it is: Fraction(x) would rebuild it
        object.__setattr__(self, "re",
                           re if type(re) is Fraction else Fraction(re))
        object.__setattr__(self, "im",
                           im if type(im) is Fraction else Fraction(im))

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

    # An int or Fraction operand r acts on the parts directly: r + 0i would
    # cost four products and two sums where two Fraction operations do.

    def __add__(self, other):
        if isinstance(other, QComplex):
            return QComplex(self.re + other.re, self.im + other.im)
        if isinstance(other, (int, Fraction)):
            return QComplex(self.re + other, self.im)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, QComplex):
            return QComplex(self.re - other.re, self.im - other.im)
        if isinstance(other, (int, Fraction)):
            return QComplex(self.re - other, self.im)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return QComplex(other - self.re, -self.im)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, QComplex):
            return QComplex(self.re * other.re - self.im * other.im,
                            self.re * other.im + self.im * other.re)
        if isinstance(other, (int, Fraction)):
            return QComplex(self.re * other, self.im * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("division by zero QComplex")
            return QComplex(self.re / other, self.im / other)
        if not isinstance(other, QComplex):
            return NotImplemented
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero QComplex")
        return QComplex((self.re * other.re + self.im * other.im) / d,
                        (self.im * other.re - self.re * other.im) / d)

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
        if isinstance(other, (float, complex)):
            # exact, as Fraction == float is: no rounding of self
            other = complex(other)
            return self.re == other.real and self.im == other.imag
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        # complex's own formula on the parts' hashes, so an equal int,
        # Fraction, float or complex hashes the same
        from sys import hash_info

        modulus = 1 << hash_info.width
        h = (hash(self.re) + hash_info.imag * hash(self.im)) % modulus
        if h >= modulus >> 1:
            h -= modulus
        return -2 if h == -1 else h

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
    backend.  Any other backend word is refused.
    """
    if backend == EXACT:
        return Fraction, QComplex
    if backend == FLOAT:
        return float, complex
    raise ValueError(f"backend must be 'exact' or 'float', got {backend!r}")


def _coerce_scalar(value, backend):
    if backend == EXACT:
        if isinstance(value, (QComplex, Fraction)):
            return value
        if isinstance(value, (int, Rational)):
            return Fraction(value)
        raise TypeError(f"exact backend cannot hold {value!r}; "
                        "use Fraction or QComplex values")
    return complex(value)


def _has_negative_zero(value: complex) -> bool:
    """True when a part of value is -0.0."""
    re, im = value.real, value.imag
    return (not re and copysign(1.0, re) < 0) or \
        (not im and copysign(1.0, im) < 0)


# Zero skipping.  The float division and exp0 form no term with a zero
# factor, which leaves the zero slots of an m-fold series free.  Their
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
# A skipped term is not formed at all: with an inf or nan factor, the zero
# term would be nan.  So the float kernels below let a skipped term enter a
# vector sum only as +0.0, which x + (+0.0) and x - (+0.0) leave alone for
# every accumulator that does not hold -0.0.


# Exact kernels on integers.  A Fraction operation pays a gcd on every term;
# the products, the reversion powers and Miller's recurrence below write their
# operands as integer numerators over one common denominator instead, form
# one Fraction per output coefficient and skip every zero term.


def _to_ints(coeffs, order):
    """coeffs[:order + 1] as integer numerators over one denominator.

    Returns ``(re, im, den)``: the numerators of the real and of the
    imaginary parts over ``den``, the lcm of every part's denominator.
    ``im`` is None when no imaginary part is nonzero.
    """
    head = coeffs[: order + 1]
    # a Fraction's .real is +c, a new Fraction: read the parts directly
    reals = [c.re if isinstance(c, QComplex) else c for c in head]
    imags = [c.im if isinstance(c, QComplex) else 0 for c in head]
    if not any(imags):
        imags = None
    parts = reals + (imags or [])
    den = lcm(*(x.denominator for x in parts))
    re = [x.numerator * (den // x.denominator) for x in reals]
    im = imags and [x.numerator * (den // x.denominator) for x in imags]
    return re, im, den


def _from_ints(re, im, den):
    """The scalars (re + i im) / den, as Fractions when im is None."""
    if im is None:
        return [Fraction(x, den) for x in re]
    return [QComplex(Fraction(x, den), Fraction(y, den))
            for x, y in zip(re, im)]


def _convolve(a, b, order):
    """Integer product coefficients through z^order, zero terms skipped."""
    out = [0] * (order + 1)
    b_terms = [(j, bj) for j, bj in enumerate(b[: order + 1]) if bj]
    for i, ai in enumerate(a[: order + 1]):
        if not ai:
            continue
        top = order - i
        for j, bj in b_terms:
            if j > top:
                break
            out[i + j] += ai * bj
    return out


def _mul_ints(a_re, a_im, b_re, b_im, order):
    """Numerators (re, im) of the product of two Gaussian numerator lists;
    a missing imaginary part skips its two convolutions."""
    re = _convolve(a_re, b_re, order)
    im = None
    if a_im is not None and b_im is not None:
        re = [x - y for x, y in zip(re, _convolve(a_im, b_im, order))]
    for x, y in ((a_re, b_im), (a_im, b_re)):
        if x is not None and y is not None:
            part = _convolve(x, y, order)
            im = part if im is None else [u + v for u, v in zip(im, part)]
    return re, im


def _mul_coeffs_exact(a, b, order):
    a_re, a_im, a_den = _to_ints(a, order)
    b_re, b_im, b_den = _to_ints(b, order)
    return _from_ints(*_mul_ints(a_re, a_im, b_re, b_im, order),
                      a_den * b_den)


def _axpy(acc, w, x, start):
    """acc[j] += w x[j] for j >= start, skipping zero terms."""
    if w:
        for j in range(start, len(x)):
            if x[j]:
                acc[j] += w * x[j]


def _revert_exact(coeffs):
    """Reversion of a normalized exact series by the coefficient recursion
    b_j = -sum_{k<j} b_k [z^j] f^k.

    Each power f^k is kept as primitive integer numerators over one
    denominator: the gcd of the numerators and the denominator is divided
    out after every product, so the denominator is the lcm of the
    coefficient denominators of f^k.  The partial sums of b_k f^k are kept
    as integer numerators over the lcm of the denominators added so far,
    and f^k enters them as soon as it is formed, so one power is held at a
    time and each b_j costs one Fraction.
    """
    n = len(coeffs) - 1
    f_re, f_im, f_den = _to_ints(coeffs, n)
    re, im, den = f_re, f_im, f_den  # f^k
    acc_re = [0] * (n + 1)  # sum of b_k f^k so far, over acc_den
    acc_im = f_im and [0] * (n + 1)
    acc_den = 1
    b = [Fraction(0), Fraction(1)]
    for k in range(1, n):
        if b[k]:
            (w_re,), w_im, w_den = _to_ints(b[k: k + 1], 0)
            term_den = w_den * den
            if acc_den % term_den:
                grow = term_den // gcd(acc_den, term_den)
                acc_re = [x * grow for x in acc_re]
                acc_im = acc_im and [x * grow for x in acc_im]
                acc_den *= grow
            scale = acc_den // term_den
            w_re *= scale
            w_im = w_im[0] * scale if w_im else 0
            _axpy(acc_re, w_re, re, k + 1)
            if im is not None:
                _axpy(acc_re, -w_im, im, k + 1)
                _axpy(acc_im, w_re, im, k + 1)
                _axpy(acc_im, w_im, re, k + 1)
        b += _from_ints([-acc_re[k + 1]], acc_im and [-acc_im[k + 1]],
                        acc_den)
        if k + 1 < n:
            re, im = _mul_ints(re, im, f_re, f_im, n)
            den *= f_den
            g = gcd(den, *re, *(im or ()))
            re = [x // g for x in re]
            im = im and [x // g for x in im]
            den //= g
    return b[: n + 1]


def _miller_sum(a, b, n, c, d):
    """Numerators (re, im) of sum_k (c k - d) a_k b_{n-k}.

    ``a`` holds the nonzero terms (k, a_k) of the real and of the imaginary
    parts (None when real), ``b`` the numerator lists of the two parts (the
    imaginary one None when real); a zero term is skipped.
    """
    def dot(a_terms, b_part):
        acc = 0
        for k, ak in a_terms:
            if k > n:
                break
            bk = b_part[n - k]
            if bk:
                acc += (c * k - d) * ak * bk
        return acc

    (a_re, a_im), (b_re, b_im) = a, b
    re = dot(a_re, b_re)
    im = dot(a_re, b_im) if b_im else 0
    if a_im:
        re -= dot(a_im, b_im)
        im += dot(a_im, b_re)
    return re, im


def _miller_exact(coeffs, c_re, c_im, d, q):
    """b_0 = 1 and n q b_n = sum_{k=1}^n ((c_re + i c_im) k - d n) a_k b_{n-k}.

    J. C. P. Miller's recurrence (Knuth, TAOCP Vol. 2, 4.7), one pass with
    integer weights; coeffs[0] does not enter it.  The a_k are numerators
    over their common denominator and b_0 .. b_{n-1} are numerators over
    C, the lcm of their own denominators, so each b_n costs integer
    products and one gcd.  Zero terms are skipped.  Returns the b_n as
    ``(re, im, C)``, as ``_to_ints`` would.  The weights give
    - a^(p/q) for a_0 = 1: c = p + q, d = q;
    - exp(a) for a_0 = 0: c = 1, d = 0, q = 1, from E' = a' E.
    """
    order = len(coeffs) - 1
    a_re, a_im, a_den = _to_ints(coeffs, order)
    complex_out = a_im is not None or c_im != 0
    a = [[(k, x) for k, x in enumerate(part) if k and x] if part else None
         for part in (a_re, a_im)]
    b = [[1], [0] if complex_out else None]  # b_0 .. b_{n-1} over den
    den = 1
    for n in range(1, order + 1):
        re, im = _miller_sum(a, b, n, c_re, n * d)
        if c_im:
            x_re, x_im = _miller_sum(a, b, n, c_im, 0)
            re, im = re - x_im, im + x_re
        total = n * q * a_den * den
        g = gcd(total, re, im)
        re, im, b_den = re // g, im // g, total // g
        if den % b_den:
            grow = b_den // gcd(den, b_den)
            b = [part and [x * grow for x in part] for part in b]
            den *= grow
        scale = den // b_den
        b[0].append(re * scale)
        if complex_out:
            b[1].append(im * scale)
    return b[0], b[1], den


def _pow_exact(coeffs, exponent):
    """coeffs^exponent for coeffs[0] = 1 and an int, Fraction or QComplex
    exponent p/q, as integers: Miller's weights c = p + q, d = q over q,
    the lcm of the denominators of the exponent's parts."""
    p_re, p_im = exponent.real, exponent.imag
    q = lcm(p_re.denominator, p_im.denominator)
    return _miller_exact(coeffs, p_re.numerator * (q // p_re.denominator) + q,
                         p_im.numerator * (q // p_im.denominator), q, q)


def _mul_coeffs_float(a, b, order):
    conv = np.convolve(np.asarray(a, dtype=complex),
                       np.asarray(b, dtype=complex))[: order + 1]
    return list(conv)


# Float division and exp0 as numpy column updates, bit for bit as the scalar
# loops.  A term is a product by CPython's own formula, (ar*br - ai*bi,
# ar*bi + ai*br), on float64 parts: numpy's complex128 multiply may fuse it
# into FMA instructions and round differently.  The terms of one coefficient
# are added in the loop's order, one rounding after another; np.sum would
# add them pairwise.  Quotients stay Python complex divisions.  A numpy call
# costs as much as a few scalar terms, so each kernel forms the terms that
# involve the last _BLOCK new coefficients in Python and the older ones a
# block at a time in numpy.

_BLOCK = 16


def _parts(values):
    """float64 array [real parts; imaginary parts] of complex values."""
    a = np.array(values, dtype=complex)
    return np.stack((a.real, a.imag))


def _truediv_float(num, den):
    """num / den for den[0] != 0, both of one length, right-looking.

    out[k] = (num[k] - sum_i out[i] den[k-i]) / den[0] with the terms in
    ascending i.  A slot's terms from the current block of nonzero
    quotients are subtracted in Python; when the block holds _BLOCK
    quotients, their terms are subtracted from every later slot, row after
    row by np.subtract.reduce (subtraction has no pairwise form), and the
    block starts anew.  A slot that starts on a -0.0 part forms every term
    in Python, as the note on zero skipping requires.
    """
    n = len(num) - 1
    b0 = den[0]
    acc = None  # [re; im] of num less the flushed terms, from the first flush
    out = []
    rows = []  # ascending indices of the block's nonzero quotients
    with np.errstate(all="ignore"):
        for k in range(n + 1):
            if _has_negative_zero(num[k]):
                a = num[k]
                for i in range(k):
                    a = a - out[i] * den[k - i]
            else:
                a = num[k] if acc is None else complex(acc[0, k], acc[1, k])
                for i in rows:
                    d = den[k - i]
                    if d:
                        a = a - out[i] * d
            q = a / b0
            out.append(q)
            if q:
                rows.append(k)
            if len(rows) == _BLOCK and k < n:
                if acc is None:
                    acc, d_parts = _parts(num), _parts(den)
                    d_zero = (d_parts[0] == 0) & (d_parts[1] == 0)
                lag = np.arange(k + 1, n + 1) - np.array(rows)[:, None]
                dr, di = d_parts[:, lag]
                qs = np.array([out[i] for i in rows])
                qr, qi = qs.real[:, None], qs.imag[:, None]
                terms = np.empty((len(rows) + 1, 2, n - k))
                terms[0] = acc[:, k + 1:]
                np.subtract(qr * dr, qi * di, out=terms[1:, 0])
                np.add(qr * di, qi * dr, out=terms[1:, 1])
                skip = d_zero[lag]
                if skip.any():
                    np.copyto(terms[1:], 0.0, where=skip[:, None])
                acc[:, k + 1:] = np.subtract.reduce(terms, axis=0)
                rows = []
    return out


def _exp0_float(coeffs):
    """exp of a float series with constant term 0, left-looking.

    E_j = (1/j) sum_k k a_k E_{j-k} over the nonzero a_k in ascending k,
    skipping a zero E_{j-k}.  With g the gcd of the k, E_j = 0 unless g
    divides j, so only those j are summed.  Of a row's terms, those with
    E_{j-k} from the row's own block are added in Python from +0j; the rest
    were formed for the whole block in numpy, and np.add.accumulate adds
    them to that partial sum one after another.
    """
    n = len(coeffs) - 1
    support = [k for k in range(1, n + 1) if coeffs[k]]
    g = gcd(*support) or n + 1
    top = n // g
    kak = [0j] * (top + 1)  # kak[c] = k a_k at k = c g
    for k in support:
        kak[k // g] = k * coeffs[k]
    if top >= _BLOCK:
        a = _parts(kak)
        a_zero = (a[0] == 0) & (a[1] == 0)
    out = [1 + 0j]  # out[c] = E_{c g}
    with np.errstate(all="ignore"):
        for j0 in range(0, top + 1, _BLOCK):
            rows = range(max(j0, 1), min(j0 + _BLOCK, top + 1))
            if j0:
                # terms[r, :, c] for row j0 + r: k = r + c, E index j0 - c
                ks = np.arange(len(rows))[:, None] + np.arange(1, j0 + 1)
                ar, ai = a[:, ks]
                er, ei = _parts(out[j0 - 1::-1])
                terms = np.empty((len(rows), 2, j0 + 1))
                np.subtract(ar * er, ai * ei, out=terms[:, 0, 1:])
                np.add(ar * ei, ai * er, out=terms[:, 1, 1:])
                skip = a_zero[ks] | ((er == 0) & (ei == 0))
                if skip.any():
                    np.copyto(terms[:, :, 1:], 0.0, where=skip[:, None])
            for j in rows:
                acc = 0j
                for k in range(1, j - j0 + 1):
                    e = out[j - k]
                    if e and kak[k]:
                        acc = acc + kak[k] * e
                if j0:
                    row = terms[j - j0]
                    row[:, 0] = acc.real, acc.imag
                    acc = complex(*np.add.accumulate(row, axis=1)[:, -1])
                out.append(acc / (j * g))
    return [out[j // g] if j % g == 0 else 0j / j for j in range(n + 1)]


class TruncatedSeries:
    """Power series coefficients ``c[0..order]``, exact up to ``order``."""

    __slots__ = ("coeffs", "backend")

    def __init__(self, coeffs, backend=EXACT):
        scalar_types(backend)  # refuses an unknown backend word
        if backend == EXACT:
            coeffs = tuple(_coerce_scalar(c, backend) for c in coeffs)
        else:
            coeffs = tuple(map(complex, coeffs))
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
            if c:
                return n
        return None

    def is_normalized(self) -> bool:
        """True iff c[0] = 0 and c[1] = 1 (the shape ``z + a2 z^2 + ...``)."""
        return self.order >= 1 and not self.coeffs[0] and self.coeffs[1] == 1

    def truncate(self, order):
        if order < 0:
            raise ValueError(f"truncation order must be >= 0, got {order}")
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
                if self.coeffs[n]:
                    raise ZeroDivisionError(
                        "denominator has zero leading coefficient and the "
                        "numerator does not share the z factor")
            num = self.shift_down(v) if self.order >= v else None
            if num is None:
                raise ZeroDivisionError(
                    "numerator truncates before the shared z factor ends")
            return num / other.shift_down(v)
        n = min(self.order, other.order)
        if self.backend == FLOAT:
            out = _truediv_float(self.coeffs[: n + 1], other.coeffs[: n + 1])
            return TruncatedSeries(out, backend=FLOAT)
        b0 = other.coeffs[0]
        if b0 != 1:  # a / b = (a / b0) / (b / b0)
            return (self / b0) / (other / b0)
        # a / b = a b^-1 for b0 = 1, the reciprocal by Miller's recurrence
        a_re, a_im, a_den = _to_ints(self.coeffs, n)
        r_re, r_im, r_den = _pow_exact(other.coeffs[: n + 1], -1)
        return TruncatedSeries(_from_ints(
            *_mul_ints(a_re, a_im, r_re, r_im, n), a_den * r_den))

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
            if self.coeffs[n]:
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
        if inner.coeffs[0]:
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
        powers f^k (over integers on the exact backend).
        """
        if not self.is_normalized():
            raise ValueError("reversion needs a normalized series "
                             "(c[0] = 0, c[1] = 1)")
        if self.backend == EXACT:
            return TruncatedSeries(_revert_exact(self.coeffs))
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
        if self.coeffs[0]:
            raise ValueError("exp0 needs constant term exactly 0")
        if self.backend == FLOAT:
            return TruncatedSeries(_exp0_float(self.coeffs), backend=FLOAT)
        return TruncatedSeries(
            _from_ints(*_miller_exact(self.coeffs, 1, 0, 0, 1)))

    def pow(self, exponent):
        """Raise to a power.

        Nonnegative integer exponents work for any series (repeated
        multiplication).  Fractional (or negative) exponents require
        constant term exactly 1.  The exact backend uses Miller's
        recurrence, which keeps rational input rational; floats go through
        exp0(exponent * log1(a)).
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
        if self.backend == EXACT:
            out = _pow_exact(self.coeffs, exponent)
            return TruncatedSeries(_from_ints(*out))
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
        """Vectorized Horner evaluation at an array of complex points.

        np.polyval's own recurrence y = y * x + c, run in place.
        """
        x = np.asarray(points, dtype=complex)
        y = np.zeros_like(x)
        for c in np.array(list(map(complex, reversed(self.coeffs)))):
            np.multiply(y, x, out=y)
            np.add(y, c, out=y)
        return y

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
