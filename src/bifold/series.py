"""Truncated formal power series over exact rationals or complex floats.

A :class:`TruncatedSeries` stores the coefficients ``c[0] .. c[order]`` of a
power series and the truncation order up to which those coefficients are
trustworthy.  Every operation propagates the order explicitly: asking for a
coefficient beyond it raises ``IndexError`` instead of returning silent
garbage, which matters once reversion and fractional powers enter the mix.

Two coefficient backends are supported:

``exact``
    Arbitrary-precision rationals (:class:`fractions.Fraction`) and exact
    complex rationals (:class:`QComplex`, a Gaussian integer over one
    positive denominator).  Sums, products, quotients, composition,
    reversion and rational powers stay exact.  Products, composition,
    reversion, quotients, exp0 and rational powers run on Python ints
    over one common denominator and form one scalar per coefficient.  A
    rational power, exp0 and the reciprocal that a quotient multiplies by
    share Miller's recurrence, whose weights are integers.  A QComplex
    compares with a float or complex exactly.

``float``
    Machine-precision ``complex`` coefficients with numpy-backed
    convolution.  A power, exp0 and the reciprocal that a quotient
    multiplies by run Miller's recurrence as on the exact backend, one
    dot product per coefficient, and only on the exponents of an m-fold
    series that can be nonzero.  Values on whole circles come from one
    inverse FFT per radius.  Comparisons need explicit tolerances.
    numpy is imported inside the float functions, here and in
    ``membership`` and ``explore``, so exact work never loads it.

Series are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, hypot, lcm
from numbers import Rational

__all__ = ["QComplex", "TruncatedSeries", "geometric_series"]


class QComplex:
    """Exact complex rational (x + iy)/d on Python ints.

    The fields are canonical: d > 0 and gcd(x, y, d) = 1, so equal values
    have equal fields.  Every operation works on the integers and pays one
    3-way gcd for its result (a complex product is four integer products
    and that gcd); an int or Fraction operand n/e enters as (n + 0i)/e, and
    ``_qcomplex`` is the one reducing constructor the exact kernels share.
    ``re``, ``im``, ``real`` and ``imag`` give the parts as Fractions.
    ``complex()`` and ``abs()`` divide the ints directly: int true division
    is correctly rounded, so the bits are those of ``float(Fraction)``.
    Equality with a float or complex is exact, and the hash is complex's
    formula on the parts, so an equal int, Fraction, float or complex
    hashes the same.
    """

    __slots__ = ("_x", "_y", "_d")

    def __init__(self, re=0, im=0):
        (p, q), (r, s) = _ratio(re), _ratio(im)
        d = lcm(q, s)  # parts in lowest terms: over their lcm, gcd is 1
        _set_x(self, p * (d // q))
        _set_y(self, r * (d // s))
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("QComplex is immutable")

    @property
    def re(self) -> Fraction:
        return Fraction(self._x, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._y, self._d)

    real, imag = re, im

    def __add__(self, other):
        x, y, d = self._x, self._y, self._d
        if isinstance(other, QComplex):
            e = other._d
            if d == e:
                return _qcomplex(x + other._x, y + other._y, d)
            return _qcomplex(x * e + other._x * d, y * e + other._y * d, d * e)
        if isinstance(other, (int, Fraction)):
            n, e = other.numerator, other.denominator
            return _qcomplex(x * e + n * d, y * e, d * e)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        x, y, d = self._x, self._y, self._d
        if isinstance(other, QComplex):
            e = other._d
            if d == e:
                return _qcomplex(x - other._x, y - other._y, d)
            return _qcomplex(x * e - other._x * d, y * e - other._y * d, d * e)
        if isinstance(other, (int, Fraction)):
            n, e = other.numerator, other.denominator
            return _qcomplex(x * e - n * d, y * e, d * e)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            n, e, d = other.numerator, other.denominator, self._d
            return _qcomplex(n * d - self._x * e, -self._y * e, d * e)
        return NotImplemented

    def __mul__(self, other):
        x, y = self._x, self._y
        if isinstance(other, QComplex):
            u, v = other._x, other._y
            return _qcomplex(x * u - y * v, x * v + y * u, self._d * other._d)
        if isinstance(other, (int, Fraction)):
            n = other.numerator
            return _qcomplex(x * n, y * n, self._d * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        x, y, d = self._x, self._y, self._d
        if isinstance(other, QComplex):
            # ((x + iy)/d) / ((u + iv)/e) = (x + iy)(u - iv) e/(d (u^2 + v^2))
            u, v, e = other._x, other._y, other._d
            norm = u * u + v * v
            if not norm:
                raise ZeroDivisionError("division by zero QComplex")
            return _qcomplex((x * u + y * v) * e, (y * u - x * v) * e,
                             d * norm)
        if isinstance(other, (int, Fraction)):
            n, e = other.numerator, other.denominator
            if not n:
                raise ZeroDivisionError("division by zero QComplex")
            if n < 0:
                x, y, n = -x, -y, -n
            return _qcomplex(x * e, y * e, d * n)
        return NotImplemented

    def __rtruediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        # (n/f) / ((u + iv)/e) = n e (u - iv) / (f (u^2 + v^2))
        u, v = self._x, self._y
        norm = u * u + v * v
        if not norm:
            raise ZeroDivisionError("division by zero QComplex")
        ne = other.numerator * self._d
        return _qcomplex(ne * u, -ne * v, other.denominator * norm)

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return 1 / self ** -n
        x, y = 1, 0  # (x + iy) = (X + iY)^n by repeated squaring
        bx, by = self._x, self._y
        k = n
        while k:
            if k & 1:
                x, y = x * bx - y * by, x * by + y * bx
            bx, by = bx * bx - by * by, 2 * bx * by
            k >>= 1
        return _qcomplex(x, y, self._d ** n)

    def __neg__(self):
        return _qcomplex(-self._x, -self._y, self._d)

    def __pos__(self):
        return self

    def conjugate(self):
        return _qcomplex(self._x, -self._y, self._d)

    def abs2(self) -> Fraction:
        """|z|^2 as an exact rational."""
        x, y, d = self._x, self._y, self._d
        return Fraction(x * x + y * y, d * d)

    def __abs__(self) -> float:
        d = self._d
        return hypot(self._x / d, self._y / d)

    def __complex__(self):
        d = self._d
        return complex(self._x / d, self._y / d)

    def __bool__(self):
        return bool(self._x) or bool(self._y)

    def __eq__(self, other):
        if isinstance(other, QComplex):
            return (self._x == other._x and self._y == other._y
                    and self._d == other._d)
        if isinstance(other, (int, Fraction)):
            return (not self._y and self._x == other.numerator
                    and self._d == other.denominator)
        if isinstance(other, (float, complex)):
            # exact, as Fraction == float is: no rounding of self
            other = complex(other)
            return self.re == other.real and self.im == other.imag
        return NotImplemented

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
        if not self._y:
            return f"QComplex({self.re!s})"
        return f"QComplex({self.re!s}, {self.im!s})"


_set_x = QComplex._x.__set__
_set_y = QComplex._y.__set__
_set_d = QComplex._d.__set__


def _ratio(value):
    """(numerator, denominator) of an int, Fraction or other rational."""
    if type(value) is int:
        return value, 1
    if type(value) is not Fraction:
        value = Fraction(value)
    return value.numerator, value.denominator


def _qcomplex(x, y, d):
    """The QComplex (x + iy)/d for ints with d > 0, in lowest terms."""
    g = gcd(x, y, d)
    if g != 1:
        x, y, d = x // g, y // g, d // g
    z = object.__new__(QComplex)
    _set_x(z, x)
    _set_y(z, y)
    _set_d(z, d)
    return z


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
    _refuse_text((value,))
    return complex(value)


def _refuse_text(values):
    """Refuse str and bytes, which ``float()`` and ``complex()`` would
    parse; one check per distinct type keeps the float constructors fast."""
    for kind in set(map(type, values)):
        if issubclass(kind, (str, bytes)):
            text = next(v for v in values if isinstance(v, kind))
            raise TypeError(f"float backend cannot hold {text!r}")


# Exact kernels on integers.  A Fraction operation pays a gcd on every term;
# the products, composition, the reversion powers and Miller's recurrence
# below write their operands as integer numerators over one common
# denominator instead, form one scalar per output coefficient and skip every
# zero term.


def _to_ints(coeffs, order):
    """coeffs[:order + 1] as integer numerators over one denominator.

    Returns ``(re, im, den)``: the numerators of the real and of the
    imaginary parts over ``den``, the lcm of every coefficient's
    denominator.  ``im`` is None when no imaginary part is nonzero.
    """
    fields = [(c._x, c._y, c._d) if isinstance(c, QComplex)
              else (c.numerator, 0, c.denominator)
              for c in coeffs[: order + 1]]
    den = lcm(*[d for _, _, d in fields])
    re = [x * (den // d) for x, _, d in fields]
    im = None
    if any(y for _, y, _ in fields):
        im = [y * (den // d) for _, y, d in fields]
    return re, im, den


def _from_ints(re, im, den):
    """The scalars (re + i im) / den for den > 0, as Fractions when im is
    None; each costs one gcd."""
    if im is None:
        return [Fraction(x, den) for x in re]
    return [_qcomplex(x, y, den) for x, y in zip(re, im)]


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


def _compose_exact(outer, inner, order):
    """outer(inner(z)) through z^order for inner[0] = 0, on integers.

    Horner's rule acc <- acc inner + c_k from the top, with the c_k as
    integer numerators C_k over one denominator D: acc is sum C_j
    inner^(j - k), kept as primitive numerators over one denominator (the
    gcd is divided out after every step, as in ``_revert_exact``) and only
    through z^(order - k), since the k products still to come each raise
    the valuation by at least one.  The result is acc / D at k = 0.
    """
    i_re, i_im, i_den = _to_ints(inner, order)
    c_re, c_im, c_den = _to_ints(outer, order)
    complex_out = c_im is not None or i_im is not None
    re = [c_re[order]]
    im = [c_im[order] if c_im else 0] if complex_out else None
    den = 1
    for k in range(order - 1, -1, -1):
        re, im = _mul_ints(re, im, i_re, i_im, order - k)
        den *= i_den
        re[0] += c_re[k] * den  # the product's z^0 term is 0
        if c_im:
            im[0] += c_im[k] * den
        g = gcd(den, *re, *(im or ()))
        re = [x // g for x in re]
        im = im and [x // g for x in im]
        den //= g
    if im is not None and not any(im):
        im = None
    return _from_ints(re, im, den * c_den)


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
    import numpy as np

    conv = np.convolve(np.asarray(a, dtype=complex),
                       np.asarray(b, dtype=complex))[: order + 1]
    return list(conv)


def _miller_float(coeffs, c, d, q=1):
    """b_0 = 1 and n q b_n = sum_{k=1}^n (c k - d n) a_k b_{n-k} on floats.

    Miller's recurrence as ``_miller_exact`` runs it, with complex weights
    and one np.dot per coefficient; coeffs[0] does not enter it.  Each
    weight c k - d n is formed before its product: split into the two sums
    c sum k a_k b_{n-k} and d n sum a_k b_{n-k}, it would lose to their
    cancellation.  With g the gcd of the exponents of the nonzero a_k,
    b_n = 0 unless g divides n, and the recurrence, homogeneous in k and n,
    runs on a_{jg} and b_{jg} in j: an m-fold series takes n/m steps.  A
    non-finite coefficient gives non-finite output without a RuntimeWarning.
    """
    import numpy as np

    a = np.array(coeffs, dtype=complex)
    n = a.size - 1
    g = gcd(*(np.flatnonzero(a[1:]) + 1).tolist()) or n + 1
    a = a[::g]
    b = np.zeros(a.size, dtype=complex)
    b[0] = 1
    with np.errstate(all="ignore"):
        ck = c * np.arange(a.size)
        for j in range(1, a.size):
            w = (ck[1:j + 1] - d * j) * a[1:j + 1]
            b[j] = np.dot(w, b[j - 1::-1]) / (j * q)
    out = np.zeros(n + 1, dtype=complex)
    out[::g] = b
    return list(out)


class TruncatedSeries:
    """Power series coefficients ``c[0..order]``, exact up to ``order``."""

    __slots__ = ("coeffs", "backend")

    def __init__(self, coeffs, backend=EXACT):
        scalar_types(backend)  # refuses an unknown backend word
        if backend == EXACT:
            coeffs = tuple(_coerce_scalar(c, backend) for c in coeffs)
        else:
            coeffs = tuple(coeffs)
            _refuse_text(coeffs)
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
        b0 = other.coeffs[0]
        if self.backend == FLOAT:
            import numpy as np

            # a / b = a (b / b0)^-1 / b0, with b0 inside Miller's recurrence:
            # dividing b by b0 first would not give exactly 1 at z^0
            recip = _miller_float(other.coeffs[: n + 1], 0, 1, b0)
            with np.errstate(all="ignore"):
                out = np.convolve(self.coeffs[: n + 1], recip)[: n + 1] / b0
            return TruncatedSeries(out, backend=FLOAT)
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
        if self.backend == EXACT:
            return TruncatedSeries(_compose_exact(self.coeffs, inner.coeffs, n))
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
            return TruncatedSeries(_miller_float(self.coeffs, 1, 0),
                                   backend=FLOAT)
        return TruncatedSeries(
            _from_ints(*_miller_exact(self.coeffs, 1, 0, 0, 1)))

    def pow(self, exponent):
        """Raise to a power.

        Nonnegative integer exponents work for any series (repeated
        multiplication).  Fractional (or negative) exponents require
        constant term exactly 1.  Both backends use Miller's recurrence,
        which on the exact backend keeps rational input rational.
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
        return TruncatedSeries(_miller_float(self.coeffs, exponent + 1, 1),
                               backend=FLOAT)

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
        import numpy as np

        x = np.asarray(points, dtype=complex)
        y = np.zeros_like(x)
        for c in np.array(list(map(complex, reversed(self.coeffs)))):
            np.multiply(y, x, out=y)
            np.add(y, c, out=y)
        return y

    def eval_polar(self, radii, angles):
        """Values at r * exp(2*pi*i*j/angles), one row per radius r.

        On one circle the truncated polynomial's values are the
        unnormalised inverse DFT of c_k r^k (Cooley & Tukey 1965): one FFT
        per radius instead of Horner's N + 1 steps at every point.  An order
        at or above ``angles`` is first folded modulo ``angles``, which is
        exact since the angle factor exp(2*pi*i*j*k/angles) has period
        ``angles`` in k.  A non-finite coefficient gives non-finite rows
        without a RuntimeWarning.
        """
        import numpy as np

        c = np.array(list(map(complex, self.coeffs)))
        r = np.asarray(radii, dtype=float)[:, None]
        with np.errstate(all="ignore"):
            scaled = c * r ** np.arange(c.size)
            if c.size > angles:
                scaled = np.pad(scaled, ((0, 0), (0, -c.size % angles)))
                scaled = scaled.reshape(len(r), -1, angles).sum(axis=1)
            return np.fft.ifft(scaled, n=angles, axis=1, norm="forward")

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
