"""Positive-real-part functions built from finite Herglotz atom mixtures.

A function here is a convex combination of Moebius kernels,

    p(z) = sum_j  w_j * (1 + zeta_j z^m) / (1 - zeta_j z^m),

with nonnegative weights summing to 1 and unimodular points zeta_j.  Such a
mixture always has p(0) = 1 and positive real part on the unit disk, so the
classical coefficient inequalities (|p_n| <= 2 and the sharpened bound on
p_2 - p_1^2/2) hold by construction; checking them validates the series
machinery rather than the sampler.  The expansion has nonzero coefficients
only at exponents divisible by the fold order m, with p_{km} = 2 sum_j w_j
zeta_j^k.

The empty atom set denotes the constant function p = 1 (the limit of the
uniform measure on the circle, which no finite mixture reaches).

Two backends: float atoms (complex points on the circle), and exact atoms
with Fraction weights and rational unimodular points (1 - t^2 + 2ti)/(1 + t^2)
so that every expansion coefficient is an exact QComplex.
"""

from __future__ import annotations

import cmath
import functools
import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import bounds as bounds_mod
from .series import (EXACT, FLOAT, QComplex, TruncatedSeries, _coerce_scalar,
                     _qcomplex, _refuse_text, _to_ints, scalar_types)

__all__ = [
    "CaratheodoryFunction",
    "unimodular_exact",
    "sample",
    "sample_exact",
    "constrained_pair",
    "check_lemma1",
    "Lemma1Report",
    "with_moments",
]


def unimodular_exact(t) -> QComplex:
    """Rational point on the unit circle from the tangent-half parameter t:
    ((b^2 - a^2) + 2ab i)/(a^2 + b^2) for t = a/b."""
    t = Fraction(t)
    a, b = t.numerator, t.denominator
    return _qcomplex(b * b - a * a, 2 * a * b, a * a + b * b)


class CaratheodoryFunction:
    """Finite Herglotz mixture with fold order m."""

    __slots__ = ("atoms", "fold", "backend")

    def __init__(self, atoms, fold=1, backend=None):
        atoms = tuple((w, z) for (w, z) in atoms)
        bounds_mod._check_m(fold)
        if backend is None:
            backend = EXACT if all(
                isinstance(w, (int, Fraction)) and isinstance(z, QComplex)
                for (w, z) in atoms) else FLOAT
        scalar_types(backend)  # refuses an unknown backend word
        if backend == EXACT:
            # a Fraction weight is kept as it is: Fraction(w) would rebuild it
            atoms = tuple((w if type(w) is Fraction else Fraction(w), z)
                          for (w, z) in atoms)
            # weights as numerators over one denominator; a point
            # (x + iy)/d is unimodular when x^2 + y^2 = d^2
            nums, _, den = _to_ints([w for w, _ in atoms], len(atoms) - 1)
            for num, (_, z) in zip(nums, atoms):
                if not (isinstance(z, QComplex)
                        and z._x * z._x + z._y * z._y == z._d * z._d):
                    raise ValueError("exact atoms need exact unimodular points")
                if num < 0:
                    raise ValueError("atom weights must be nonnegative")
            if atoms and sum(nums) != den:
                raise ValueError("atom weights must sum to 1")
        else:
            _refuse_text([x for atom in atoms for x in atom])
            atoms = tuple((float(w), complex(z)) for (w, z) in atoms)
            for w, z in atoms:
                if _negative(w):
                    raise ValueError("atom weights must be nonnegative")
                if _off_circle(z):
                    raise ValueError("atom points must be unimodular")
            if atoms and _off_simplex(w for w, _ in atoms):
                raise ValueError("atom weights must sum to 1")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "fold", int(fold))
        object.__setattr__(self, "backend", backend)

    def __setattr__(self, name, value):
        raise AttributeError("CaratheodoryFunction is immutable")

    def coefficient(self, k):
        """p_{km} = 2 sum_j w_j zeta_j^k (the k-th atom moment, doubled)."""
        if k < 1:
            raise IndexError("coefficient index must be >= 1")
        return self.moments(k)[-1]

    def moments(self, depth):
        """[p_m, p_2m, ..., p_{depth*m}], in one pass over the powers."""
        return _moments(self.atoms, depth, scalar_types(self.backend)[1])

    def expand(self, order) -> TruncatedSeries:
        """Series 1 + p_m z^m + p_2m z^2m + ... truncated at ``order``."""
        m = self.fold
        entries = {0: scalar_types(self.backend)[1](1)}
        for k, value in enumerate(self.moments(order // m), start=1):
            entries[k * m] = value
        return TruncatedSeries.from_dict(entries, order, backend=self.backend)

    def eval(self, z) -> complex:
        """Pointwise value sum_j w_j (1 + zeta z^m)/(1 - zeta z^m)."""
        zm = complex(z) ** self.fold
        acc = 0j
        for w, zeta in self.atoms:
            u = complex(zeta) * zm
            acc += complex(w) * (1 + u) / (1 - u)
        if not self.atoms:
            return 1 + 0j
        return acc

    def __repr__(self):
        return (f"CaratheodoryFunction({len(self.atoms)} atoms, "
                f"fold={self.fold}, backend={self.backend!r})")


def _moments(atoms, depth, cplx):
    """[2 sum_j w_j zeta_j^k for k = 1 .. depth], each summed in atom
    order, in the complex type cplx.

    Exact atoms (cplx = QComplex) go through ``_moments_exact``.  On floats
    zeta^k is the running product ((1 * zeta) * zeta) ..., the iterated
    product that keeps sign symmetries bit-exact.
    """
    if cplx is QComplex:
        return _moments_exact(atoms, depth)
    sums = [cplx(0)] * depth
    for w, z in atoms:
        zk = cplx(1)
        for k in range(depth):
            zk = zk * z
            sums[k] = sums[k] + w * zk
    return [s + s for s in sums]


def _moments_exact(atoms, depth):
    """The exact moments on integers: with weights W_j / D and points
    (X_j + i Y_j) / E, moment k is 2 sum_j W_j (X_j + i Y_j)^k / (D E^k),
    from running Gaussian powers, one QComplex per moment."""
    if not atoms:
        return [QComplex(0)] * depth
    weights, points = zip(*atoms)
    last = len(atoms) - 1
    w, _, w_den = _to_ints(weights, last)
    x, y, z_den = _to_ints(points, last)
    re, im = [0] * depth, [0] * depth
    for wj, xj, yj in zip(w, x, y or [0] * len(x)):
        if wj:
            pr, pi = wj, 0  # W_j (X_j + i Y_j)^k
            for k in range(depth):
                pr, pi = pr * xj - pi * yj, pr * yj + pi * xj
                re[k] += pr
                im[k] += pi
    out = []
    den = w_den
    for k in range(depth):
        den *= z_den
        out.append(_qcomplex(2 * re[k], 2 * im[k], den))
    return out


# The float atom checks.  A NaN, which no ordered comparison holds for,
# fails each one.


def _negative(w):
    return not w >= -1e-15


def _off_circle(z):
    return not abs(abs(z) - 1.0) <= 1e-12


def _off_simplex(weights):
    return not abs(sum(weights) - 1.0) <= 1e-12


# ----------------------------------------------------------------------
# sampling


def _draw_atoms(rng, count, backend, scale=1):
    """``count`` seeded atoms of total weight ``scale``, weights drawn first.

    Float atoms take exponential weights and uniform circle points; exact
    atoms take integer weights in [1, 60] and the rational unimodular point
    of a random tangent-half parameter with numerator and denominator
    bounded by 24.
    """
    if backend == EXACT:
        raw = [Fraction(rng.randint(1, 60)) for _ in range(count)]
        points = [unimodular_exact(Fraction(rng.randint(-24, 24),
                                            rng.randint(1, 24)))
                  for _ in range(count)]
    else:
        raw = [rng.expovariate(1.0) for _ in range(count)]
        points = [cmath.exp(2j * cmath.pi * rng.random())
                  for _ in range(count)]
    total = sum(raw)
    return [(scale * r / total, z) for r, z in zip(raw, points)]


def _sample(seed, atom_count, m, backend):
    if atom_count < 1:
        raise ValueError("atom count must be >= 1")
    atoms = _draw_atoms(random.Random(seed), atom_count, backend)
    return CaratheodoryFunction(atoms, fold=m, backend=backend)


def sample(seed, atom_count, m=1) -> CaratheodoryFunction:
    """Seeded float sample: simplex weights, uniform circle points."""
    return _sample(seed, atom_count, m, FLOAT)


def sample_exact(seed, atom_count, m=1) -> CaratheodoryFunction:
    """Seeded exact sample: rational weights, rational unimodular points."""
    return _sample(seed, atom_count, m, EXACT)


# ----------------------------------------------------------------------
# constrained pairs: p_m = -q_m


def _subseed(seed, *tags) -> str:
    """String sub-seed: random.Random hashes strings stably (sha512)."""
    return "/".join([repr(seed), *map(str, tags)])


def _tail_atoms(rng, count, s, backend):
    """Self-cancelling pairs ((s*u/2, xi), (s*u/2, -xi)) of total weight s.

    Each pair contributes zero to the first atom moment.  Summed first and
    pairwise-adjacent, the cancellation is exact even in floats: the
    accumulator returns to exactly 0.0 after every pair.
    """
    atoms = []
    for h, xi in _draw_atoms(rng, count, backend, scale=s / 2):
        atoms.append((h, xi))
        atoms.append((h, -xi))
    return atoms


def _pair_atoms(seed, m, atom_count, backend):
    """The seeded atom lists (p_atoms, q_atoms) of ``constrained_pair``."""
    if atom_count < 1:
        raise ValueError("atom count must be >= 1")
    tail_pairs = max(1, atom_count // 2)
    rng = random.Random(_subseed(seed, m, backend, "pair"))
    real, _ = scalar_types(backend)
    s = real(rng.randint(1, 3)) / 4  # tail weight share
    core = _draw_atoms(rng, atom_count, backend, scale=1 - s)
    p_atoms = _tail_atoms(rng, tail_pairs, s, backend)
    q_atoms = _tail_atoms(rng, tail_pairs, s, backend)
    for w, zeta in core:
        p_atoms.append((w, zeta))
        q_atoms.append((w, -zeta))
    return p_atoms, q_atoms


def constrained_pair(seed, m, atom_count=3, backend=FLOAT):
    """A seeded (p, q) pair whose first coefficients cancel: p_m = -q_m.

    The two functions share an antisymmetric core: identical weights with
    points zeta on the p side and -zeta on the q side, which negates the
    first atom moment termwise (sign flips are exact in both backends, so
    the constraint holds with zero residual, floats included).  Each side
    additionally carries its own self-cancelling tail pairs, which add
    nothing to the first moment but decouple the second ones, so p_2m and
    q_2m stay independent and the pair ensemble is not artificially thin.
    """
    p_atoms, q_atoms = _pair_atoms(seed, m, atom_count, backend)
    p = CaratheodoryFunction(p_atoms, fold=m, backend=backend)
    q = CaratheodoryFunction(q_atoms, fold=m, backend=backend)
    return p, q


# ----------------------------------------------------------------------
# coefficient inequalities


@dataclass
class Lemma1Report:
    """Outcome of the classical coefficient inequalities for one function."""

    fold: int
    magnitudes: list = field(default_factory=list)  # (k, |p_km|, ok)
    second_lhs: float = 0.0
    second_rhs: float = 0.0
    second_ok: bool = True

    @property
    def ok(self) -> bool:
        return self.second_ok and all(ok for (_, _, ok) in self.magnitudes)


def check_lemma1(p: CaratheodoryFunction, depth=2) -> Lemma1Report:
    """Check |p_{km}| <= 2 for k <= depth and the second-coefficient bound.

    The second inequality compares |p_{2m} - p_m^2/2| against 2 - |p_m|^2/2,
    i.e. it is applied to the first two nonzero coefficients of the m-fold
    expansion.  On the exact backend the comparisons are exact (squared
    forms); on floats they carry a slack of 1e-12.  A violation is reported,
    not raised.
    """
    if depth < 2:
        raise ValueError("the second inequality needs depth >= 2")
    report = Lemma1Report(fold=p.fold)
    moments = p.moments(depth)
    exact = p.backend == EXACT
    for k, value in enumerate(moments, start=1):
        if exact:
            ok = value.abs2() <= 4
        else:
            ok = abs(value) <= 2 + 1e-12
        report.magnitudes.append((k, abs(value), ok))
    p1, p2 = moments[0], moments[1]
    diff = p2 - p1 * p1 / 2
    if exact:
        rhs = 2 - p1.abs2() / 2
        report.second_ok = rhs >= 0 and diff.abs2() <= rhs * rhs
        report.second_lhs = abs(diff)
        report.second_rhs = float(rhs)
    else:
        rhs = 2 - abs(p1) ** 2 / 2
        report.second_lhs = abs(diff)
        report.second_rhs = rhs
        report.second_ok = abs(diff) <= rhs + 1e-12
    return report


# ----------------------------------------------------------------------
# the fixed exact mixture with_moments(0, 0), whose first two moments vanish


_BASE_POINTS = (
    QComplex(1, 0),
    QComplex(0, 1),
    QComplex(-1, 0),
    QComplex(0, -1),
    QComplex(Fraction(3, 5), Fraction(4, 5)),
    QComplex(Fraction(3, 5), Fraction(-4, 5)),
)

_BASE_WEIGHTS = (
    Fraction(24, 192),
    Fraction(32, 192),
    Fraction(54, 192),
    Fraction(32, 192),
    Fraction(25, 192),
    Fraction(25, 192),
)


@functools.cache
def _base(backend):
    """The base weights and points in ``backend``'s scalars."""
    if backend == EXACT:
        return _BASE_WEIGHTS, _BASE_POINTS
    return (tuple(float(w) for w in _BASE_WEIGHTS),
            tuple(complex(p) for p in _BASE_POINTS))


_SQUARE_4 = _BASE_POINTS[4] * _BASE_POINTS[4]  # (-7 + 24i)/25


def with_moments(c1, c2, fold=1, backend=EXACT) -> CaratheodoryFunction:
    """Mixture on the six fixed base points with prescribed atom moments.

    Weights base + delta with sum(delta) = 0, sum(delta*zeta) = c1 and
    sum(delta*zeta^2) = c2, so p_m = 2*c1 and p_2m = 2*c2; the sixth weight
    stays put.  In closed form: only zeta_4 has a non-real square, so Im c2
    fixes delta_4 = d, and the first four deltas are the inverse 4-point DFT
    of S_0 = -d, S_1 = c1 - d*zeta_4 and S_2 = Re c2 - d*Re zeta_4^2.  The
    exact backend refuses float targets.  Raises ValueError when a weight
    would leave [0, 1]; callers shrink the targets and retry.
    """
    c1, c2 = (_coerce_scalar(c, backend) for c in (c1, c2))
    real, _ = scalar_types(backend)
    base, points = _base(backend)
    d = c2.imag / real(_SQUARE_4.imag)
    s0 = -d
    s1_re = c1.real - d * points[4].real
    s1_im = c1.imag - d * points[4].imag
    s2 = c2.real - d * real(_SQUARE_4.real)
    delta = ((s0 + s2 + 2 * s1_re) / 4, (s0 - s2 + 2 * s1_im) / 4,
             (s0 + s2 - 2 * s1_re) / 4, (s0 - s2 - 2 * s1_im) / 4, d, 0)
    weights = [w + dw for w, dw in zip(base, delta)]
    if any(w < 0 for w in weights):
        raise ValueError("prescribed moments leave the weight simplex")
    return CaratheodoryFunction(zip(weights, points), fold=fold,
                                backend=backend)
