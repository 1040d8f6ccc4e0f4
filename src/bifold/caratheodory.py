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
import math
import random
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import starmap

from . import bounds as bounds_mod
from .series import (EXACT, FLOAT, ComplexBatch, QComplex, TruncatedSeries,
                     _to_ints, scalar_types)

__all__ = [
    "CaratheodoryFunction",
    "unimodular_exact",
    "sample",
    "sample_exact",
    "constrained_pair",
    "check_lemma1",
    "Lemma1Report",
    "zero_moment_base",
    "with_moments",
    "solve_linear_exact",
]


def unimodular_exact(t) -> QComplex:
    """Rational point on the unit circle from the tangent-half parameter t."""
    t = Fraction(t)
    d = 1 + t * t
    return QComplex((1 - t * t) / d, 2 * t / d)


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
            for w, z in atoms:
                if not isinstance(z, QComplex) or z.abs2() != 1:
                    raise ValueError("exact atoms need exact unimodular points")
                if w < 0:
                    raise ValueError("atom weights must be nonnegative")
            if atoms and sum(w for w, _ in atoms) != 1:
                raise ValueError("atom weights must sum to 1")
        else:
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

    @classmethod
    def constant_one(cls, fold=1, backend=EXACT):
        """p = 1: every coefficient zero."""
        return cls((), fold=fold, backend=backend)

    def coefficient(self, k):
        """p_{km} = 2 sum_j w_j zeta_j^k (the k-th atom moment, doubled)."""
        if k < 1:
            raise IndexError("coefficient index must be >= 1")
        return _moment(self.atoms, k, scalar_types(self.backend)[1])

    def moments(self, depth):
        """[p_m, p_2m, ..., p_{depth*m}]."""
        return [self.coefficient(k) for k in range(1, depth + 1)]

    def expand(self, order) -> TruncatedSeries:
        """Series 1 + p_m z^m + p_2m z^2m + ... truncated at ``order``."""
        m = self.fold
        entries = {0: scalar_types(self.backend)[1](1)}
        for k in range(1, order // m + 1):
            entries[k * m] = self.coefficient(k)
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


def _moment(atoms, k, cplx):
    """2 sum_j w_j zeta_j^k, summed in atom order, in the complex type cplx.

    Exact atoms (cplx = QComplex) go through ``_moment_exact``.  On floats
    zeta^k is an iterated product, which keeps sign symmetries bit-exact.
    Written with plain operators, so on floats (cplx = complex) it also runs
    on a batch of atom sets: weight arrays and ComplexBatch points, one
    entry per set.
    """
    if cplx is QComplex:
        return _moment_exact(atoms, k)
    acc = cplx(0)
    for w, z in atoms:
        zk = cplx(1)
        for _ in range(k):
            zk = zk * z
        acc = acc + w * zk
    return acc + acc


def _moment_exact(atoms, k):
    """The exact moment on integers: with weights W_j / D and points
    (X_j + i Y_j) / E, it is 2 sum_j W_j (X_j + i Y_j)^k / (D E^k), one
    Fraction per part."""
    if not atoms:
        return QComplex(0)
    weights, points = zip(*atoms)
    last = len(atoms) - 1
    w, _, w_den = _to_ints(weights, last)
    x, y, z_den = _to_ints(points, last)
    re = im = 0
    for wj, xj, yj in zip(w, x, y or [0] * len(x)):
        if wj:
            pr, pi = 1, 0  # (X_j + i Y_j)^k
            for _ in range(k):
                pr, pi = pr * xj - pi * yj, pr * yj + pi * xj
            re += wj * pr
            im += wj * pi
    den = w_den * z_den ** k
    return QComplex(Fraction(2 * re, den), Fraction(2 * im, den))


# The float atom checks, written with plain operators so that they run
# unchanged on one atom set (float weights, complex points) and on a batch
# of them (weight arrays, ComplexBatch points, one entry per set).  A NaN,
# which no ordered comparison holds for, fails each check.


def _nan(x):
    return x != x


def _negative(w):
    return (w < -1e-15) | _nan(w)


def _off_circle(z):
    gap = abs(abs(z) - 1.0)
    return (gap > 1e-12) | _nan(gap)


def _off_simplex(weights):
    gap = abs(sum(weights) - 1.0)
    return (gap > 1e-12) | _nan(gap)


def _float_faults(atoms):
    """Where float atoms fail a check of ``CaratheodoryFunction``.

    On a batch, one flag per set.  The constructor stays the home of the
    error messages: rebuild a flagged set to raise its error.
    """
    bad = False
    for w, z in atoms:
        bad = bad | _negative(w) | _off_circle(z)
    if atoms:
        bad = bad | _off_simplex(w for w, _ in atoms)
    return bad


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
# exact linear algebra (small systems)


def solve_linear_exact(matrix, rhs):
    """Gaussian elimination over Fractions; raises on singular systems."""
    n = len(matrix)
    a = [[Fraction(x) for x in row] + [Fraction(v)]
         for row, v in zip(matrix, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("singular linear system")
        a[col], a[pivot] = a[pivot], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def _solve_linear_float(matrix, rhs):
    import numpy as np

    try:
        sol = np.linalg.solve(np.asarray(matrix, dtype=float),
                              np.asarray(rhs, dtype=float))
    except np.linalg.LinAlgError:
        raise ZeroDivisionError("singular linear system")
    return [float(x) for x in sol]


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


def _pair_atoms_block(tags, m, atom_count):
    """``_pair_atoms(tag, m, atom_count, FLOAT)`` for every tag, bit for bit.

    Each tag still seeds its own stream, but one loop draws all the tags'
    uniforms, in the recipe's order, and each transform then runs on one
    variate across all the tags: exponentials as -log(1 - u)
    (``expovariate(1.0)``) and points as (cos x, sin x) with x = 2*pi*u
    (``cmath.exp(2j*cmath.pi*u)``).  They use ``math`` and the builtin
    ``sum``, as the scalar recipe does, never numpy's own log, cos, sin or
    sum, which do not promise the same bits; numpy does only the correctly
    rounded elementwise steps.  Returns (p_atoms, q_atoms) by atom
    position: a weight array and ComplexBatch points, one entry per tag.
    Positions may share their arrays.
    """
    import numpy as np

    tails = max(1, atom_count // 2)
    sizes = (atom_count, tails, tails)  # core, p tail, q tail
    width = 2 * sum(sizes)  # uniforms per tag
    no_args = ((),) * width
    rng = random.Random()
    shares, flat = [], array("d")  # raw doubles, no float objects
    for tag in tags:
        # _subseed(tag, m, FLOAT, "pair"), spelled out: reseeding one
        # generator gives the state a new random.Random(str) starts in
        rng.seed(f"{tag!r}/{m}/{FLOAT}/pair")
        shares.append(rng.randint(1, 3))
        flat.extend(starmap(rng.random, no_args))  # width rng.random()s
    # one row per variate, one column per tag
    uniforms = np.frombuffer(flat).reshape(len(tags), width).T
    s = np.array(shares, dtype=float) / 4  # tail weight share

    def column(fn, rows):
        values = map(fn, rows.ravel().tolist())
        return np.fromiter(values, float, rows.size).reshape(rows.shape)

    groups, row = [], 0
    for count, scale in zip(sizes, (1 - s, s / 2, s / 2)):
        raw = -column(math.log, 1.0 - uniforms[row:row + count])
        total = np.fromiter(map(sum, raw.T.tolist()), float, len(tags))
        x = (2 * math.pi) * uniforms[row + count:row + 2 * count]
        groups.append(list(zip(scale * raw / total, column(math.cos, x),
                               column(math.sin, x))))
        row += 2 * count
    core, p_tail, q_tail = groups

    def paired(tail):
        return [atom for w, c, sn in tail
                for atom in ((w, ComplexBatch(c, sn)),
                             (w, ComplexBatch(-c, -sn)))]

    return (paired(p_tail) + [(w, ComplexBatch(c, sn)) for w, c, sn in core],
            paired(q_tail) + [(w, ComplexBatch(-c, -sn))
                              for w, c, sn in core])


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
# a fixed exact mixture with vanishing first and second moments


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


def zero_moment_base(fold=1, backend=EXACT) -> CaratheodoryFunction:
    """Six-atom mixture whose first and second atom moments vanish exactly.

    Useful as a neutral carrier: mixing any sample with it scales the first
    two expansion coefficients without leaving the class.
    """
    return CaratheodoryFunction(zip(_BASE_WEIGHTS, _BASE_POINTS), fold=fold,
                                backend=backend)


def with_moments(c1, c2, fold=1, backend=EXACT) -> CaratheodoryFunction:
    """Mixture on the six fixed base points with prescribed atom moments.

    Finds weights w = base + delta with sum(delta) = 0, sum(delta*zeta) = c1
    and sum(delta*zeta^2) = c2 (so the expansion has p_m = 2*c1 and
    p_2m = 2*c2).  The 5x5 linear system is solved exactly on the exact
    backend.  Raises ValueError when a weight would leave [0, 1]; callers
    shrink the targets and retry.
    """
    if backend == EXACT:
        c1, c2 = (c if isinstance(c, QComplex) else QComplex(c)
                  for c in (c1, c2))
        pts, solve = _BASE_POINTS, solve_linear_exact
    else:
        c1, c2 = complex(c1), complex(c2)
        pts, solve = [complex(p) for p in _BASE_POINTS], _solve_linear_float
    squares = [p * p for p in pts[:5]]
    matrix = [[1] * 5,
              [p.real for p in pts[:5]],
              [p.imag for p in pts[:5]],
              [p.real for p in squares],
              [p.imag for p in squares]]
    rhs = [0, c1.real, c1.imag, c2.real, c2.imag]
    delta = solve(matrix, rhs) + [0]
    weights = [w + d for w, d in zip(_BASE_WEIGHTS, delta)]
    if any(w < 0 for w in weights):
        raise ValueError("prescribed moments leave the weight simplex")
    return CaratheodoryFunction(zip(weights, pts), fold=fold, backend=backend)
