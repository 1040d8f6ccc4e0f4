"""Ensemble sweeps and extremal hill climbing over sampled pair data.

Each cell of a parameter grid (kind, m, alpha-or-beta, lambda) draws seeded
constrained pairs, solves the coefficient system and tracks the largest
observed |a_{m+1}| and |a_{2m+1}|.  Samples whose realizability score is
below the threshold count toward the filtered maxima, which are the ones
the class bounds actually apply to; the unfiltered maxima are reported next
to them so the filtering choice hides nothing.  Random pairs almost never
land on the realizability manifold, so cells can optionally mix in
constructed realizable pairs to keep the filtered statistics populated.

The hill climber perturbs atom angles and weights of the p side
coordinate-by-coordinate, accepting improvements of |a_{m+1}|.  Because the
first coefficient is linear in p_m and |p_m| <= 2 is tight for a single
atom, a single-atom start is already extremal; from scattered starts the
climber should approach the linear-relation ceiling.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, field

from . import bounds as bounds_mod
from .caratheodory import (CaratheodoryFunction, _subseed, constrained_pair)
from .derivation import realizable_pair, _solve
from .membership import ClassSpec

__all__ = ["SearchRecord", "sweep_cell", "sweep", "hill_climb",
           "ClimbRecord", "DEFAULT_REALIZABILITY_THRESHOLD"]

DEFAULT_REALIZABILITY_THRESHOLD = 1e-8


@dataclass
class SearchRecord:
    """Per-cell outcome of a sweep."""

    kind: str
    m: int
    param: float
    lam: float
    samples: int
    filtered_count: int
    max_a_m1: float            # over realizability-filtered samples
    max_a_2m1: float
    max_a_m1_unfiltered: float
    max_a_2m1_unfiltered: float
    bound_a_m1: float
    bound_a_2m1: float
    ceiling: float             # linear-relation cap on |a_{m+1}|
    argmax_seed: str           # filtered argmax ("" when the cell is empty)
    argmax_seed_unfiltered: str
    threshold: float

    @property
    def ratio_a_m1(self) -> float:
        return self.max_a_m1 / self.bound_a_m1

    @property
    def ratio_a_2m1(self) -> float:
        return self.max_a_2m1 / self.bound_a_2m1

    @property
    def ceiling_ok(self) -> bool:
        return self.max_a_m1_unfiltered <= self.ceiling + 1e-10


def sweep_cell(kind, m, param, lam, samples, seed,
               atom_count=3, realizable=0,
               threshold=DEFAULT_REALIZABILITY_THRESHOLD) -> SearchRecord:
    """Draw ``samples`` constrained pairs for one cell and record maxima.

    ``realizable`` additional pairs are constructed to satisfy the full
    system exactly (well, to float solve tolerance) so that the filtered
    statistics are not vacuously empty.
    """
    spec = ClassSpec.from_kind(kind, m, param, lam)
    lam_f = float(lam)
    param_f = float(param)
    best = {"f1": 0.0, "f2": 0.0, "u1": 0.0, "u2": 0.0,
            "fseed": "", "useed": ""}
    count_filtered = 0

    def record(solution, tag):
        nonlocal count_filtered
        a1 = abs(complex(solution.a_m1))
        a2 = abs(complex(solution.a_2m1))
        if a1 > best["u1"]:
            best["u1"] = a1
            best["useed"] = tag
        best["u2"] = max(best["u2"], a2)
        if solution.realizability <= threshold:
            count_filtered += 1
            if a1 > best["f1"]:
                best["f1"] = a1
                best["fseed"] = tag
            best["f2"] = max(best["f2"], a2)

    for i in range(samples):
        tag = _subseed(seed, kind, m, param_f, lam_f, i)
        p, q = constrained_pair(tag, m, atom_count, backend="float")
        record(_solve(p, q, spec), tag)
    for i in range(realizable):
        tag = _subseed(seed, kind, m, param_f, lam_f, "realizable", i)
        p, q = realizable_pair(tag, spec, backend="float",
                               atom_count=atom_count)
        record(_solve(p, q, spec), tag)

    b1, b2 = spec.bounds()
    return SearchRecord(
        kind=kind, m=m, param=param_f, lam=lam_f,
        samples=samples + realizable, filtered_count=count_filtered,
        max_a_m1=best["f1"], max_a_2m1=best["f2"],
        max_a_m1_unfiltered=best["u1"], max_a_2m1_unfiltered=best["u2"],
        bound_a_m1=b1, bound_a_2m1=b2,
        ceiling=bounds_mod.structural_ceiling(m, param, lam, kind),
        argmax_seed=best["fseed"], argmax_seed_unfiltered=best["useed"],
        threshold=threshold)


def sweep(kinds, m_values, params_by_kind, lam_values, samples, seed,
          atom_count=3, realizable=0,
          threshold=DEFAULT_REALIZABILITY_THRESHOLD):
    """Run sweep_cell over the cartesian grid; deterministic in ``seed``.

    ``params_by_kind`` maps "alpha"/"beta" to their parameter lists.
    Returns records ordered by (kind, m, param, lambda).
    """
    records = []
    for kind in kinds:
        for m in m_values:
            for param in params_by_kind[kind]:
                for lam in lam_values:
                    records.append(sweep_cell(
                        kind, m, param, lam, samples, seed,
                        atom_count=atom_count, realizable=realizable,
                        threshold=threshold))
    return records


# ----------------------------------------------------------------------
# hill climbing


@dataclass
class ClimbRecord:
    kind: str
    m: int
    param: float
    lam: float
    iterations: int
    accepted: int
    start_value: float
    best_value: float
    ceiling: float
    best_atoms: tuple = field(repr=False, default=())

    @property
    def ceiling_ratio(self) -> float:
        return self.best_value / self.ceiling


def _climb_state_to_function(weights, angles, m):
    total = sum(weights)
    atoms = [(w / total, cmath.exp(1j * a))
             for w, a in zip(weights, angles)]
    return CaratheodoryFunction(atoms, fold=m, backend="float")


def _climb_objective(weights, angles, m, spec):
    p = _climb_state_to_function(weights, angles, m)
    q = p.reflect()
    solution = _solve(p, q, spec)
    return abs(complex(solution.a_m1))


def hill_climb(kind, m, param, lam, seed, iterations,
               start="spread", atom_count=3) -> ClimbRecord:
    """Coordinate-wise stochastic ascent of |a_{m+1}| over p's atoms.

    ``start`` is "spread" (two opposite atoms, first moment zero),
    "sample" (a seeded random start) or an explicit CaratheodoryFunction.
    Deterministic for a fixed seed; iterations=0 returns the evaluated
    start unchanged.
    """
    spec = ClassSpec.from_kind(kind, m, param, lam)
    rng = random.Random(_subseed(seed, "hillclimb", kind, m, param, lam))
    if isinstance(start, CaratheodoryFunction):
        weights = [w for w, _ in start.atoms]
        angles = [cmath.phase(complex(z)) for _, z in start.atoms]
    elif start == "spread":
        weights = [1.0] * max(2, atom_count)
        angles = [math.pi * i / len(weights) * 2 for i in range(len(weights))]
        # evenly spread points: the first moment starts at (numerically) zero
    elif start == "sample":
        base = constrained_pair(_subseed(seed, "start"), m, atom_count,
                                backend="float")[0]
        weights = [w for w, _ in base.atoms]
        angles = [cmath.phase(complex(z)) for _, z in base.atoms]
    else:
        raise ValueError(f"unknown start {start!r}")

    value = _climb_objective(weights, angles, m, spec)
    start_value = value
    accepted = 0
    n = len(weights)
    steps = (0.6, 0.25, 0.1, 0.04)
    for it in range(iterations):
        coord = it % (2 * n)
        step = steps[(it // (2 * n)) % len(steps)]
        delta = rng.gauss(0.0, step)
        if coord < n:
            trial_w = list(weights)
            trial_w[coord] = max(1e-9, trial_w[coord] * math.exp(delta))
            trial_a = angles
        else:
            trial_a = list(angles)
            trial_a[coord - n] = trial_a[coord - n] + delta
            trial_w = weights
        trial_value = _climb_objective(trial_w, trial_a, m, spec)
        if trial_value > value:
            weights, angles, value = trial_w, trial_a, trial_value
            accepted += 1
    final = _climb_state_to_function(weights, angles, m)
    return ClimbRecord(
        kind=kind, m=m, param=float(param), lam=float(lam),
        iterations=iterations, accepted=accepted,
        start_value=start_value, best_value=value,
        ceiling=bounds_mod.structural_ceiling(m, param, lam, kind),
        best_atoms=final.atoms)
