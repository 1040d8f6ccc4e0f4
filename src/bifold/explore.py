"""Ensemble sweeps over sampled pair data.

Each cell of a parameter grid (kind, m, alpha-or-beta, lambda) draws seeded
constrained pairs, solves the coefficient system and tracks the largest
observed |a_{m+1}| and |a_{2m+1}|.  Samples whose realizability score is
below the threshold count toward the filtered maxima, which are the ones
the class bounds actually apply to; the unfiltered maxima are reported next
to them so the filtering choice hides nothing.  Random pairs almost never
land on the realizability manifold, so cells can optionally mix in
constructed realizable pairs to keep the filtered statistics populated.

A cell's constrained samples run in blocks, bit for bit as a loop of
``constrained_pair`` -> ``_solve`` would.  Each sample is still seeded
alone (the same tags, the same ``random.Random`` call order), but a block
is drawn in one pass over its tags, with the recipe's transforms applied
per column (``caratheodory._pair_atoms_block``).  The block's checks,
moments and ``solve_moments`` then run on ``series.ComplexBatch`` arrays,
which round exactly as Python's ``complex`` does.  Every maximum and
every ``argmax_seed`` therefore equals the one-pair-at-a-time result, and
``constrained_pair(argmax_seed, ...)`` (or ``realizable_pair`` for a
realizable tag) replays it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import RATIO_SLACK, structural_ceiling
from .caratheodory import _pair_atoms_block, _subseed
from .derivation import (class_constants, realizable_pair, _solve,
                         _solve_batch)
from .membership import ClassSpec

__all__ = ["SearchRecord", "sweep_cell", "sweep",
           "DEFAULT_REALIZABILITY_THRESHOLD"]

DEFAULT_REALIZABILITY_THRESHOLD = 1e-8
# Constrained samples are drawn, checked and solved this many at a time, so
# memory stays flat however many samples a cell takes.  Seeding each
# sample's stream is the largest cost left, and it is paid per sample
# whatever the block size, so larger blocks save little time, and they
# raised peak memory measurably (heap fragmentation from block-sized arrays).
_BLOCK = 256


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
        return self.max_a_m1_unfiltered <= self.ceiling + RATIO_SLACK

    @property
    def ok(self) -> bool:
        """The cell's verdict: a nonempty filter, both filtered ratios at
        most 1 + RATIO_SLACK and the unfiltered |a_{m+1}| under the
        ceiling."""
        return (self.filtered_count > 0
                and self.ratio_a_m1 <= 1 + RATIO_SLACK
                and self.ratio_a_2m1 <= 1 + RATIO_SLACK
                and self.ceiling_ok)


def sweep_cell(kind, m, param, lam, samples, seed,
               atom_count=3, realizable=0,
               threshold=DEFAULT_REALIZABILITY_THRESHOLD) -> SearchRecord:
    """Draw ``samples`` constrained pairs for one cell and record maxima.

    ``realizable`` additional pairs are constructed to satisfy the full
    system exactly (well, to float solve tolerance) so that the filtered
    statistics are not vacuously empty.
    """
    for name, count in (("samples", samples), ("realizable", realizable)):
        if count < 0:
            raise ValueError(f"{name} must be >= 0, got {count}")
    if atom_count < 1:
        raise ValueError("atom count must be >= 1")
    spec = ClassSpec.from_kind(kind, m, param, lam)
    constants = class_constants(spec, "float")
    lam_f = float(lam)
    param_f = float(param)
    best = {"f1": 0.0, "f2": 0.0, "u1": 0.0, "u2": 0.0,
            "fseed": "", "useed": ""}
    count_filtered = 0

    def record(a1, a2, score, tags):
        """Fold one batch, in sample order, into the running maxima.

        An argmax moves only to a strictly greater value, so the first
        sample attaining a maximum keeps it, as in a one-by-one loop.
        """
        nonlocal count_filtered
        i = int(np.argmax(a1))
        if a1[i] > best["u1"]:
            best["u1"] = float(a1[i])
            best["useed"] = tags[i]
        best["u2"] = max(best["u2"], float(np.max(a2)))
        kept = score <= threshold
        if kept.any():
            count_filtered += int(np.count_nonzero(kept))
            a1_kept = np.where(kept, a1, -1.0)
            i = int(np.argmax(a1_kept))
            if a1_kept[i] > best["f1"]:
                best["f1"] = float(a1_kept[i])
                best["fseed"] = tags[i]
            best["f2"] = max(best["f2"], float(np.max(a2[kept])))

    prefix = _subseed(seed, kind, m, param_f, lam_f)
    for start in range(0, samples, _BLOCK):
        tags = [f"{prefix}/{i}"  # _subseed(seed, kind, m, param_f, lam_f, i)
                for i in range(start, min(start + _BLOCK, samples))]
        solution = _solve_batch(*_pair_atoms_block(tags, m, atom_count),
                                constants)
        record(abs(solution.a_m1), abs(solution.a_2m1),
               abs(solution.residuals["addition"]), tags)
    for i in range(realizable):
        tag = _subseed(seed, kind, m, param_f, lam_f, "realizable", i)
        p, q = realizable_pair(tag, spec, backend="float",
                               atom_count=atom_count)
        solution = _solve(p, q, spec)
        record(np.array([abs(complex(solution.a_m1))]),
               np.array([abs(complex(solution.a_2m1))]),
               np.array([solution.realizability]), [tag])

    b1, b2 = spec.bounds()
    return SearchRecord(
        kind=kind, m=m, param=param_f, lam=lam_f,
        samples=samples + realizable, filtered_count=count_filtered,
        max_a_m1=best["f1"], max_a_2m1=best["f2"],
        max_a_m1_unfiltered=best["u1"], max_a_2m1_unfiltered=best["u2"],
        bound_a_m1=b1, bound_a_2m1=b2,
        ceiling=structural_ceiling(spec),
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

