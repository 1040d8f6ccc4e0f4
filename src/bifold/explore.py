"""Ensemble sweeps over the Caratheodory coefficient body.

The coefficient system reads a pair (p, q) only through four moments,
p_m, p_2m, q_m and q_2m.  Each cell of a parameter grid (kind, m,
alpha-or-beta, lambda) draws them from the Caratheodory-Toeplitz body

    |p_m| <= 2,    |p_2m - p_m^2/2| <= 2 - |p_m|^2/2

(Libera-Zlotkiewicz): p_m uniform by area on |p_m| <= 2, then
p_2m = p_m^2/2 + (2 - |p_m|^2/2) x with x uniform on the unit disk, and
q_m = -p_m.  q_2m is the value the addition relation forces
(``ClassConstants.forced_q_2m``) wherever that value lies in the body, and
else q_m^2/2 + (2 - |p_m|^2/2) y with y uniform on the unit disk.  So every
sample is a genuine constrained pair of Caratheodory moments.  The sweep
solves them and tracks the largest observed |a_{m+1}| and |a_{2m+1}|.

Samples whose addition residual is at most ``REALIZABILITY_THRESHOLD``
count toward the filtered maxima, which are the ones the class bounds
apply to: the body draws whose forced q_2m was kept.  The unfiltered
maxima run over every draw, so |a_{m+1}| there reaches toward the linear
ceiling and |a_{2m+1}| stays under B2, which needs no filter.  A cell can
also take ``realizable`` draws: body draws whose p_m and p_2m are scaled
by 1/4 before q is formed, so that the forced q_2m is always kept.

A cell draws two sequences, its body draws under ``prefix`` and its
realizable draws under ``f"{prefix}/realizable"``, each in blocks of
``_BLOCK``.  Block b of a sequence reads its uniforms from one stream
seeded with ``f"{sequence}/{b}"``, six per draw, and is solved with one
``solve_moments`` call on complex128 arrays.  Draw i of a sequence is
tagged ``f"{sequence}/{i}"``, the form an ``argmax_seed`` takes;
``replay_draw`` rebuilds its moments from its whole block, so they carry
the block's bits.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .bounds import RATIO_SLACK, _is_integer, structural_ceiling
from .caratheodory import _subseed
from .derivation import class_constants, solve_moments
from .membership import ClassSpec

__all__ = ["SearchRecord", "sweep_cell", "sweep", "replay_draw",
           "REALIZABILITY_THRESHOLD"]

REALIZABILITY_THRESHOLD = 1e-8
# Draws are generated and solved this many at a time, so memory stays flat
# however many samples a cell takes (a sweep's arrays peak near 2 MB) while
# numpy's fixed cost per call is paid once per 4096 draws; it also fixes
# which block, and so which seeded stream, a draw index belongs to.
_BLOCK = 4096
# A realizable draw's p_m and p_2m are scaled by this before q is formed.
# With q_m = -p_m,
#     forced - q_m^2/2 = (C - 1/2) p_m^2 - p_2m,
# where C = D t on the re type and C = 1 + alpha (D - 1) on the arg type,
# with D = 2(2 lam^2 + lam + 1)/(1 + lam)^2 in [7/4, 2]; so C lies in
# (0, 2].  Scaled, |p_m| <= 1/2 and |p_2m| <= 1/2, so the left side is at
# most 3/8 + 1/2 = 7/8, below 15/8 <= 2 - |p_m|^2/2, the radius of the
# disk q_2m lies in: ``_draw_block`` always keeps the forced q_2m.  The
# body is convex and holds 0, so the scaled point stays in it.
_REALIZABLE_SCALE = 0.25


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


def _unit_disk(radius, angle):
    """Points uniform by area on the unit disk from two uniforms each."""
    import numpy as np

    return np.sqrt(radius) * np.exp(2j * np.pi * angle)


def _draw_block(prefix, block, count, constants, scale):
    """(p_m, p_2m, q_m, q_2m) of draws ``block * _BLOCK`` onward, as
    complex128 arrays of length ``count``.

    The block's stream gives six 53-bit uniforms per draw: the polar
    parts of p_m / 2, x and y.  p_m and p_2m are multiplied by ``scale``
    (1 for a body draw, ``_REALIZABLE_SCALE`` for a realizable one)
    before q is formed; multiplying by 1 is exact.
    """
    import numpy as np

    raw = random.Random(f"{prefix}/{block}").randbytes(48 * count)
    u = (np.frombuffer(raw, dtype="<u8") >> 11) * 2.0 ** -53
    u = u.reshape(count, 6).T
    p_m = 2 * _unit_disk(u[0], u[1])
    p_2m = p_m * p_m / 2 + (2 - abs(p_m) ** 2 / 2) * _unit_disk(u[2], u[3])
    p_m, p_2m = scale * p_m, scale * p_2m
    radius = 2 - abs(p_m) ** 2 / 2  # of the disk q_2m lies in
    q_m = -p_m
    centre = q_m * q_m / 2
    forced = constants.forced_q_2m(p_m, p_2m)
    q_2m = np.where(abs(forced - centre) <= radius, forced,
                    centre + radius * _unit_disk(u[4], u[5]))
    return p_m, p_2m, q_m, q_2m


def replay_draw(tag, spec: ClassSpec, samples):
    """(p_m, p_2m, q_m, q_2m) of the draw tagged ``tag`` (an
    ``argmax_seed``) in a sweep cell of ``spec``.

    ``samples`` is the length of the tag's own sequence: the cell's
    ``samples`` for a body tag ``f"{prefix}/{i}"``, and its ``realizable``
    for a realizable tag ``f"{prefix}/realizable/{i}"``.  The draw's whole
    block is rebuilt, so the moments carry the bits the sweep solved:
    ``solve_moments`` on one-element arrays of them gives the sweep's
    values exactly.  Take ``abs`` of those arrays, as the sweep does;
    numpy's scalar ``abs`` can differ in the last bit.
    """
    if not (_is_integer(samples) and samples >= 0):
        raise ValueError(
            f"samples must be an integer >= 0, got {samples!r}")
    prefix, _, index = tag.rpartition("/")
    if not index.isdecimal():
        raise ValueError(f"{tag!r} is not the tag of a draw")
    i = int(index)
    if i >= samples:
        raise ValueError(f"draw {i} is not among {samples} samples")
    scale = _REALIZABLE_SCALE if prefix.endswith("/realizable") else 1
    block, offset = divmod(i, _BLOCK)
    count = min(_BLOCK, samples - block * _BLOCK)
    moments = _draw_block(prefix, block, count,
                          class_constants(spec, "float"), scale)
    return tuple(complex(x[offset]) for x in moments)


def _check_counts(samples, realizable):
    for name, value in (("samples", samples), ("realizable", realizable)):
        if not _is_integer(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")


def sweep_cell(kind, m, param, lam, samples, seed,
               realizable=0) -> SearchRecord:
    """Draw ``samples`` moment sets from the coefficient body for one cell,
    and ``realizable`` more whose forced q_2m is always kept, and record
    maxima."""
    import numpy as np

    _check_counts(samples, realizable)
    spec = ClassSpec.from_kind(kind, m, param, lam)
    constants = class_constants(spec, "float")
    lam_f, param_f = float(lam), float(param)
    prefix = _subseed(seed, kind, m, param_f, lam_f)
    f1 = f2 = u1 = u2 = 0.0  # filtered and unfiltered maxima
    fseed = useed = ""  # their argmax tags
    count_filtered = 0
    # The body draws, then the realizable draws, fold into the maxima a
    # block at a time, in sample order.  An argmax moves only to a strictly
    # greater value, so the first sample attaining a maximum keeps it.
    for sequence, total, scale in (
            (prefix, samples, 1),
            (f"{prefix}/realizable", realizable, _REALIZABLE_SCALE)):
        for block, start in enumerate(range(0, total, _BLOCK)):
            moments = _draw_block(sequence, block, min(_BLOCK, total - start),
                                  constants, scale)
            solution = solve_moments(*moments, constants)
            a1, a2 = abs(solution.a_m1), abs(solution.a_2m1)
            i = int(np.argmax(a1))
            if a1[i] > u1:
                u1, useed = float(a1[i]), f"{sequence}/{start + i}"
            u2 = max(u2, float(np.max(a2)))
            kept = (abs(solution.residuals["addition"])
                    <= REALIZABILITY_THRESHOLD)
            if kept.any():
                count_filtered += int(np.count_nonzero(kept))
                a1_kept = np.where(kept, a1, -1.0)
                i = int(np.argmax(a1_kept))
                if a1_kept[i] > f1:
                    f1, fseed = float(a1_kept[i]), f"{sequence}/{start + i}"
                f2 = max(f2, float(np.max(a2[kept])))

    b1, b2 = spec.bounds()
    return SearchRecord(
        kind=kind, m=m, param=param_f, lam=lam_f,
        samples=samples + realizable, filtered_count=count_filtered,
        max_a_m1=f1, max_a_2m1=f2,
        max_a_m1_unfiltered=u1, max_a_2m1_unfiltered=u2,
        bound_a_m1=b1, bound_a_2m1=b2,
        ceiling=structural_ceiling(spec),
        argmax_seed=fseed, argmax_seed_unfiltered=useed)


def sweep(kinds, m_values, params_by_kind, lam_values, samples, seed,
          realizable=0):
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
                        realizable=realizable))
    return records
