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
also mix in constructed realizable atom pairs (``realizable_pair``, shaped
by ``atom_count``).

Draws come in blocks of ``_BLOCK``.  Block b reads its uniforms from one
stream seeded with ``f"{prefix}/{b}"``, six per draw, and is solved with
one ``solve_moments`` call on complex128 arrays.  A sample's
``argmax_seed`` is ``f"{prefix}/{i}"``; ``replay_draw`` rebuilds the
moments of draw i from its whole block, so they carry the block's bits.
The realizable pairs are built and checked one by one, in order, and
their moments are then solved together by one more ``solve_moments``
call on complex128 arrays.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .bounds import RATIO_SLACK, _is_integer, structural_ceiling
from .caratheodory import _subseed
from .derivation import (class_constants, realizable_pair, solve_moments,
                         _pair_moments)
from .membership import ClassSpec

__all__ = ["SearchRecord", "sweep_cell", "sweep", "replay_draw",
           "REALIZABILITY_THRESHOLD"]

REALIZABILITY_THRESHOLD = 1e-8
# Draws are generated and solved this many at a time, so memory stays flat
# however many samples a cell takes (a sweep's arrays peak near 2 MB) while
# numpy's fixed cost per call is paid once per 4096 draws; it also fixes
# which block, and so which seeded stream, a draw index belongs to.
_BLOCK = 4096


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


def _draw_block(prefix, block, count, constants):
    """(p_m, p_2m, q_m, q_2m) of draws ``block * _BLOCK`` onward, as
    complex128 arrays of length ``count``.

    The block's stream gives six 53-bit uniforms per draw: the polar
    parts of p_m / 2, x and y.
    """
    import numpy as np

    raw = random.Random(f"{prefix}/{block}").randbytes(48 * count)
    u = (np.frombuffer(raw, dtype="<u8") >> 11) * 2.0 ** -53
    u = u.reshape(count, 6).T
    p_m = 2 * _unit_disk(u[0], u[1])
    radius = 2 - abs(p_m) ** 2 / 2  # of the disk p_2m and q_2m lie in
    p_2m = p_m * p_m / 2 + radius * _unit_disk(u[2], u[3])
    q_m = -p_m
    centre = q_m * q_m / 2
    forced = constants.forced_q_2m(p_m, p_2m)
    q_2m = np.where(abs(forced - centre) <= radius, forced,
                    centre + radius * _unit_disk(u[4], u[5]))
    return p_m, p_2m, q_m, q_2m


class _BlockTags:
    """The tags ``f"{prefix}/{i}"`` of one block's draws, formed only for
    the draws that ``record`` keeps as an argmax."""

    def __init__(self, prefix, start):
        self.prefix, self.start = prefix, start

    def __getitem__(self, offset):
        return f"{self.prefix}/{self.start + offset}"


def replay_draw(tag, spec: ClassSpec, samples):
    """(p_m, p_2m, q_m, q_2m) of the draw tagged ``tag`` (an
    ``argmax_seed`` of the form ``f"{prefix}/{i}"``) in a sweep cell of
    ``spec`` with ``samples`` draws.

    The draw's whole block is rebuilt, so the moments carry the bits the
    sweep solved: ``solve_moments`` on one-element arrays of them gives
    the sweep's values exactly.  Take ``abs`` of those arrays, as the
    sweep does; numpy's scalar ``abs`` can differ in the last bit.
    """
    if not (_is_integer(samples) and samples >= 0):
        raise ValueError(
            f"samples must be an integer >= 0, got {samples!r}")
    prefix, _, index = tag.rpartition("/")
    if prefix.endswith("/realizable") or not index.isdecimal():
        raise ValueError(f"{tag!r} is not the tag of a body draw")
    i = int(index)
    if i >= samples:
        raise ValueError(f"draw {i} is not among {samples} samples")
    block, offset = divmod(i, _BLOCK)
    count = min(_BLOCK, samples - block * _BLOCK)
    moments = _draw_block(prefix, block, count,
                          class_constants(spec, "float"))
    return tuple(complex(x[offset]) for x in moments)


def _check_counts(samples, realizable, atom_count):
    counts = (("samples", samples), ("realizable", realizable),
              ("atom count", atom_count))
    for name, value in counts:
        if not _is_integer(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    for name, value in counts[:2]:
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
    if atom_count < 1:
        raise ValueError("atom count must be >= 1")


def sweep_cell(kind, m, param, lam, samples, seed,
               atom_count=3, realizable=0) -> SearchRecord:
    """Draw ``samples`` moment sets from the coefficient body for one cell
    and record maxima.

    ``realizable`` additional atom pairs with ``atom_count`` random atoms
    are constructed to satisfy the full system exactly (well, to float
    solve tolerance).  Each pair passes ``_pair_moments``' checks as it
    is built, so the first broken pair raises first; their moments are
    then solved together on complex128 arrays, as the body draws are.
    """
    import numpy as np

    _check_counts(samples, realizable, atom_count)
    spec = ClassSpec.from_kind(kind, m, param, lam)
    constants = class_constants(spec, "float")
    lam_f = float(lam)
    param_f = float(param)
    best = {"f1": 0.0, "f2": 0.0, "u1": 0.0, "u2": 0.0,
            "fseed": "", "useed": ""}
    count_filtered = 0
    prefix = _subseed(seed, kind, m, param_f, lam_f)

    def batches():
        """(moments, tags) of the body draws, one block at a time, then of
        all the realizable pairs, each pair checked as it is built."""
        for block, start in enumerate(range(0, samples, _BLOCK)):
            count = min(_BLOCK, samples - start)
            yield (_draw_block(prefix, block, count, constants),
                   _BlockTags(prefix, start))
        if realizable:
            tags = [_subseed(seed, kind, m, param_f, lam_f, "realizable", i)
                    for i in range(realizable)]
            moments = [_pair_moments(*realizable_pair(
                tag, spec, backend="float", atom_count=atom_count), spec)
                for tag in tags]
            yield np.array(tuple(zip(*moments)), dtype=complex), tags

    # Each batch is folded, in sample order, into the running maxima.  An
    # argmax moves only to a strictly greater value, so the first sample
    # attaining a maximum keeps it, as in a one-by-one loop.
    for moments, tags in batches():
        solution = solve_moments(*moments, constants)
        a1, a2 = abs(solution.a_m1), abs(solution.a_2m1)
        i = int(np.argmax(a1))
        if a1[i] > best["u1"]:
            best["u1"] = float(a1[i])
            best["useed"] = tags[i]
        best["u2"] = max(best["u2"], float(np.max(a2)))
        kept = abs(solution.residuals["addition"]) <= REALIZABILITY_THRESHOLD
        if kept.any():
            count_filtered += int(np.count_nonzero(kept))
            a1_kept = np.where(kept, a1, -1.0)
            i = int(np.argmax(a1_kept))
            if a1_kept[i] > best["f1"]:
                best["f1"] = float(a1_kept[i])
                best["fseed"] = tags[i]
            best["f2"] = max(best["f2"], float(np.max(a2[kept])))

    b1, b2 = spec.bounds()
    return SearchRecord(
        kind=kind, m=m, param=param_f, lam=lam_f,
        samples=samples + realizable, filtered_count=count_filtered,
        max_a_m1=best["f1"], max_a_2m1=best["f2"],
        max_a_m1_unfiltered=best["u1"], max_a_2m1_unfiltered=best["u2"],
        bound_a_m1=b1, bound_a_2m1=b2,
        ceiling=structural_ceiling(spec),
        argmax_seed=best["fseed"], argmax_seed_unfiltered=best["useed"])


def sweep(kinds, m_values, params_by_kind, lam_values, samples, seed,
          atom_count=3, realizable=0):
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
                        atom_count=atom_count, realizable=realizable))
    return records

