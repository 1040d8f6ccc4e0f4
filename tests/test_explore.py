"""Sweep records and realizability filtering."""

import functools
import subprocess
import sys

import numpy as np
import pytest

from bifold import explore
from bifold.bounds import structural_ceiling
from bifold.caratheodory import CaratheodoryFunction, _subseed
from bifold.derivation import (_pair_moments, class_constants,
                               realizable_pair, solve_moments)
from bifold.explore import SearchRecord, replay_draw, sweep, sweep_cell
from bifold.membership import ClassSpec


def test_sweep_cell_reproducible():
    a = sweep_cell("alpha", 1, 1.0, 0.5, 400, seed=9, realizable=5)
    b = sweep_cell("alpha", 1, 1.0, 0.5, 400, seed=9, realizable=5)
    assert a == b


def test_sweep_cell_respects_ceiling_and_ratio():
    rec = sweep_cell("alpha", 2, 1.0, 1.0, 1500, seed=2, realizable=10)
    assert rec.ceiling_ok
    assert rec.max_a_m1_unfiltered <= rec.ceiling + 1e-10
    assert rec.ratio_a_m1 <= 1 + 1e-10
    assert rec.ratio_a_2m1 <= 1 + 1e-10
    assert rec.filtered_count >= 10


def test_sweep_cell_without_realizable_seeds_reports_empty(monkeypatch):
    # body draws whose forced q_2m lies in the body fill the filter alone,
    # even under a threshold a million times tighter
    monkeypatch.setattr(explore, "REALIZABILITY_THRESHOLD", 1e-14)
    rec = sweep_cell("beta", 1, 0.0, 1.0, 300, seed=5, realizable=0)
    assert rec.filtered_count > 0 and rec.argmax_seed != ""
    assert 0 < rec.ratio_a_m1 <= 1 + 1e-10
    assert rec.ok
    # with nothing drawn the record is empty, and an empty cell does not pass
    rec = sweep_cell("beta", 1, 0.0, 1.0, 0, seed=5, realizable=0)
    assert rec.samples == 0 and rec.filtered_count == 0
    assert rec.max_a_m1 == rec.max_a_m1_unfiltered == 0.0
    assert rec.argmax_seed == rec.argmax_seed_unfiltered == ""
    assert rec.ceiling_ok and not rec.ok


def solved_alone(moments, constants):
    """(|a_{m+1}|, |a_{2m+1}|, realizability score) of one sample's
    moments, solved on one-element complex128 arrays."""
    solution = solve_moments(*(np.array([x], dtype=complex)
                               for x in moments), constants)
    # abs of the arrays, as the sweep takes it: numpy's array abs and its
    # scalar abs can differ in the last bit
    return (float(abs(solution.a_m1)[0]), float(abs(solution.a_2m1)[0]),
            float(abs(solution.residuals["addition"])[0]))


def replayed(tag, spec, samples):
    """(|a_{m+1}|, realizability score) of the sample tagged ``tag``,
    replayed as the sweep solved it, on one-element complex128 arrays:
    a body draw rebuilt from its block, or a realizable pair."""
    if "realizable" in tag:
        p, q = realizable_pair(tag, spec, backend="float")
        moments = _pair_moments(p, q, spec)
    else:
        moments = replay_draw(tag, spec, samples)
    a_m1, _, score = solved_alone(moments, class_constants(spec, "float"))
    return a_m1, score


def test_argmax_seed_reproduces_maximum():
    rec = sweep_cell("beta", 2, 0.25, 0.5, 500, seed=7, realizable=8)
    spec = ClassSpec("re", m=2, lam=0.5, beta=0.25)
    a_m1, _ = replayed(rec.argmax_seed_unfiltered, spec, 500)
    assert a_m1 == rec.max_a_m1_unfiltered


def test_sweep_grid_shape_and_order():
    records = sweep(("alpha", "beta"), (1, 2),
                    {"alpha": [1.0], "beta": [0.0]}, (0.5, 1.0),
                    50, seed=1)
    assert len(records) == 8
    keys = [(r.kind, r.m, r.lam) for r in records]
    assert keys == sorted(keys, key=lambda k: (k[0], k[1], k[2]))


def test_unfiltered_second_ratio_still_bounded():
    # |a_{2m+1}| <= B2 needs no realizability filter
    rec = sweep_cell("alpha", 1, 1.0, 1.0, 2000, seed=13)
    assert rec.max_a_2m1_unfiltered <= rec.bound_a_2m1 + 1e-10


def test_filtered_argmax_seed_reproduces_maximum():
    rec = sweep_cell("alpha", 2, 0.5, 0.25, 300, seed=3, realizable=6)
    spec = ClassSpec("arg", m=2, lam=0.25, alpha=0.5)
    a_m1, score = replayed(rec.argmax_seed, spec, 300)
    assert a_m1 == rec.max_a_m1
    assert score <= explore.REALIZABILITY_THRESHOLD


@pytest.mark.parametrize("kind,param,seed,spec", [
    ("alpha", 0.5, 0, ClassSpec("arg", m=2, lam=0.25, alpha=0.5)),
    ("beta", 0.25, 1, ClassSpec("re", m=2, lam=0.25, beta=0.25)),
])
def test_realizable_argmax_seed_reproduces_maximum(kind, param, seed, spec):
    # with no body draw a realizable pair holds both argmaxes; in these
    # cells a solve and abs on Python complex scalars gives other last bits
    rec = sweep_cell(kind, 2, param, 0.25, 0, seed=seed, realizable=4)
    assert rec.filtered_count == 4
    assert "/realizable/" in rec.argmax_seed
    a_m1, score = replayed(rec.argmax_seed, spec, 0)
    assert a_m1 == rec.max_a_m1
    assert score <= explore.REALIZABILITY_THRESHOLD
    a_m1, _ = replayed(rec.argmax_seed_unfiltered, spec, 0)
    assert a_m1 == rec.max_a_m1_unfiltered



# ----------------------------------------------------------------------
# the block sweep against a one-draw-at-a-time loop


@functools.lru_cache(maxsize=16)
def solved_block(prefix, block, count, spec):
    """``solved_alone`` of each draw of one block, drawn once with
    ``explore._draw_block``.  The values depend on neither the atom count,
    the realizable count nor the threshold, so the cases that share a
    cell and seed share them."""
    constants = class_constants(spec, "float")
    moments = explore._draw_block(prefix, block, count, constants)
    return [solved_alone([x[offset] for x in moments], constants)
            for offset in range(count)]


def reference_sweep_cell(kind, m, param, lam, samples, seed, atom_count=3,
                         realizable=0):
    """sweep_cell as a plain loop, folded one sample at a time: each
    block drawn once and its draws solved alone, then each realizable pair
    solved alone, all on one-element complex128 arrays.  The filter reads
    ``explore.REALIZABILITY_THRESHOLD`` when called, as the sweep does."""
    threshold = explore.REALIZABILITY_THRESHOLD
    spec = ClassSpec.from_kind(kind, m, param, lam)
    lam_f, param_f = float(lam), float(param)
    best = {"f1": 0.0, "f2": 0.0, "u1": 0.0, "u2": 0.0,
            "fseed": "", "useed": ""}
    count_filtered = 0

    def record(a1, a2, score, tag):
        nonlocal count_filtered
        if a1 > best["u1"]:
            best["u1"] = a1
            best["useed"] = tag
        best["u2"] = max(best["u2"], a2)
        if score <= threshold:
            count_filtered += 1
            if a1 > best["f1"]:
                best["f1"] = a1
                best["fseed"] = tag
            best["f2"] = max(best["f2"], a2)

    constants = class_constants(spec, "float")
    prefix = _subseed(seed, kind, m, param_f, lam_f)
    for block, start in enumerate(range(0, samples, explore._BLOCK)):
        count = min(explore._BLOCK, samples - start)
        for offset, values in enumerate(
                solved_block(prefix, block, count, spec)):
            record(*values, f"{prefix}/{start + offset}")
    for i in range(realizable):
        tag = _subseed(seed, kind, m, param_f, lam_f, "realizable", i)
        p, q = explore.realizable_pair(tag, spec, backend="float",
                                       atom_count=atom_count)
        record(*solved_alone(_pair_moments(p, q, spec), constants), tag)

    b1, b2 = spec.bounds()
    return SearchRecord(
        kind=kind, m=m, param=param_f, lam=lam_f,
        samples=samples + realizable, filtered_count=count_filtered,
        max_a_m1=best["f1"], max_a_2m1=best["f2"],
        max_a_m1_unfiltered=best["u1"], max_a_2m1_unfiltered=best["u2"],
        bound_a_m1=b1, bound_a_2m1=b2,
        ceiling=structural_ceiling(spec),
        argmax_seed=best["fseed"], argmax_seed_unfiltered=best["useed"])


def batched_cases():
    """All four sample counts for every atom count, with the realizable
    counts, thresholds and seed types cycling through the cells."""
    samples = (0, 1, 37, explore._BLOCK + 1)
    realizable = (0, 3)
    thresholds = (1e-14, 1e-8, 1e-3)
    seeds = (4, "batched")
    for atom_count in range(1, 6):
        for j in range(4):
            k = atom_count + j
            yield (atom_count, samples[j], realizable[k % 2],
                   thresholds[k % 3], seeds[(k // 2) % 2])


@pytest.mark.parametrize("kind,param", [("alpha", 0.5), ("beta", 0.25)])
@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_batched_sweep_equals_one_pair_at_a_time(kind, param, m,
                                                 monkeypatch):
    for atom_count, samples, realizable, threshold, seed in batched_cases():
        # the threshold is a module constant; each case sets it for both
        monkeypatch.setattr(explore, "REALIZABILITY_THRESHOLD", threshold)
        args = (kind, m, param, 0.5, samples, seed)
        kwargs = dict(atom_count=atom_count, realizable=realizable)
        # dataclass equality: every float bit and every tag
        assert sweep_cell(*args, **kwargs) == \
            reference_sweep_cell(*args, **kwargs), (args, kwargs, threshold)


def _broken_pairs(fault):
    """A realizable_pair whose p breaks where its first point has real
    part > 0.95: the point squared (p_m no longer cancels q_m) or moved
    off the circle."""
    original = explore.realizable_pair

    def pair(seed, spec, backend, atom_count):
        p, q = original(seed, spec, backend=backend, atom_count=atom_count)
        (h, xi), *rest = p.atoms
        if xi.real > 0.95:
            xi = xi * xi if fault == "gap" else 1.5 * xi
            p = CaratheodoryFunction([(h, xi), *rest], fold=p.fold,
                                     backend=p.backend)
        return p, q
    return pair


@pytest.mark.parametrize("fault", ["gap", "circle"])
def test_batched_sweep_raises_the_first_pair_error(monkeypatch, fault):
    monkeypatch.setattr(explore, "realizable_pair", _broken_pairs(fault))
    cell = ("beta", 2, 0.25, 0.5)
    assert reference_sweep_cell(*cell, 5, seed=5, realizable=2).samples == 7
    with pytest.raises(ValueError) as expected:
        reference_sweep_cell(*cell, 5, seed=5, realizable=40)
    with pytest.raises(ValueError) as batched:
        sweep_cell(*cell, 5, seed=5, realizable=40)
    # a gap message carries the size of the first broken pair's gap
    assert str(batched.value) == str(expected.value)

def test_replay_draw_refuses_a_tag_that_is_no_body_draw():
    spec = ClassSpec("re", m=2, lam=0.5, beta=0.25)
    rec = sweep_cell("beta", 2, 0.25, 0.5, 10, seed=7, realizable=1)
    prefix = rec.argmax_seed_unfiltered.rpartition("/")[0]
    for tag in (f"{prefix}/realizable/0", f"{prefix}/x", f"{prefix}/10"):
        with pytest.raises(ValueError):
            replay_draw(tag, spec, 10)


NEGATIVE_COUNTS = {  # name: (least allowed value, a call below it)
    "samples": (0, lambda: sweep_cell("alpha", 1, 1.0, 1.0, -1, seed=0)),
    "realizable": (0, lambda: sweep_cell("alpha", 1, 1.0, 1.0, 10, seed=0,
                                         realizable=-2)),
    # refused before any draw, even when the cell would draw nothing
    "atom count": (1, lambda: sweep_cell("alpha", 1, 1.0, 1.0, 0, seed=0,
                                         atom_count=0)),
}


@pytest.mark.parametrize("count", sorted(NEGATIVE_COUNTS))
def test_negative_counts_are_refused(count):
    least, call = NEGATIVE_COUNTS[count]
    with pytest.raises(ValueError, match=f"^{count} must be >= {least}"):
        call()


BAD_INPUTS = {  # id: (call, the start of the refusal)
    "samples-float": (dict(samples=2.5), "samples must be an integer"),
    "samples-bool": (dict(samples=True), "samples must be an integer"),
    "realizable-float": (dict(realizable=1.0), "realizable must be an integer"),
    "realizable-bool": (dict(realizable=False),
                        "realizable must be an integer"),
    "atom-count-float": (dict(atom_count=3.0), "atom count must be an integer"),
    "atom-count-bool": (dict(atom_count=True), "atom count must be an integer"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_sweep_cell_refuses_bad_inputs(case):
    kwargs, message = BAD_INPUTS[case]
    args = dict(samples=20, seed=0, realizable=1)
    args.update(kwargs)
    with pytest.raises(ValueError, match=f"^{message}"):
        sweep_cell("alpha", 1, 1.0, 1.0, **args)


@pytest.mark.parametrize("samples", [2.5, "10", True, -1, None, 10.0],
                         ids=["float", "text", "bool", "negative", "none",
                              "whole-float"])
def test_replay_draw_refuses_bad_samples(samples):
    spec = ClassSpec("re", m=2, lam=0.5, beta=0.25)
    rec = sweep_cell("beta", 2, 0.25, 0.5, 10, seed=7)
    with pytest.raises(ValueError, match="^samples must be an integer >= 0"):
        replay_draw(rec.argmax_seed_unfiltered, spec, samples)


def test_sweep_does_not_load_numpy_random():
    # numpy.random costs import time and resident memory and the draw
    # needs none of it
    code = ("import sys, bifold; "
            "bifold.sweep_cell('alpha', 1, 1.0, 0.5, 300, seed=0, "
            "realizable=2); "
            "print('numpy.random' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout == "False\n"
