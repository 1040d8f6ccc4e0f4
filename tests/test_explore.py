"""Sweep records and realizability filtering."""

import functools
import itertools
import subprocess
import sys

import numpy as np
import pytest

from bifold import explore
from bifold.bounds import structural_ceiling
from bifold.caratheodory import _subseed
from bifold.derivation import class_constants, solve_moments
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


def replayed(tag, spec, samples, realizable):
    """(|a_{m+1}|, realizability score) of the draw tagged ``tag`` in a
    cell of ``samples`` body and ``realizable`` realizable draws, rebuilt
    by ``replay_draw`` and solved as the sweep solved it, on one-element
    complex128 arrays."""
    count = realizable if "/realizable/" in tag else samples
    a_m1, _, score = solved_alone(replay_draw(tag, spec, count),
                                  class_constants(spec, "float"))
    return a_m1, score


def test_argmax_seed_reproduces_maximum():
    rec = sweep_cell("beta", 2, 0.25, 0.5, 500, seed=7, realizable=8)
    spec = ClassSpec("re", m=2, lam=0.5, beta=0.25)
    a_m1, _ = replayed(rec.argmax_seed_unfiltered, spec, 500, 8)
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
    a_m1, score = replayed(rec.argmax_seed, spec, 300, 6)
    assert a_m1 == rec.max_a_m1
    assert score <= explore.REALIZABILITY_THRESHOLD


@pytest.mark.parametrize("kind,param,seed,spec", [
    ("alpha", 0.5, 0, ClassSpec("arg", m=2, lam=0.25, alpha=0.5)),
    ("beta", 0.25, 1, ClassSpec("re", m=2, lam=0.25, beta=0.25)),
])
def test_realizable_argmax_seed_reproduces_maximum(kind, param, seed, spec):
    # with no body draw a realizable draw holds both argmaxes, under a tag
    # f"{prefix}/realizable/{i}"
    rec = sweep_cell(kind, 2, param, 0.25, 0, seed=seed, realizable=4)
    assert rec.filtered_count == 4
    prefix = _subseed(seed, kind, 2, param, 0.25, "realizable")
    assert rec.argmax_seed.rpartition("/")[0] == prefix
    a_m1, score = replayed(rec.argmax_seed, spec, 0, 4)
    assert a_m1 == rec.max_a_m1
    assert score <= explore.REALIZABILITY_THRESHOLD
    a_m1, _ = replayed(rec.argmax_seed_unfiltered, spec, 0, 4)
    assert a_m1 == rec.max_a_m1_unfiltered


EXTREME_PARAMS = {"alpha": (1e-9, 0.5, 1.0), "beta": (0.0, 0.5, 1 - 1e-9)}


@pytest.mark.parametrize("lam", [1e-6, 0.01, 1 / 3, 0.5, 1.0])
@pytest.mark.parametrize("kind", ["alpha", "beta"])
def test_every_realizable_draw_is_kept(kind, lam):
    # D = 2(2 lam^2 + lam + 1)/(1 + lam)^2 is least at lam = 1/3; the
    # scale keeps the forced q_2m in the body for every class parameter
    for m, param in itertools.product((1, 2, 7), EXTREME_PARAMS[kind]):
        rec = sweep_cell(kind, m, param, lam, 0, seed="kept",
                         realizable=1000)
        assert rec.filtered_count == 1000, (m, param)
        assert rec.ok, (m, param)



# ----------------------------------------------------------------------
# the block sweep against a one-draw-at-a-time loop


@functools.lru_cache(maxsize=16)
def solved_block(prefix, block, count, spec, scale):
    """``solved_alone`` of each draw of one block, drawn once with
    ``explore._draw_block``.  The values depend on neither the other
    sequence's count nor the threshold, so the cases that share a cell
    and seed share them."""
    constants = class_constants(spec, "float")
    moments = explore._draw_block(prefix, block, count, constants, scale)
    return [solved_alone([x[offset] for x in moments], constants)
            for offset in range(count)]


def reference_sweep_cell(kind, m, param, lam, samples, seed, realizable=0):
    """sweep_cell as a plain loop, folded one sample at a time: each block
    of the body draws, then of the realizable draws, drawn once and its
    draws solved alone on one-element complex128 arrays.  The filter reads
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

    for sequence, total, scale in (
            (_subseed(seed, kind, m, param_f, lam_f), samples, 1),
            (_subseed(seed, kind, m, param_f, lam_f, "realizable"),
             realizable, explore._REALIZABLE_SCALE)):
        for block, start in enumerate(range(0, total, explore._BLOCK)):
            count = min(explore._BLOCK, total - start)
            for offset, values in enumerate(
                    solved_block(sequence, block, count, spec, scale)):
                record(*values, f"{sequence}/{start + offset}")

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
    """Every body count with every realizable count, the thresholds and
    seed types cycling through the cells."""
    samples = (0, 1, 37, explore._BLOCK + 1)
    realizable = (0, 3, explore._BLOCK + 1)
    thresholds = (1e-14, 1e-8, 1e-3)
    seeds = (4, "batched")
    for k, (s, r) in enumerate(itertools.product(samples, realizable)):
        yield s, r, thresholds[k % 3], seeds[(k // 2) % 2]


@pytest.mark.parametrize("kind,param", [("alpha", 0.5), ("beta", 0.25)])
@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_batched_sweep_equals_one_pair_at_a_time(kind, param, m,
                                                 monkeypatch):
    for samples, realizable, threshold, seed in batched_cases():
        # the threshold is a module constant; each case sets it for both
        monkeypatch.setattr(explore, "REALIZABILITY_THRESHOLD", threshold)
        args = (kind, m, param, 0.5, samples, seed)
        # dataclass equality: every float bit and every tag
        assert sweep_cell(*args, realizable=realizable) == \
            reference_sweep_cell(*args, realizable=realizable), \
            (args, realizable, threshold)


def test_replay_draw_refuses_a_tag_that_is_no_body_draw():
    # nor a realizable draw: the index is no decimal or past the sequence
    spec = ClassSpec("re", m=2, lam=0.5, beta=0.25)
    prefix = _subseed(7, "beta", 2, 0.25, 0.5)
    for tag in (f"{prefix}/x", f"{prefix}/10", f"{prefix}/realizable/x",
                f"{prefix}/realizable/10"):
        with pytest.raises(ValueError):
            replay_draw(tag, spec, 10)


NEGATIVE_COUNTS = {  # name: (least allowed value, a call below it)
    "samples": (0, lambda: sweep_cell("alpha", 1, 1.0, 1.0, -1, seed=0)),
    "realizable": (0, lambda: sweep_cell("alpha", 1, 1.0, 1.0, 10, seed=0,
                                         realizable=-2)),
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
}


@pytest.mark.parametrize("param,lam", [(True, 0.5), (0.5, True)],
                         ids=["param", "lambda"])
def test_sweep_cell_refuses_bool_class_parameters(param, lam):
    with pytest.raises(ValueError, match="^(alpha|lambda) must lie in"):
        sweep_cell("alpha", 1, param, lam, 10, seed=0)


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
