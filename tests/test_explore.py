"""Sweep records, realizability filtering, and the hill climber."""

from fractions import Fraction

import pytest

from bifold import caratheodory, explore
from bifold.bounds import structural_ceiling
from bifold.caratheodory import (CaratheodoryFunction, _subseed,
                                 constrained_pair)
from bifold.derivation import _solve, realizable_pair
from bifold.explore import SearchRecord, hill_climb, sweep, sweep_cell
from bifold.membership import ClassSpec

F = Fraction


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


def test_sweep_cell_without_realizable_seeds_reports_empty():
    rec = sweep_cell("beta", 1, 0.0, 1.0, 300, seed=5, realizable=0,
                     threshold=1e-14)
    assert rec.filtered_count == 0
    assert rec.max_a_m1 == 0.0 and rec.ratio_a_m1 == 0.0
    assert rec.argmax_seed == ""
    # the unfiltered statistics are still populated
    assert rec.max_a_m1_unfiltered > 0


def test_argmax_seed_reproduces_maximum():
    rec = sweep_cell("beta", 2, 0.25, 0.5, 500, seed=7, realizable=8)
    spec = ClassSpec("re", m=2, lam=0.5, beta=0.25)
    tag = rec.argmax_seed_unfiltered
    if "realizable" in tag:
        p, q = realizable_pair(tag, spec, backend="float")
    else:
        p, q = constrained_pair(tag, 2, 3, backend="float")
    sol = _solve(p, q, spec)
    assert abs(complex(sol.a_m1)) == rec.max_a_m1_unfiltered


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


# ----------------------------------------------------------------------
# hill climbing


def test_extremal_single_atom_start_cannot_improve():
    start = CaratheodoryFunction([(1.0, 1 + 0j)], fold=1, backend="float")
    rec = hill_climb("alpha", 1, 1.0, 1.0, seed=3, iterations=150,
                     start=start)
    assert rec.start_value == pytest.approx(2.0, abs=1e-12)
    assert rec.best_value == pytest.approx(2.0, abs=1e-12)


def test_spread_start_climbs_to_ceiling():
    rec = hill_climb("alpha", 1, 1.0, 1.0, seed=5, iterations=500)
    assert rec.start_value < 0.05
    assert rec.ceiling_ratio >= 0.9  # regression floor; observed ~1.0
    assert rec.best_value <= rec.ceiling + 1e-9


def test_zero_iterations_returns_start():
    rec = hill_climb("beta", 2, 0.5, 0.5, seed=8, iterations=0)
    assert rec.best_value == rec.start_value
    assert rec.accepted == 0


def test_climb_deterministic():
    a = hill_climb("alpha", 2, 0.5, 0.25, seed=11, iterations=120)
    b = hill_climb("alpha", 2, 0.5, 0.25, seed=11, iterations=120)
    assert a == b


def test_climb_never_exceeds_ceiling():
    for kind, param in (("alpha", 1.0), ("beta", 0.0)):
        rec = hill_climb(kind, 1, param, 0.5, seed=17, iterations=300)
        assert rec.best_value <= rec.ceiling + 1e-9


def test_climb_beats_plain_sweep_budget():
    # statistical, not per-seed: 500 climb steps find a better extremum
    # than 500 plain draws because the objective is linear in p_m
    swept = sweep_cell("alpha", 1, 1.0, 1.0, 500, seed=23)
    climbed = hill_climb("alpha", 1, 1.0, 1.0, seed=23, iterations=500)
    assert climbed.best_value >= swept.max_a_m1_unfiltered


# ----------------------------------------------------------------------
# the batched sweep against the one-pair-at-a-time loop


def reference_sweep_cell(kind, m, param, lam, samples, seed, atom_count=3,
                         realizable=0,
                         threshold=explore.DEFAULT_REALIZABILITY_THRESHOLD):
    """sweep_cell as a plain loop: constrained_pair -> _solve -> record."""
    spec = ClassSpec.from_kind(kind, m, param, lam)
    lam_f, param_f = float(lam), float(param)
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
        ceiling=structural_ceiling(m, param, lam, kind),
        argmax_seed=best["fseed"], argmax_seed_unfiltered=best["useed"],
        threshold=threshold)


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
def test_batched_sweep_equals_one_pair_at_a_time(kind, param, m):
    for atom_count, samples, realizable, threshold, seed in batched_cases():
        args = (kind, m, param, 0.5, samples, seed)
        kwargs = dict(atom_count=atom_count, realizable=realizable,
                      threshold=threshold)
        # dataclass equality: every float bit and every tag
        assert sweep_cell(*args, **kwargs) == \
            reference_sweep_cell(*args, **kwargs), (args, kwargs)


def test_filtered_argmax_seed_reproduces_maximum():
    rec = sweep_cell("alpha", 2, 0.5, 0.25, 300, seed=3, realizable=6)
    spec = ClassSpec("arg", m=2, lam=0.25, alpha=0.5)
    assert "realizable" in rec.argmax_seed
    p, q = realizable_pair(rec.argmax_seed, spec, backend="float")
    sol = _solve(p, q, spec)
    assert abs(complex(sol.a_m1)) == rec.max_a_m1
    assert sol.realizability <= rec.threshold


def _broken_tails(fault):
    """A _tail_atoms that breaks some pairs the way ``fault`` names."""
    original = caratheodory._tail_atoms

    def tails(rng, count, s, backend):
        atoms = original(rng, count, s, backend)
        (h, xi), _ = atoms[:2]
        if xi.real > 0.95:
            # a tail that no longer cancels, or a point off the circle
            atoms[1] = (h, xi * xi) if fault == "gap" else (h, 1.5 * xi)
        return atoms
    return tails


@pytest.mark.parametrize("fault", ["gap", "circle"])
def test_batched_sweep_raises_the_first_pair_error(monkeypatch, fault):
    monkeypatch.setattr(caratheodory, "_tail_atoms", _broken_tails(fault))
    cell = ("beta", 2, 0.25, 0.5)
    assert reference_sweep_cell(*cell, 5, seed=5).samples == 5
    with pytest.raises(ValueError) as expected:
        reference_sweep_cell(*cell, 200, seed=5)
    with pytest.raises(ValueError) as batched:
        sweep_cell(*cell, 200, seed=5)
    # a gap message carries the size of the first broken pair's gap
    assert str(batched.value) == str(expected.value)


NEGATIVE_COUNTS = {
    "samples": lambda: sweep_cell("alpha", 1, 1.0, 1.0, -1, seed=0),
    "realizable": lambda: sweep_cell("alpha", 1, 1.0, 1.0, 10, seed=0,
                                     realizable=-2),
    "iterations": lambda: hill_climb("alpha", 1, 1.0, 1.0, seed=0,
                                     iterations=-3),
}


@pytest.mark.parametrize("count", sorted(NEGATIVE_COUNTS))
def test_negative_counts_are_refused(count):
    with pytest.raises(ValueError, match=f"^{count} must be >= 0"):
        NEGATIVE_COUNTS[count]()
