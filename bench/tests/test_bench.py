"""The benchmark's own tests: every workload runs and reports every metric,
and the output checks catch a wrong result.

    python3 -m pytest bench/tests
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import run
from workloads import WORKLOADS, ExactReplay, Membership, Sweep

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def bench(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         "0", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit = line.split()
            printed[name] = (float(value), unit)
    return printed, json.loads(lines[-1])


def test_spec_lists_the_workloads_run_py_accepts():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert SPEC["command"] == ["python3", "bench/run.py"]


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_end_to_end(workload):
    printed, result = parse(bench(workload, 0))
    for name, unit in {**END_TO_END, "fail_ratio": "ratio"}.items():
        assert printed[name][1] == unit, name
    assert printed["fail_ratio"][0] == 0.0
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert result["metrics"] == {
        name: {"value": printed[name][0], "unit": unit}
        for name, unit in END_TO_END.items()}
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_traced(workload):
    printed, result = parse(bench(workload, 1))
    assert result["correct"] is True and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == PER_LAYER
    assert metrics["trace.overhead_ratio"] > 0
    op_ms = metrics["trace.op_ms"]

    def self_ms(*modules):
        return sum(v for k, v in metrics.items()
                   if k.endswith(".self_ms") and k.split(".")[0] in modules)

    def calls(module):
        return [v for k, v in metrics.items()
                if k.startswith(module + ".") and k.endswith(".calls")]

    # the workload design the layer table rests on
    if workload == "sweep":
        assert not any(calls("series"))
        assert self_ms("caratheodory", "derivation", "explore") >= op_ms / 2
    elif workload == "membership":
        assert not any(calls("caratheodory")) and not any(calls("derivation"))
        assert self_ms("series", "mfold", "membership") >= op_ms / 2
    else:
        assert self_ms("series") > 0 and metrics["derivation.solve.self_ms"] > 0


def test_without_bifold_source_there_is_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("sweep", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_inputs_come_from_the_seed(workload):
    cls = WORKLOADS[workload]
    first = [cls(5).make_input(i) for i in range(10)]
    assert first == [cls(5).make_input(i) for i in range(10)]
    assert first != [cls(6).make_input(i) for i in range(10)]


class WrongSampleCount(Sweep):
    def expected_samples(self, inp):
        return super().expected_samples(inp) + 1


class WrongGeometricVerdicts(Membership):
    GEOMETRIC_VERDICTS = {Fraction(2, 5): "fail", Fraction(3, 5): "pass"}


class WrongComposition(ExactReplay):
    @staticmethod
    def expected_composition(order):
        z = ExactReplay.expected_composition(order)
        return z + z * z


@pytest.mark.parametrize("cls", [WrongSampleCount, WrongGeometricVerdicts,
                                 WrongComposition])
def test_a_wrong_expected_value_counts_as_failed(cls):
    # op 0 of every workload has a checked expectation: the sample count,
    # a geometric input with a known verdict, the composition f(g(z))
    result = run.measure(cls(0), seconds=0)
    assert result["attempted"] == 1
    assert len(result["failures"]) == 1
    assert run.end_to_end(result, setup_s=0.0)["fail_ratio"] == (1.0, "ratio")


def test_the_same_ops_pass_with_the_right_expected_values():
    for cls in (Sweep, Membership, ExactReplay):
        result = run.measure(cls(0), seconds=0)
        assert result["attempted"] == 1 and not result["failures"]


def test_membership_truths_are_exercised():
    w = Membership(0)
    inputs = [w.make_input(i) for i in range(4 * len(w.SOURCES))]
    known = [w.expected_verdict(inp) for inp in inputs]
    assert {"pass", "fail"} <= set(known)
