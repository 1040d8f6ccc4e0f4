#!/usr/bin/env python3
"""bifold's benchmark: one workload, closed loop, one client, one process.

    python3 bench/run.py --workload sweep --seed 0 --seconds 20 --trace 0

Run from the root of a bifold checkout; bifold is imported from its
``src/``.  The run

1. times ``setup_s``, fresh interpreters up to a completed ``import bifold``
   (one warm-up spawn, then the median of several);
2. runs one warm-up op on inputs no measured op uses;
3. runs ops for ``--seconds``, each on the next input derived from
   ``--seed``, timing only the call into bifold and checking every output;
4. prints one ``metric`` line per metric, then one JSON result line.

With ``--trace 0`` the result holds the end-to-end metrics.  With
``--trace 1`` every input runs twice, untraced and traced in alternating
order, and the result holds the per-layer metrics: per-op means of every
span and counter from the traced ops, plus the traced/untraced median
latency ratio.  The spans are written to ``.bench_out/trace-<workload>.npz``.

Exit code 2, with no result, when the checkout has no bifold source.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("sweep", "membership", "exact-replay")
SETUP_REPEATS = 7
# numpy.linalg.solve runs inside the float with_moments: keep BLAS on the
# one client thread, in this process and in the setup interpreters.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
LOAD_SHAPE = {"loop": "closed", "clients": 1, "processes": 1, "threads": 1}


def setup_seconds(repeats=SETUP_REPEATS):
    """Median wall time of a fresh interpreter that imports bifold."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **PINNED_ENV)
    cmd = [sys.executable, "-c", "import bifold"]
    times = []
    for attempt in range(repeats + 1):
        t0 = time.perf_counter()
        # no timeout: with one, the wait polls in sleeps of up to 50 ms
        subprocess.run(cmd, env=env, cwd=ROOT, check=True,
                       stdin=subprocess.DEVNULL)
        if attempt:  # the first spawn may still write bytecode caches
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


def call_op(workload, inp):
    """(seconds inside bifold, output, error message or None)."""
    t0 = time.perf_counter()
    try:
        out = workload.op(inp)
    except Exception as exc:
        return time.perf_counter() - t0, None, f"op raised {exc!r}"
    return time.perf_counter() - t0, out, None


def checked(workload, inp, out, error):
    """Problems with one op's output; an op that raised is one problem."""
    if error is not None:
        return [error]
    try:
        return workload.check(inp, out)
    except Exception as exc:
        return [f"check raised {exc!r}"]


def measure(workload, seconds, tracer=None):
    """Run ops until ``seconds`` have passed; at least one op always runs.

    Returns the latencies in seconds of ops that returned (traced ones
    separately), the problems of each failed op, the ops attempted, and the
    inputs run and how many of them repeated an earlier input.  Only the
    call into bifold is timed and traced; input generation and output
    checks are not.
    """
    result = {"latencies": [], "traced": [], "failures": [], "attempted": 0,
              "inputs": 0, "repeats": 0}
    seen = set()
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        inp = workload.make_input(i)
        key = repr(inp)
        result["repeats"] += key in seen
        seen.add(key)
        result["inputs"] += 1
        # traced runs alternate which side goes first
        for traced in ([False] if tracer is None else [i % 2 == 1, i % 2 == 0]):
            if traced:
                with tracer.active(i):
                    elapsed, out, error = call_op(workload, inp)
            else:
                elapsed, out, error = call_op(workload, inp)
            result["attempted"] += 1
            if error is None:
                result["traced" if traced else "latencies"].append(elapsed)
            problems = checked(workload, inp, out, error)
            if problems:
                result["failures"].append((i, problems))
        i += 1
    return result


def percentile90(values):
    """90th percentile, inclusive method; the value itself for one sample."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(result, setup_s):
    lat = result["latencies"]
    attempted = result["attempted"]
    return {
        "setup_s": (setup_s, "s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_p90_ms": (percentile90(lat) * 1e3, "ms"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "fail_ratio": (len(result["failures"]) / attempted, "ratio"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def commit():
    """HEAD of the checkout's git metadata, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine(bifold, numpy):
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "bifold").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "bifold": bifold.__version__,
        "commit": commit(),
        "src_sha256": digest.hexdigest(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bifold" / "__init__.py").is_file():
        print(f"no bifold source under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)  # before numpy loads its BLAS
    sys.path.insert(0, str(SRC))
    import bifold
    import numpy

    if Path(bifold.__file__).resolve().parent != SRC / "bifold":
        print(f"imported bifold from {bifold.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from tracer import Tracer
    from workloads import WORKLOADS

    workload_cls = WORKLOADS[args.workload]
    setup_s = setup_seconds() if not args.trace else None
    warmup = workload_cls(f"warmup/{args.seed}")
    call_op(warmup, warmup.make_input(0))
    tracer = Tracer() if args.trace else None
    result = measure(workload_cls(args.seed), args.seconds, tracer)
    if not result["latencies"]:
        print("no op completed", file=sys.stderr)
        for i, problems in result["failures"][:5]:
            print(f"op {i}: {problems}", file=sys.stderr)
        return 1

    info = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "ops": len(result["latencies"]), "load": LOAD_SHAPE,
            "env": PINNED_ENV,
            "machine": machine(bifold, numpy)}
    metrics = end_to_end(result, setup_s) if not args.trace else {}
    if tracer is not None:
        metrics = tracer.metrics(result["inputs"])  # one traced op per input
        metrics["trace.op_ms"] = (
            sum(result["traced"]) / len(result["traced"]) * 1e3, "ms")
        metrics["trace.overhead_ratio"] = (
            statistics.median(result["traced"])
            / statistics.median(result["latencies"]), "ratio")
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}.npz"
        tracer.save(path)
        info["spans"] = str(path.relative_to(ROOT))
    metrics["input.repeat_ratio"] = (
        result["repeats"] / result["inputs"], "ratio")

    print("run " + json.dumps(info))
    for i, problems in result["failures"][:5]:
        print(f"failed op {i}: {problems}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    if tracer is not None:
        for module, self_ms in layer_self_ms(metrics).items():
            share = self_ms / metrics["trace.op_ms"][0]
            print(f"layer {module} self_ms {self_ms:.3f} share {share:.3f}")
    wanted = set(reported_metrics(args.trace))
    print(json.dumps({
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": len(result["failures"]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                    if name in wanted},
    }))
    return 0


def layer_self_ms(metrics):
    """Self time per op summed by module: ``series``, ``mfold``, ..."""
    out = {}
    for name, (value, _unit) in metrics.items():
        if name.endswith(".self_ms"):
            module = name.split(".")[0]
            out[module] = out.get(module, 0.0) + value
    return out


def reported_metrics(trace):
    """Metric names the result line carries, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


if __name__ == "__main__":
    sys.exit(main())
