"""The benchmark's workloads: seeded inputs, one op each, and output checks.

Every workload is a closed loop of independent ops.  ``make_input(i)``
derives op ``i``'s input from the workload seed alone, ``op`` hands that
input to bifold's public API and returns what bifold returned, and
``check`` lists every way the output is wrong (an empty list means
correct).  bifold sees only the generated inputs.

Ops call bifold through the package namespace (``api.sweep_cell``), so a
tracer that rebinds the package's names sees the top-level calls too.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction as F

import bifold as api

__all__ = ["Sweep", "Membership", "ExactReplay", "WORKLOADS"]

RATIO_SLACK = 1e-10  # the bound-ratio slack `bifold search` applies


class Sweep:
    """One float ``sweep_cell`` per op, cycling over the ``search`` grid.

    The sample count is drawn per op around 1000.  With one fixed count every
    op costs the same, and the median latency of a run jumps between the
    host's fast and slow spells instead of following their mix.
    """

    name = "sweep"
    SAMPLES = (500, 1500)
    REALIZABLE = 5
    CELLS = tuple(
        (kind, m, float(param), float(lam))
        for kind, params in (("alpha", (F(1, 2), F(1))),
                             ("beta", (F(0), F(1, 2))))
        for m in (1, 2, 3)
        for param in params
        for lam in (F(1, 4), F(1, 2), F(1)))

    def __init__(self, seed):
        self.seed = seed

    def make_input(self, i):
        tag = f"bench/sweep/{self.seed}/{i}"
        samples = random.Random(tag).randint(*self.SAMPLES)
        return self.CELLS[i % len(self.CELLS)] + (samples, tag)

    def op(self, inp):
        kind, m, param, lam, samples, tag = inp
        return api.sweep_cell(kind, m, param, lam, samples=samples,
                              seed=tag, realizable=self.REALIZABLE)

    def expected_samples(self, inp):
        return inp[4] + self.REALIZABLE

    def check(self, inp, record):
        problems = []
        if record.ratio_a_m1 > 1 + RATIO_SLACK:
            problems.append(f"|a_m+1| ratio {record.ratio_a_m1} above 1")
        if record.ratio_a_2m1 > 1 + RATIO_SLACK:
            problems.append(f"|a_2m+1| ratio {record.ratio_a_2m1} above 1")
        if not record.ceiling_ok:
            problems.append("unfiltered |a_m+1| above the structural ceiling")
        if record.filtered_count <= 0:
            problems.append("no realizable sample in the cell")
        if record.samples != self.expected_samples(inp):
            problems.append(f"samples={record.samples}, expected "
                            f"{self.expected_samples(inp)}")
        return problems


@dataclass(frozen=True)
class MembershipInput:
    source: str  # a catalog name, "poly" or "identity"
    m: int
    order: int
    coeffs: tuple  # a_{m+1}, a_{2m+1}, a_{3m+1} for polynomials
    spec: api.ClassSpec


class Membership:
    """Build one f, then ``check_membership`` at 720 angles, g_order 32."""

    name = "membership"
    SOURCES = ("geometric", "log", "atanh", "mfold-geometric", "mfold-log",
               "mfold-atanh", "poly", "identity")
    LAMBDAS = (F(1, 3), F(1, 2), F(1))
    ALPHAS = tuple(F(k, 20) for k in range(1, 21))
    BETAS = tuple(F(k, 20) for k in range(20))
    ANGLES = 720
    G_ORDER = 32
    VERDICTS = ("pass", "fail", "inconclusive")
    # z/(1-z) against the re-type class at lambda = 1, by beta
    GEOMETRIC_VERDICTS = {F(2, 5): "pass", F(3, 5): "fail"}

    def __init__(self, seed):
        self.seed = seed

    def make_input(self, i):
        rng = random.Random(f"bench/membership/{self.seed}/{i}")
        source = self.SOURCES[i % len(self.SOURCES)]
        order = rng.randint(200, 240)
        if source in ("geometric", "log", "atanh"):
            m = 1
        elif source.startswith("mfold-"):
            m = rng.choice((2, 3))
        else:
            m = rng.choice((1, 2, 3))
        coeffs = ()
        if source == "poly":
            coeffs = tuple(F(rng.randint(-3, 3), rng.randint(4, 8) * (k * m + 1))
                           for k in (1, 2, 3))
        elif source == "identity":
            coeffs = (F(0),) * 3
        if source == "geometric" and (i // len(self.SOURCES)) % 2 == 0:
            # every other geometric op lands where the verdict is known
            spec = api.ClassSpec("re", m=1, lam=F(1),
                                 beta=rng.choice(tuple(self.GEOMETRIC_VERDICTS)))
        elif rng.random() < 0.5:
            spec = api.ClassSpec("arg", m=m, lam=rng.choice(self.LAMBDAS),
                                 alpha=rng.choice(self.ALPHAS))
        else:
            spec = api.ClassSpec("re", m=m, lam=rng.choice(self.LAMBDAS),
                                 beta=rng.choice(self.BETAS))
        return MembershipInput(source, m, order, coeffs, spec)

    def op(self, inp):
        if inp.source in ("poly", "identity"):
            f = api.MFoldFunction(inp.m, inp.coeffs).to_series(inp.order)
        else:
            f = api.catalog(inp.source, inp.m, inp.order)
        report = api.check_membership(f, inp.spec, angles=self.ANGLES,
                                      g_order=self.G_ORDER)
        return f, report

    def expected_verdict(self, inp):
        """The verdict known in advance for this input, or None."""
        if inp.source == "identity":
            return "pass"
        spec = inp.spec
        if (inp.source == "geometric" and spec.kind == "re"
                and spec.lam == 1):
            return self.GEOMETRIC_VERDICTS.get(spec.beta)
        return None

    def check(self, inp, output):
        f, report = output
        problems = []
        if report.verdict not in self.VERDICTS:
            problems.append(f"verdict {report.verdict!r}")
        expected = self.expected_verdict(inp)
        if expected is not None and report.verdict != expected:
            problems.append(f"verdict {report.verdict}, expected {expected}")
        for side in (report.f_report, report.g_report):
            if side.verdict not in self.VERDICTS:
                problems.append(f"{side.side} verdict {side.verdict!r}")
            elif side.verdict == "fail":
                problems += self._check_witness(f, inp.spec, side)
        return problems

    def _check_witness(self, f, spec, side):
        """phi at the witness must give witness_value and a negative margin."""
        if side.side == "g":
            f = f.truncate(min(f.order, self.G_ORDER)).revert()
        value = api.phi(f.to_float(), spec.lam).eval(side.witness)
        if abs(value - side.witness_value) > 1e-9 * max(1.0, abs(value)):
            return [f"{side.side} witness value {side.witness_value} does not "
                    f"match phi = {value} at {side.witness}"]
        margin = (api.arg_margin(value, spec) if spec.kind == "arg"
                  else api.re_margin(value, spec))
        if not margin < 0:
            return [f"{side.side} fails with a nonnegative margin {margin}"]
        return []


@dataclass(frozen=True)
class ReplayInput:
    kind: str  # "alpha" or "beta"
    m: int
    lam: F
    tag: str
    pairs: int  # constrained pairs to solve
    functions: tuple  # (m, (a_{m+1}, a_{2m+1}, a_{3m+1})) for the inversions


@dataclass
class ReplayOutput:
    constrained: list  # (solution, consistency or None) per pair
    realizable: tuple  # (solution, forward report, consistency)
    inversions: list  # (closed form, by reversion, f o g) per function


class ExactReplay:
    """One exact cell: constrained pairs, one realizable pair, and two
    inversion checks, all over Fraction / QComplex.

    The number of constrained pairs is drawn per op, four on average.  With
    a fixed count the op cost falls into one cluster per m, and the median
    latency of a run jumps between clusters as the host's speed drifts.
    """

    name = "exact-replay"
    ALPHA = F(1, 2)
    BETA = F(1, 4)
    PAIRS = (1, 7)
    CELLS = tuple((kind, m, lam) for kind in ("alpha", "beta")
                  for m in (1, 2, 3) for lam in (F(1, 4), F(1, 2), F(1)))
    CONSTRUCTED = ("first_f", "first_g", "subtraction", "squared",
                   "odd_square_cancel")

    def __init__(self, seed):
        self.seed = seed

    def make_input(self, i):
        kind, m, lam = self.CELLS[i % len(self.CELLS)]
        tag = f"bench/exact-replay/{self.seed}/{i}"
        rng = random.Random(tag)
        functions = tuple(
            (fold, tuple(F(rng.randint(-9, 9), rng.randint(1, 9))
                         for _ in range(3)))
            for fold in (m, m + 3))
        return ReplayInput(kind, m, lam, tag, rng.randint(*self.PAIRS),
                           functions)

    def op(self, inp):
        m, lam = inp.m, inp.lam
        if inp.kind == "alpha":
            spec = api.ClassSpec("arg", m=m, lam=lam, alpha=self.ALPHA)

            def solve(p, q):
                return api.solve_alpha(p, q, m, self.ALPHA, lam)
        else:
            spec = api.ClassSpec("re", m=m, lam=lam, beta=self.BETA)

            def solve(p, q):
                return api.solve_beta(p, q, m, self.BETA, lam)
        constrained = []
        for j in range(inp.pairs):
            p, q = api.constrained_pair(f"{inp.tag}/{j}", m, 3,
                                        backend="exact")
            solution = solve(p, q)
            consistency = (api.bound_consistency(solution)
                           if solution.realizability == 0 else None)
            constrained.append((solution, consistency))
        p, q = api.realizable_pair(f"{inp.tag}/realizable", spec,
                                   backend="exact")
        solution = solve(p, q)
        realizable = (solution, api.forward_verify(solution, p, q),
                      api.bound_consistency(solution))
        inversions = []
        for fold, coeffs in inp.functions:
            fn = api.MFoldFunction(fold, coeffs)
            f = fn.to_series()
            inversions.append((fn.inverse_closed_form(),
                               fn.inverse_by_reversion(),
                               f.compose(f.revert())))
        return ReplayOutput(constrained, realizable, inversions)

    @staticmethod
    def expected_composition(order):
        """f(g(z)) for an exact inverse pair: the series z."""
        return api.TruncatedSeries.identity(order)

    def check(self, inp, out):
        problems = []
        for j, (solution, consistency) in enumerate(out.constrained):
            bad = [k for k in self.CONSTRUCTED if solution.residuals[k] != 0]
            if bad:
                problems.append(f"pair {j}: nonzero constructed residuals {bad}")
            if consistency is not None and not consistency.ok:
                problems.append(f"pair {j}: realizable solution above bound")
        solution, forward, consistency = out.realizable
        bad = [k for k, v in solution.residuals.items() if v != 0]
        if bad:
            problems.append(f"realizable pair: nonzero residuals {bad}")
        if forward.max_abs != 0:
            problems.append(f"forward_verify max_abs={forward.max_abs}")
        if not consistency.ok:
            problems.append("realizable pair above bound")
        for (fold, _), (closed, reverted, composition) in zip(
                inp.functions, out.inversions):
            if closed.as_tuple() != reverted.as_tuple():
                problems.append(f"m={fold}: closed form {closed.as_tuple()} "
                                f"!= reversion {reverted.as_tuple()}")
            if composition != self.expected_composition(composition.order):
                problems.append(f"m={fold}: f(g(z)) is not z")
        return problems


WORKLOADS = {w.name: w for w in (Sweep, Membership, ExactReplay)}
