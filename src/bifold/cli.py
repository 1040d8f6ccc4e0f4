"""Command-line interface: every capability as a reproducible command.

All commands are deterministic functions of their flags (plus an optional
JSON config file; flags win).  Output is CSV (default) or JSON, to stdout
or ``--out``.  Floats are printed with 15 significant digits and exact
rationals as num/den strings, so repeated runs are byte-identical; the
only run-dependent line is the CSV timestamp header, suppressed by
``--no-timestamp``.

Exit codes: 0 success, 1 suite or verification failure, 2 usage error
(bad input), 3 internal error (any other exception: a defect in bifold,
reported with its traceback on stderr).
"""

from __future__ import annotations

import argparse
import cmath
import csv
import io
import json
import math
import random
import sys
import traceback
from datetime import datetime, timezone
from fractions import Fraction

from . import bounds as bounds_mod
from . import explore
from .caratheodory import (CaratheodoryFunction, check_lemma1,
                           constrained_pair, sample, sample_exact)
from .derivation import _solve, bound_consistency, realizable_pair
from .membership import ClassSpec, check_membership
from .mfold import CATALOG_NAMES, MFoldFunction, catalog
from .selftest import check_inversion, run_selftest
from .series import QComplex

__all__ = ["main"]


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        return f"{value:.15g}"
    if isinstance(value, QComplex):
        if value.im == 0:  # by value: as the equal Fraction prints
            return str(value.re)
        return f"{value.re}{'+' if value.im >= 0 else ''}{value.im}i"
    if isinstance(value, complex):
        return f"{value.real:.15g}{'+' if value.imag >= 0 else ''}{value.imag:.15g}i"
    return str(value)


def _jsonable(value):
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, float, str)):
        return value
    return _fmt(value)


def _emit(rows, columns, args):
    """Write rows (list of dicts) as CSV or JSON per the common flags."""
    fmt = getattr(args, "format", "csv") or "csv"
    out_path = getattr(args, "out", None)
    stream = io.StringIO()
    if fmt == "json":
        payload = [{k: _jsonable(r.get(k)) for k in columns} for r in rows]
        json.dump(payload, stream, indent=2)
        stream.write("\n")
    else:
        if not getattr(args, "no_timestamp", False):
            stamp = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
            stream.write(f"# generated {stamp}\n")
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(columns)
        for r in rows:
            writer.writerow([_fmt(r.get(k, "")) for k in columns])
    text = stream.getvalue()
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_fraction(text) -> Fraction:
    return Fraction(str(text))


def _parse_seed(value):
    text = str(value)
    return int(text) if text.lstrip("-").isdigit() else text


def _parse_int(value, flag) -> int:
    """An integer from the command line or a config file, else a refusal
    that names the flag."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    raise ValueError(f"{flag} must be an integer, got {value!r}")


def _parse_count(value, flag) -> int:
    count = _parse_int(value, flag)
    if count < 0:
        raise ValueError(f"{flag} must be >= 0, got {count}")
    return count


def _parse_list(text, conv):
    if isinstance(text, (list, tuple)):
        return [conv(x) for x in text]
    return [conv(part) for part in str(text).split(",") if part != ""]


def _parse_atoms(text):
    """Atoms as "weight@degrees" pairs separated by commas."""
    atoms = []
    for part in str(text).split(","):
        w, at, deg = part.partition("@")
        try:
            weight, angle = float(w), float(deg) * cmath.pi / 180.0
        except ValueError:
            weight = angle = math.nan
        if not (at and math.isfinite(weight) and math.isfinite(angle)):
            raise ValueError(f"atom {part!r} in {text!r} is not of the form "
                             "weight@degrees with finite numbers")
        atoms.append((weight, cmath.exp(1j * angle)))
    total = sum(w for w, _ in atoms)
    if not total > 0:
        raise ValueError(f"atom weights in {text!r} must have a positive sum")
    return [(w / total, z) for w, z in atoms]


def _add_common(parser):
    parser.add_argument("--out", help="output file (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default=None,
                        help="output format (default csv)")
    parser.add_argument("--no-timestamp", action="store_true", default=None,
                        help="suppress the CSV timestamp header line")
    parser.add_argument("--config", help="JSON file with default flag values")


def _apply_config(args, parser_defaults):
    """Fill argparse Namespace holes from --config, then from defaults."""
    config = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            config = json.load(fh)
    for key, value in vars(args).items():
        if value is None:
            flag = key.replace("_", "-")
            if flag in config:
                setattr(args, key, config[flag])
            elif key in config:
                setattr(args, key, config[key])
            elif key in parser_defaults:
                setattr(args, key, parser_defaults[key])
    return args


def _refuse_ignored_param(args, given, uses_alpha):
    """Refuse a class parameter flag that ``--kind`` would ignore.

    Only flags on the command line (``given``) count: a config file may
    hold both parameters, as one used for ``bounds --kind both`` does.
    """
    used, ignored = ("alpha", "beta") if uses_alpha else ("beta", "alpha")
    if ignored in given:
        raise ValueError(f"--{ignored} does not apply to --kind {args.kind}, "
                         f"which takes --{used}")


# ----------------------------------------------------------------------
# commands


def cmd_bounds(args):
    given = {key for key, value in vars(args).items() if value is not None}
    args = _apply_config(args, {
        "kind": "both", "m": "1", "alpha": "1", "beta": "0", "lam": "1"})
    if args.kind != "both":
        _refuse_ignored_param(args, given, args.kind == "alpha")
    kinds = ("alpha", "beta") if args.kind == "both" else (args.kind,)
    m_values = _parse_list(args.m, lambda x: _parse_int(x, "--m"))
    lam_values = _parse_list(args.lam, _parse_fraction)
    rows = []
    for kind in kinds:
        params = _parse_list(args.alpha if kind == "alpha" else args.beta,
                             _parse_fraction)
        matches = {}
        if 1 in lam_values:
            for r in bounds_mod.verify_reductions(
                    m_values, params if kind == "alpha" else [],
                    params if kind == "beta" else []):
                matches[r["m"], r["param"]] = (
                    "exact" if r["b1_sq_match"] and r["b2_match"]
                    else "MISMATCH")
        for m in m_values:
            for param in params:
                for lam in lam_values:
                    b1, b2 = ClassSpec.from_kind(kind, m, param, lam).bounds()
                    rows.append({
                        "kind": kind, "m": m, "alpha_or_beta": param,
                        "lambda": lam, "bound_a_m1": b1, "bound_a_2m1": b2,
                        "corollary_match": matches[m, param] if lam == 1
                        else ""})
    _emit(rows, ["kind", "m", "alpha_or_beta", "lambda", "bound_a_m1",
                 "bound_a_2m1", "corollary_match"], args)
    return 0


def cmd_invert(args):
    args = _apply_config(args, {"m": "1", "order": None})
    m = _parse_int(args.m, "--m")
    coeffs = _parse_list(args.coeffs, _parse_fraction)
    if len(coeffs) < 3:
        coeffs = coeffs + [Fraction(0)] * (3 - len(coeffs))
    fn = MFoldFunction(m, coeffs)
    closed = fn.inverse_closed_form()
    reverted = fn.inverse_by_reversion(
        None if args.order is None else _parse_int(args.order, "--order"))
    rows = []
    for k, (c, r) in enumerate(zip(closed.as_tuple(), reverted.as_tuple()),
                               start=1):
        rows.append({
            "exponent": k * m + 1,
            "closed_form": c,
            "reversion": r,
            "difference": c - r,
        })
    _emit(rows, ["exponent", "closed_form", "reversion", "difference"], args)
    return 0


def cmd_verify_inversion(args):
    args = _apply_config(args, {
        "m": "1,2,3,4,5,6", "samples": 25, "seed": 0})

    samples = _parse_count(args.samples, "--samples")
    rows = []
    failures = 0
    for m in _parse_list(args.m, lambda x: _parse_int(x, "--m")):
        rng = random.Random(f"verify-inversion/{args.seed}/{m}")
        results = [check_inversion(rng, m) for _ in range(samples)]
        mismatches = sum(not closed_ok for closed_ok, _ in results)
        identity_bad = sum(not identity_ok for _, identity_ok in results)
        failures += mismatches + identity_bad
        rows.append({
            "m": m, "samples": samples,
            "closed_form_mismatches": mismatches,
            "identity_failures": identity_bad,
            "ok": mismatches == 0 and identity_bad == 0})
    _emit(rows, ["m", "samples", "closed_form_mismatches",
                 "identity_failures", "ok"], args)
    return 0 if failures == 0 else 1


def cmd_membership(args):
    given = {key for key, value in vars(args).items() if value is not None}
    args = _apply_config(args, {
        "name": None, "coeffs": None, "m": 1, "kind": "re", "alpha": None,
        "beta": None, "lam": "1", "order": 240, "g_order": 32,
        "angles": 720})
    _refuse_ignored_param(args, given, args.kind == "arg")
    m = _parse_int(args.m, "--m")
    lam = _parse_fraction(args.lam)
    if args.kind == "arg":
        spec = ClassSpec("arg", m=m, lam=lam,
                         alpha=_parse_fraction(args.alpha or "1"))
    else:
        spec = ClassSpec("re", m=m, lam=lam,
                         beta=_parse_fraction(args.beta or "0"))
    order = _parse_int(args.order, "--order")
    if args.name:
        if args.name not in CATALOG_NAMES:
            raise ValueError(f"unknown catalog name {args.name!r}; "
                             f"choices: {', '.join(CATALOG_NAMES)}")
        f = catalog(args.name, m, order)
        if not any(f.coeffs[2:]):
            # a verdict on z would not be about the named function; every
            # entry has a coefficient past z by z^(2m+1) (atanh's z^3)
            wider = catalog(args.name, m, 2 * m + 1).coeffs
            first = next(n for n in range(2, len(wider)) if wider[n])
            raise ValueError(
                f"order {order} truncates {args.name} to z itself; "
                f"membership needs --order >= {first}")
    elif args.coeffs:
        f = MFoldFunction(m, _parse_list(args.coeffs, _parse_fraction))
    else:
        raise ValueError("membership needs --name or --coeffs")
    report = check_membership(
        f, spec, angles=_parse_int(args.angles, "--angles"), order=order,
        g_order=_parse_int(args.g_order, "--g-order"))
    rows = []
    for side in (report.f_report, report.g_report):
        rows.append({
            "side": side.side,
            "verdict": side.verdict,
            "worst_margin": side.worst_margin,
            "witness_re": side.witness.real,
            "witness_im": side.witness.imag,
            "tail_estimate": side.tail,
            "nonpositive_ratio_points": side.nonpositive_ratio_points,
        })
    rows.append({"side": "overall", "verdict": report.verdict,
                 "worst_margin": min(report.f_report.worst_margin,
                                     report.g_report.worst_margin),
                 "witness_re": "", "witness_im": "", "tail_estimate": "",
                 "nonpositive_ratio_points": ""})
    _emit(rows, ["side", "verdict", "worst_margin", "witness_re",
                 "witness_im", "tail_estimate",
                 "nonpositive_ratio_points"], args)
    return 0


def cmd_solve_coeffs(args):
    given = {key for key, value in vars(args).items() if value is not None}
    args = _apply_config(args, {
        "kind": "alpha", "m": 1, "alpha": "1", "beta": "0", "lam": "1",
        "seed": 0, "atoms": 3, "p_atoms": None, "q_atoms": None,
        "realizable": False})
    _refuse_ignored_param(args, given, args.kind == "alpha")
    m = _parse_int(args.m, "--m")
    lam = _parse_fraction(args.lam)
    param = _parse_fraction(args.alpha if args.kind == "alpha" else args.beta)
    spec = ClassSpec.from_kind(args.kind, m, float(param), float(lam))
    if bool(args.p_atoms) != bool(args.q_atoms):
        raise ValueError("--p-atoms and --q-atoms must be given together")
    if args.p_atoms and args.realizable:
        raise ValueError("--realizable builds its own pair; it cannot be "
                         "combined with --p-atoms and --q-atoms")
    if args.p_atoms:
        p = CaratheodoryFunction(_parse_atoms(args.p_atoms), fold=m,
                                 backend="float")
        q = CaratheodoryFunction(_parse_atoms(args.q_atoms), fold=m,
                                 backend="float")
    elif args.realizable:
        p, q = realizable_pair(_parse_seed(args.seed), spec, backend="float",
                               atom_count=_parse_int(args.atoms, "--atoms"))
    else:
        p, q = constrained_pair(_parse_seed(args.seed), m,
                                _parse_int(args.atoms, "--atoms"),
                                backend="float")
    solution = _solve(p, q, spec)
    consistency = bound_consistency(solution)
    row = {
        "kind": args.kind, "m": m, "param": param, "lambda": lam,
        "a_m1": complex(solution.a_m1),
        "a_2m1": complex(solution.a_2m1),
        "abs_a_m1": consistency.abs_a_m1,
        "abs_a_2m1": consistency.abs_a_2m1,
        "bound_a_m1": consistency.bound_a_m1,
        "bound_a_2m1": consistency.bound_a_2m1,
        "realizability": solution.realizability,
        "ratio_a_m1": consistency.ratio_a_m1,
        "ratio_a_2m1": consistency.ratio_a_2m1,
    }
    for name, value in solution.residuals.items():
        row[f"residual_{name}"] = abs(complex(value))
    columns = (["kind", "m", "param", "lambda", "a_m1", "a_2m1",
                "abs_a_m1", "abs_a_2m1", "bound_a_m1", "bound_a_2m1",
                "realizability", "ratio_a_m1", "ratio_a_2m1"]
               + [f"residual_{k}" for k in solution.residuals])
    _emit([row], columns, args)
    return 0


def cmd_caratheodory_sample(args):
    args = _apply_config(args, {
        "seed": 0, "atoms": 3, "m": 1, "count": 10, "depth": 4,
        "exact": False})
    depth = _parse_int(args.depth, "--depth")
    atoms, m = _parse_int(args.atoms, "--atoms"), _parse_int(args.m, "--m")
    rows = []
    bad = 0
    for i in range(_parse_count(args.count, "--count")):
        tag = f"{args.seed}/carah/{i}"
        fn = (sample_exact(tag, atoms, m)
              if args.exact else sample(tag, atoms, m))
        report = check_lemma1(fn, depth=depth)
        if not report.ok:
            bad += 1
        row = {"sample": i, "atom_count": atoms, "m": m,
               "lemma_ok": report.ok,
               "second_lhs": report.second_lhs,
               "second_rhs": report.second_rhs}
        for k, mag, _ok in report.magnitudes:
            row[f"abs_p{k}m"] = mag
        rows.append(row)
    columns = (["sample", "atom_count", "m"]
               + [f"abs_p{k}m" for k in range(1, depth + 1)]
               + ["second_lhs", "second_rhs", "lemma_ok"])
    _emit(rows, columns, args)
    return 0 if bad == 0 else 1


def cmd_search(args):
    given = {key for key, value in vars(args).items() if value is not None}
    args = _apply_config(args, {
        "kind": "both", "m": "1,2,3", "alpha": "1/2,1", "beta": "0,1/2",
        "lam": "1/4,1/2,1", "samples": 200, "seed": 0, "atoms": 3,
        "realizable": 5})
    if args.kind != "both":
        _refuse_ignored_param(args, given, args.kind == "alpha")
    kinds = ("alpha", "beta") if args.kind == "both" else (args.kind,)
    m_values = _parse_list(args.m, lambda x: _parse_int(x, "--m"))
    lam_values = [float(x) for x in _parse_list(args.lam, _parse_fraction)]
    params = {
        "alpha": [float(x) for x in _parse_list(args.alpha, _parse_fraction)],
        "beta": [float(x) for x in _parse_list(args.beta, _parse_fraction)],
    }
    records = explore.sweep(
        kinds, m_values, params, lam_values,
        _parse_int(args.samples, "--samples"), _parse_seed(args.seed),
        atom_count=_parse_int(args.atoms, "--atoms"),
        realizable=_parse_int(args.realizable, "--realizable"))
    rows = [{
        "kind": rec.kind, "m": rec.m, "param": rec.param,
        "lambda": rec.lam, "samples": rec.samples,
        "filtered_count": rec.filtered_count,
        "max_a_m1": rec.max_a_m1, "max_a_2m1": rec.max_a_2m1,
        "max_a_m1_unfiltered": rec.max_a_m1_unfiltered,
        "max_a_2m1_unfiltered": rec.max_a_2m1_unfiltered,
        "bound_a_m1": rec.bound_a_m1, "bound_a_2m1": rec.bound_a_2m1,
        "ratio_a_m1": rec.ratio_a_m1, "ratio_a_2m1": rec.ratio_a_2m1,
        "ceiling": rec.ceiling, "ceiling_ok": rec.ceiling_ok,
        "argmax_seed": rec.argmax_seed,
    } for rec in records]
    _emit(rows, ["kind", "m", "param", "lambda", "samples",
                 "filtered_count", "max_a_m1", "max_a_2m1",
                 "max_a_m1_unfiltered", "max_a_2m1_unfiltered",
                 "bound_a_m1", "bound_a_2m1", "ratio_a_m1", "ratio_a_2m1",
                 "ceiling", "ceiling_ok", "argmax_seed"], args)
    return 0 if all(rec.ok for rec in records) else 1


def cmd_selftest(args):
    args = _apply_config(args, {"quick": False})
    return run_selftest(quick=bool(args.quick), stream=sys.stdout)


# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bifold",
        description="coefficient-bound verification toolkit for m-fold "
                    "symmetric bi-univalent function classes")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "bounds", help="evaluate the closed-form bounds",
        epilog="columns: kind, m, alpha_or_beta, lambda, bound_a_m1, "
               "bound_a_2m1, corollary_match")
    p.add_argument("--kind", choices=("alpha", "beta", "both"), default=None)
    p.add_argument("--m", default=None, help="comma list of fold orders")
    p.add_argument("--alpha", default=None, help="comma list (rationals ok)")
    p.add_argument("--beta", default=None)
    p.add_argument("--lambda", dest="lam", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser(
        "invert",
        help="first three inverse coefficients, closed form vs reversion",
        epilog="columns: exponent, closed_form, reversion, difference")
    p.add_argument("--m", default=None)
    p.add_argument("--coeffs", required=True,
                   help="a_{m+1},a_{2m+1},a_{3m+1} as rationals")
    p.add_argument("--order", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser(
        "verify-inversion",
        help="random ensemble check of the inverse formulas",
        epilog="columns: m, samples, closed_form_mismatches, "
               "identity_failures, ok")
    p.add_argument("--m", default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_verify_inversion)

    p = sub.add_parser(
        "membership", help="disk-sampled class membership",
        epilog="columns: side, verdict, worst_margin, witness_re, "
               "witness_im, tail_estimate, nonpositive_ratio_points")
    p.add_argument("--name", default=None,
                   help=f"catalog function ({', '.join(CATALOG_NAMES)})")
    p.add_argument("--coeffs", default=None)
    p.add_argument("--m", default=None)
    p.add_argument("--kind", choices=("arg", "re"), default=None)
    p.add_argument("--alpha", default=None)
    p.add_argument("--beta", default=None)
    p.add_argument("--lambda", dest="lam", default=None)
    p.add_argument("--order", default=None)
    p.add_argument("--g-order", default=None)
    p.add_argument("--angles", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_membership)

    p = sub.add_parser(
        "solve-coeffs", help="solve the coefficient system for one pair",
        epilog="columns: kind, m, param, lambda, a_m1, a_2m1, abs_a_m1, "
               "abs_a_2m1, bound_a_m1, bound_a_2m1, realizability, "
               "ratio_a_m1, ratio_a_2m1, residual_*")
    p.add_argument("--kind", choices=("alpha", "beta"), default=None)
    p.add_argument("--m", default=None)
    p.add_argument("--alpha", default=None)
    p.add_argument("--beta", default=None)
    p.add_argument("--lambda", dest="lam", default=None)
    p.add_argument("--seed", default=None)
    p.add_argument("--atoms", default=None)
    p.add_argument("--p-atoms", default=None,
                   help='explicit atoms "w@deg,w@deg" (with --q-atoms)')
    p.add_argument("--q-atoms", default=None)
    p.add_argument("--realizable", action="store_true", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_solve_coeffs)

    p = sub.add_parser(
        "caratheodory-sample",
        help="seeded positive-real-part samples + inequalities",
        epilog="columns: sample, atom_count, m, abs_p<k>m per depth, "
               "second_lhs, second_rhs, lemma_ok")
    p.add_argument("--seed", default=None)
    p.add_argument("--atoms", default=None)
    p.add_argument("--m", default=None)
    p.add_argument("--count", default=None)
    p.add_argument("--depth", default=None)
    p.add_argument("--exact", action="store_true", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_caratheodory_sample)

    p = sub.add_parser(
        "search", help="ensemble sweep",
        epilog="columns: kind, m, param, lambda, samples, filtered_count, "
               "max_a_m1, max_a_2m1, max_a_m1_unfiltered, "
               "max_a_2m1_unfiltered, bound_a_m1, bound_a_2m1, ratio_a_m1, "
               "ratio_a_2m1, ceiling, ceiling_ok, argmax_seed; each cell "
               "draws its samples from the Caratheodory coefficient body: "
               "p_m and p_2m uniformly, q_m = -p_m, and q_2m as the "
               "addition relation forces it where that value lies in the "
               "body, else uniformly; the filtered columns keep the samples "
               "whose addition residual is negligible, the unfiltered ones "
               "run over every sample; --atoms shapes only the "
               "--realizable atom pairs; ceiling is the closed-form linear "
               "cap 4*lambda*t/(m*(1+lambda)) on |a_{m+1}| (t = alpha or "
               "1-beta), and a single atom attains it")
    p.add_argument("--kind", choices=("alpha", "beta", "both"), default=None)
    p.add_argument("--m", default=None)
    p.add_argument("--alpha", default=None)
    p.add_argument("--beta", default=None)
    p.add_argument("--lambda", dest="lam", default=None)
    p.add_argument("--samples", default=None)
    p.add_argument("--seed", default=None)
    p.add_argument("--atoms", default=None)
    p.add_argument("--realizable", default=None,
                   help="constructed realizable pairs per cell")
    _add_common(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("selftest", help="run the built-in invariant suites")
    p.add_argument("--quick", action="store_true", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, TypeError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a defect in bifold, not in the input
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
