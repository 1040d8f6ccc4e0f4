"""Command-line interface: every capability as a reproducible command.

All commands are deterministic functions of their flags.  ``--config``
names a JSON object whose keys are flag names; ``main`` reads it as
``--key=value`` words placed before the command line's own flags, so one
parser checks both and the command line wins.  Each flag's default is
declared once, in ``build_parser``, but for ``--alpha`` and ``--beta``:
left None there, so that ``_refuse_ignored_param`` sees whether one was
given, they take their defaults in ``cmd_bounds``, ``cmd_membership``,
``cmd_solve_coeffs`` and ``cmd_search``.  Output is CSV (default) or
JSON, to stdout or ``--out``.  Floats are printed with 15 significant
digits and exact rationals as num/den strings, so repeated runs are
byte-identical; the only run-dependent line is the CSV timestamp header,
suppressed by ``--no-timestamp``.

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
from .selftest import _draw_mfold, check_inversion, run_selftest
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
    stream = io.StringIO()
    if args.format == "json":
        payload = [{k: _jsonable(r.get(k)) for k in columns} for r in rows]
        json.dump(payload, stream, indent=2)
        stream.write("\n")
    else:
        if not args.no_timestamp:
            stamp = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
            stream.write(f"# generated {stamp}\n")
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(columns)
        for r in rows:
            writer.writerow([_fmt(r.get(k, "")) for k in columns])
    text = stream.getvalue()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_seed(text):
    return int(text) if text.lstrip("-").isdigit() else text


def _parse_int(text, flag) -> int:
    """An integer from a flag's text, else a refusal that names the flag."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{flag} must be an integer, got {text!r}") from None


def _parse_count(text, flag) -> int:
    count = _parse_int(text, flag)
    if count < 0:
        raise ValueError(f"{flag} must be >= 0, got {count}")
    return count


def _parse_list(text, flag, conv):
    """A flag's comma list, each item read by ``conv``; an empty item,
    as in "", "1,,2" or a trailing comma, is refused."""
    parts = text.split(",")
    if "" in parts:
        raise ValueError(f"{flag} must be a comma list with no empty item, "
                         f"got {text!r}")
    return [conv(part) for part in parts]


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
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="output format (default csv)")
    parser.add_argument("--no-timestamp", action="store_true",
                        help="suppress the CSV timestamp header line")
    parser.add_argument("--config",
                        help="JSON object of flag values; flags win")


def _config_words(path, parser, head):
    """The config file as command-line words, one ``--key=value`` per key.

    A key is a flag name without its dashes (``_`` reads as ``-``); JSON
    true gives a bare switch, false leaves it off, and a list is joined
    with commas.  ``=`` keeps a value such as ``-1/2`` from reading as a
    flag.  The parser refuses a word that names no option; a false key
    gives no word, so it is checked here, by parsing it as a bare flag
    after ``head``, the command line up to the subcommand.
    """
    with open(path) as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    words, off = [], {}
    for key, value in config.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(value, list):
            value = ",".join(str(item) for item in value)
        if value is True:
            words.append(flag)
        elif value is None or isinstance(value, dict):
            raise ValueError(f"config key {key!r} must be a string, number, "
                             f"boolean or list, got {json.dumps(value)}")
        elif value is False:
            off[flag] = key
        else:
            words.append(f"{flag}={value}")
    _, unknown = parser.parse_known_args(head + list(off))
    if unknown:
        raise ValueError(f"config key {off[unknown[0]]!r} names no option "
                         f"of {head[-1]}")
    return words


def _refuse_ignored_param(args, given):
    """Refuse a class parameter flag that ``--kind`` would ignore.

    Only flags on the command line (``given``) count: a config file may
    hold both parameters, as one used for ``bounds --kind both`` does.
    """
    kind = getattr(args, "kind", "both")
    used, ignored = (("alpha", "beta") if kind in ("alpha", "arg")
                     else ("beta", "alpha"))
    if kind != "both" and getattr(given, ignored) is not None:
        raise ValueError(f"--{ignored} does not apply to --kind {kind}, "
                         f"which takes --{used}")


# ----------------------------------------------------------------------
# commands


def cmd_bounds(args):
    kinds = ("alpha", "beta") if args.kind == "both" else (args.kind,)
    m_values = _parse_list(args.m, "--m", lambda x: _parse_int(x, "--m"))
    lam_values = _parse_list(args.lam, "--lambda", Fraction)
    rows = []
    for kind in kinds:
        params = _parse_list((args.alpha or "1") if kind == "alpha"
                             else (args.beta or "0"), f"--{kind}", Fraction)
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
    m = _parse_int(args.m, "--m")
    if args.coeffs is None:
        raise ValueError("invert needs --coeffs")
    coeffs = _parse_list(args.coeffs, "--coeffs", Fraction)
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
    samples = _parse_count(args.samples, "--samples")
    seed = _parse_seed(args.seed)
    rows = []
    failures = 0
    for m in _parse_list(args.m, "--m", lambda x: _parse_int(x, "--m")):
        rng = random.Random(f"verify-inversion/{seed}/{m}")
        results = [check_inversion(_draw_mfold(rng, m))
                   for _ in range(samples)]
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
    m = _parse_int(args.m, "--m")
    lam = Fraction(args.lam)
    if args.kind == "arg":
        spec = ClassSpec("arg", m=m, lam=lam,
                         alpha=Fraction(args.alpha or "1"))
    else:
        spec = ClassSpec("re", m=m, lam=lam,
                         beta=Fraction(args.beta or "0"))
    order = _parse_int(args.order, "--order")
    if args.name and args.coeffs:
        raise ValueError("give --name or --coeffs, not both")
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
        f = MFoldFunction(m, _parse_list(args.coeffs, "--coeffs", Fraction))
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
    m = _parse_int(args.m, "--m")
    lam = Fraction(args.lam)
    param = Fraction((args.alpha or "1") if args.kind == "alpha"
                            else (args.beta or "0"))
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
    kinds = ("alpha", "beta") if args.kind == "both" else (args.kind,)
    m_values = _parse_list(args.m, "--m", lambda x: _parse_int(x, "--m"))
    lam_values = [float(x) for x in _parse_list(args.lam, "--lambda",
                                                Fraction)]
    params = {
        "alpha": [float(x) for x in _parse_list(args.alpha or "1/2,1",
                                                "--alpha", Fraction)],
        "beta": [float(x) for x in _parse_list(args.beta or "0,1/2",
                                               "--beta", Fraction)],
    }
    samples = _parse_int(args.samples, "--samples")
    realizable = _parse_int(args.realizable, "--realizable")
    records = explore.sweep(
        kinds, m_values, params, lam_values, samples, _parse_seed(args.seed),
        realizable=realizable)
    if samples == 0 and realizable == 0:
        # refused once the sweep has checked every count: an empty cell
        # can only fail, and exit 1 means a failed check
        raise ValueError("search has nothing to draw: --samples and "
                         "--realizable are both 0")
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
    return run_selftest(quick=args.quick)


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
    p.add_argument("--kind", choices=("alpha", "beta", "both"),
                   default="both")
    p.add_argument("--m", default="1", help="comma list of fold orders")
    p.add_argument("--alpha", help="comma list (rationals ok)")
    p.add_argument("--beta")
    p.add_argument("--lambda", dest="lam", default="1")
    _add_common(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser(
        "invert",
        help="first three inverse coefficients, closed form vs reversion",
        epilog="columns: exponent, closed_form, reversion, difference")
    p.add_argument("--m", default="1")
    p.add_argument("--coeffs",
                   help="a_{m+1},a_{2m+1},a_{3m+1} as rationals")
    p.add_argument("--order")
    _add_common(p)
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser(
        "verify-inversion",
        help="random ensemble check of the inverse formulas",
        epilog="columns: m, samples, closed_form_mismatches, "
               "identity_failures, ok")
    p.add_argument("--m", default="1,2,3,4,5,6")
    p.add_argument("--samples", default="25")
    p.add_argument("--seed", default="0")
    _add_common(p)
    p.set_defaults(func=cmd_verify_inversion)

    p = sub.add_parser(
        "membership", help="disk-sampled class membership",
        epilog="columns: side, verdict, worst_margin, witness_re, "
               "witness_im, tail_estimate, nonpositive_ratio_points")
    p.add_argument("--name",
                   help=f"catalog function ({', '.join(CATALOG_NAMES)})")
    p.add_argument("--coeffs")
    p.add_argument("--m", default="1")
    p.add_argument("--kind", choices=("arg", "re"), default="re")
    p.add_argument("--alpha")
    p.add_argument("--beta")
    p.add_argument("--lambda", dest="lam", default="1")
    p.add_argument("--order", default="240")
    p.add_argument("--g-order", default="32")
    p.add_argument("--angles", default="720")
    _add_common(p)
    p.set_defaults(func=cmd_membership)

    p = sub.add_parser(
        "solve-coeffs", help="solve the coefficient system for one pair",
        epilog="columns: kind, m, param, lambda, a_m1, a_2m1, abs_a_m1, "
               "abs_a_2m1, bound_a_m1, bound_a_2m1, realizability, "
               "ratio_a_m1, ratio_a_2m1, residual_*")
    p.add_argument("--kind", choices=("alpha", "beta"), default="alpha")
    p.add_argument("--m", default="1")
    p.add_argument("--alpha")
    p.add_argument("--beta")
    p.add_argument("--lambda", dest="lam", default="1")
    p.add_argument("--seed", default="0")
    p.add_argument("--atoms", default="3")
    p.add_argument("--p-atoms",
                   help='explicit atoms "w@deg,w@deg" (with --q-atoms)')
    p.add_argument("--q-atoms")
    p.add_argument("--realizable", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_solve_coeffs)

    p = sub.add_parser(
        "caratheodory-sample",
        help="seeded positive-real-part samples + inequalities",
        epilog="columns: sample, atom_count, m, abs_p<k>m per depth, "
               "second_lhs, second_rhs, lemma_ok")
    p.add_argument("--seed", default="0")
    p.add_argument("--atoms", default="3")
    p.add_argument("--m", default="1")
    p.add_argument("--count", default="10")
    p.add_argument("--depth", default="4")
    p.add_argument("--exact", action="store_true")
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
               "run over every sample; --realizable draws scale p_m and "
               "p_2m by 1/4 before q is formed, so the forced q_2m is "
               "always kept; ceiling is the closed-form linear cap "
               "4*lambda*t/(m*(1+lambda)) on |a_{m+1}| (t = alpha or "
               "1-beta), and a single atom attains it")
    p.add_argument("--kind", choices=("alpha", "beta", "both"),
                   default="both")
    p.add_argument("--m", default="1,2,3")
    p.add_argument("--alpha")
    p.add_argument("--beta")
    p.add_argument("--lambda", dest="lam", default="1/4,1/2,1")
    p.add_argument("--samples", default="200")
    p.add_argument("--seed", default="0")
    p.add_argument("--realizable", default="5",
                   help="realizable draws per cell")
    _add_common(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("selftest", help="run the built-in invariant suites")
    p.add_argument("--quick", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = given = parser.parse_args(argv)
    try:
        if given.config:
            # config words go after the subcommand and before the user's
            # own flags, so the same parser checks them and the flags win
            at = argv.index(given.command) + 1
            args = parser.parse_args(
                argv[:at] + _config_words(given.config, parser, argv[:at])
                + argv[at:])
        _refuse_ignored_param(args, given)
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
