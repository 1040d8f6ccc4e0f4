"""End-to-end CLI behaviour through the module entry point."""

import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from bifold.mfold import catalog


def run_cli(*argv, check=True):
    proc = subprocess.run([sys.executable, "-m", "bifold", *argv],
                          capture_output=True, text=True)
    if check and proc.returncode != 0:
        raise AssertionError(
            f"bifold {' '.join(argv)} exited {proc.returncode}:\n"
            f"{proc.stdout}\n{proc.stderr}")
    return proc


def test_bounds_row_values():
    out = run_cli("bounds", "--kind", "alpha", "--m", "1", "--alpha", "1",
                  "--lambda", "1", "--no-timestamp").stdout.splitlines()
    assert out[0] == ("kind,m,alpha_or_beta,lambda,bound_a_m1,"
                     "bound_a_2m1,corollary_match")
    kind, m, param, lam, b1, b2, match = out[1].split(",")
    assert float(b1) == pytest.approx(1.414214, abs=1e-6)
    assert float(b2) == 5.0
    assert match == "exact"


def test_bounds_beta_row():
    out = run_cli("bounds", "--kind", "beta", "--m", "1", "--beta", "0",
                  "--lambda", "1", "--no-timestamp").stdout.splitlines()
    b1, b2 = out[1].split(",")[4:6]
    assert float(b1) == pytest.approx(1.414214, abs=1e-6)
    assert float(b2) == 5.0


def test_bounds_rejects_out_of_range():
    proc = run_cli("bounds", "--kind", "alpha", "--alpha", "0",
                   check=False)
    assert proc.returncode == 2
    assert "alpha" in proc.stderr


def test_range_errors_read_the_same_across_commands():
    messages = set()
    for argv in (("bounds", "--lambda", "2"),
                 ("membership", "--name", "geometric", "--lambda", "2")):
        proc = run_cli(*argv, check=False)
        assert proc.returncode == 2
        assert "Fraction(" not in proc.stderr
        messages.add(proc.stderr)
    assert messages == {"error: lambda must lie in (0, 1], got 2\n"}
    for argv in (("bounds", "--kind", "alpha", "--alpha", "0"),
                 ("membership", "--name", "geometric", "--kind", "arg",
                  "--alpha", "0")):
        proc = run_cli(*argv, check=False)
        assert proc.returncode == 2
        assert proc.stderr == "error: alpha must lie in (0, 1], got 0\n"


def test_invert_unit_coefficients():
    out = run_cli("invert", "--m", "1", "--coeffs", "1,1,1",
                  "--no-timestamp").stdout.splitlines()
    values = [line.split(",") for line in out[1:]]
    assert [v[1] for v in values] == ["-1", "1", "-1"]
    assert all(v[3] == "0" for v in values)


def test_invert_rational_two_fold():
    out = run_cli("invert", "--m", "2", "--coeffs", "1/2,1/3,0",
                  "--no-timestamp").stdout.splitlines()
    rows = [line.split(",") for line in out[1:]]
    assert rows[0][1] == "-1/2"
    assert rows[1][1] == "5/12"
    assert rows[2][1] == "-1/6"
    assert all(r[3] == "0" for r in rows)


def test_invert_all_zero():
    out = run_cli("invert", "--m", "3", "--coeffs", "0,0,0",
                  "--no-timestamp").stdout.splitlines()
    assert all(line.split(",")[1] == "0" for line in out[1:])


def test_verify_inversion_exit_zero():
    out = run_cli("verify-inversion", "--m", "1,2", "--samples", "5",
                  "--seed", "1", "--no-timestamp").stdout.splitlines()
    assert all(line.endswith(",yes") for line in out[1:])


def test_membership_pass_and_witness():
    good = run_cli("membership", "--name", "geometric", "--kind", "re",
                   "--beta", "0.4", "--angles", "180",
                   "--no-timestamp").stdout
    assert "overall,pass" in good
    bad = run_cli("membership", "--name", "geometric", "--kind", "re",
                  "--beta", "0.6", "--angles", "180",
                  "--no-timestamp").stdout
    assert "overall,fail" in bad
    f_row = [l for l in bad.splitlines() if l.startswith("f,")][0]
    witness_re = float(f_row.split(",")[3])
    assert witness_re < 0  # worst point sits on the negative real side


def test_membership_needs_a_function():
    proc = run_cli("membership", "--kind", "re", "--beta", "0.4",
                   check=False)
    assert proc.returncode == 2


def test_membership_refuses_name_with_coeffs(capsys):
    from bifold.cli import main

    assert main(["membership", "--name", "geometric", "--coeffs", "1/3",
                 "--no-timestamp"]) == 2
    out, err = capsys.readouterr()
    assert err == "error: give --name or --coeffs, not both\n"
    assert out == ""


def test_verify_inversion_takes_a_string_seed(capsys):
    from bifold.cli import main

    assert main(["verify-inversion", "--m", "1", "--samples", "2",
                 "--seed", "abc", "--no-timestamp"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "1,2,0,0,yes"


def test_solve_coeffs_realizable():
    out = run_cli("solve-coeffs", "--kind", "beta", "--m", "2", "--beta",
                  "1/4", "--lambda", "1/2", "--seed", "7", "--realizable",
                  "--no-timestamp").stdout.splitlines()
    header = out[0].split(",")
    row = dict(zip(header, out[1].split(",")))
    assert float(row["realizability"]) < 1e-12
    assert float(row["ratio_a_m1"]) <= 1
    assert float(row["residual_subtraction"]) < 1e-13


def test_solve_coeffs_explicit_atoms():
    out = run_cli("solve-coeffs", "--kind", "alpha", "--m", "1",
                  "--alpha", "1", "--lambda", "1",
                  "--p-atoms", "1@0", "--q-atoms", "1@180",
                  "--no-timestamp").stdout.splitlines()
    row = dict(zip(out[0].split(","), out[1].split(",")))
    assert row["abs_a_m1"] == "2"
    assert row["realizability"] == "4"


def test_caratheodory_sample_lemma_columns():
    out = run_cli("caratheodory-sample", "--seed", "3", "--atoms", "1",
                  "--m", "2", "--count", "2",
                  "--no-timestamp").stdout.splitlines()
    assert out[0].startswith("sample,atom_count,m,abs_p1m")
    for line in out[1:]:
        cells = line.split(",")
        assert cells[-1] == "yes"
        assert float(cells[3]) == pytest.approx(2.0, abs=1e-12)


def test_search_sweep_json():
    proc = run_cli("search", "--kind", "alpha", "--m", "1", "--alpha", "1",
                   "--lambda", "1", "--samples", "60", "--seed", "2",
                   "--format", "json", "--no-timestamp")
    rows = json.loads(proc.stdout)
    assert len(rows) == 1
    assert rows[0]["ceiling_ok"] is True
    assert rows[0]["ratio_a_m1"] <= 1 + 1e-10


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "alpha", "m": "2", "alpha": "1/2",
                               "lambda": "1/2"}))
    out = run_cli("bounds", "--config", str(cfg),
                  "--no-timestamp").stdout.splitlines()
    assert len(out) == 2
    assert out[1].startswith("alpha,2,1/2,1/2,")


def test_flags_override_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "alpha", "m": "2", "alpha": "1/2",
                               "lambda": "1"}))
    out = run_cli("bounds", "--config", str(cfg), "--m", "3",
                  "--no-timestamp").stdout.splitlines()
    assert out[1].startswith("alpha,3,1/2,1,")


def _exit_code(argv):
    """main's exit code, whether it returns it or argparse raises it."""
    from bifold.cli import main

    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_config_keys_read_as_flag_words(tmp_path, capsys):
    # an underscored key, an abbreviated one, a list, a number, a switch
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "alpha", "m": [1, 2], "alpha": 1,
                               "lam": "1/2", "no_timestamp": True}))
    assert _exit_code(["bounds", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [row.split(",")[:4] for row in out[1:]] == \
        [["alpha", "1", "1", "1/2"], ["alpha", "2", "1", "1/2"]]
    cfg.write_text(json.dumps({"no_timestamp": False}))
    assert _exit_code(["bounds", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out.startswith("# generated ")


@pytest.mark.parametrize("argv, config, message", [
    (("membership", "--name", "geometric", "--order", "12", "--angles",
      "36"), {"kind": "gamma"}, "argument --kind: invalid choice: 'gamma'"),
    (("bounds",), {"format": "xml"},
     "argument --format: invalid choice: 'xml'"),
    (("solve-coeffs",), {"realizable": "false"},
     "argument --realizable: ignored explicit argument 'false'"),
    (("caratheodory-sample", "--count", "1"), {"exact": "false"},
     "argument --exact: ignored explicit argument 'false'"),
    (("selftest",), {"quick": "false"},
     "argument --quick: ignored explicit argument 'false'"),
    (("bounds",), ["--m", "2"], "must hold a JSON object"),
    (("bounds",), {"lamda": "1/2"}, "unrecognized arguments: --lamda=1/2"),
    # false gives no word, so the parser never sees the misspelt key
    (("bounds", "--kind", "alpha"), {"lamda": False},
     "config key 'lamda' names no option of bounds"),
    (("bounds",), {"m": None}, "config key 'm' must be a string"),
    (("bounds",), {"m": {"value": 2}}, "config key 'm' must be a string"),
], ids=["kind-choice", "format-choice", "realizable-string", "exact-string",
        "quick-string", "json-list", "misspelt-key", "misspelt-false-key",
        "null", "object"])
def test_config_defects_exit_2(argv, config, message, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert _exit_code([argv[0], "--config", str(cfg), *argv[1:],
                       "--no-timestamp"]) == 2
    out, err = capsys.readouterr()
    assert message in err
    assert out == ""


def test_config_supplies_invert_coeffs(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"m": 2, "coeffs": "1/2,1/3,-1/5"}))
    assert _exit_code(["invert", "--config", str(cfg), "--no-timestamp"]) \
        == 0
    from_config = capsys.readouterr().out
    assert _exit_code(["invert", "--m", "2", "--coeffs", "1/2,1/3,-1/5",
                       "--no-timestamp"]) == 0
    assert from_config == capsys.readouterr().out
    cfg.write_text(json.dumps({"m": 2}))
    assert _exit_code(["invert", "--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: invert needs --coeffs\n")


@pytest.mark.parametrize("argv, flag, text", [
    (("bounds", "--m", ""), "--m", ""),
    (("search", "--lambda", ","), "--lambda", ","),
    (("invert", "--coeffs", "1/3,,1/5"), "--coeffs", "1/3,,1/5"),
], ids=["bounds-m", "search-lambda", "invert-coeffs"])
def test_empty_list_items_exit_2(argv, flag, text, capsys):
    assert _exit_code([*argv, "--no-timestamp"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: {flag} must be a comma list with no empty "
                   f"item, got {text!r}\n")


def _loads_numpy(code):
    """Whether ``code``, run in a fresh interpreter, leaves numpy loaded."""
    proc = subprocess.run(
        [sys.executable, "-c", code + "\nprint('numpy' in sys.modules)"],
        capture_output=True, text=True, check=True)
    return proc.stdout.splitlines()[-1] == "True"


def test_importing_bifold_does_not_load_numpy():
    # numpy loads on the first float call, not with the package
    assert not _loads_numpy("import sys, bifold")


@pytest.mark.parametrize("argv", [
    ["bounds"],
    ["invert", "--m", "2", "--coeffs", "1/2,1/3,-1/5"],
    ["verify-inversion", "--m", "1,2", "--samples", "2"],
    ["caratheodory-sample", "--count", "2"],
    ["caratheodory-sample", "--count", "2", "--exact"],
    ["solve-coeffs"],
    ["solve-coeffs", "--realizable"],
], ids=["bounds", "invert", "verify-inversion", "caratheodory-sample",
        "caratheodory-sample-exact", "solve-coeffs",
        "solve-coeffs-realizable"])
def test_exact_commands_do_not_load_numpy(argv):
    code = ("import contextlib, io, sys\n"
            "from bifold.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({argv + ['--no-timestamp']!r}) == 0")
    assert not _loads_numpy(code)


def test_float_commands_load_numpy():
    # the check above can fail: the sweep and the grid scan need numpy
    assert _loads_numpy("import sys, bifold\n"
                        "bifold.sweep_cell('alpha', 1, 1.0, 0.5, 10, seed=0)")


def test_readme_commands_exit_0():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```sh\n(.*?)```", readme.read_text(), re.S)
    commands = []
    for block in blocks:
        for line in block.splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["bifold"]:
                commands.append(words[1:])
    assert commands
    for argv in commands:
        assert _exit_code([*argv, "--no-timestamp"]) == 0, argv


def test_timestamp_header_toggle():
    with_stamp = run_cli("bounds", "--kind", "alpha", "--m", "1",
                         "--alpha", "1", "--lambda", "1").stdout
    assert with_stamp.startswith("# generated ")
    without = run_cli("bounds", "--kind", "alpha", "--m", "1",
                      "--alpha", "1", "--lambda", "1",
                      "--no-timestamp").stdout
    assert without.startswith("kind,")


def test_output_file(tmp_path):
    target = tmp_path / "bounds.csv"
    run_cli("bounds", "--kind", "alpha", "--m", "1", "--alpha", "1",
            "--lambda", "1", "--out", str(target), "--no-timestamp")
    assert target.read_text().startswith("kind,")


def test_selftest_quick_passes():
    proc = run_cli("selftest", "--quick")
    assert proc.stdout.endswith("selftest: PASS\n")
    assert "FAIL" not in proc.stdout


def test_selftest_quick_under_budget():
    import time

    t0 = time.perf_counter()
    run_cli("selftest", "--quick")
    assert time.perf_counter() - t0 < 10.0


def test_selftest_catches_injected_sign_fault(monkeypatch, capsys):
    # flip the sign of the first inverse coefficient: the inverse suite
    # must fail, name itself, and flip the exit code
    from bifold import mfold, selftest
    from bifold.mfold import InverseCoefficients

    original = mfold.MFoldFunction.inverse_closed_form

    def corrupted(self):
        inv = original(self)
        return InverseCoefficients(inv.m, -inv.b_m1, inv.b_2m1, inv.b_3m1)

    monkeypatch.setattr(mfold.MFoldFunction, "inverse_closed_form", corrupted)
    code = selftest.run_selftest(quick=True)
    out = capsys.readouterr().out
    assert code == 1
    assert "inverse-coefficients: FAIL" in out
    assert out.endswith("selftest: FAIL\n")


def test_selftest_catches_a_pass_inside_the_tail(monkeypatch, capsys):
    # a scan that reads "pass" where a margin lies inside the tail
    # estimate, as ``elif True:`` in place of ``elif all_clear:`` would:
    # the quick selftest's guard betas must catch it
    import dataclasses

    from bifold import membership, selftest

    scan_side = membership._scan_side

    def no_inconclusive(*args):
        side = scan_side(*args)
        if side.verdict == "inconclusive":
            side = dataclasses.replace(side, verdict="pass")
        return side

    monkeypatch.setattr(membership, "_scan_side", no_inconclusive)
    code = selftest.run_selftest(quick=True)
    out = capsys.readouterr().out
    assert code == 1
    assert "membership-sanity: FAIL" in out
    assert "margin inside the tail read pass" in out
    assert out.endswith("selftest: FAIL\n")


def test_membership_order_that_drops_coefficients_exits_2():
    proc = run_cli("membership", "--coeffs", "1/2,1/3", "--m", "2",
                   "--order", "1", check=False)
    assert proc.returncode == 2
    assert "order >= 5" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("name, m, first", [
    ("geometric", 1, 2), ("log", 1, 2), ("atanh", 1, 3),
    ("mfold-geometric", 2, 3), ("mfold-log", 3, 4), ("mfold-atanh", 3, 7),
])
def test_membership_order_that_truncates_a_name_to_z_exits_2(name, m, first):
    # below ``first`` the truncation is z itself, whose verdict would be
    # a pass about the identity, not about the named function
    proc = run_cli("membership", "--name", name, "--m", str(m), "--kind",
                   "re", "--beta", "0.99", "--order", str(first - 1),
                   "--no-timestamp", check=False)
    assert proc.returncode == 2
    assert proc.stderr == (f"error: order {first - 1} truncates {name} to "
                           f"z itself; membership needs --order >= {first}\n")
    assert proc.stdout == ""
    assert any(catalog(name, m, first).coeffs[2:])


def test_membership_identity_at_order_one_passes():
    out = run_cli("membership", "--coeffs", "0", "--order", "1",
                  "--no-timestamp").stdout
    assert "overall,pass" in out


def test_membership_zero_angles_exits_2():
    proc = run_cli("membership", "--name", "geometric", "--angles", "0",
                   check=False)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: angles")


def test_membership_negative_g_order_exits_2():
    proc = run_cli("membership", "--name", "geometric", "--kind", "re",
                   "--beta", "0.4", "--g-order", "-3", check=False)
    assert proc.returncode == 2
    assert proc.stderr == \
        "error: g_order must be a positive integer, got -3\n"
    assert proc.stdout == ""


def test_solve_coeffs_zero_weight_atoms_exit_2():
    proc = run_cli("solve-coeffs", "--p-atoms", "0@0", "--q-atoms", "0@180",
                   check=False)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: atom weights")
    assert "Traceback" not in proc.stderr


def test_internal_error_exits_3(monkeypatch, capsys):
    from bifold import cli

    def broken(*args, **kwargs):
        raise RuntimeError("no pair")

    monkeypatch.setattr(cli, "realizable_pair", broken)
    assert cli.main(["solve-coeffs", "--realizable"]) == 3
    assert "internal error: RuntimeError: no pair" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("search", "--kind", "alpha", "--m", "1", "--samples", "-1"),
    ("search", "--kind", "alpha", "--m", "1", "--realizable", "-2"),
    ("verify-inversion", "--samples", "-2"),
    ("caratheodory-sample", "--count", "-1"),
], ids=["search-samples", "search-realizable", "verify-inversion-samples",
        "caratheodory-sample-count"])
def test_negative_counts_exit_2(argv):
    proc = run_cli(*argv, "--no-timestamp", check=False)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "must be >= 0" in proc.stderr
    assert proc.stdout == ""


def test_search_refuses_a_sweep_with_nothing_to_draw():
    # every cell would be empty and fail, and exit 1 means a failed check
    proc = run_cli("search", "--kind", "alpha", "--m", "1", "--alpha", "1",
                   "--lambda", "1", "--samples", "0", "--realizable", "0",
                   "--no-timestamp", check=False)
    assert proc.returncode == 2
    assert proc.stderr == ("error: search has nothing to draw: --samples "
                           "and --realizable are both 0\n")
    assert proc.stdout == ""


@pytest.mark.parametrize("flags", [("--mode", "climb"), ("--iterations", "5")],
                         ids=["mode", "iterations"])
def test_search_refuses_removed_climb_flags(flags):
    proc = run_cli("search", *flags, "--kind", "alpha", "--m", "1",
                   "--samples", "1", "--no-timestamp", check=False)
    assert proc.returncode == 2
    assert "unrecognized arguments" in proc.stderr
    assert proc.stdout == ""


def test_search_refuses_the_removed_atoms_flag():
    # the sweep draws no atoms: its realizable samples are body draws
    proc = run_cli("search", "--atoms", "3", "--kind", "alpha", "--m", "1",
                   "--samples", "1", "--no-timestamp", check=False)
    assert proc.returncode == 2
    assert "unrecognized arguments: --atoms 3" in proc.stderr
    assert proc.stdout == ""


def test_selftest_times_each_suite_on_stderr():
    proc = run_cli("selftest", "--quick")
    suites = [line.split(":")[0] for line in proc.stdout.splitlines()[:-1]]
    timed = [line.rsplit(": ", 1) for line in proc.stderr.splitlines()]
    assert [name for name, _ in timed] == suites
    assert all(seconds.endswith(" s") and float(seconds[:-2]) >= 0
               for _, seconds in timed)


@pytest.mark.parametrize("argv, message", [
    (("--p-atoms", "1@0"), "must be given together"),
    (("--q-atoms", "1@0"), "must be given together"),
    (("--p-atoms", "1@0", "--q-atoms", "1@180", "--realizable"),
     "--realizable"),
], ids=["p-atoms-alone", "q-atoms-alone", "atoms-and-realizable"])
def test_solve_coeffs_refuses_atoms_it_would_ignore(argv, message):
    proc = run_cli("solve-coeffs", *argv, "--no-timestamp", check=False)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert message in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("atoms", ["1", "1@x", "inf@0", "1@nan"])
def test_solve_coeffs_names_a_malformed_atom(atoms):
    proc = run_cli("solve-coeffs", "--p-atoms", atoms, "--q-atoms", "1@180",
                   check=False)
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: atom {atoms!r}")
    assert "weight@degrees" in proc.stderr


@pytest.mark.parametrize("argv, flag", [
    (("membership", "--name", "geometric", "--kind", "arg", "--beta", "0.6"),
     "--beta"),
    (("membership", "--name", "geometric", "--kind", "re", "--alpha", "1/2"),
     "--alpha"),
    (("solve-coeffs", "--kind", "alpha", "--beta", "1/4"), "--beta"),
    (("solve-coeffs", "--kind", "beta", "--alpha", "1/2"), "--alpha"),
    (("search", "--kind", "alpha", "--m", "1", "--alpha", "1", "--beta",
      "1/4", "--lambda", "1", "--samples", "5"), "--beta"),
    (("search", "--kind", "beta", "--alpha", "1/2", "--samples", "5"),
     "--alpha"),
    (("bounds", "--kind", "alpha", "--m", "1", "--alpha", "1", "--beta",
      "1/4", "--lambda", "1"), "--beta"),
    (("bounds", "--kind", "beta", "--alpha", "1/2"), "--alpha"),
], ids=["membership-arg-beta", "membership-re-alpha", "solve-alpha-beta",
        "solve-beta-alpha", "search-alpha-beta", "search-beta-alpha",
        "bounds-alpha-beta", "bounds-beta-alpha"])
def test_class_parameter_the_kind_ignores_exits_2(argv, flag, capsys):
    from bifold.cli import main

    assert main([*argv, "--no-timestamp"]) == 2
    out, err = capsys.readouterr()
    assert err.startswith(f"error: {flag} does not apply to --kind")
    assert out == ""


@pytest.mark.parametrize("argv, flag, value", [
    (("search", "--samples", "1.5"), "--samples", "1.5"),
    (("bounds", "--m", "1.5"), "--m", "1.5"),
    (("bounds", "--m", "1,x"), "--m", "x"),
    (("verify-inversion", "--m", "x"), "--m", "x"),
    (("caratheodory-sample", "--count", "2.5"), "--count", "2.5"),
    (("caratheodory-sample", "--atoms", "two"), "--atoms", "two"),
    (("membership", "--name", "log", "--angles", "7.5"), "--angles", "7.5"),
    (("membership", "--name", "log", "--g-order", "1e3"), "--g-order",
     "1e3"),
    (("invert", "--coeffs", "1/2", "--order", "4.0"), "--order", "4.0"),
    (("verify-inversion", "--samples", "2.5"), "--samples", "2.5"),
], ids=["search-samples", "bounds-m", "bounds-m-list", "verify-inversion-m",
        "caratheodory-count", "caratheodory-atoms", "membership-angles",
        "membership-g-order", "invert-order", "verify-inversion-samples"])
def test_integer_flags_fail_in_bifolds_words(argv, flag, value, capsys):
    from bifold.cli import main

    assert main([*argv, "--no-timestamp"]) == 2
    out, err = capsys.readouterr()
    assert err == f"error: {flag} must be an integer, got {value!r}\n"
    assert "invalid literal" not in err
    assert out == ""


def test_config_may_hold_both_class_parameters(tmp_path, capsys):
    from bifold.cli import main

    config = tmp_path / "run.json"
    config.write_text(json.dumps({"alpha": "1/2", "beta": "1/4"}))
    for kind in ("alpha", "beta"):
        assert main(["solve-coeffs", "--kind", kind, "--config", str(config),
                     "--no-timestamp"]) == 0
        assert main(["bounds", "--kind", kind, "--config", str(config),
                     "--no-timestamp"]) == 0
        assert main(["search", "--kind", kind, "--m", "1", "--lambda", "1",
                     "--samples", "5", "--config", str(config),
                     "--no-timestamp"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["bounds", "search"])
def test_kind_both_takes_both_class_parameters(command, capsys):
    from bifold.cli import main

    extra = ["--samples", "5"] if command == "search" else []
    assert main([command, "--kind", "both", "--m", "1", "--alpha", "1",
                 "--beta", "1/4", "--lambda", "1", *extra,
                 "--no-timestamp"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert [row.split(",")[0] for row in out.splitlines()[1:]] == \
        ["alpha", "beta"]


def test_search_fails_a_cell_with_no_filtered_sample():
    proc = run_cli("search", "--kind", "alpha", "--m", "1", "--alpha", "1",
                   "--lambda", "1", "--samples", "5", "--realizable", "0",
                   "--no-timestamp", check=False)
    assert proc.returncode == 1
    header, row = proc.stdout.splitlines()
    assert dict(zip(header.split(","), row.split(",")))["filtered_count"] \
        == "0"


def test_exact_complex_prints_by_value():
    from fractions import Fraction

    from bifold.cli import _fmt, _jsonable
    from bifold.series import QComplex

    third = Fraction(1, 3)
    assert _fmt(QComplex(third)) == _fmt(third) == "1/3"
    assert _jsonable(QComplex(third)) == _jsonable(third) == "1/3"
    assert _fmt(QComplex(third, -2)) == "1/3-2i"
