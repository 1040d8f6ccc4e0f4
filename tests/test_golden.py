"""Byte-for-byte regression of every command's output.

Each case runs one small ``bifold`` command in-process and compares its
stdout, byte for byte, with the file of the same name under ``golden/``.
The files were written by ``python -m bifold <argv>`` before the class
formulas, sampling recipes and invariant checks were given one home each
(``selftest-full.txt`` before the selftest suites began to serve the
acceptance tests too), so they pin the outputs that restructuring must
keep.  A mismatch is a
regression to fix in the code; rewriting a file to match new output defeats
the test.  JSON prints floats at full repr, so equal bytes mean equal bits.
``membership.json``, ``membership-coeffs.{csv,json}`` and
``membership-overflow.{csv,json}`` were re-recorded once, when the grid scan
moved from Horner's rule to one inverse FFT per radius: only worst-margin
digits and witness coordinates moved, each witness to a point of equal
margin in exact arithmetic (a conjugate, rotated or reflected image).
``membership.{csv,json}`` and ``membership-coeffs.json`` were re-recorded
once more, when the float quotient and power moved to Miller's recurrence
(the float division and exp∘log had kept the old scalar loops' bits): only
worst-margin and tail-estimate digits moved, and the ``membership`` f
witness went from z to -conj(z), a point of equal margin, since that Phi is
even with real coefficients; no verdict changed.
``search-sweep.{csv,json}`` were re-recorded once, when the sweep moved from
random atom measures to draws from the Caratheodory coefficient body: every
sampled value and ``argmax_seed`` changed, the filter now holds body draws
as well as the realizable pairs, and every cell still reads
``ceiling_ok`` yes with both ratios at most 1.
``solve-coeffs-realizable-{alpha,beta}.{csv,json}`` were re-recorded once,
when ``with_moments`` replaced its float ``numpy.linalg.solve`` with a
closed form: q's float weights came from a few float operations instead of
LAPACK's LU, so only digits at the 1e-16 level moved (residual columns and
``realizability``, and in ``beta.json`` the last digit of ``abs_a_2m1`` and
``ratio_a_2m1``); p, a_{m+1} and every exact output kept their bits.
``selftest-{quick,full}.txt`` were re-recorded once, when the selftest
sizes stopped switching checks off: the one-fold inverse pattern now runs
on every one-fold draw and the inconclusive guard at its three betas, so
only two check counts moved (inverse-coefficients 48 → 54 and 240 → 260,
membership-sanity 11 → 14) and every line still reads PASS.
"""

import contextlib
import io
import warnings
from pathlib import Path

import pytest

from bifold.cli import main

GOLDEN = Path(__file__).parent / "golden"

# name -> argv; every name except selftest runs as CSV and as JSON
CASES = {
    "bounds": ["bounds", "--kind", "both", "--m", "1,2", "--alpha", "1/2,1",
               "--beta", "0,1/3", "--lambda", "1/3,1"],
    "invert": ["invert", "--m", "2", "--coeffs", "1/2,1/3,-1/5"],
    "verify-inversion": ["verify-inversion", "--m", "1,2,3", "--samples",
                         "4", "--seed", "5"],
    "membership": ["membership", "--name", "mfold-log", "--m", "2",
                   "--kind", "arg", "--alpha", "1/2", "--lambda", "1/2",
                   "--order", "40", "--angles", "60"],
    "membership-coeffs": ["membership", "--coeffs", "1/5,1/10", "--m", "2",
                          "--kind", "re", "--beta", "1/4", "--lambda", "1/3",
                          "--order", "12", "--angles", "60"],
    # f overflows to inf at this order: worst margin inf, tail 0
    "membership-overflow": ["membership", "--coeffs", "60", "--m", "1",
                            "--kind", "re", "--beta", "1/4", "--lambda",
                            "1/3", "--order", "240"],
    "solve-coeffs": ["solve-coeffs", "--kind", "alpha", "--m", "2",
                     "--alpha", "1/2", "--lambda", "1/3", "--seed", "11"],
    "solve-coeffs-realizable-alpha": [
        "solve-coeffs", "--kind", "alpha", "--m", "2", "--alpha", "2/3",
        "--lambda", "1/3", "--seed", "4", "--realizable"],
    "solve-coeffs-realizable-beta": [
        "solve-coeffs", "--kind", "beta", "--m", "3", "--beta", "1/4",
        "--lambda", "1/2", "--seed", "7", "--realizable"],
    "caratheodory-sample": ["caratheodory-sample", "--seed", "2", "--atoms",
                            "4", "--m", "2", "--count", "5"],
    "caratheodory-sample-exact": ["caratheodory-sample", "--seed", "2",
                                  "--atoms", "4", "--m", "2", "--count", "5",
                                  "--exact"],
    "search-sweep": ["search", "--kind", "both", "--m", "1,2", "--samples",
                     "40", "--seed", "3", "--realizable", "2"],
}
FORMATS = {"csv": ["--no-timestamp"],
           "json": ["--format", "json", "--no-timestamp"]}

RUNS = {f"{name}.{ext}": argv + flags
        for name, argv in CASES.items() for ext, flags in FORMATS.items()}
RUNS["selftest-quick.txt"] = ["selftest", "--quick"]
RUNS["selftest-full.txt"] = ["selftest"]


@pytest.mark.parametrize("filename", sorted(RUNS))
def test_output_matches_golden(filename):
    stream = io.StringIO()
    with contextlib.redirect_stdout(stream):
        code = main(RUNS[filename])
    assert code == 0
    expected = (GOLDEN / filename).read_bytes()
    assert stream.getvalue().encode() == expected


def test_every_golden_file_has_a_case():
    # a case deleted without its files would leave them unchecked
    assert {path.name for path in GOLDEN.iterdir()} == set(RUNS)


def test_overflowing_membership_writes_nothing_to_stderr():
    # the float kernels meet inf and nan here; numpy must not warn about it
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(RUNS["membership-overflow.csv"])
    assert code == 0
    assert err.getvalue() == ""
    assert [str(w.message) for w in caught] == []
