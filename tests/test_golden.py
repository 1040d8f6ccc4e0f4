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
    "search-climb": ["search", "--mode", "climb", "--kind", "both", "--m",
                     "1,2", "--alpha", "1/2", "--beta", "1/4", "--lambda",
                     "1/2,1", "--iterations", "60", "--seed", "9"],
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
