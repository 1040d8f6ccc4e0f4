"""Every script in demos/ runs to completion."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.name)
def test_demo_exits_zero(script):
    proc = subprocess.run([sys.executable, str(script)], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr


def test_readme_library_tour_runs():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    tour = readme.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(tour, "README.md", "exec"), {})
