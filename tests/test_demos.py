"""Every demo script runs to completion against the library in src/."""

import pytest

from launcher import ROOT, run_python

DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    proc = run_python(demo, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
