"""Smoke test: every script in demos/ runs to completion."""
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import CHILD_ENV

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("script", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_runs(script, tmp_path):
    # run outside the checkout: 04_case_studies.py writes case_*.csv into
    # its working directory
    proc = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0, proc.stderr
