"""Every script in demos/ runs to completion from the checkout."""

import sys
from pathlib import Path

import pytest

from test_cli import run_child

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(demo):
    proc = run_child([sys.executable, str(demo)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
