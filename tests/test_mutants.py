"""The mutants of ``mutants/run.py`` still find their code: each old snippet
occurs exactly once in its file, so a refactor must carry its mutants along."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def mutant_list():
    spec = importlib.util.spec_from_file_location("mutants_run", ROOT / "mutants" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


MUTANTS = mutant_list()


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_old_snippet_occurs_once(mutant):
    assert (ROOT / mutant.path).read_text().count(mutant.old) == 1
    assert mutant.new != mutant.old
    assert mutant.killers and all((ROOT / node.partition("::")[0]).is_file() for node in mutant.killers)


def test_every_killer_is_collected():
    """Every killer is a test id pytest collects, so a renamed test fails
    here and not only in ``python mutants/run.py``. One child collects them all."""
    killers = sorted({node for m in MUTANTS for node in m.killers})
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *killers],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    collected = set(proc.stdout.splitlines())
    assert [node for node in killers if node not in collected] == [], proc.stdout[-2000:] + proc.stderr[-2000:]
