"""Byte-for-byte CLI output against recorded golden files.

Every command runs in every output format with fixed seeds; the output
must match ``tests/golden/<case>.<format>`` exactly, except wall-clock
timings, which are masked before comparison and in the recorded files.

After a deliberate change to the CLI output, re-record the files with

    PYTHONPATH=src python tests/test_cli_golden.py

and review the diff under ``tests/golden/`` before committing it.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import sys
from pathlib import Path

import pytest

from graphcurvature.cli import FORMATS, main

GOLDEN = Path(__file__).resolve().parent / "golden"
FUNCTION_FILE = GOLDEN / "cycle4_function.txt"

# Case name -> argv without --format. Commands that take --seed get one so
# the output does not depend on DISCRETE_GB_SEED.
CASES = {
    "generate": ["generate", "erdos_renyi:n=7,q=0.5,seed=2"],
    "chi_cliques": ["chi", "icosahedron", "--method", "cliques", "--seed", "1"],
    "chi_curvature": ["chi", "octahedron", "--method", "curvature", "--seed", "1"],
    "chi_index": ["chi", "erdos_renyi:n=20,q=0.3,seed=1", "--method", "index", "--seed", "5"],
    "curvature": ["curvature", "icosahedron"],
    "index_seeded": ["index", "erdos_renyi:n=10,q=0.4,seed=3", "--seed", "7"],
    "index_function": ["index", "cycle:n=4", "--function", str(FUNCTION_FILE), "--seed", "1"],
    "expectation_oracle": [
        "expectation", "path:n=4", "--samples", "300", "--seed", "4",
        "--exact", "--permutation-oracle",
    ],
    "expectation": ["expectation", "icosahedron", "--samples", "200", "--seed", "2"],
    "percolation": ["percolation", "icosahedron", "--k", "1", "--trials", "500", "--seed", "8"],
    "percolation_rows": [
        "percolation", "complete:n=5", "--k", "2", "--trials", "50", "--seed", "2", "--rows", "3",
    ],
    "percolation_fixed_p": [
        "percolation", "complete:n=5", "--k", "2", "--trials", "50", "--seed", "2",
        "--rows", "3", "--fixed-p", "0.5", "--mode", "bond",
    ],
    "percolation_grid": [
        "percolation", "complete:n=5", "--k", "1", "--trials", "200", "--seed", "3", "--grid", "4",
    ],
    "verify_skip": ["verify", "star:n=18", "--seed", "1"],
    "bench": ["bench", "--n", "20", "--q", "0.3", "--seeds", "0,1"],
}

# Wall-clock fields, masked only in the commands that print them.
TIMED = ("chi_", "bench")
_HUMAN_MS = re.compile(r"\d+\.\d+ ms\b")
_JSON_MS = re.compile(r'("millis": )("?)[0-9.]+\2')
_CSV_MS = re.compile(r",[0-9.]+$", re.MULTILINE)


def mask(case: str, fmt: str, text: str) -> str:
    if not case.startswith(TIMED):
        return text
    if fmt == "human":
        return _HUMAN_MS.sub("<ms> ms", text)
    if fmt == "json":
        return _JSON_MS.sub(r"\1\2<ms>\2", text)
    head, _, body = text.partition("\n")
    return head + "\n" + _CSV_MS.sub(",<ms>", body)


def run(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def golden_path(case: str, fmt: str) -> Path:
    return GOLDEN / f"{case}.{fmt}"


@pytest.fixture(autouse=True)
def _no_seed_env(monkeypatch):
    monkeypatch.delenv("DISCRETE_GB_SEED", raising=False)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_output_matches_golden(case, fmt):
    code, out = run([*CASES[case], "--format", fmt])
    assert code == 0
    assert mask(case, fmt, out) == golden_path(case, fmt).read_text()


def test_output_file_matches_golden(tmp_path):
    path = tmp_path / "out.json"
    code, out = run([*CASES["index_seeded"], "--format", "json", "--output", str(path)])
    assert code == 0 and out == ""
    assert path.read_text() == golden_path("index_seeded", "json").read_text()


def record() -> None:
    os.environ.pop("DISCRETE_GB_SEED", None)
    for case, argv in sorted(CASES.items()):
        for fmt in FORMATS:
            code, out = run([*argv, "--format", fmt])
            if code != 0:
                sys.exit(f"{case} --format {fmt} exited {code}")
            golden_path(case, fmt).write_text(mask(case, fmt, out))


if __name__ == "__main__":
    record()
