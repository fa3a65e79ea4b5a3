"""The package's public names and its start-up: ``__all__`` lists what the
package exports, and importing it, or running a command that makes no
numeric call, does not load numpy."""

import ast
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import graphcurvature
from test_cli import CHILD_ENV
from test_cli_golden import CASES, golden_path, mask, run

SOURCES = sorted(Path(graphcurvature.__file__).parent.glob("*.py"))


def test_all_names_resolve_without_duplicates():
    names = graphcurvature.__all__
    assert [n for n, c in Counter(names).items() if c > 1] == []
    assert [n for n in names if not hasattr(graphcurvature, n)] == []


def test_star_import_exports_all():
    namespace = {}
    exec("from graphcurvature import *", namespace)
    namespace.pop("__builtins__")
    assert namespace.keys() == set(graphcurvature.__all__)
    for name, obj in namespace.items():
        assert obj is getattr(graphcurvature, name)


# numpy loads at the first numeric call: these commands make none, in a new
# process. Each maps to its golden case, or to None when the in-process run
# is the reference.
NUMPY_FREE = {
    "curvature": (["curvature", "icosahedron"], "curvature"),
    "chi_cliques": (["chi", "octahedron"], None),
    "chi_curvature": (["chi", "octahedron", "--method", "curvature"], "chi_curvature"),
    "generate": (["generate", "cycle:n=5"], None),
    "index_function": (["index", "octahedron", "--function", "{function}"], None),
    "verify_gauss_bonnet": (["verify", "icosahedron", "--suite", "gauss_bonnet"], None),
    "verify_transfer": (["verify", "icosahedron", "--suite", "transfer"], None),
}
# Commands that draw an order, so their first numeric call loads numpy.
NUMPY_USING = {
    "chi_index": (CASES["chi_index"], "chi_index"),
    "chi_index_octahedron": (["chi", "octahedron", "--method", "index", "--seed", "1"], None),
}

# Runs the CLI in a new process, then reports on stderr whether numpy loaded.
STARTUP_MAIN = """
import sys
import graphcurvature, graphcurvature.cli
code = graphcurvature.cli.main(sys.argv[1:])
print("numpy" in sys.modules, file=sys.stderr)
sys.exit(code)
"""


def run_new_process(case: str, argv) -> tuple[str, bool]:
    """The masked stdout of ``argv`` in a new process, and whether it loaded numpy."""
    env = {k: v for k, v in CHILD_ENV.items() if k != "DISCRETE_GB_SEED"}
    proc = subprocess.run([sys.executable, "-c", STARTUP_MAIN, *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return mask(case, "human", proc.stdout), proc.stderr.splitlines()[-1] == "True"


def expected_output(case: str, argv, golden: str | None, monkeypatch) -> str:
    if golden is not None:
        return golden_path(golden, "human").read_text()
    monkeypatch.delenv("DISCRETE_GB_SEED", raising=False)
    code, out = run(argv)
    assert code == 0
    return mask(case, "human", out)


def test_import_leaves_numpy_unloaded():
    code = "import sys, graphcurvature, graphcurvature.cli; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=CHILD_ENV)
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


@pytest.mark.parametrize("case", sorted(NUMPY_FREE) + sorted(NUMPY_USING))
def test_numpy_loads_only_for_numeric_commands(case, tmp_path, monkeypatch):
    argv, golden = NUMPY_FREE.get(case) or NUMPY_USING[case]
    function = tmp_path / "f.txt"
    function.write_text("".join(f"{v} {3 * v % 7}\n" for v in range(6)))
    argv = [a.format(function=function) for a in argv]
    out, loaded = run_new_process(case, argv)
    assert loaded == (case in NUMPY_USING)
    assert out == expected_output(case, argv, golden, monkeypatch)


def numpy_imports_run_on_import(source: str) -> list[int]:
    """Lines of numpy imports that run when the module is imported: those
    outside every function body and every ``if TYPE_CHECKING:`` block."""
    lines = []

    def visit(nodes):
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(node, ast.If) and ast.unparse(node.test) in ("TYPE_CHECKING", "typing.TYPE_CHECKING"):
                visit(node.orelse)
                continue
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                modules = []
            if any(m.partition(".")[0] == "numpy" for m in modules):
                lines.append(node.lineno)
            visit(ast.iter_child_nodes(node))

    visit(ast.parse(source).body)
    return lines


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_level_numpy_import(path):
    lines = numpy_imports_run_on_import(path.read_text())
    assert lines == [], f"{path.name} imports numpy at module level on line(s) {lines}"


def test_guard_finds_module_level_imports_only():
    source = (
        "import os, numpy.random\n"
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n    import numpy as np\nelse:\n    from numpy import zeros\n"
        "try:\n    import numpy\nexcept ImportError:\n    pass\n"
        "def f():\n    import numpy as np\n"
        "class C:\n    from numpy import ones\n"
    )
    assert numpy_imports_run_on_import(source) == [1, 6, 8, 14]
