"""The four benchmark workloads: seeded inputs, one timed op, and its checks.

An op calls graphcurvature only through its public functions and the CLI's
``main``. Its check returns a list of problems; an empty list means the op
was correct. Checks compare against references the program did not
compute, or against row counts recorded at the commit that defined the
benchmark, so an op that skips work fails.
"""
from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import inputs
from tracer import SUITES

GEOMETRIC_N = 20_000
GEOMETRIC_MEAN_DEGREE = 8
MC_SAMPLES = 100_000
# Estimates must lie within this many standard errors of the exact value.
# Fourteen such checks run per op; at 5 the chance that a correct program
# fails one on a given seed is about 1e-5 (at 4 it would be about 1e-3).
MC_Z = 5.0
DENSE_DEGREE_CAP = 18


@dataclass
class Context:
    """What an op sees: the program, its seed and the benchmark's inputs."""

    gc: Any  # the graphcurvature package
    cli: Any  # graphcurvature.cli
    seed: int
    workers: int
    workdir: Path
    text: str = ""  # edge-list input, for workloads that have one
    path: Path | None = None  # the same input written to a file
    expected: dict = field(default_factory=dict)  # references for the checks
    phases: dict[str, list[float]] = field(default_factory=dict)

    def phase(self, name: str, seconds: float):
        self.phases.setdefault(name, []).append(seconds)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_inputs: Callable[[Context], list[str]]  # fills ctx, returns texts to fingerprint
    op: Callable[[Context], Any]
    check: Callable[[Context, Any], list[str]]
    expected_layers: tuple[str, ...]
    # Program-side set-up, timed in setup_s: Python statements run after
    # `import graphcurvature`, in the benchmark's process and in each timed
    # set-up process.
    prepare: str = ""
    prepare_span: str | None = None
    # The op keeps ctx.workers threads busy, so its calibration bursts run
    # on as many threads (see calibration.py).
    threaded: bool = False


# ------------------------------------------------------------ chi_geometric

def geometric_inputs(ctx: Context) -> list[str]:
    ctx.text = inputs.geometric_torus_text(GEOMETRIC_N, GEOMETRIC_MEAN_DEGREE,
                                           inputs.input_seed(ctx.seed))
    return [ctx.text]


def chi_op(ctx: Context):
    gc = ctx.gc
    G = gc.loads(ctx.text)
    return (G, gc.graph_euler_characteristic(G), gc.curvature_field(G).total,
            gc.poincare_hopf_chi(G, gc.random_order(G.n, ctx.seed)))


def chi_check(ctx: Context, result) -> list[str]:
    G, by_cliques, by_curvature, by_index = result
    fp = ctx.expected["fingerprint"]
    chi = inputs.euler_characteristic(fp.fvector)
    problems = []
    if (G.n, G.edge_count) != (fp.n, fp.m):
        problems.append(f"parsed n={G.n}, m={G.edge_count}; generated n={fp.n}, m={fp.m}")
    routes = {"cliques": by_cliques, "curvature": by_curvature, "index": by_index}
    problems += [f"chi by {route} = {value}, expected {chi}"
                 for route, value in routes.items() if value != chi]
    return problems


# -------------------------------------------------------------- monte_carlo

def icosahedron_inputs(ctx: Context) -> list[str]:
    ctx.text = inputs.icosahedron_text()
    return [ctx.text]


def mc_op(ctx: Context):
    gc = ctx.gc
    G = gc.loads(ctx.text)
    t0 = perf_counter()
    plan = gc.TrialPlan(samples=MC_SAMPLES, master_seed=ctx.seed, workers=ctx.workers)
    expectation = gc.mc_index_expectation(G, plan)
    t1 = perf_counter()
    site = gc.clique_survival_integral(G, 2, MC_SAMPLES, seed=ctx.seed, mode="site",
                                       workers=ctx.workers)
    bond = gc.clique_survival_integral(G, 1, MC_SAMPLES, seed=ctx.seed, mode="bond",
                                       workers=ctx.workers)
    t2 = perf_counter()
    ctx.phase("expectation_s", t1 - t0)
    ctx.phase("percolation_s", t2 - t1)
    return expectation, site.summary, bond.summary


def _within(label, estimate, stderr, exact) -> list[str]:
    if stderr is None or not stderr > 0:
        return [f"{label}: no standard error ({stderr})"]
    if abs(estimate - exact) > MC_Z * stderr:
        return [f"{label}: estimate {estimate} is {abs(estimate - exact) / stderr:.1f} "
                f"stderr from {exact}"]
    return []


def mc_check(ctx: Context, result) -> list[str]:
    expectation, site, bond = result
    fp = ctx.expected["fingerprint"]
    K = Fraction(1, 6)  # icosahedron: 1 - 5/2 + 5/3
    rows = expectation.rows
    problems = []
    if [r.vertex for r in rows] != list(range(fp.n)):
        problems.append(f"expectation rows for vertices {[r.vertex for r in rows]}")
    for r in rows:
        if r.samples != MC_SAMPLES or r.curvature != K:
            problems.append(f"vertex {r.vertex}: samples {r.samples}, curvature {r.curvature}")
        problems += _within(f"E[i(x)] at {r.vertex}", r.estimate, r.stderr, float(K))
    # Every order's indices sum to chi = 2 (Poincare-Hopf), so the row means do too.
    if abs(sum(r.estimate for r in rows) - inputs.euler_characteristic(fp.fvector)) > 1e-9:
        problems.append(f"row estimates sum to {sum(r.estimate for r in rows)}")
    for s, k, hosts, exact in ((site, 2, fp.fvector[2], Fraction(1, 4)),
                               (bond, 1, fp.fvector[1], Fraction(1, 2))):
        if (s.k, s.trials, s.host_count, s.exact) != (k, MC_SAMPLES, hosts, exact):
            problems.append(f"{s.mode}: k={s.k} trials={s.trials} hosts={s.host_count} "
                            f"exact={s.exact}")
        problems += _within(f"{s.mode} survival", s.estimate, s.stderr, float(exact))
    return problems


# ----------------------------------------------------------- verify workloads

# PASS and SKIP rows per suite of `graphcurv verify` on the built-in corpus,
# recorded at the commit that defined this benchmark. The corpus is fixed,
# so they do not depend on the seed. A verify that drops checks fails here.
CORPUS_ROWS = {
    "PASS": {"averaging": 66, "expectation": 66, "gauss_bonnet": 66, "intermediate": 66,
             "percolation": 131, "poincare_hopf": 66, "stability": 66, "transfer": 66},
    "SKIP": {},
}


def corpus_graphs(ctx: Context):
    """The graphs `graphcurv verify` runs on when given no graph."""
    corpus = ctx.gc.corpus
    return corpus.base_corpus() + corpus.er_corpus(20)


# The corpus build, from empty caches as in a new process.
CORPUS_BUILD = """
corpus = graphcurvature.corpus
corpus.base_corpus.cache_clear()
corpus.er_corpus.cache_clear()
corpus.base_corpus() + corpus.er_corpus(20)
"""


def corpus_inputs(ctx: Context) -> list[str]:
    ctx.expected["rows"] = CORPUS_ROWS
    return [inputs.edge_list_text(G.n, G.edges) for _, G in corpus_graphs(ctx)]


def _verify(ctx: Context, *args: str):
    out = ctx.workdir / "verify.json"
    rc = ctx.cli.main(["verify", *args, "--seed", str(ctx.seed), "--format", "json",
                       "--output", str(out)])
    return rc, out


def verify_check(ctx: Context, result) -> list[str]:
    rc, out = result
    problems = [] if rc == 0 else [f"exit code {rc}"]
    try:
        report = json.loads(out.read_text())
    except (OSError, ValueError) as exc:
        return problems + [f"no JSON report: {exc}"]
    finally:
        if out.exists():
            out.unlink()
    rows = Counter((r["status"], r["suite"]) for r in report["results"])
    for status in ("PASS", "FAIL", "SKIP"):
        got = {suite: c for (st, suite), c in sorted(rows.items()) if st == status}
        want = ctx.expected["rows"].get(status, {})
        if got != want:
            problems.append(f"{status} rows per suite {got}, expected {want}")
    return problems


def corpus_op(ctx: Context):
    return _verify(ctx)


# -------------------------------------------------------------- exact_dense

def dense_inputs(ctx: Context) -> list[str]:
    ctx.text = inputs.dense_text(inputs.input_seed(ctx.seed))
    ctx.path = ctx.workdir / "dense.txt"
    ctx.path.write_text(ctx.text)
    n, edges = inputs.parse_edges(ctx.text)
    degree = Counter(v for e in edges for v in e)
    over = sum(1 for v in range(n) if degree[v] > DENSE_DEGREE_CAP)
    ctx.expected["rows"] = {
        "PASS": {s: 2 if s == "percolation" else 1 for s in SUITES},
        "SKIP": {"averaging": over, "expectation": over} if over else {},
    }
    return [ctx.text]


def dense_op(ctx: Context):
    return _verify(ctx, str(ctx.path), "--degree-cap", str(DENSE_DEGREE_CAP))


VERIFY_LAYERS = (
    "cli.main", *(f"verify.{s}" for s in SUITES),
    "cliques.count_cliques", "cliques.count_cliques_in_mask", "cliques.cliques_of_size",
    "cliques.vertex_clique_degrees", "curvature.curvature", "graphs.induced_subgraph",
    "morse.IndexCalculator.init", "morse.index", "morse.verify_index_stability",
    "expectation.chi_by_subset_size", "expectation.clique_counts_by_subset_size",
    "percolation.clique_survival_integral", "trials.trial_rng", "trials.map_reduce",
)

WORKLOADS = {w.name: w for w in (
    Workload(
        name="chi_geometric",
        why="chi three ways on a 20000-vertex random geometric graph: parsing, n-bit "
            "adjacency masks, sphere extraction, clique enumeration and the index route",
        make_inputs=geometric_inputs, op=chi_op, check=chi_check,
        expected_layers=(
            "graphs.loads", "graphs.adjacency_masks", "graphs.induced_subgraph",
            "cliques.count_cliques", "cliques.count_cliques_in_mask",
            "cliques.vertex_clique_degrees", "curvature.curvature_field",
            "curvature.curvature", "morse.IndexCalculator.init", "morse.index"),
    ),
    Workload(
        name="monte_carlo",
        why="1e5-sample index expectation and site and bond clique survival on the "
            "icosahedron: per-trial seeding, the thread pool and chi-memo hits",
        make_inputs=icosahedron_inputs, op=mc_op, check=mc_check, threaded=True,
        expected_layers=(
            "graphs.loads", "expectation.mc_index_expectation", "morse.IndexCalculator.init",
            "morse.index", "cliques.count_cliques_in_mask", "cliques.cliques_of_size",
            "curvature.curvature", "percolation.clique_survival_integral",
            "trials.trial_rng", "trials.map_reduce"),
    ),
    Workload(
        name="verify_corpus",
        why="graphcurv verify on the 66-graph built-in corpus, all 8 suites: many short "
            "Monte Carlo runs, tiny sphere enumerations and CLI rendering",
        make_inputs=corpus_inputs, op=corpus_op, check=verify_check,
        expected_layers=VERIFY_LAYERS + ("corpus.build",),
        prepare=CORPUS_BUILD, prepare_span="corpus.build",
    ),
    Workload(
        name="exact_dense",
        why="graphcurv verify on a dense 36-vertex graph at degree cap 18: the exact "
            "2^degree subset dynamic program does most of the work",
        make_inputs=dense_inputs, op=dense_op, check=verify_check,
        expected_layers=VERIFY_LAYERS + ("graphs.loads",),
    ),
)}
