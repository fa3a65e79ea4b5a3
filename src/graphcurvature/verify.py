"""Pass/fail suites for every identity the library implements.

Each suite takes (name, graph) pairs and returns CheckResult rows: one row
per graph (percolation: an exact row, and a Monte Carlo row when the graph
has edges), plus, in the exact expectation and averaging suites, one SKIP
row per vertex above the degree cap. Skipped checks carry their reason and
are not failures, so dense corpus graphs never block a verification run.
Suite sizes are fixed module constants; a run sets only seed and degree cap.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .cliques import count_cliques, euler_characteristic
from .curvature import curvature, verify_gauss_bonnet, verify_transfer_equations
from .expectation import exact_index_expectation, verify_averaging_equation
from .graphs import Graph
from .morse import (
    IndexCalculator,
    random_order,
    verify_index_stability,
)
from .percolation import (
    clique_survival_integral,
    exact_survival_polynomial,
    survival_exponent,
)
from .trials import DEFAULT_SEED

NamedGraph = tuple[str, Graph]

POINCARE_HOPF_ORDERS = 20
INTERMEDIATE_ORDERS = 5
STABILITY_ORDERS = 50
PERCOLATION_MAX_K = 3
PERCOLATION_TRIALS = 2000

# suite -> the run_suites options its ``<suite>_suite`` function takes.
_SUITE_OPTIONS = {
    "gauss_bonnet": (),
    "poincare_hopf": ("seed",),
    "transfer": (),
    "intermediate": ("seed",),
    "stability": ("seed",),
    "expectation": ("degree_cap",),
    "averaging": ("degree_cap",),
    "percolation": ("seed",),
}
SUITES = tuple(_SUITE_OPTIONS)


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    status: str  # "PASS", "FAIL" or "SKIP"
    detail: str = ""


# The ok of a row whose check was skipped.
SKIP = None


def _rows(suite: str, graphs: Sequence[NamedGraph], check) -> list[CheckResult]:
    """The rows of one suite, graph by graph.

    ``check(G)`` yields one (suffix, ok, detail) per row of graph G; the row
    is named by the graph's name plus ``suffix``; an ok of SKIP marks a
    skipped check.
    """
    return [
        CheckResult(suite, name + suffix, "SKIP" if ok is SKIP else "PASS" if ok else "FAIL", detail)
        for name, G in graphs
        for suffix, ok, detail in check(G)
    ]


def _vertex_rows(G: Graph, degree_cap: int, mismatches, passed: str, failed: str, skipped: str):
    """One row over the vertices of degree <= degree_cap, then one SKIP row
    per vertex above it.

    ``mismatches(G, x)`` lists the failures at vertex x. The row's detail is
    ``passed`` and the count of vertices checked, or ``failed`` and the first
    five failures; a SKIP row names the ``skipped`` enumeration.
    """
    over = [x for x in range(G.n) if G.degree(x) > degree_cap]
    bad = [m for x in range(G.n) if G.degree(x) <= degree_cap for m in mismatches(G, x)]
    yield "", not bad, f"mismatch at {failed} {bad[:5]}" if bad else f"{passed}{G.n - len(over)}/{G.n} vertices"
    for x in over:
        yield f":v{x}", SKIP, f"degree {G.degree(x)} above cap {degree_cap}, {skipped} enumeration skipped"


def gauss_bonnet_suite(graphs: Sequence[NamedGraph]) -> list[CheckResult]:
    """Total curvature equals the clique-route Euler characteristic."""
    def check(G):
        c = verify_gauss_bonnet(G)
        yield "", c.equal, f"sum K = {c.lhs}, chi = {c.rhs}"

    return _rows("gauss_bonnet", graphs, check)


def poincare_hopf_suite(graphs: Sequence[NamedGraph], seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Index sums of random orders all equal the clique-route chi."""
    import numpy as np
    def check(G):
        chi = euler_characteristic(count_cliques(G))
        calc = IndexCalculator(G)
        rng = np.random.default_rng(seed)
        sums = {calc.index_sum(random_order(G.n, rng)) for _ in range(POINCARE_HOPF_ORDERS)}
        yield "", sums == {chi}, f"chi = {chi}, index sums over {POINCARE_HOPF_ORDERS} orders = {sorted(sums)}"

    return _rows("poincare_hopf", graphs, check)


def transfer_suite(graphs: Sequence[NamedGraph]) -> list[CheckResult]:
    """sum_x V_{k-1}(x) = (k+1) v_k for every k."""
    def check(G):
        checks = verify_transfer_equations(G)
        bad = [c.k for c in checks if not c.equal]
        yield "", not bad, f"failed at k = {bad}" if bad else f"{len(checks)} k values"

    return _rows("transfer", graphs, check)


def intermediate_suite(graphs: Sequence[NamedGraph], seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """sum_x W_k(x) = k v_{k+1} for random orders."""
    import numpy as np
    def check(G):
        rng = np.random.default_rng(seed)
        calc = IndexCalculator(G)
        orders = (random_order(G.n, rng) for _ in range(INTERMEDIATE_ORDERS))
        bad = [c for order in orders for c in calc.intermediate_checks(order) if not c.equal]
        yield "", not bad, f"failed rows: {bad[:3]}" if bad else f"{INTERMEDIATE_ORDERS} orders"

    return _rows("intermediate", graphs, check)


def stability_suite(graphs: Sequence[NamedGraph], seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Index sum constant across random orders and a transposition walk."""
    def check(G):
        yield "", verify_index_stability(G, trials=STABILITY_ORDERS, seed=seed), f"{STABILITY_ORDERS} orders + walk"

    return _rows("stability", graphs, check)


def expectation_suite(graphs: Sequence[NamedGraph], degree_cap: int = 16) -> list[CheckResult]:
    """exact_index_expectation equals curvature at every vertex under the cap."""
    def mismatches(G, x):
        return [x] if exact_index_expectation(G, x, degree_cap=degree_cap) != curvature(G, x) else []

    return _rows("expectation", graphs, lambda G: _vertex_rows(
        G, degree_cap, mismatches, "E[i] = K at ", "vertices", "2^degree"))


def averaging_suite(graphs: Sequence[NamedGraph], degree_cap: int = 16) -> list[CheckResult]:
    """E[V_k^-(x)] = V_k(x)/(k+2) at every vertex under the cap."""
    def mismatches(G, x):
        return [(x, c.k) for c in verify_averaging_equation(G, x, degree_cap=degree_cap) if not c.equal]

    return _rows("averaging", graphs, lambda G: _vertex_rows(
        G, degree_cap, mismatches, "", "(vertex, k)", "subset"))


def percolation_suite(graphs: Sequence[NamedGraph], seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Exact survival integrals, plus a short Monte Carlo sanity run.

    For every k <= PERCOLATION_MAX_K with v_k > 0 the polynomial route must
    integrate to v_k/(exponent+1) in both modes; its coefficient counts the
    Monte Carlo engine's event lists, so this checks them against
    count_cliques. One modest site run at k=1 is checked against 1/3 within
    six standard errors.
    """
    def check(G):
        fvec = count_cliques(G)
        bad = []
        for k in range(min(PERCOLATION_MAX_K + 1, len(fvec))):
            for mode in ("site", "bond"):
                poly = exact_survival_polynomial(G, k, mode)
                e = survival_exponent(k, mode)
                if poly.integral() != Fraction(fvec[k], e + 1):
                    bad.append((k, mode))
                if Fraction(poly.integral(), fvec[k]) != Fraction(1, e + 1):
                    bad.append((k, mode, "host dependence"))
        yield ":exact", not bad, "integrals match" if not bad else f"failed: {bad[:4]}"
        if len(fvec) > 1 and fvec[1] > 0:
            s = clique_survival_integral(G, 1, PERCOLATION_TRIALS, seed=seed, mode="site").summary
            ok = s.stderr is not None and abs(s.estimate - 1 / 3) <= 6 * s.stderr
            yield ":mc", ok, f"estimate {s.estimate:.4f} vs 1/3, stderr {s.stderr:.4f}"

    return _rows("percolation", graphs, check)


def run_suites(
    graphs: Sequence[NamedGraph],
    suites: Sequence[str] = SUITES,
    seed: int = DEFAULT_SEED,
    degree_cap: int = 16,
) -> list[CheckResult]:
    options = {"seed": seed, "degree_cap": degree_cap}
    results: list[CheckResult] = []
    for suite in suites:
        if suite not in _SUITE_OPTIONS:
            raise ValueError(f"unknown suite {suite!r}, expected one of {SUITES + ('all',)}")
        # Looked up when it runs, so a suite replaced on this module (as
        # perfbench's tracer does) is the one called.
        run = globals()[f"{suite}_suite"]
        results.extend(run(graphs, **{name: options[name] for name in _SUITE_OPTIONS[suite]}))
    return results


def summarize(results: Sequence[CheckResult]) -> dict:
    counts = Counter(r.status for r in results)
    return {"passed": counts["PASS"], "failed": counts["FAIL"], "skipped": counts["SKIP"],
            "ok": counts["FAIL"] == 0}
