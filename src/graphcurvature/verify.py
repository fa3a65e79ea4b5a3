"""Pass/fail suites for every identity the library implements.

Each ``<suite>_suite`` checks one graph's ``GraphFacts`` and returns its
(suffix, ok, detail) rows: one row (percolation: an exact row, and a Monte
Carlo row when the graph has edges), plus, in the exact expectation and
averaging suites, one SKIP row per vertex above the degree cap.
``run_suites`` runs each suite over every graph and names each row by its
graph. Skipped checks carry their reason and are not failures, so dense
corpus graphs never block a verification run. Suite sizes are fixed module
constants; a run sets only seed and degree cap, which the facts carry.

Every suite reads the same ``GraphFacts`` per graph, so the facts several
suites read are computed once per run; the three suites that draw random
orders read disjoint slices of its one order stream.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb
from typing import Sequence

from .cliques import FVector, cliques_of_size, count_cliques, euler_characteristic
from .corpus import NamedGraph
from .curvature import curvature, gauss_bonnet_check, transfer_checks
from .expectation import (
    _subset_tables,
    averaging_checks,
    chi_by_subset_size,
    clique_counts_by_subset_size,
    expected_index,
)
from .graphs import Graph
from .morse import IndexCalculator, verify_index_stability
from .percolation import (
    clique_survival_integral,
    exact_survival_polynomial,
    shared_draws,
    survival_exponent,
)
from .trials import DEFAULT_SEED

POINCARE_HOPF_ORDERS = 20
INTERMEDIATE_ORDERS = 5
STABILITY_ORDERS = 50
PERCOLATION_MAX_K = 3
PERCOLATION_TRIALS = 2000

SUITES = ("gauss_bonnet", "poincare_hopf", "transfer", "intermediate",
          "stability", "expectation", "averaging", "percolation")


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    status: str  # "PASS", "FAIL" or "SKIP"
    detail: str = ""


class GraphFacts:
    """What the suites read about one graph, each fact computed on first use.

    Each fact comes from the function that computes it outside this module,
    and no fact is both sides of one identity: index sums meet the clique
    chi, sphere sums meet the clique f-vector, and the subset dynamic
    program meets the sphere curvature and the calculator's sphere counts.
    ``suites`` names the suites that will read the facts, so that only
    the subset tables they check are summed; ``seed`` seeds the graph's
    random orders and its percolation trials; the table suites check the
    vertices of degree at most ``degree_cap``. ``closed_forms`` holds the
    closed-form tables by their whole input, (V(x), deg x), so the graphs
    of one run can share it.
    """

    def __init__(self, G: Graph, suites: Sequence[str], seed: int, degree_cap: int,
                 closed_forms: dict[tuple[FVector, int], tuple]):
        self.G = G
        self.suites = suites
        self.seed = seed
        self.degree_cap = degree_cap
        self.closed_forms = closed_forms
        self._subset_sums: dict[int, tuple] = {}

    @cached_property
    def orders(self):
        """The graph's one stream of random orders, the rows of one numpy
        array drawn from one ``default_rng(seed)``: ``poincare_hopf`` reads
        the first POINCARE_HOPF_ORDERS, ``intermediate`` the next
        INTERMEDIATE_ORDERS and ``stability`` the rest, its walk's start
        last, so no suite re-checks another's orders. Each suite converts
        the rows it reads with ``tolist``, so its orders hold Python ints."""
        import numpy as np
        rng = np.random.default_rng(self.seed)
        count = POINCARE_HOPF_ORDERS + INTERMEDIATE_ORDERS + STABILITY_ORDERS + 1
        # One call shuffles each row in turn, in place, drawing what
        # ``count`` ``random_order(n, rng)`` calls would.
        rows = np.tile(np.arange(self.G.n), (count, 1))
        return rng.permuted(rows, axis=1, out=rows)

    @cached_property
    def fvec(self) -> FVector:
        """The clique f-vector, by ``count_cliques``."""
        return count_cliques(self.G)

    @cached_property
    def calc(self) -> IndexCalculator:
        """One IndexCalculator, so every suite shares its chi memo and its
        sphere clique totals."""
        return IndexCalculator(self.G)

    @cached_property
    def curvatures(self) -> tuple[Fraction, ...]:
        """K(x) at every vertex, by ``curvature``, which counts the spheres
        on a route of its own, ``vertex_clique_degrees``; the other suites
        read the sphere f-vectors from the calculator's ``sphere_fvec``."""
        return tuple(curvature(self.G, x) for x in range(self.G.n))

    def subset_sums(self, x: int) -> tuple:
        """``chi_by_subset_size`` and ``clique_counts_by_subset_size`` at x,
        both from one ``_subset_tables`` build, dropped on return. Each is
        None unless its suite (``expectation``, ``averaging``) is in
        ``suites``."""
        sums = self._subset_sums.get(x)
        if sums is None:
            G, tables = self.G, _subset_tables(self.G, x)
            sums = self._subset_sums[x] = (
                chi_by_subset_size(G, x, tables=tables) if "expectation" in self.suites else None,
                clique_counts_by_subset_size(G, x, tables=tables) if "averaging" in self.suites else None,
            )
        return sums

    def closed_form_counts(self, x: int) -> tuple[tuple[int, ...], ...]:
        """Entry [m][k]: V_k(x) C(d-k-1, m-k-1), as each (k+1)-clique of the
        sphere lies in that many of its m-subsets; V from the calculator's
        ``sphere_fvec``, the table built once per (V, d) in ``closed_forms``."""
        V, d = self.calc.sphere_fvec(x), self.G.degree(x)
        key = (V, d)
        table = self.closed_forms.get(key)
        if table is None:
            table = self.closed_forms[key] = tuple(
                tuple(v * comb(d - k - 1, m - k - 1) if m > k else 0 for k, v in enumerate(V))
                for m in range(d + 1))
        return table


# The ok of a row whose check was skipped.
SKIP = None

# A suite's row of one graph: (suffix to the graph's name, ok, detail).
Row = tuple[str, bool | None, str]


def _vertex_rows(F: GraphFacts, mismatches, passed: str, failed: str, skipped: str) -> list[Row]:
    """One row over the vertices of degree <= F.degree_cap, then one SKIP
    row per vertex above it.

    ``mismatches(x)`` lists the failures at vertex x. The row's detail is
    ``passed`` and the count of vertices checked, or ``failed`` and the first
    five failures; a SKIP row names the ``skipped`` enumeration.
    """
    G, cap = F.G, F.degree_cap
    over = [x for x in range(G.n) if G.degree(x) > cap]
    bad = [m for x in range(G.n) if G.degree(x) <= cap for m in mismatches(x)]
    rows = [("", not bad, f"mismatch at {failed} {bad[:5]}" if bad else f"{passed}{G.n - len(over)}/{G.n} vertices")]
    rows += [(f":v{x}", SKIP, f"degree {G.degree(x)} above cap {cap}, {skipped} enumeration skipped") for x in over]
    return rows


def gauss_bonnet_suite(F: GraphFacts) -> list[Row]:
    """Total curvature equals the clique-route Euler characteristic."""
    c = gauss_bonnet_check(F.curvatures, F.fvec)
    return [("", c.equal, f"sum K = {c.lhs}, chi = {c.rhs}")]


def poincare_hopf_suite(F: GraphFacts) -> list[Row]:
    """Index sums of random orders all equal the clique-route chi."""
    chi = euler_characteristic(F.fvec)
    sums = {F.calc.index_sum(order.tolist()) for order in F.orders[:POINCARE_HOPF_ORDERS]}
    return [("", sums == {chi}, f"chi = {chi}, index sums over {POINCARE_HOPF_ORDERS} orders = {sorted(sums)}")]


def transfer_suite(F: GraphFacts) -> list[Row]:
    """sum_x V_{k-1}(x) = (k+1) v_k for every k."""
    checks = transfer_checks([F.calc.sphere_fvec(x) for x in range(F.G.n)], F.fvec)
    bad = [c.k for c in checks if not c.equal]
    return [("", not bad, f"failed at k = {bad}" if bad else f"{len(checks)} k values")]


def intermediate_suite(F: GraphFacts) -> list[Row]:
    """sum_x W_k(x) = k v_{k+1} for random orders."""
    orders = F.orders[POINCARE_HOPF_ORDERS:POINCARE_HOPF_ORDERS + INTERMEDIATE_ORDERS]
    bad = [c for order in orders for c in F.calc.intermediate_checks(order.tolist(), F.fvec) if not c.equal]
    return [("", not bad, f"failed rows: {bad[:3]}" if bad else f"{INTERMEDIATE_ORDERS} orders")]


def stability_suite(F: GraphFacts) -> list[Row]:
    """Index sum constant across random orders and a transposition walk."""
    *orders, start = F.orders[POINCARE_HOPF_ORDERS + INTERMEDIATE_ORDERS:]
    ok = verify_index_stability(F.calc, (order.tolist() for order in orders), start.tolist())
    return [("", ok, f"{STABILITY_ORDERS} orders + walk")]


def expectation_suite(F: GraphFacts) -> list[Row]:
    """The subset dynamic program's E[i_f(x)] equals curvature at every
    vertex under the cap, and its chi sums equal their closed form."""
    def mismatches(x):
        chi = F.subset_sums(x)[0]
        closed = tuple(sum(-c if k % 2 else c for k, c in enumerate(row)) for row in F.closed_form_counts(x))
        return [] if expected_index(chi) == F.curvatures[x] and chi == closed else [x]

    return _vertex_rows(F, mismatches, "E[i] = K at ", "vertices", "2^degree")


def averaging_suite(F: GraphFacts) -> list[Row]:
    """E[V_k^-(x)] = V_k(x)/(k+2) at every vertex under the cap, and every
    entry of the clique-count table equals its closed form."""
    def mismatches(x):
        counts = F.subset_sums(x)[1]
        means = averaging_checks(counts)
        got, want = list(zip(*counts)), list(zip(*F.closed_form_counts(x)))
        return [(x, k) for k in range(max(len(got), len(want)))
                if got[k:k + 1] != want[k:k + 1] or not means[k].equal]

    return _vertex_rows(F, mismatches, "", "(vertex, k)", "subset")


def percolation_suite(F: GraphFacts) -> list[Row]:
    """Exact survival integrals, plus a short Monte Carlo sanity run.

    For every k <= PERCOLATION_MAX_K with v_k > 0 the polynomial route must
    integrate to v_k/(exponent+1) in both modes; its coefficient counts the
    Monte Carlo engine's event lists, built from one host listing per k, so
    this checks them against count_cliques. One modest site run at k=1 is
    checked against 1/3 within six standard errors; inside ``run_suites``
    every graph's run reads the same trial rows, drawn once.
    """
    G, fvec = F.G, F.fvec
    bad = []
    for k in range(min(PERCOLATION_MAX_K + 1, len(fvec))):
        hosts = cliques_of_size(G, k + 1)
        for mode in ("site", "bond"):
            poly = exact_survival_polynomial(G, k, mode, hosts=hosts)
            if poly.integral() != Fraction(fvec[k], survival_exponent(k, mode) + 1):
                bad.append((k, mode))
    rows = [(":exact", not bad, "integrals match" if not bad else f"failed: {bad[:4]}")]
    if len(fvec) > 1 and fvec[1] > 0:
        s = clique_survival_integral(G, 1, PERCOLATION_TRIALS, seed=F.seed, mode="site").summary
        ok = s.stderr is not None and abs(s.estimate - 1 / 3) <= 6 * s.stderr
        rows.append((":mc", ok, f"estimate {s.estimate:.4f} vs 1/3, stderr {s.stderr:.4f}"))
    return rows


def run_suites(
    graphs: Sequence[NamedGraph],
    suites: Sequence[str] = SUITES,
    seed: int = DEFAULT_SEED,
    degree_cap: int = 16,
) -> list[CheckResult]:
    """Every suite's rows, the suites in the order given, each row named by
    its graph's name and the row's suffix.

    Every suite name is checked before any suite runs. The suites share
    one ``GraphFacts`` per graph, the graphs one table of closed forms and,
    in one ``shared_draws`` block, one drawing of the percolation trials;
    all are dropped on return.
    """
    for suite in suites:
        if suite not in SUITES:
            raise ValueError(f"unknown suite {suite!r}, expected one of {SUITES + ('all',)}")
    closed_forms: dict = {}
    facts = [(name, GraphFacts(G, suites, seed, degree_cap, closed_forms)) for name, G in graphs]
    results: list[CheckResult] = []
    with shared_draws():
        for suite in suites:
            # Suite by suite, each over every graph: graph by graph gave the
            # same rows but timed the corpus run 0.281 -> 0.307 s (slower in 6
            # of 6 pairs, 2-CPU VM), though each suite alone timed the same.
            # Looked up when it runs, so a suite replaced on this module (as
            # perfbench's tracer does) is the one called.
            check = globals()[f"{suite}_suite"]
            results.extend(CheckResult(suite, name + suffix, "SKIP" if ok is SKIP else "PASS" if ok else "FAIL",
                                       detail) for name, F in facts for suffix, ok, detail in check(F))
    return results


def summarize(results: Sequence[CheckResult]) -> dict:
    counts = Counter(r.status for r in results)
    return {"passed": counts["PASS"], "failed": counts["FAIL"], "skipped": counts["SKIP"],
            "ok": counts["FAIL"] == 0}
