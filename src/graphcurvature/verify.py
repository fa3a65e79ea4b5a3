"""Pass/fail suites for every identity the library implements.

Each suite takes (name, graph) pairs and returns CheckResult rows. Checks
that would exceed a degree cap are reported as skipped with a reason, not
as failures, so dense corpus graphs never block a verification run.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .cliques import count_cliques, euler_characteristic
from .curvature import curvature, verify_gauss_bonnet, verify_transfer_equations
from .expectation import (
    DegreeCapError,
    exact_index_expectation,
    verify_averaging_equation,
)
from .graphs import Graph
from .morse import (
    IndexCalculator,
    random_order,
    verify_index_stability,
    verify_intermediate_equations,
)
from .percolation import (
    clique_survival_integral,
    exact_survival_polynomial,
    survival_exponent,
)
from .trials import DEFAULT_SEED

NamedGraph = tuple[str, Graph]

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
    ok: bool
    skipped: bool = False
    detail: str = ""

    @property
    def status(self) -> str:
        if self.skipped:
            return "SKIP"
        return "PASS" if self.ok else "FAIL"

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "name": self.name,
            "status": self.status,
            "detail": self.detail,
        }


def gauss_bonnet_suite(graphs: Sequence[NamedGraph]) -> list[CheckResult]:
    """Total curvature equals the clique-route Euler characteristic."""
    out = []
    for name, G in graphs:
        rep = verify_gauss_bonnet(G)
        out.append(
            CheckResult(
                suite="gauss_bonnet",
                name=name,
                ok=rep.equal,
                detail=f"sum K = {rep.lhs}, chi = {rep.rhs}",
            )
        )
    return out


def poincare_hopf_suite(
    graphs: Sequence[NamedGraph], orders: int = 20, seed: int = DEFAULT_SEED
) -> list[CheckResult]:
    """Index sums of random orders all equal the clique-route chi."""
    out = []
    for name, G in graphs:
        chi = euler_characteristic(count_cliques(G))
        calc = IndexCalculator(G)
        rng = np.random.default_rng(seed)
        sums = {calc.index_sum(random_order(G.n, rng)) for _ in range(orders)}
        ok = sums == {chi}
        out.append(
            CheckResult(
                suite="poincare_hopf",
                name=name,
                ok=ok,
                detail=f"chi = {chi}, index sums over {orders} orders = {sorted(sums)}",
            )
        )
    return out


def transfer_suite(graphs: Sequence[NamedGraph]) -> list[CheckResult]:
    """sum_x V_{k-1}(x) = (k+1) v_k for every k."""
    out = []
    for name, G in graphs:
        checks = verify_transfer_equations(G)
        bad = [c for c in checks if not c.equal]
        out.append(
            CheckResult(
                suite="transfer",
                name=name,
                ok=not bad,
                detail=f"{len(checks)} k values" if not bad else f"failed at k = {[c.k for c in bad]}",
            )
        )
    return out


def intermediate_suite(
    graphs: Sequence[NamedGraph], orders: int = 5, seed: int = DEFAULT_SEED
) -> list[CheckResult]:
    """sum_x W_k(x) = k v_{k+1} for random orders."""
    out = []
    for name, G in graphs:
        rng = np.random.default_rng(seed)
        bad = []
        for _ in range(orders):
            f = random_order(G.n, rng)
            bad.extend(c for c in verify_intermediate_equations(G, f) if not c.equal)
        out.append(
            CheckResult(
                suite="intermediate",
                name=name,
                ok=not bad,
                detail=f"{orders} orders" if not bad else f"failed rows: {bad[:3]}",
            )
        )
    return out


def stability_suite(
    graphs: Sequence[NamedGraph], trials: int = 50, seed: int = DEFAULT_SEED
) -> list[CheckResult]:
    """Index sum constant across random orders and a transposition walk."""
    out = []
    for name, G in graphs:
        ok = verify_index_stability(G, trials=trials, seed=seed)
        out.append(CheckResult(suite="stability", name=name, ok=ok, detail=f"{trials} orders + walk"))
    return out


def expectation_suite(graphs: Sequence[NamedGraph], degree_cap: int = 16) -> list[CheckResult]:
    """exact_index_expectation equals curvature at every vertex under the cap."""
    out = []
    for name, G in graphs:
        bad = []
        skipped = []
        for x in range(G.n):
            if G.degree(x) > degree_cap:
                skipped.append(x)
                continue
            if exact_index_expectation(G, x, degree_cap=degree_cap) != curvature(G, x):
                bad.append(x)
        checked = G.n - len(skipped)
        out.append(
            CheckResult(
                suite="expectation",
                name=name,
                ok=not bad,
                detail=(
                    f"E[i] = K at {checked}/{G.n} vertices"
                    if not bad
                    else f"mismatch at vertices {bad[:5]}"
                ),
            )
        )
        for x in skipped:
            out.append(
                CheckResult(
                    suite="expectation",
                    name=f"{name}:v{x}",
                    ok=True,
                    skipped=True,
                    detail=f"degree {G.degree(x)} above cap {degree_cap}, 2^degree enumeration skipped",
                )
            )
    return out


def averaging_suite(graphs: Sequence[NamedGraph], degree_cap: int = 16) -> list[CheckResult]:
    """E[V_k^-(x)] = V_k(x)/(k+2) at every vertex under the cap."""
    out = []
    for name, G in graphs:
        bad = []
        skipped = []
        for x in range(G.n):
            try:
                checks = verify_averaging_equation(G, x, degree_cap=degree_cap)
            except DegreeCapError:
                skipped.append(x)
                continue
            bad.extend((x, c.k) for c in checks if not c.equal)
        out.append(
            CheckResult(
                suite="averaging",
                name=name,
                ok=not bad,
                detail=(
                    f"{G.n - len(skipped)}/{G.n} vertices"
                    if not bad
                    else f"mismatch at (vertex, k) {bad[:5]}"
                ),
            )
        )
        for x in skipped:
            out.append(
                CheckResult(
                    suite="averaging",
                    name=f"{name}:v{x}",
                    ok=True,
                    skipped=True,
                    detail=f"degree {G.degree(x)} above cap {degree_cap}, subset enumeration skipped",
                )
            )
    return out


def percolation_suite(
    graphs: Sequence[NamedGraph],
    max_k: int = 3,
    trials: int = 2000,
    seed: int = DEFAULT_SEED,
) -> list[CheckResult]:
    """Exact survival integrals, plus a short Monte Carlo sanity run.

    For every k with v_k > 0 the polynomial route must integrate to
    v_k/(exponent+1) in both modes. One modest site run at k=1 is checked
    against 1/3 within six standard errors.
    """
    out = []
    for name, G in graphs:
        fvec = count_cliques(G)
        bad = []
        for k in range(min(max_k + 1, len(fvec))):
            for mode in ("site", "bond"):
                poly = exact_survival_polynomial(G, k, mode)
                e = survival_exponent(k, mode)
                if poly.integral() != Fraction(fvec[k], e + 1):
                    bad.append((k, mode))
                if Fraction(poly.integral(), fvec[k]) != Fraction(1, e + 1):
                    bad.append((k, mode, "host dependence"))
        out.append(
            CheckResult(
                suite="percolation",
                name=f"{name}:exact",
                ok=not bad,
                detail="integrals match" if not bad else f"failed: {bad[:4]}",
            )
        )
        if len(fvec) > 1 and fvec[1] > 0:
            rep = clique_survival_integral(G, 1, trials, seed=seed, mode="site")
            s = rep.summary
            err = abs(s.estimate - 1 / 3)
            ok = s.stderr is not None and err <= 6 * s.stderr
            out.append(
                CheckResult(
                    suite="percolation",
                    name=f"{name}:mc",
                    ok=ok,
                    detail=f"estimate {s.estimate:.4f} vs 1/3, stderr {s.stderr:.4f}",
                )
            )
    return out


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
    passed = sum(1 for r in results if r.ok and not r.skipped)
    failed = sum(1 for r in results if not r.ok)
    skipped = sum(1 for r in results if r.skipped)
    return {"passed": passed, "failed": failed, "skipped": skipped, "ok": failed == 0}
