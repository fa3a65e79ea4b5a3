"""Command-line front end: graphcurv <command> [options].

Graph sources are either a file path (edge-list text or JSON) or a
generator spec like "cycle:n=6", "erdos_renyi:n=30,q=0.2,seed=4", or
"icosahedron". Exit codes: 0 success, 1 verification failure, 2 usage or
parse error. The environment variable DISCRETE_GB_SEED overrides the
built-in default seed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, is_dataclass
from fractions import Fraction

from .cliques import graph_euler_characteristic
from .corpus import base_corpus, er_corpus
from .curvature import curvature_field
from .expectation import (
    MAX_SUBSET_DEGREE,
    exact_expectation_by_permutations,
    exact_index_expectation,
    mc_index_expectation,
)
from .graphs import GENERATORS, Graph, generate, load, to_edge_list, to_json
from .morse import index_report, order_from_values, poincare_hopf_chi, random_order
from .percolation import MODES, clique_survival_integral, survival_grid
from .trials import DEFAULT_SEED, TrialPlan
from .verify import SUITES, run_suites, summarize

FORMATS = ("json", "csv", "human")
# Most p midpoints ``percolation --grid`` sweeps: about 1.2 MB of JSON rows.
MAX_GRID_POINTS = 10_000
# Python's digit limit for int(str); Fraction("1eK") builds a K-digit number.
_MAX_EXPONENT = sys.int_info.default_max_str_digits


def parse_number(kind, text: str, what: str):
    """``kind(text)``, or a ValueError that names ``what`` when text is not one."""
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"{what} must be {'an integer' if kind is int else 'a number'}, got {text!r}") from None


def resolve_seed(args) -> int:
    """--seed, else DISCRETE_GB_SEED, else the built-in default; a command
    reads it before any work, so a negative seed is a usage error at once."""
    env = os.environ.get("DISCRETE_GB_SEED")
    if args.seed is not None:
        seed, what = args.seed, "--seed"
    elif env:
        seed, what = parse_number(int, env, "DISCRETE_GB_SEED"), "DISCRETE_GB_SEED"
    else:
        return DEFAULT_SEED
    if seed < 0:
        raise ValueError(f"{what} must be at least 0, got {seed}")
    return seed


def parse_generator_spec(spec: str) -> Graph:
    """Build a graph from "kind" or "kind:key=value,..." text."""
    kind, _, rest = spec.partition(":")
    params: dict[str, str] = {}
    for item in filter(None, rest.split(",")):
        key, sep, value = item.partition("=")
        if not sep:
            raise ValueError(f"bad generator parameter {item!r}, expected key=value")
        if (key := key.strip()) in params:
            raise ValueError(f"generator parameter {key} given twice in {spec!r}")
        if key not in GENERATORS[kind][0]:
            raise ValueError(f"generator {kind!r} does not read parameter {key}")
        params[key] = value.strip()
    n = parse_number(int, params["n"], "generator parameter n") if "n" in params else None
    q = parse_number(float, params["q"], "generator parameter q") if "q" in params else None
    seed = parse_number(int, params["seed"], "generator parameter seed") if "seed" in params else 0
    return generate(kind, n=n, q=q, seed=seed)


def load_graph(source: str) -> Graph:
    """Path or generator spec; the kind prefix decides which."""
    kind = source.partition(":")[0]
    if kind in GENERATORS:
        return parse_generator_spec(source)
    return load(source)


def parse_function_file(text: str, n: int) -> tuple[int, ...]:
    """Lines "v value" to a rank order; values must be injective."""
    values: dict[int, Fraction] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {line_no}: expected 'vertex value', got {raw!r}")
        try:
            v = int(parts[0])
        except ValueError:
            raise ValueError(f"line {line_no}: non-integer vertex {parts[0]!r}") from None
        exponent = parts[1].lower().partition("e")[2].lstrip("+-").replace("_", "").lstrip("0")
        if exponent.isdecimal() and (len(exponent) > len(str(_MAX_EXPONENT)) or int(exponent) > _MAX_EXPONENT):
            raise ValueError(f"line {line_no}: value {parts[1]!r} has a decimal exponent over {_MAX_EXPONENT} in magnitude")
        try:
            value = Fraction(parts[1])
        except ValueError:
            raise ValueError(f"line {line_no}: value {parts[1]!r} is not an integer, decimal or fraction p/q") from None
        except ZeroDivisionError:
            raise ValueError(f"line {line_no}: value {parts[1]!r} has a zero denominator") from None
        if v in values:
            raise ValueError(f"line {line_no}: vertex {v} assigned twice")
        values[v] = value
    missing = sorted(set(range(n)) - set(values))
    extra = sorted(set(values) - set(range(n)))
    if missing or extra:
        raise ValueError(f"function must cover vertices 0..{n - 1}: missing {missing}, extra {extra}")
    return order_from_values([values[v] for v in range(n)])


def _encode(obj):
    """JSON for what ``json`` cannot encode: a dataclass as its field-ordered
    dict, an exact rational as its "p/q" string. Anything else is a bug."""
    if is_dataclass(obj):
        return asdict(obj)
    if isinstance(obj, Fraction):
        return str(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, default=_encode) + "\n"


@dataclass(frozen=True)
class Output:
    """One command's result in every format; ``main`` writes the chosen one."""

    json: str
    header: list[str]
    rows: list[list]
    human: str
    code: int = 0

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return self.json
        if fmt == "human":
            return self.human
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.header)
        writer.writerows(self.rows)
        return buf.getvalue()


def chi_by_curvature(G: Graph, progress=None) -> int:
    total = curvature_field(G, progress).total
    if total.denominator != 1:
        raise AssertionError(f"total curvature {total} is not an integer")
    return int(total)


# method -> route(G, seed, progress). Each route names the library function
# at call time, so a function replaced on its module (as perfbench's tracer
# does) is the one that runs. Every route calls ``progress`` as it works, and
# it may raise to abort.
CHI_ROUTES = {
    "cliques": lambda G, seed, progress: graph_euler_characteristic(G, progress=progress),
    "curvature": lambda G, seed, progress: chi_by_curvature(G, progress),
    "index": lambda G, seed, progress: poincare_hopf_chi(
        G, random_order(G.n, seed), progress=progress
    ),
}


def check_degree_cap(cap: int):
    if cap < 0:
        raise ValueError(f"--degree-cap must be at least 0, got {cap}")
    if cap > MAX_SUBSET_DEGREE:
        raise ValueError(f"--degree-cap must be at most {MAX_SUBSET_DEGREE}, got {cap}")


# ---------------------------------------------------------------- commands


def cmd_generate(args) -> Output:
    G = load_graph(args.graph)
    return Output(to_json(G) + "\n", ["u", "v"], list(G.edges), to_edge_list(G))


def cmd_chi(args) -> Output:
    seed = resolve_seed(args)
    G = load_graph(args.graph)
    start = time.perf_counter()
    chi = CHI_ROUTES[args.method](G, seed, None)
    millis = (time.perf_counter() - start) * 1000.0
    return Output(
        dumps({"method": args.method, "chi": chi, "millis": round(millis, 3)}),
        ["method", "chi", "millis"],
        [[args.method, chi, f"{millis:.3f}"]],
        f"chi = {chi}  (method={args.method}, {millis:.1f} ms)\n",
    )


def cmd_curvature(args) -> Output:
    field = curvature_field(load_graph(args.graph))
    lines = [f"{x:>6}  {K}" for x, K in enumerate(field.values)]
    return Output(
        dumps({**{str(x): K for x, K in enumerate(field.values)}, "total": field.total}),
        ["vertex", "curvature"],
        [[x, str(K)] for x, K in enumerate(field.values)],
        "vertex  curvature\n" + "\n".join(lines) + f"\ntotal = {field.total}\n",
    )


def cmd_index(args) -> Output:
    seed = resolve_seed(args)
    G = load_graph(args.graph)
    if args.function:
        with open(args.function) as fh:
            order = parse_function_file(fh.read(), G.n)
    else:
        order = random_order(G.n, seed)
    report = index_report(G, order)
    lines = [
        f"{x:>6}  {report.order[x]:>4}  {report.indices[x]:>3}  {str(report.symmetric[x]):>6}"
        for x in range(G.n)
    ]
    return Output(
        dumps(report),
        ["vertex", "rank", "i", "i_reversed", "j"],
        [
            [x, report.order[x], report.indices[x], report.reverse_indices[x], str(report.symmetric[x])]
            for x in range(G.n)
        ],
        "vertex  rank    i       j\n"
        + "\n".join(lines)
        + f"\nindex sum = {report.index_sum}, symmetric sum = {report.symmetric_sum}\n",
    )


def cmd_expectation(args) -> Output:
    seed = resolve_seed(args)
    check_degree_cap(args.degree_cap)
    G = load_graph(args.graph)
    plan = TrialPlan(samples=args.samples, master_seed=seed, workers=args.threads)
    payload = asdict(mc_index_expectation(G, plan))
    header = ["vertex", "samples", "estimate", "stderr", "exact", "curvature"]
    oracle = exact_expectation_by_permutations(G) if args.permutation_oracle else None
    if oracle is not None:
        header.append("permutation_oracle")
    rows = []
    lines = ["vertex  estimate    stderr      curvature"]
    for row in payload["rows"]:
        x = row["vertex"]
        # exact before the oracle, so JSON rows keep that key order
        if args.exact and G.degree(x) <= args.degree_cap:
            row["exact"] = exact_index_expectation(G, x, degree_cap=args.degree_cap)
        if oracle is not None:
            row["permutation_oracle"] = oracle[x]
        rows.append([row.get(key, "") for key in header])
        se = "n/a" if row["stderr"] is None else f"{row['stderr']:.6f}"
        lines.append(f"{row['vertex']:>6}  {row['estimate']:>9.6f}  {se:>9}  {str(row['curvature']):>9}")
    human = "\n".join(lines) + f"\nsamples = {args.samples}, seed = {seed}\n"
    return Output(dumps(payload), header, rows, human)


def cmd_percolation(args) -> Output:
    seed = resolve_seed(args)
    G = load_graph(args.graph)
    if args.grid is not None:
        return percolation_grid(G, seed, args)
    report = clique_survival_integral(
        G, args.k, args.trials, seed=seed, mode=args.mode, workers=args.threads,
        fixed_p=args.fixed_p, row_limit=args.rows,
    )
    s = report.summary
    rows = [[r["trial"], r.get("p", args.fixed_p), r["ratio"]] for r in report.rows]
    # The summary rides as a one-field row: it holds no comma or quote, so
    # the CSV writer leaves it unquoted.
    rows.append([
        f"# summary mode={s.mode} k={s.k} trials={s.trials} estimate={s.estimate} "
        f"stderr={s.stderr} exact={s.exact}"
    ])
    se = "n/a" if s.stderr is None else f"{s.stderr:.6f}"
    return Output(
        dumps(report),
        ["trial", "p", "ratio"],
        rows,
        f"mode={s.mode} k={s.k} trials={s.trials} hosts v_k={s.host_count}\n"
        f"estimate = {s.estimate:.6f}, stderr = {se}, exact = {s.exact}\n",
    )


def percolation_grid(G: Graph, seed: int, args) -> Output:
    if args.grid < 1:
        raise ValueError(f"--grid must be at least 1, got {args.grid}")
    if args.grid > MAX_GRID_POINTS:
        raise ValueError(f"--grid must be at most {MAX_GRID_POINTS} (MAX_GRID_POINTS), got {args.grid}")
    if args.fixed_p is not None or args.rows:
        raise ValueError("--grid sweeps p itself and reports no trial rows; drop --fixed-p and --rows")
    points = [(i + 0.5) / args.grid for i in range(args.grid)]
    rows = survival_grid(G, args.k, args.trials, seed=seed, mode=args.mode, grid=points, workers=args.threads)
    payload = {"mode": args.mode, "k": args.k, "trials": args.trials, "master_seed": seed, "rows": rows}
    lines = [f"{r['p']:>6.3f}  {r['ratio']:>9.6f}  {r['exact']}" for r in rows]
    return Output(
        dumps(payload),
        ["p", "ratio", "stderr", "exact"],
        [[r["p"], r["ratio"], r["stderr"], r["exact"]] for r in rows],
        "     p      ratio  exact\n" + "\n".join(lines) + "\n",
    )


def cmd_verify(args) -> Output:
    seed = resolve_seed(args)
    check_degree_cap(args.degree_cap)
    if args.graph:
        graphs = [(args.graph, load_graph(args.graph))]
    else:
        graphs = list(base_corpus() + er_corpus(20))
    suites = SUITES if args.suite == "all" else (args.suite,)
    results = run_suites(graphs, suites=suites, seed=seed, degree_cap=args.degree_cap)
    summary = summarize(results)
    lines = [f"{r.status:<4}  {r.suite:<13} {r.name}  {r.detail}" for r in results]
    lines.append(f"{summary['passed']} passed, {summary['failed']} failed, {summary['skipped']} skipped")
    return Output(
        dumps({"results": results, "summary": summary}),
        ["suite", "name", "status", "detail"],
        [[r.suite, r.name, r.status, r.detail] for r in results],
        "\n".join(lines) + "\n",
        code=0 if summary["ok"] else 1,
    )


class _BenchTimeout(Exception):
    pass


class _Deadline:
    def __init__(self, budget_ms: float):
        self.t_end = time.perf_counter() + budget_ms / 1000.0

    def check(self, *_ignored):
        if time.perf_counter() > self.t_end:
            raise _BenchTimeout


def cmd_bench(args) -> Output:
    if args.repetitions < 1:
        raise ValueError(f"--repetitions must be at least 1, got {args.repetitions}")
    if args.budget_ms < 0:
        raise ValueError(f"--budget-ms must be at least 0, got {args.budget_ms:g}")
    if not math.isfinite(args.budget_ms):
        raise ValueError(f"--budget-ms must be finite, got {args.budget_ms:g}")
    seeds = [parse_number(int, s, "--seeds entry") for s in args.seeds.split(",")]
    rows = []
    chis: dict[int, set[int]] = {}
    for seed in seeds:
        G = generate("erdos_renyi", n=args.n, q=args.q, seed=seed)
        for method, route in CHI_ROUTES.items():
            for _ in range(args.repetitions):
                deadline = _Deadline(args.budget_ms)
                start = time.perf_counter()
                try:
                    chi = route(G, seed, deadline.check)
                    millis = f"{(time.perf_counter() - start) * 1000.0:.3f}"
                    chis.setdefault(seed, set()).add(chi)
                except _BenchTimeout:
                    millis = "timeout"
                rows.append([method, args.n, args.q, seed, millis])
    disagree = {s: v for s, v in chis.items() if len(v) > 1}
    if disagree:
        raise AssertionError(f"chi routes disagree: {disagree}")
    return Output(
        dumps([{"method": m, "n": n, "q": q, "seed": s, "millis": ms} for m, n, q, s, ms in rows]),
        ["method", "n", "q", "seed", "millis"],
        rows,
        "\n".join(f"{m:<10} n={n} q={q} seed={s}  {ms} ms" for m, n, q, s, ms in rows) + "\n",
    )


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphcurv",
        description="Discrete curvature, Poincare-Hopf indices, Euler characteristics, and percolation checks on finite simple graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, seed=True, threads=False, default_format="human"):
        p.add_argument("--format", choices=FORMATS, default=default_format)
        p.add_argument("--output", help="write output to a file instead of stdout")
        if seed:
            p.add_argument("--seed", type=int, default=None, help="override DISCRETE_GB_SEED / built-in default")
        if threads:
            p.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                           help="accepted; trials run in one thread and results do not depend on it")

    p = sub.add_parser("generate", help="emit a graph as edge-list text, CSV, or JSON")
    p.add_argument("graph", help="generator spec like cycle:n=6 or erdos_renyi:n=20,q=0.3,seed=1")
    add_common(p, seed=False)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("chi", help="Euler characteristic by cliques, curvature, or index route")
    p.add_argument("graph")
    p.add_argument("--method", choices=tuple(CHI_ROUTES), default="cliques")
    add_common(p)
    p.set_defaults(func=cmd_chi)

    p = sub.add_parser("curvature", help="per-vertex curvature and the Gauss-Bonnet total")
    p.add_argument("graph")
    add_common(p, seed=False)
    p.set_defaults(func=cmd_curvature)

    p = sub.add_parser("index", help="per-vertex indices of one injective function")
    p.add_argument("graph")
    p.add_argument("--function", help="file of 'vertex value' lines; values must be injective")
    add_common(p)
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("expectation", help="Monte Carlo / exact E[index] per vertex vs curvature")
    p.add_argument("graph")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--exact", action="store_true", help="attach the exact expectation where degree permits")
    p.add_argument("--permutation-oracle", action="store_true", help="attach the all-orders oracle (n <= 8)")
    p.add_argument("--degree-cap", type=int, default=20)
    add_common(p, threads=True)
    p.set_defaults(func=cmd_expectation)

    p = sub.add_parser("percolation", help="clique survival under site/bond decimation")
    p.add_argument("graph")
    p.add_argument("--k", type=int, required=True, help="clique dimension (k-simplices = (k+1)-cliques)")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--mode", choices=MODES, default="site")
    p.add_argument("--fixed-p", type=float, default=None, help="fix p instead of drawing it per trial")
    p.add_argument("--grid", type=int, default=None, help="stratified sweep over this many p midpoints")
    p.add_argument("--rows", type=int, default=0, help="include this many per-trial rows in the output")
    add_common(p, threads=True)
    p.set_defaults(func=cmd_percolation)

    p = sub.add_parser("verify", help="run identity suites on a graph or the built-in corpus")
    p.add_argument("graph", nargs="?", help="graph source; omit to use the built-in corpus")
    p.add_argument("--suite", choices=SUITES + ("all",), default="all")
    p.add_argument("--degree-cap", type=int, default=16)
    add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="time the chi routes on Erdos-Renyi graphs")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=float, default=0.1)
    p.add_argument("--seeds", default="0", help="comma-separated generator seeds")
    p.add_argument("--repetitions", type=int, default=1)
    p.add_argument("--budget-ms", type=float, default=60000.0, help="per-run budget; slower runs emit a timeout row")
    add_common(p, seed=False, default_format="csv")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        out = args.func(args)
        text = out.render(args.format)
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return out.code
    except BrokenPipeError:
        return 0
    except AssertionError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:  # parse errors are ValueErrors too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        source = getattr(args, "graph", None) or f"{args.command} input"
        print(f"error: {source} is too large for memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
