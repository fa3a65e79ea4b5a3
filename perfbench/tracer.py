"""Per-module timing from the benchmark's side of the API.

``Tracer.install`` replaces public graphcurvature functions with wrappers
that count calls and time them. Package modules bind names with
``from .cliques import count_cliques``, so a function is replaced under
every module attribute that refers to it, not only where it is defined.
Methods and the cached ``Graph.adjacency_masks`` are replaced on their
class. Calls are aggregated per (name, parent) in one table per thread,
with no span kept per call: ``IndexCalculator.index`` runs about a
million times in one Monte Carlo op.
"""
from __future__ import annotations

import functools
import sys
import threading
from fractions import Fraction
from time import perf_counter


def _mask_bytes(counts, args, kwargs, masks):
    size = sys.getsizeof(masks) + sum(map(sys.getsizeof, masks))
    counts["graphs.adjacency_masks.bytes"] = counts.get("graphs.adjacency_masks.bytes", 0) + size


def _visited(counts, args, kwargs, fvec):
    counts["cliques.visited"] = counts.get("cliques.visited", 0) + sum(fvec)


def _subsets(counts, args, kwargs, result):
    G, x = args[:2]
    counts["expectation.subsets"] = counts.get("expectation.subsets", 0) + (1 << G.degree(x))


def _draws(counts, args, kwargs, report):
    G, s = args[0], report.summary
    events = G.n if s.mode == "site" else len(G.edges)
    per_trial = events + isinstance(s.exact, Fraction)  # one more draw when p is random
    draws = (s.trials + len(report.rows)) * per_trial
    counts["percolation.draws"] = counts.get("percolation.draws", 0) + draws


SUITES = ("gauss_bonnet", "poincare_hopf", "transfer", "intermediate",
          "stability", "expectation", "averaging", "percolation")

# (metric name, module under graphcurvature, attribute or Class.attribute, result hook)
CATALOG = (
    ("graphs.loads", "graphs", "loads", None),
    ("graphs.adjacency_masks", "graphs", "Graph.adjacency_masks", _mask_bytes),
    ("graphs.induced_subgraph", "graphs", "induced_subgraph", None),
    ("cliques.count_cliques", "cliques", "count_cliques", _visited),
    ("cliques.count_cliques_in_mask", "cliques", "count_cliques_in_mask", None),
    ("cliques.cliques_of_size", "cliques", "cliques_of_size", None),
    ("cliques.vertex_clique_degrees", "cliques", "vertex_clique_degrees", None),
    ("curvature.curvature_field", "curvature", "curvature_field", None),
    ("curvature.curvature", "curvature", "curvature", None),
    ("morse.IndexCalculator.init", "morse", "IndexCalculator.__init__", None),
    ("morse.index", "morse", "IndexCalculator.index", None),
    ("morse.verify_index_stability", "morse", "verify_index_stability", None),
    ("expectation.mc_index_expectation", "expectation", "mc_index_expectation", None),
    ("expectation.chi_by_subset_size", "expectation", "chi_by_subset_size", _subsets),
    ("expectation.clique_counts_by_subset_size", "expectation",
     "clique_counts_by_subset_size", _subsets),
    ("percolation.clique_survival_integral", "percolation", "clique_survival_integral", _draws),
    ("trials.trial_rng", "trials", "TrialPlan.trial_rng", None),
    ("trials.map_reduce", "trials", "TrialPlan.map_reduce", None),
    *((f"verify.{s}", "verify", f"{s}_suite", None) for s in SUITES),
    ("cli.main", "cli", "main", None),
)
# Spans the benchmark records around its own calls rather than by patching.
SPANS = ("corpus.build",)
COUNTERS = (
    ("graphs.adjacency_masks.bytes", "B"),
    ("cliques.visited", "count"),
    ("expectation.subsets", "count"),
    ("percolation.draws", "count"),
)
# Counters derived from sizes and arguments rather than observed as work done:
# the masks' sys.getsizeof, sum of 2^deg over DP calls, trials times events.
COMPUTED = ("graphs.adjacency_masks.bytes", "expectation.subsets", "percolation.draws")
OVERHEAD = ("trace.op_s", "trace.untraced_op_s", "trace.overhead_s")


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run reports, in order."""
    out = []
    for name in [c[0] for c in CATALOG] + list(SPANS):
        out += [(f"{name}.calls", "count", "lower"), (f"{name}.s", "s", "lower"),
                (f"{name}.self_s", "s", "lower")]
    out += [(name, unit, "lower") for name, unit in COUNTERS]
    out += [("morse.chi_memo.misses", "count", "lower"),
            ("morse.chi_memo.hit_ratio", "ratio", "higher")]
    out += [(name, "s", "lower") for name in OVERHEAD]
    return out


def _union(spans) -> float:
    """Length of the union of (start, end) intervals."""
    total, end = 0.0, float("-inf")
    for a, b in sorted(spans):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


class _ThreadState:
    __slots__ = ("stack", "table", "counts")

    def __init__(self):
        self.stack: list[list] = []  # frames [name, seconds covered by children]
        self.table: dict[tuple[str, str | None], list] = {}  # -> [calls, seconds, child seconds]
        self.counts: dict[str, int] = {}


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            st = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(st)
            return st

    @staticmethod
    def _record(st, name, parent, dt, child):
        rec = st.table.get((name, parent))
        if rec is None:
            rec = st.table[(name, parent)] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += dt
        rec[2] += child

    def wrap(self, name, fn, hook=None):
        """``fn`` with its calls timed under ``name``; ``hook`` sees each result."""
        state, record = self._state, self._record

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = state()
            stack = st.stack
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                record(st, name, parent, dt, frame[1])
            if hook is not None:
                hook(st.counts, args, kwargs, result)
            return result

        return traced

    def _wrap_map_reduce(self, fn):
        """map_reduce whose chunks may run on pool threads.

        Each chunk is timed as ``trials.run_chunk``; map_reduce's self time
        is its wall time minus the union of its chunks' intervals.
        """
        tracer = self

        @functools.wraps(fn)
        def map_reduce(plan, run_chunk, combine):
            spans = []

            def chunk(c):
                st = tracer._state()
                frame = ["trials.run_chunk", 0.0]
                st.stack.append(frame)
                t0 = perf_counter()
                try:
                    return run_chunk(c)
                finally:
                    t1 = perf_counter()
                    st.stack.pop()
                    spans.append((t0, t1))
                    tracer._record(st, "trials.run_chunk", "trials.map_reduce", t1 - t0, frame[1])

            try:
                return fn(plan, chunk, combine)
            finally:
                tracer._state().stack[-1][1] += _union(spans)

        return self.wrap("trials.map_reduce", map_reduce)

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "graphcurvature" or name.startswith("graphcurvature.")]
        for name, module, path, hook in CATALOG:
            mod = sys.modules[f"graphcurvature.{module}"]
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(mod, owner_name)
                orig = owner.__dict__[attr]
                if isinstance(orig, functools.cached_property):
                    new = functools.cached_property(self.wrap(name, orig.func, hook))
                    new.__set_name__(owner, attr)
                elif name == "trials.map_reduce":
                    new = self._wrap_map_reduce(orig)
                else:
                    new = self.wrap(name, orig, hook)
                self._patch(owner, attr, new)
                continue
            orig = getattr(mod, attr)
            new = self.wrap(name, orig, hook)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._patch(m, key, new)

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def totals(self) -> tuple[dict[str, list], dict[str, int], dict[tuple, list]]:
        """Per-name [calls, seconds, self seconds], counters, and the raw per-parent table."""
        by_parent: dict[tuple, list] = {}
        counts: dict[str, int] = {}
        with self._lock:
            states = list(self._states)
        for st in states:
            for key, rec in st.table.items():
                agg = by_parent.setdefault(key, [0, 0.0, 0.0])
                for i in range(3):
                    agg[i] += rec[i]
            for key, value in st.counts.items():
                counts[key] = counts.get(key, 0) + value
        by_name: dict[str, list] = {}
        for (name, _), (calls, secs, child) in by_parent.items():
            agg = by_name.setdefault(name, [0, 0.0, 0.0])
            agg[0] += calls
            agg[1] += secs
            agg[2] += secs - child
        return by_name, counts, by_parent

    def metrics(self, ops: int) -> dict[str, float]:
        """Every catalog metric, divided by ``ops`` except set-up spans."""
        by_name, counts, by_parent = self.totals()
        out: dict[str, float] = {}
        for name in [c[0] for c in CATALOG] + list(SPANS):
            calls, secs, self_s = by_name.get(name, (0, 0.0, 0.0))
            div = 1 if name in SPANS else ops
            out[f"{name}.calls"] = calls / div
            out[f"{name}.s"] = secs / div
            out[f"{name}.self_s"] = self_s / div
        for name, _ in COUNTERS:
            out[name] = counts.get(name, 0) / ops
        misses = by_parent.get(("cliques.count_cliques_in_mask", "morse.index"), [0])[0]
        index_calls = by_name.get("morse.index", [0])[0]
        out["morse.chi_memo.misses"] = misses / ops
        out["morse.chi_memo.hit_ratio"] = 1 - misses / index_calls if index_calls else 0.0
        return out
