"""Mutation run: each listed fault, applied alone, must fail the tests named for it.

    python mutants/run.py

The runner copies the source tree (``src``, ``tests``, ``perfbench`` and
``pyproject.toml``) to a temporary directory and checks first that every
named test passes there unmutated. Then it applies one mutant at a time:
it replaces the mutant's old snippet, which must occur exactly once in its
file, by the new one, runs only the mutant's tests, and restores the file.
A mutant is killed when every one of its tests fails. A snippet that no
longer matches is an error, so a refactor must carry its mutants along
(DeMillo, Lipton and Sayward 1978, "Hints on test data selection");
``tests/test_mutants.py`` checks that in tier-1.

A mutant whose ``survives`` names a reason is known to pass its tests. It
is reported, not deleted: its tests are the ones that should catch it.

Exit status: 0 when every other mutant is killed, 1 when one survives,
2 when a snippet does not match or a test fails or is missing unmutated.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "pyproject.toml")
TIMEOUT_S = 900


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str  # occurs exactly once in the file
    new: str
    killers: tuple[str, ...]  # pytest node ids that must all fail
    survives: str = ""  # why it is known to survive; empty when it must be killed


# run_suites' suite-name check, and its lines from there to its run loop.
_NAME_CHECK = (
    "        if suite not in SUITES:\n"
    "            raise ValueError(f\"unknown suite {suite!r}, expected one of {SUITES + ('all',)}\")\n")
_UP_TO_RUN_LOOP = (
    "    closed_forms: dict = {}\n"
    "    facts = [(name, GraphFacts(G, suites, seed, degree_cap, closed_forms)) for name, G in graphs]\n"
    "    results: list[CheckResult] = []\n"
    "    with shared_draws():\n"
    "        for suite in suites:\n")

MUTANTS = (
    Mutant(
        "gauss_bonnet_drops_a_vertex",
        "src/graphcurvature/curvature.py",
        "    lhs = _total(curvatures)\n",
        "    lhs = _total(curvatures[1:])\n",
        ("tests/test_curvature.py::TestGaussBonnet::test_exact_on_er_sweep",
         "tests/test_cli.py::TestVerifyFailures::test_sphere_routes_stay_apart[calculator_spheres]"),
    ),
    Mutant(
        "transfer_drops_the_top_sphere_size",
        "src/graphcurvature/curvature.py",
        "sf[k - 1] if k - 1 < len(sf) else 0",
        "sf[k - 1] if k - 1 < len(sf) - 1 else 0",
        ("tests/test_curvature.py::TestTransferEquations::test_hold_on_assorted_graphs",
         "tests/test_curvature.py::TestTransferEquations::test_k1_counts_edge_endpoints"),
    ),
    Mutant(
        "intermediate_sums_cliques_above_not_mixed",
        "src/graphcurvature/morse.py",
        "self.clique_split(ranks, x)[2]",
        "self.clique_split(ranks, x)[1]",
        ("tests/test_morse.py::TestIntermediateEquations::test_k0_always_zero",
         "tests/test_morse.py::TestIntermediateEquations::test_random_graphs_random_orders",
         "tests/test_acceptance.py::test_c05_appendix_identities"),
    ),
    Mutant(
        "averaging_divides_by_k_plus_1",
        "src/graphcurvature/expectation.py",
        "rhs = Fraction(sums[-1], k + 2)",
        "rhs = Fraction(sums[-1], k + 1)",
        ("tests/test_expectation.py::TestAveragingEquation::test_icosahedron_values",
         "tests/test_expectation.py::TestAveragingEquation::test_random_graphs"),
    ),
    Mutant(
        "index_memo_reads_a_smaller_exit_set",
        "src/graphcurvature/morse.py",
        "chi = self._chi_cache[x].get(mask)\n",
        "chi = self._chi_cache[x].get(mask & (mask - 1))\n",
        ("tests/test_morse.py::TestIndex::test_calculator_matches_plain_index",
         "tests/test_morse.py::TestStabilityWalk::test_stability",
         "tests/test_expectation.py::TestEngineAgainstReference::test_estimate_and_stderr[icosahedron-150]"),
    ),
    Mutant(
        "empty_exit_set_read_as_index_zero",
        "src/graphcurvature/morse.py",
        "        if not mask:\n            return 1\n",
        "        if not mask:\n            return 0\n",
        ("tests/test_morse.py::TestIndex::test_calculator_matches_plain_index",
         "tests/test_expectation.py::TestEngineAgainstReference::test_estimate_and_stderr[icosahedron-150]"),
    ),
    Mutant(
        "walk_takes_upper_neighbours_in_id_order",
        "src/graphcurvature/morse.py",
        "        for b in sorted([b for b in adj[a] if start[b] > start[a]], key=rank):\n",
        "        for b in [b for b in adj[a] if start[b] > start[a]]:\n",
        ("tests/test_morse.py::TestWalkSumsAgainstReference::test_every_step[er12_0]",
         "tests/test_morse.py::TestStabilityWalk::test_running_sum_follows_a_local_fault[icosahedron]"),
    ),
    Mutant(
        "walk_adds_b_to_a_but_leaves_a_in_b",
        "src/graphcurvature/morse.py",
        "        masks[b] &= ~(1 << bisect_left(adj[b], a))\n",
        "",
        ("tests/test_morse.py::TestWalkSumsAgainstReference::test_every_step[er12_0]",
         "tests/test_morse.py::TestStabilityWalk::test_stability",
         "tests/test_cli.py::TestVerify::test_octahedron_all_pass"),
    ),
    Mutant(
        "walk_end_check_compares_the_start_masks",
        "src/graphcurvature/morse.py",
        "if any(masks[x] != calc.exit_mask(end, x) for x in range(n)):",
        "if any(masks[x] != masks[x] for x in range(n)):",
        ("tests/test_morse.py::TestStabilityWalk::test_walk_not_ending_at_the_reversal_fails[last_swap_skipped]",
         "tests/test_morse.py::TestStabilityWalk::test_walk_not_ending_at_the_reversal_fails[no_swaps]"),
    ),
    Mutant(
        "chi_sums_in_reverse_size_order",
        "src/graphcurvature/expectation.py",
        "    return _sums_by_size(pop, chi)\n",
        "    return _sums_by_size(pop, chi)[::-1]\n",
        ("tests/test_expectation.py::test_subset_tables_against_brute_force",
         "tests/test_verify.py::test_one_subset_table_build_per_vertex_under_the_cap"),
    ),
    Mutant(
        "both_tables_with_interior_sizes_reversed",
        "src/graphcurvature/expectation.py",
        "    return tuple(int(v) for v in out)\n",
        "    s = tuple(int(v) for v in out)\n    return s[:1] + s[-2:0:-1] + s[1:][-1:]\n",
        ("tests/test_expectation.py::test_subset_tables_against_brute_force",
         "tests/test_verify.py::test_one_subset_table_build_per_vertex_under_the_cap"),
    ),
    Mutant(
        "cone_test_accepts_a_vertex_missing_one_neighbour",
        "src/graphcurvature/cliques.py",
        "        if candidates & ~masks[b.bit_length() - 1] == b:\n",
        "        if (candidates & ~masks[b.bit_length() - 1]).bit_count() <= 2:\n",
        ("tests/test_cliques.py::TestChiInMask::test_matches_clique_counts_and_brute_force_on_random_masks",
         "tests/test_cliques.py::TestChiInMask::test_octahedron_has_no_cone_point",
         "tests/test_cliques.py::TestChiInMask::test_every_exit_mask_of_verify_at_seed_3"),
    ),
    Mutant(
        "three_vertex_leaf_adds_a_triangle_on_two_edges",
        "src/graphcurvature/cliques.py",
        "                            if e == 3:\n",
        "                            if e >= 2:\n",
        ("tests/test_cliques.py::TestMaskKernel::test_matches_brute_force_on_random_masks",
         "tests/test_cliques.py::TestChiInMask::test_matches_clique_counts_and_brute_force_on_random_masks"),
    ),
    Mutant(
        "shared_rows_ignore_the_master_seed",
        "src/graphcurvature/percolation.py",
        "    key = (plan.master_seed, plan.samples)\n",
        "    key = (0, plan.samples)\n",
        ("tests/test_percolation.py::TestSharedDraws::test_passes_in_one_scope_equal_standalone_calls",),
    ),
    Mutant(
        "shared_rows_served_one_trial_late",
        "src/graphcurvature/percolation.py",
        "    return lambda lo, size: drawn[lo:lo + size, :width]\n",
        "    return lambda lo, size: drawn[lo + 1:lo + size + 1, :width]\n",
        ("tests/test_percolation.py::TestSharedDraws::test_corpus_summaries_equal_the_reference[tree_n20_s0]",
         "tests/test_percolation.py::TestEngineAgainstReference::test_benchmark_cases[site-2]",
         "tests/test_percolation.py::TestEngineAgainstReference::test_summary_and_rows[icosahedron-site-None]"),
    ),
    Mutant(
        "kept_rows_drawn_at_the_first_width",
        "src/graphcurvature/percolation.py",
        "        drawn = draw(0, np.empty((plan.samples, cells)))\n",
        "        drawn = draw(0, np.empty((plan.samples, width)))\n",
        ("tests/test_percolation.py::TestSharedDraws::test_passes_in_one_scope_equal_standalone_calls",
         "tests/test_percolation.py::TestSharedDraws::test_corpus_summaries_equal_the_reference[tree_n20_s0]",
         "tests/test_verify.py::test_percolation_draws_each_trial_once_per_run"),
    ),
    Mutant(
        "link_memo_stores_one_minus_chi",
        "src/graphcurvature/cliques.py",
        "                memo[link] = link_chi\n",
        "                memo[link] = 1 - link_chi\n",
        ("tests/test_cliques.py::TestChiInMask::test_matches_clique_counts_and_brute_force_on_random_masks",
         "tests/test_morse.py::TestChiMemo::test_dense_benchmark_graph",
         "tests/test_verify.py::test_every_memo_entry_after_a_dense_verify_run_is_exact"),
    ),
    Mutant(
        "side_count_memo_ignores_the_side",
        "src/graphcurvature/morse.py",
        "            counts = memo.get(side)\n",
        "            counts = memo.get(below)\n",
        ("tests/test_morse.py::TestCliqueSplit::test_memoized_splits_equal_fresh_calculators_and_listed_cliques",
         "tests/test_morse.py::TestCliqueSplit::test_counts_match_listed_cliques",
         "tests/test_verify.py::test_side_counts_once_per_vertex_and_side_mask"),
    ),
    Mutant(
        "closed_forms_keyed_by_degree_alone",
        "src/graphcurvature/verify.py",
        "        key = (V, d)\n",
        "        key = d\n",
        ("tests/test_verify.py::test_closed_forms_built_once_per_sphere_fvector_and_degree",
         "tests/test_cli_golden.py::test_corpus_verify_report_digest"),
    ),
    Mutant(
        "orders_permuted_along_axis_0",
        "src/graphcurvature/verify.py",
        "rng.permuted(rows, axis=1, out=rows)",
        "rng.permuted(rows, axis=0, out=rows)",
        ("tests/test_verify.py::test_orders_are_the_draws_of_random_order[12]",
         "tests/test_verify.py::test_orders_are_the_draws_of_random_order[30]",
         "tests/test_verify.py::test_index_suites_check_pairwise_distinct_orders"),
    ),
    Mutant(
        "run_suites_without_shared_draws",
        "src/graphcurvature/verify.py",
        "    with shared_draws():\n",
        "    if True:\n",
        ("tests/test_verify.py::test_percolation_draws_each_trial_once_per_run",),
    ),
    Mutant(
        "suite_names_checked_as_each_suite_runs",
        "src/graphcurvature/verify.py",
        "    for suite in suites:\n" + _NAME_CHECK + _UP_TO_RUN_LOOP,
        _UP_TO_RUN_LOOP + "".join("    " + line for line in _NAME_CHECK.splitlines(True)),
        ("tests/test_verify.py::test_unknown_suite_is_named",),
    ),
    Mutant(
        "local_masks_drop_each_first_row_entry",
        "src/graphcurvature/graphs.py",
        "        for w in rows[u]:\n",
        "        for w in rows[u][1:]:\n",
        ("tests/test_graphs.py::TestUnitSphere::test_sphere_masks_match_unit_sphere",
         "tests/test_cliques.py::TestCountCliques::test_brute_force_oracle_er_graphs"),
    ),
    Mutant(
        "graph_rows_never_compared_with_their_transpose",
        "src/graphcurvature/graphs.py",
        "        if tuple(map(tuple, rows)) != adj:\n",
        "        if False:\n",
        ("tests/test_graphs.py::TestValidation::test_asymmetric_adjacency_rejected",),
    ),
    Mutant(
        "stability_orders_streamed_unchecked",
        "src/graphcurvature/morse.py",
        "calc.index_sum(validate_order(order, n)) != chi for order in orders",
        "calc.index_sum(order) != chi for order in orders",
        ("tests/test_morse.py::TestStabilityWalk::test_orders_must_be_permutations",),
    ),
    Mutant(
        "every_standard_error_doubled",
        "src/graphcurvature/trials.py",
        "    return mean, (max(var, 0.0) / samples) ** 0.5\n",
        "    return mean, 2 * (max(var, 0.0) / samples) ** 0.5\n",
        ("tests/test_acceptance.py::test_c07_percolation_statistical",
         "tests/test_acceptance.py::test_c09_mc_expectation_statistical",
         "tests/test_expectation.py::TestMonteCarlo::test_icosahedron_within_four_stderr"),
        survives="a z-gate on the engine's own standard error cannot see a wrong standard error; "
                 "the exact laws of ROADMAP item 4 are the missing reference",
    ),
)

_OUTCOME = re.compile(r"^(PASSED|FAILED|ERROR) (\S+)")


def run_tests(tree: Path, node_ids) -> dict[str, bool]:
    """node id -> whether it passed, for the ids pytest reported; a run past
    TIMEOUT_S counts every test as failed."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider", *node_ids],
            cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {node: False for node in node_ids}
    return {m.group(2): m.group(1) == "PASSED"
            for m in map(_OUTCOME.match, proc.stdout.splitlines()) if m}


def main() -> int:
    for m in MUTANTS:
        count = (ROOT / m.path).read_text().count(m.old)
        if count != 1:
            print(f"{m.name}: its old snippet occurs {count} times in {m.path}, not once", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, tree / name, ignore=ignore)
            else:
                shutil.copy2(source, tree / name)
        node_ids = sorted({node for m in MUTANTS for node in m.killers})
        baseline = run_tests(tree, node_ids)
        broken = [node for node in node_ids if not baseline.get(node, False)]
        if broken:
            print(f"unmutated, these tests fail or did not run: {broken}", file=sys.stderr)
            return 2
        survivors = 0
        for m in MUTANTS:
            path = tree / m.path
            original = path.read_text()
            path.write_text(original.replace(m.old, m.new))
            try:
                passed = run_tests(tree, m.killers)
            finally:
                path.write_text(original)
            # A test that ran unmutated but not now (say, its module no
            # longer imports) did not pass.
            still_passing = [node for node in m.killers if passed.get(node, False)]
            if not still_passing:
                print(f"killed    {m.name}  ({len(m.killers)} of {len(m.killers)} tests failed)")
                continue
            expected = " (expected: " + m.survives + ")" if m.survives else ""
            print(f"SURVIVED  {m.name}{expected}\n          still passing: {', '.join(still_passing)}")
            survivors += not m.survives
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
