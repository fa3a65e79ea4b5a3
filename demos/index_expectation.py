"""Curvature as expected index: E[i_f(x)] = K(x) over uniform random orders.

Three routes to the same number, per vertex: the curvature formula, the
exact expectation computed from order statistics on the unit sphere, and
a Monte Carlo average over random orders with an honest standard error.
"""

import graphcurvature as gc


def main():
    G = gc.icosahedron()
    plan = gc.TrialPlan(samples=40_000, master_seed=99)
    rep = gc.mc_index_expectation(G, plan)

    print("icosahedron, 40000 random orders per vertex\n")
    print(f"{'x':>3} {'K(x)':>6} {'exact E[i]':>11} {'MC estimate':>12} {'stderr':>9} {'z':>6}")
    for row in rep.rows:
        exact = gc.exact_index_expectation(G, row.vertex)
        z = (row.estimate - float(row.curvature)) / row.stderr
        print(f"{row.vertex:>3} {row.curvature!s:>6} {exact!s:>11} "
              f"{row.estimate:>12.5f} {row.stderr:>9.5f} {z:>6.2f}")
        assert exact == row.curvature
        assert abs(row.estimate - float(row.curvature)) < 4 * row.stderr

    print("\nexact expectation equals curvature at every vertex;")
    print("the MC column agrees to within 4 standard errors.")

    # a graph with mixed curvature signs: the wheel-like star closure
    G = gc.star_graph(6)
    print("\nstar_6 (hub plus 6 leaves): K(hub) = -2, K(leaf) = 1/2")
    for x in range(G.n):
        assert gc.exact_index_expectation(G, x) == gc.curvature(G, x)
    print("exact route confirms both values; sum is", gc.curvature_field(G).total)


if __name__ == "__main__":
    main()
