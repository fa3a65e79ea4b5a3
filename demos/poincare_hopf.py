"""Poincare-Hopf on graphs: indices of an injective function sum to chi.

Given an ordering f of the vertices, each vertex gets the index
i_f(x) = 1 - chi(S^-(x)), where S^-(x) is the part of the unit sphere
where f is smaller. The indices always sum to the Euler characteristic,
whatever the order. The symmetric index j_f averages f and -f.
"""

import numpy as np

import graphcurvature as gc
from graphcurvature.morse import walk_index_sums


def report(name, G, order):
    rep = gc.index_report(G, order)
    chi = gc.graph_euler_characteristic(G)
    print(f"{name}: chi = {chi}")
    print(f"  order      {list(order)}")
    print(f"  indices    {list(rep.indices)}   (sum {rep.index_sum})")
    print(f"  reversed   {list(rep.reverse_indices)}")
    print(f"  symmetric  {[str(j) for j in rep.symmetric]}   (sum {rep.symmetric_sum})")
    assert rep.index_sum == chi and rep.symmetric_sum == chi


def main():
    print("Poincare-Hopf: index sums are order-independent\n")

    G = gc.cycle_graph(4)
    report("cycle_4, identity order", G, list(range(4)))
    print()

    rng = np.random.default_rng(5)
    report("icosahedron, random order", gc.icosahedron(), gc.random_order(12, rng))
    print()

    # stability: 40 random orders on a messy graph, one invariant sum
    G = gc.erdos_renyi(15, 0.4, seed=2)
    chi = gc.graph_euler_characteristic(G)
    calc = gc.IndexCalculator(G)
    sums = {calc.index_sum(gc.random_order(G.n, rng)) for _ in range(40)}
    print(f"er(15,0.4): chi = {chi}, index sums over 40 random orders = {sums}")
    assert sums == {chi}

    # walking between an order and its reversal one transposition at a time
    # keeps the sum pinned the whole way; the walk visits every order at
    # which an index can change, the one after each swap of two neighbours
    G = gc.random_tree(9, seed=3)
    path_sums = set(walk_index_sums(gc.IndexCalculator(G), gc.random_order(9, rng)))
    print(f"tree_9: index sums along a transposition walk = {path_sums}")
    assert path_sums == {1}


if __name__ == "__main__":
    main()
