"""Curvature fields and the Gauss-Bonnet identity.

Computes K(x) = sum_k (-1)^k V_{k-1}(x)/(k+1) on a few named graphs and a
sweep of random ones, and checks that the curvatures always add up to the
Euler characteristic. Everything here is exact rational arithmetic.
"""

import graphcurvature as gc


def show(name, G):
    field = gc.curvature_field(G)
    chi = gc.graph_euler_characteristic(G)
    values = ", ".join(str(field.values[x]) for x in range(min(G.n, 8)))
    tail = ", ..." if G.n > 8 else ""
    print(f"{name:14s} n={G.n:3d}  chi={chi:3d}  sum K={field.total!s:>4}  K = [{values}{tail}]")
    assert field.total == chi


def main():
    print("Gauss-Bonnet: curvatures sum to the Euler characteristic\n")
    show("icosahedron", gc.icosahedron())       # constant 1/6, a discrete sphere
    show("octahedron", gc.octahedron())         # constant 1/3
    show("cycle_8", gc.cycle_graph(8))          # flat: chi = 0
    show("path_6", gc.path_graph(6))            # leaves carry 1/2, chi = 1
    show("star_5", gc.star_graph(5))            # hub has negative curvature
    show("complete_6", gc.complete_graph(6))    # constant 1/6 again, but chi = 1
    show("tree_13", gc.random_tree(13, seed=1))

    print("\nrandom graphs, q sweep:")
    for q in (0.1, 0.3, 0.5, 0.7):
        G = gc.erdos_renyi(18, q, seed=7)
        show(f"er(18,{q})", G)

    print("\nall sums matched chi; Gauss-Bonnet holds.")


if __name__ == "__main__":
    main()
