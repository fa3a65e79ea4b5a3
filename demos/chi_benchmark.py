"""Three routes to the Euler characteristic, timed.

chi can be computed from the f-vector (clique enumeration), from the
curvature field (Gauss-Bonnet), or from the index field of one random
order (Poincare-Hopf). The index route only looks at unit spheres, but
that does not make it faster: on every graph measured so far global
clique enumeration is the fastest of the three (on ER(200, 0.1), about
2 ms against 8 ms for the index route, as this demo prints on a
Python 3.11 2-CPU machine).
"""

import time

import graphcurvature as gc


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    value = fn(*args, **kwargs)
    return value, 1000.0 * (time.perf_counter() - t0)


def main():
    print(f"{'graph':>14} {'cliques':>12} {'curvature':>12} {'index':>12}   chi")
    for n, q in [(40, 0.3), (80, 0.2), (120, 0.15), (200, 0.1)]:
        G = gc.erdos_renyi(n, q, seed=8)
        c1, t1 = timed(gc.graph_euler_characteristic, G)
        c2, t2 = timed(lambda: gc.curvature_field(G).total)
        c3, t3 = timed(lambda: gc.poincare_hopf_chi(G, gc.random_order(G.n, 8)))
        assert c1 == c2 == c3
        print(f"  er({n:3d},{q:4}) {t1:>10.1f}ms {t2:>10.1f}ms {t3:>10.1f}ms   {c1}")

    print("\nall three routes agree on every graph.")


if __name__ == "__main__":
    main()
