"""Clique survival under random decimation.

Keep each vertex independently with probability p (site mode) and a
k-clique survives iff all k+1 of its vertices do, so the expected count
is v_k * p^(k+1). Averaged over p uniform in [0,1], the surviving
fraction is exactly 1/(k+2) no matter which graph you start from.
Bond mode keeps edges instead; the exponent becomes C(k+1,2).
"""

from fractions import Fraction

import graphcurvature as gc


def main():
    hosts = [("icosahedron", gc.icosahedron()),
             ("complete_6", gc.complete_graph(6)),
             ("er(14,0.6)", gc.erdos_renyi(14, 0.6, seed=4))]

    print("site mode: exact survival polynomial and its integral\n")
    for name, G in hosts:
        fvec = gc.count_cliques(G)
        for k in range(len(fvec)):
            poly = gc.exact_survival_polynomial(G, k, "site")
            ratio = Fraction(poly.integral(), fvec[k])
            print(f"  {name:12s} k={k}  E_p[count] = {poly.coefficient} p^{poly.exponent}"
                  f"   integral/v_k = {ratio}")
            assert ratio == Fraction(1, k + 2)
        print()

    print("Monte Carlo with p drawn uniformly each trial "
          "(20000 trials):\n")
    for name, G in hosts:
        rep = gc.clique_survival_integral(G, 2, 20_000, seed=21)
        s = rep.summary
        print(f"  {name:12s} k=2 site  estimate {s.estimate:.5f} +- {s.stderr:.5f}"
              f"   exact {s.exact}")
        assert abs(s.estimate - float(s.exact)) < 4 * s.stderr

    print("\nbond mode on the icosahedron (triangles need 3 surviving edges):")
    rep = gc.clique_survival_integral(gc.icosahedron(), 2, 20_000, seed=22,
                                      mode="bond")
    s = rep.summary
    print(f"  k=2 bond  estimate {s.estimate:.5f} +- {s.stderr:.5f}   exact {s.exact}")
    assert s.exact == Fraction(1, 4)

    print("\nsweep of fixed p values, stratified midpoints:")
    midpoints = [(i + 0.5) / 4 for i in range(4)]
    rows = gc.survival_grid(gc.complete_graph(6), 1, 20_000, seed=23, mode="site",
                            grid=midpoints)
    for row in rows:
        print(f"  p = {row['p']:.3f}  ratio {row['ratio']:.4f}  exact {float(row['exact']):.4f}")


if __name__ == "__main__":
    main()
