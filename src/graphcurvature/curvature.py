"""Per-vertex curvature and the Gauss-Bonnet identity, in exact rationals.

The curvature at x is the alternating series over clique counts of the
unit sphere,

    K(x) = sum_{k>=0} (-1)^k V_{k-1}(x) / (k+1),    V_{-1}(x) = 1,

and summing K over all vertices gives the Euler characteristic exactly.
Everything here is Fraction arithmetic; no rounding anywhere.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .cliques import count_cliques, euler_characteristic, vertex_clique_degrees
from .graphs import Graph


def curvature_from_degrees(V: tuple[int, ...]) -> Fraction:
    """Curvature of a vertex whose sphere has f-vector V (V[k] = V_k)."""
    total = Fraction(1)  # k = 0 term: V_{-1} = 1
    for j, count in enumerate(V):
        term = Fraction(count, j + 2)
        total += -term if j % 2 == 0 else term
    return total


def curvature(G: Graph, x: int) -> Fraction:
    """Exact curvature K(x); an isolated vertex has K = 1."""
    return curvature_from_degrees(vertex_clique_degrees(G, x))


@dataclass(frozen=True)
class CurvatureField:
    values: tuple[Fraction, ...]
    total: Fraction

    def to_json_dict(self) -> dict:
        d = {str(v): str(K) for v, K in enumerate(self.values)}
        d["total"] = str(self.total)
        return d


def curvature_field(G: Graph,
                    progress: Callable[[int], None] | None = None) -> CurvatureField:
    """Curvature at every vertex, and their total.

    ``progress`` is called with each vertex first, and may raise to abort.
    """
    values = []
    for x in range(G.n):
        if progress is not None:
            progress(x)
        values.append(curvature(G, x))
    return CurvatureField(tuple(values), sum(values, Fraction(0)))


@dataclass(frozen=True)
class GaussBonnetReport:
    lhs: Fraction  # sum of curvatures
    rhs: int       # Euler characteristic via clique counts
    equal: bool


def verify_gauss_bonnet(G: Graph) -> GaussBonnetReport:
    """Compare sum_x K(x) against the clique-count Euler characteristic."""
    lhs = curvature_field(G).total
    rhs = euler_characteristic(count_cliques(G))
    return GaussBonnetReport(lhs, rhs, lhs == rhs)


@dataclass(frozen=True)
class TransferCheck:
    k: int
    lhs: int  # sum_x V_{k-1}(x)
    rhs: int  # (k+1) * v_k
    equal: bool


def verify_transfer_equations(G: Graph) -> tuple[TransferCheck, ...]:
    """Check sum_x V_{k-1}(x) = (k+1) v_k for every k with v_k > 0.

    k = 0 is the vertex count (V_{-1} = 1); k = 1 is Euler's handshake.
    """
    fvec = count_cliques(G)
    sphere_fvecs = [vertex_clique_degrees(G, x) for x in range(G.n)]
    checks = []
    for k, vk in enumerate(fvec):
        if k == 0:
            lhs = G.n
        else:
            lhs = sum(sf[k - 1] if k - 1 < len(sf) else 0 for sf in sphere_fvecs)
        rhs = (k + 1) * vk
        checks.append(TransferCheck(k, lhs, rhs, lhs == rhs))
    return tuple(checks)
