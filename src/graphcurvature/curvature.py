"""Per-vertex curvature and the Gauss-Bonnet identity, in exact rationals.

The curvature at x is the alternating series over clique counts of the
unit sphere,

    K(x) = sum_{k>=0} (-1)^k V_{k-1}(x) / (k+1),    V_{-1}(x) = 1,

and summing K over all vertices gives the Euler characteristic exactly.
Everything here is exact integer or Fraction arithmetic; no rounding anywhere.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Sequence

from .cliques import (
    FVector,
    IdentityCheck,
    count_cliques,
    euler_characteristic,
    vertex_clique_degrees,
)
from .graphs import Graph


def curvature_from_degrees(V: tuple[int, ...]) -> Fraction:
    """Curvature of a vertex whose sphere has f-vector V (V[k] = V_k).

    The series is summed in integers over L = lcm(2, ..., len(V) + 1), the
    common denominator of its terms, and reduced once.
    """
    L = lcm(*range(2, len(V) + 2))
    num = L  # k = 0 term: V_{-1} = 1
    for j, count in enumerate(V):
        term = count * (L // (j + 2))
        num += -term if j % 2 == 0 else term
    return Fraction(num, L)


def curvature(G: Graph, x: int) -> Fraction:
    """Exact curvature K(x); an isolated vertex has K = 1."""
    return curvature_from_degrees(vertex_clique_degrees(G, x))


@dataclass(frozen=True)
class CurvatureField:
    values: tuple[Fraction, ...]
    total: Fraction


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
    return CurvatureField(tuple(values), _total(values))


def _total(values: Sequence[Fraction]) -> Fraction:
    """One Fraction over the common denominator, not one addition per value."""
    L = lcm(*{K.denominator for K in values})
    return Fraction(sum(K.numerator * (L // K.denominator) for K in values), L)


def gauss_bonnet_check(curvatures: Sequence[Fraction], fvec: FVector) -> IdentityCheck:
    """Compare sum_x K(x) (lhs) against the Euler characteristic of ``fvec`` (rhs).

    ``curvatures`` holds K(x) for every vertex, from its sphere; ``fvec`` is
    the graph's clique f-vector.
    """
    lhs = _total(curvatures)
    rhs = euler_characteristic(fvec)
    return IdentityCheck(None, lhs, rhs, lhs == rhs)


def verify_gauss_bonnet(G: Graph) -> IdentityCheck:
    """Compare sum_x K(x) (lhs) against the clique-count Euler characteristic (rhs)."""
    return gauss_bonnet_check(curvature_field(G).values, count_cliques(G))


def transfer_checks(sphere_fvecs: Sequence[FVector], fvec: FVector) -> tuple[IdentityCheck, ...]:
    """Check sum_x V_{k-1}(x) = (k+1) v_k for every k with v_k > 0.

    ``sphere_fvecs[x]`` is the f-vector of the sphere of x and ``fvec`` the
    graph's clique f-vector. The rows hold lhs = sum_x V_{k-1}(x) and
    rhs = (k+1) v_k. k = 0 is the vertex count (V_{-1} = 1); k = 1 is
    Euler's handshake.
    """
    checks = []
    for k, vk in enumerate(fvec):
        if k == 0:
            lhs = len(sphere_fvecs)
        else:
            lhs = sum(sf[k - 1] if k - 1 < len(sf) else 0 for sf in sphere_fvecs)
        rhs = (k + 1) * vk
        checks.append(IdentityCheck(k, lhs, rhs, lhs == rhs))
    return tuple(checks)


def verify_transfer_equations(G: Graph) -> tuple[IdentityCheck, ...]:
    """Check sum_x V_{k-1}(x) = (k+1) v_k for every k with v_k > 0, by ``transfer_checks``."""
    return transfer_checks([vertex_clique_degrees(G, x) for x in range(G.n)], count_cliques(G))
