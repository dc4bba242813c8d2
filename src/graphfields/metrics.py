"""Geodesic and resistance metrics on metric graphs.

Both metrics at n points are n x n matrices read from one |V| x |V| vertex
table at each point's two end vertices. A point at arclength t on edge
(u, v) of length L has offsets t and L - t to its ends, and interpolation
weights w_u = 1 - t/L and w_v = t/L. Each matrix is four vectorised
gathers into the vertex table, one per pair of end vertices, accumulated in
place: one n x n temporary besides the result, and no per-pair Python loop.
Both come out exactly symmetric, with a zero diagonal and no negative
entry; the pairwise functions are two-point calls.

Geodesic: the minimum over the four end-vertex routes offset + D_V[a, b] +
offset, with D_V = ``vertex_distance_matrix``; on a shared edge the direct
route |t_i - t_j| is a fifth candidate (shorter on loops and some
multi-edges).

Resistance: the variogram of an auxiliary Gaussian field, a multivariate
normal on the vertices with covariance L^{-1} (L built from edge
conductances 1/length, grounded at a root vertex), linearly interpolated
along edges, plus an independent Brownian bridge on every edge (Anderes,
Moller & Rasmussen, "Isotropic covariance functions on graphs and their
edges", Ann. Statist. 2020). It is evaluated analytically, never by
simulation. Since each point's weights sum to one, only the vertex
resistances R_V = diag + diag' - 2 L^{-1} enter:

    d_ij = sum_{a in ends(i), b in ends(j)} w_a(i) w_b(j) R_V[a, b]
           - s_i - s_j,
    s_i  = w_u(i) w_v(i) R_V[u_i, v_i] - t_i (L_i - t_i) / L_i,

and on a shared edge, with delta = t_i - t_j, the exact closed form
R_V[u, v] delta^2 / L^2 + |delta| - delta^2 / L replaces it.

The sparse form Phi L^{-1} Phi' (the weights as a sparse Phi) is not used:
grounding puts a constant of about 1 into every entry of L^{-1}, which
cancels in the variogram only after rounding at that size. Against the
pairwise formula this module used before, on 100 random points plus the
vertices, the Phi form was off by 2.3e-9 relative on
figure_eight(1e-3, 2e-3) and 1.5e-8 on tadpole(2, 1e-5); the gather form by
1.9e-12 and 5.5e-12.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import UnsupportedGraphError
from .graph import (
    CACHE_SIZE,
    MetricGraph,
    PointOnGraph,
    _point_arrays,
    _same_edge_pairs,
    _symmetrize,
    classify,
    vertex_distance_matrix,
)

__all__ = [
    "geodesic_distance",
    "ResistanceStructure",
    "resistance_structure",
    "resistance_distance",
]


@dataclass(frozen=True)
class ResistanceStructure:
    """Vertex-level ingredients of the resistance metric.

    ``laplacian`` has diagonal c(v) (+1 at the root) and off-diagonal
    -c(v1, v2), where c(v1, v2) = 1/length for adjacent vertices; it is
    strictly positive definite and ``linv`` is its inverse, the covariance
    of the auxiliary vertex field.
    """

    root: int
    conductance: np.ndarray
    laplacian: np.ndarray
    linv: np.ndarray


@lru_cache(maxsize=CACHE_SIZE)
def resistance_structure(g: MetricGraph, v0: int = 0) -> ResistanceStructure:
    """Build the grounded vertex Laplacian and its inverse.

    Only graphs with Euclidean edges are supported (the conductance
    construction assumes no loops or multi-edges).
    """
    if not classify(g).euclidean_edges:
        raise UnsupportedGraphError(
            "resistance metric requires a graph with Euclidean edges"
        )
    n = g.vertex_count
    if not (0 <= v0 < n):
        raise UnsupportedGraphError(f"root vertex {v0} outside [0, {n})")
    c = np.zeros((n, n))
    for e in g.edges:
        c[e.u, e.v] = c[e.v, e.u] = 1.0 / e.length
    lap = -c.copy()
    np.fill_diagonal(lap, c.sum(axis=1))
    lap[v0, v0] += 1.0
    linv = np.linalg.inv(lap)
    linv = 0.5 * (linv + linv.T)
    for arr in (c, lap, linv):
        arr.flags.writeable = False
    return ResistanceStructure(root=v0, conductance=c, laplacian=lap, linv=linv)


@lru_cache(maxsize=CACHE_SIZE)
def _vertex_resistance(g: MetricGraph, v0: int = 0) -> np.ndarray:
    """|V| x |V| effective resistances R_V = diag + diag' - 2 L^{-1} (read-only)."""
    linv = resistance_structure(g, v0).linv
    diag = np.diag(linv)
    r_v = diag[:, None] + diag[None, :] - 2.0 * linv
    r_v.flags.writeable = False
    return r_v


def _resistance_matrix(
    g: MetricGraph, pts: Sequence[PointOnGraph], v0: int = 0
) -> tuple[list[PointOnGraph], np.ndarray]:
    """Validated points and their n x n resistance-metric matrix.

    Four weighted gathers from the vertex resistance matrix R_V, then the
    per-point self terms, then the same-edge closed form.
    """
    pts, j, t, u, v, ell = _point_arrays(g, pts)
    r_v = _vertex_resistance(g, v0)
    w_v = t / ell
    ends = ((u, 1.0 - w_v), (v, w_v))
    d = None
    for a, w_a in ends:
        for b, w_b in ends:
            term = r_v[a[:, None], b]
            term *= w_a[:, None]
            term *= w_b
            if d is None:
                d = term
            else:
                d += term
    own = (1.0 - w_v) * w_v * r_v[u, v] - t * (ell - t) / ell
    d -= own[:, None]
    d -= own
    _symmetrize(d)
    np.maximum(d, 0.0, out=d)
    rows, cols = _same_edge_pairs(j)
    delta = t[rows] - t[cols]
    length = ell[rows]
    d[rows, cols] = (
        r_v[u[rows], v[rows]] * (delta / length) ** 2
        + np.abs(delta)
        - delta**2 / length
    )
    return pts, d


def _geodesic_matrix(
    g: MetricGraph, pts: Sequence[PointOnGraph]
) -> tuple[list[PointOnGraph], np.ndarray]:
    """Validated points and their n x n geodesic distance matrix.

    The minimum over the four end-vertex routes, then the direct route
    along a shared edge.
    """
    pts, j, t, u, v, ell = _point_arrays(g, pts)
    dist = vertex_distance_matrix(g)
    ends = ((u, t), (v, ell - t))
    d = None
    for a, off_a in ends:
        for b, off_b in ends:
            route = dist[a[:, None], b]
            route += off_a[:, None]
            route += off_b
            if d is None:
                d = route
            else:
                np.minimum(d, route, out=d)
    _symmetrize(d)
    rows, cols = _same_edge_pairs(j)
    d[rows, cols] = np.minimum(d[rows, cols], np.abs(t[rows] - t[cols]))
    return pts, d


def geodesic_distance(g: MetricGraph, p: PointOnGraph, q: PointOnGraph) -> float:
    """Length of the shortest path in the graph between two points.

    Points interior to one edge may connect either directly along the edge
    or through the endpoints (shorter for loops and some multi-edges).
    """
    return float(_geodesic_matrix(g, (p, q))[1][0, 1])


def resistance_distance(
    g: MetricGraph, p: PointOnGraph, q: PointOnGraph, v0: int = 0
) -> float:
    """Resistance metric d_R(p, q) = Var(Z(p) - Z(q)) of the auxiliary field.

    Linear interpolation of the vertex field between p's end vertices
    contributes the weighted vertex resistances of the module docstring;
    each edge's Brownian bridge contributes through Cov(B(s), B(t)) =
    min(s, t) - s t / length, bridges on distinct edges being independent.
    """
    return float(_resistance_matrix(g, (p, q), v0)[1][0, 1])
