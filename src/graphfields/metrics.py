"""Geodesic and resistance metrics on metric graphs.

The resistance metric is the variogram of an auxiliary Gaussian field: a
multivariate normal on the vertices with covariance L^{-1} (L built from
edge conductances 1/length, grounded at a root vertex), linearly
interpolated along edges, plus an independent Brownian bridge on every
edge. The variogram is evaluated analytically, never by simulation.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import UnsupportedGraphError
from .graph import (
    CACHE_SIZE,
    MetricGraph,
    PointOnGraph,
    classify,
    vertex_distance_matrix,
)

__all__ = [
    "geodesic_distance",
    "ResistanceStructure",
    "resistance_structure",
    "resistance_distance",
]


def geodesic_distance(g: MetricGraph, p: PointOnGraph, q: PointOnGraph) -> float:
    """Length of the shortest path in the graph between two points.

    Points interior to one edge may connect either directly along the edge
    or through the endpoints (shorter for loops and some multi-edges).
    """
    p = g.point(p.edge, p.t)
    q = g.point(q.edge, q.t)
    ep = g.edge(p.edge)
    eq = g.edge(q.edge)
    dist = vertex_distance_matrix(g)
    p_ends = ((ep.u, p.t), (ep.v, ep.length - p.t))
    q_ends = ((eq.u, q.t), (eq.v, eq.length - q.t))
    best = min(
        dp + dist[a, b] + dq for a, dp in p_ends for b, dq in q_ends
    )
    if p.edge == q.edge:
        best = min(best, abs(p.t - q.t))
    return float(best)


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


def _vertex_weights(g: MetricGraph, p: PointOnGraph) -> np.ndarray:
    """Interpolation weights of the auxiliary vertex field at ``p``."""
    e = g.edge(p.edge)
    w = np.zeros(g.vertex_count)
    frac = p.t / e.length
    w[e.u] += 1.0 - frac
    w[e.v] += frac
    return w


def resistance_distance(
    g: MetricGraph, p: PointOnGraph, q: PointOnGraph, v0: int = 0
) -> float:
    """Resistance metric d_R(p, q) = Var(Z(p) - Z(q)) of the auxiliary field.

    The vertex part contributes (w_p - w_q)' L^{-1} (w_p - w_q) with linear
    interpolation weights; each edge's Brownian bridge contributes through
    Cov(B(s), B(t)) = min(s, t) - s t / length, bridges on distinct edges
    being independent.
    """
    p = g.point(p.edge, p.t)
    q = g.point(q.edge, q.t)
    rs = resistance_structure(g, v0)
    dw = _vertex_weights(g, p) - _vertex_weights(g, q)
    var = float(dw @ rs.linv @ dw)

    def bridge_var(pt: PointOnGraph) -> float:
        ell = g.edge(pt.edge).length
        return pt.t * (ell - pt.t) / ell

    var += bridge_var(p) + bridge_var(q)
    if p.edge == q.edge:
        ell = g.edge(p.edge).length
        var -= 2.0 * (min(p.t, q.t) - p.t * q.t / ell)
    return max(var, 0.0)
