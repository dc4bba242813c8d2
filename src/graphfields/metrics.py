"""Geodesic and resistance metrics on metric graphs.

Both metrics at n points are n x n matrices read from one cached |V| x |V|
vertex table at each point's two end vertices, with no per-pair Python
loop. A point at arclength t on edge (u, v) of length L has offsets t and
L - t to its ends, and interpolation weights w_u = 1 - t/L and w_v = t/L.
Both come out exactly symmetric, with a zero diagonal and no negative
entry; the pairwise functions are two-point calls.

Geodesic: the minimum over the four end-vertex routes offset + D_V[a, b] +
offset, with D_V = ``vertex_distance_matrix``; on a shared edge the direct
route |t_i - t_j| is a fifth candidate (shorter on loops and some
multi-edges). A minimum is not a matrix product, so this matrix is four
vectorised gathers into D_V, one per pair of end vertices.

Resistance: the variogram of an auxiliary Gaussian field, a multivariate
normal on the vertices with covariance L^{-1} (L built from edge
conductances 1/length, grounded at a root vertex), linearly interpolated
along edges, plus an independent Brownian bridge on every edge (Anderes,
Moller & Rasmussen, "Isotropic covariance functions on graphs and their
edges", Ann. Statist. 2020). It is evaluated analytically, never by
simulation. Since each point's weights sum to one, only the vertex
resistances R_V = diag(G) + diag(G)' - 2 G enter, with G as below:

    d = Phi R_V Phi' - s 1' - 1 s',
    s_i = w_u(i) w_v(i) R_V[u_i, v_i] - t_i (L_i - t_i) / L_i,

where row i of Phi holds w_u(i) and w_v(i) in the columns of its end
vertices, and on a shared edge, with delta = t_i - t_j, the exact closed
form R_V[u, v] delta^2 / L^2 + |delta| - delta^2 / L replaces it.

The product is ``graph._sandwich``, which ``exact.full_cov`` uses for its
Phi S_V Phi' too; Phi is dense up to ``graph._DENSE_PHI_MAX`` vertices and
CSR above. Four weighted gathers into R_V, one per pair of end vertices,
give the same matrix to rounding but are slower than the CSR sandwich
(median, single-thread BLAS, shared 2-core Xeon; gathers -> sandwich):
58-74 us -> 54 us at 40 points and 1.0 ms -> 0.10 ms at 200 points on the
figure-eight's 7 vertices; 1.7 ms -> 0.31-0.36 ms at 250 points and 83-87
ms -> 3.4-4.4 ms at the 1,501-point mesh of a 301-vertex bouquet. At that
mesh the sandwich peaks at 1.4 n^2 doubles (the result and two n x |V|
products), the gathers at 3.0 n^2.

R_V comes from G, the Green's function grounded at the root (zero in its
row and column), and never from L^{-1} = 1 + G, whose constant 1 would
cancel in the variogram only after rounding at that size. G is the inverse
of the Laplacian with the root's row and column deleted, by solves with
its sparse factor (``sampling._spd_factor``).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import UnsupportedGraphError
from .graph import (
    CACHE_SIZE,
    MetricGraph,
    PointOnGraph,
    _count,
    _point_arrays,
    _same_edge_pairs,
    _sandwich,
    _symmetrize,
    classify,
    vertex_distance_matrix,
)
from .sampling import _spd_factor

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
    # the vertex resistances R_V, read by the metric matrices
    _r_v: np.ndarray | None = field(default=None, repr=False, compare=False)


def resistance_structure(g: MetricGraph, v0: int = 0) -> ResistanceStructure:
    """Build the grounded vertex Laplacian, its inverse and R_V.

    Only graphs with Euclidean edges are supported (the conductance
    construction assumes no loops or multi-edges). The Laplacian with row
    and column v0 deleted, given the identity's row and column v0 instead,
    is factored by ``sampling._spd_factor``, the sparse factor behind the
    exact field's vertex covariance; its inverse with 0 at (v0, v0) is G,
    the Green's function grounded at v0 (zero in row and column v0).
    Then ``linv`` = 1 + G is exactly the inverse of the Laplacian with +1
    at v0, and R_V = diag(G) + diag(G)' - 2 G never passes through that
    constant 1.

    ``v0`` is checked as a count on every call (True or 1.0 is rejected),
    and the structure is cached on (g, int v0), so ``(g)``, ``(g, 0)`` and
    ``(g, v0=0)`` share one entry; ``resistance_structure.cache_info()``
    reports that cache.
    """
    v0 = _count(v0, "root vertex", 0, g.vertex_count - 1, error=UnsupportedGraphError)
    return _resistance_structure(g, v0)


@lru_cache(maxsize=CACHE_SIZE)
def _resistance_structure(g: MetricGraph, v0: int) -> ResistanceStructure:
    """``resistance_structure`` for a root already checked as a count."""
    if not classify(g).euclidean_edges:
        raise UnsupportedGraphError(
            "resistance metric requires a graph with Euclidean edges"
        )
    n = g.vertex_count
    u, v, length = g._edge_arrays
    w = 1.0 / length
    c = np.zeros((n, n))
    c[u, v] = c[v, u] = w
    lap = np.diag(c.sum(axis=1)) - c
    lap[v0, v0] += 1.0
    rows, cols, vals = np.r_[u, v, u, v], np.r_[u, v, v, u], np.r_[w, w, -w, -w]
    off = (rows != v0) & (cols != v0)  # row and column v0 become those of I
    factor = _spd_factor(np.r_[rows[off], v0], np.r_[cols[off], v0],
                         np.r_[vals[off], 1.0], n)
    green = factor.solve(np.eye(n))
    green[v0, v0] = 0.0
    _symmetrize(green)
    r_v = np.add.outer(np.diag(green), np.diag(green)) - 2.0 * green
    linv = 1.0 + green
    for arr in (c, lap, linv, r_v):
        arr.flags.writeable = False
    return ResistanceStructure(v0, c, lap, linv, r_v)


resistance_structure.cache_info = _resistance_structure.cache_info


def _resistance_matrix(
    g: MetricGraph, pts: Sequence[PointOnGraph], v0: int = 0
) -> tuple[list[PointOnGraph], np.ndarray]:
    """Validated points and their n x n resistance-metric matrix.

    The sandwich Phi R_V Phi' of the vertex resistances, then the
    per-point self terms, then the same-edge closed form.
    """
    pts, j, t, u, v, ell = _point_arrays(g, pts)
    r_v = resistance_structure(g, v0)._r_v
    w_v = t / ell
    d = _sandwich(r_v, u, v, 1.0 - w_v, w_v)
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
