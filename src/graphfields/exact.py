"""Exact Markov field of unit smoothness exponent on a metric graph.

One edge law builds everything. On an edge with constant parameters
(kappa, a), write kt = kappa / sqrt(a), c = tau^2 kappa sqrt(a), x = kt L.
The edge's independent Neumann field has covariance

    N(s, t) = D(s, t) + G(s)' Sigma_e G(t),
    Sigma_e = [[coth x, csch x], [csch x, coth x]] / c,

where G = (G1, G2) solve a G'' = kappa^2 G with unit boundary data and the
bridge covariance D(s, t) = sinh(kt min) sinh(kt (L - max)) / (c sinh x) is
the Dirichlet Green's function of tau^2 (kappa^2 - a d^2/dx^2).

The field is these edge fields conditioned on continuity at the vertices.
By the Markov property it is u(t) = G1(t) u(start) + G2(t) u(end) +
bridge(t) on each edge, with independent bridges, and the vertex values form
a Gaussian Markov random field whose precision Q = sum_e A_e' Sigma_e^{-1}
A_e is sparse (Bolin, Simas & Wallin, "Gaussian Whittle-Matern fields on
metric graphs"), A_e picking edge e's two end vertices. S_V = Q^{-1} comes
from solves with the sparse factor of Q in grounded coordinates (the rows
of the cut graph, ``_layout``, at no points), and the covariance at any
points is C = Phi S_V Phi' + bridges, with Phi the sparse matrix of G1, G2
values at each point's two end vertices. The dense route (``endpoint_prior_cov``,
``continuity_constraints``, ``condition_on_constraints``) conditions the
block-diagonal endpoint covariance directly; it is the reference behind
``full_cov(..., constraints=K)``.

The likelihood never forms C either. Cutting every edge at the points
leaves pieces of edge that are independent given their ends, so the field
at the vertices and the distinct points is again a Gaussian Markov field,
with two rows per piece in its precision (the cut graph, ``_layout``, the
same rows as the vertex precision's). ``_precision_loglik``, the one
route of ``inference.loglik`` on this field, factors Q in grounded
coordinates and a second sparse matrix in one of two forms: the scaled
form pins every observed node at the mean of its observations in absolute
coordinates, the grounded form reads each observation as its node's row
of the grounding map, and one rule on the noise variance and the stiffest
and loosest pieces picks the form. This module is the one reader of those
rows: ``_gram`` turns them into the triplets whose pattern
``sampling._spd_pattern`` analyses and ``sampling._spd_numeric`` factors.

A short piece of edge, shorter than ``_CLUSTER_GAP`` times the longest
edge at either end of its edge, has a difference row that would swamp
every other term at its two nodes. One rule handles every such piece:
it joins its two nodes, and each connected component of the joins (a
cluster, of vertices, points or both) is written relative to its
smallest node, x_i = z_0 + z_base + z_i, so the stiff row reads the
nodes' own coordinates alone. ``_to_nodes`` is that map: ``_vertex_cov``
takes Cov(z) back through it and ``sample`` its draws.

Which nodes the cut graph has and which entries its rows fill depend on
the graph and the points alone; kappa, tau and a change only the values.
So the layout (``_layout``: the pieces of edge, the columns of B and A,
and one ``sampling._spd_pattern`` with its fill-reducing order) is
cached, ``graph.CACHE_SIZE`` entries keyed on the graph and the bytes of
the validated points' edge indices and arclengths, with read-only arrays.
The analysis is H's, and Q and the scaled form's M, whose entries are all
H's, are factored on it in H's order, each reading its own slots. A model
computes only the piece weights (``_piece_values``) and the numeric
factors (``sampling._spd_numeric``), so a likelihood sweep over kappa at
fixed points builds the layout and finds its order once.
Every check still runs on every call. ``_vertex_cov`` reads the layout at
no points the same way, and so does the resistance metric
(``_conductance_green``): the difference rows alone, at weight
1/sqrt(length), are the conductance Laplacian, so one pattern per graph
serves the vertex covariance, the Markov sampler and the metric.

Sampling has two paths, chosen by the number of distinct points alone,
and both draw in the cut graph's node order (``_chain``, the chain of
distinct points along each edge that ``_layout`` reads too): every vertex
first, the distinct interior points after them sorted by (edge, t). A
small request takes the dense Cholesky factor of C in that order. A
larger one forms neither C nor S_V. The vertices come from the vertex
precision's own factor Q = L D L': a draw is L'^{-1} D^{-1/2} z in
grounded coordinates, mapped to the vertices by ``_to_nodes`` as
``_vertex_cov`` maps Cov(z) (``_vertex_factor`` gives both the same
factor). The field walk (``_field_walk``) then draws each point along the
cut graph's pieces, from the node before it on its edge and the edge's
end vertex: x_b = G1(d; r) x_prev + G2(d; r) x_v + sqrt(D(d, d; r)) z_b,
with d the piece's length and r the rest of the edge. Given its two ends
a piece is independent of the rest of the graph, so this is exactly a
factor of C, with no fill between edges. ``sample`` draws one standard
normal per factor column and drops the columns of vertices that are not
among the points.

All formulas are overflow-safe for kt * L far beyond the ~700 range where
raw cosh/sinh overflow in double precision, and use expm1 wherever
1 - exp(-x) would cancel for small kt * L.

Loops and multiple edges are supported: a loop adds a single vertex term,
and a loop of length L reproduces the circle field of length L exactly.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components

from .errors import (
    ConditioningError,
    MeshResolutionError,
    NumericalError,
    PointError,
    UnsupportedAlphaError,
    ValidationError,
)
from .graph import (
    CACHE_SIZE,
    Edge,
    MetricGraph,
    PointOnGraph,
    _point_arrays,
    _same_edge_pairs,
    _sandwich,
    _symmetrize,
)
from .models import CovMatrix, FieldModel, _check_indices, _count, _scalar
from .sampling import _Pattern, _spd_numeric, _spd_pattern, replicate_normals, safe_cholesky

__all__ = [
    "neumann_edge_cov",
    "EdgeBasis",
    "edge_basis",
    "bridge_cov",
    "continuity_constraints",
    "endpoint_prior_cov",
    "condition_on_constraints",
    "vertex_field_cov",
    "full_cov",
    "sample",
    "markov_check",
    "kirchhoff_residual",
]

_log = logging.getLogger(__name__)


def _one_minus_exp(x):
    """1 - exp(-x) without cancellation for small x."""
    return -np.expm1(-x)


def _arclengths(ell: float, *xs) -> list[np.ndarray]:
    """The arclengths as float arrays; PointError unless all lie in [0, ell]."""
    xs = [np.asarray(x, dtype=float) for x in xs]
    if not all(np.all((0.0 <= x) & (x <= ell)) for x in xs):  # NaN fails too
        raise PointError(f"arclength outside [0, {ell}]")
    return xs


def _edge_scales(kappa, a, tau):
    """kt = kappa / sqrt(a) and c = tau^2 kappa sqrt(a) of an edge (or arrays)."""
    root_a = np.sqrt(a)
    return kappa / root_a, tau**2 * kappa * root_a


def _endpoint_block(kt, ell, scale):
    """Diagonal and off-diagonal of the Neumann endpoint block Sigma_e.

    With x = kt L: coth x / c = (1 + e^{-2x}) / (c (1 - e^{-2x})) and
    csch x / c = 2 e^{-x} / (c (1 - e^{-2x})). Broadcasts over all arguments.
    """
    den = scale * _one_minus_exp(2.0 * kt * ell)
    return (1.0 + np.exp(-2.0 * kt * ell)) / den, 2.0 * np.exp(-kt * ell) / den


def _basis(kt, ell, x):
    """G1(x), G2(x), broadcasting over all arguments.

    G1(x) = (e^{-kt x} - e^{-kt (2L - x)}) / (1 - e^{-2 kt L}), evaluated as
    e^{-kt x} (1 - e^{-2 kt (L - x)}) / (1 - e^{-2 kt L}); G2(x) = G1(L - x).
    No exponent is positive, and the endpoint values are exactly 0 and 1.
    """
    den = _one_minus_exp(2.0 * kt * ell)
    g1 = np.exp(-kt * x) * _one_minus_exp(2.0 * kt * (ell - x)) / den
    g2 = np.exp(-kt * (ell - x)) * _one_minus_exp(2.0 * kt * x) / den
    return g1, g2


def _dirichlet_green(kt, ell, scale, s, t):
    """Zero-boundary bridge covariance D(s, t), broadcasting over all arguments.

    D = [e^{-kt(M-m)} - e^{-kt(M+m)} - e^{-kt(2L-M-m)} + e^{-kt(2L-M+m)}]
    / (2 c (1 - e^{-2 kt L})) with m = min(s, t), M = max(s, t), evaluated in
    the factored form e^{-kt(M-m)} (1 - e^{-2 kt m}) (1 - e^{-2 kt (L-M)}) /
    (2 c (1 - e^{-2 kt L})): no cancellation at small kt, and exactly zero
    when either point is an endpoint.
    """
    m = np.minimum(s, t)
    M = np.maximum(s, t)
    return (
        np.exp(-kt * (M - m))
        * _one_minus_exp(2.0 * kt * m)
        * _one_minus_exp(2.0 * kt * (ell - M))
        / (2.0 * scale * _one_minus_exp(2.0 * kt * ell))
    )


def neumann_edge_cov(kappa: float, a: float, tau: float, ell: float, s, t):
    """Covariance of the Neumann edge field at arclengths s, t in [0, ell].

    N(s, t) = D(s, t) + G(s)' Sigma_e G(t): the bridge plus the endpoint
    block carried by the boundary basis. Broadcasts over array-valued s, t,
    and N(s, t) == N(t, s) exactly. In the interior of a long edge
    (kt * ell >> 1) this approaches the stationary exponential covariance
    exp(-kt |s - t|) / (2 tau^2 kappa sqrt(a)).
    """
    kappa, a, tau, ell = (
        _scalar(x, name)
        for x, name in ((kappa, "kappa"), (a, "a"), (tau, "tau"), (ell, "length"))
    )
    s, t = _arclengths(ell, s, t)
    kt, scale = _edge_scales(kappa, a, tau)
    diag, off = _endpoint_block(kt, ell, scale)
    g1s, g2s = _basis(kt, ell, s)
    g1t, g2t = _basis(kt, ell, t)
    out = (
        _dirichlet_green(kt, ell, scale, s, t)
        + diag * (g1s * g1t + g2s * g2t)
        + off * (g1s * g2t + g2s * g1t)
    )
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class EdgeBasis:
    """Homogeneous solutions G1, G2 of the edge operator with unit boundary data.

    G1(0) = 1, G1(L) = 0 and G2(0) = 0, G2(L) = 1; both solve
    a G'' = kappa^2 G on (0, L). Stored in the shifted-exponential form
    G1(x) = (e^{-kt x} - e^{-kt (2L - x)}) / (1 - e^{-2 kt L}), which never
    overflows however large kt * L gets.
    """

    kappa: float
    a: float
    length: float

    def __post_init__(self) -> None:
        for name in ("kappa", "a", "length"):
            object.__setattr__(self, name, _scalar(getattr(self, name), name))

    @property
    def kt(self) -> float:
        return _edge_scales(self.kappa, self.a, 1.0)[0]

    def matrix(self, x) -> np.ndarray:
        """Stack [G1(x), G2(x)] along the last axis; shape x.shape + (2,)."""
        (x,) = _arclengths(self.length, x)
        return np.stack(_basis(self.kt, self.length, x), axis=-1)

    def __call__(self, x) -> np.ndarray:
        return self.matrix(x)


def edge_basis(m: FieldModel, e: Edge) -> EdgeBasis:
    """Boundary-data basis of the edge representation; needs alpha = 1."""
    _require_alpha_one(m)
    kappa, a = m.edge_params(e)
    return EdgeBasis(kappa=kappa, a=a, length=e.length)


def _require_alpha_one(m: FieldModel) -> None:
    if m.alpha != 1.0:
        raise UnsupportedAlphaError(
            f"exact construction requires alpha = 1, got {m.alpha}; "
            "use the spectral module for other exponents"
        )


def bridge_cov(m: FieldModel, e: Edge, s, t):
    """Covariance of the zero-boundary edge bridge at arclengths s, t.

    Equals the Neumann covariance conditioned on zero values at both
    endpoints; vanishes identically when s or t is an endpoint. Broadcasts
    elementwise over arrays.
    """
    _require_alpha_one(m)
    kappa, a = m.edge_params(e)
    s, t = _arclengths(e.length, s, t)
    kt, scale = _edge_scales(kappa, a, m.tau)
    out = _dirichlet_green(kt, e.length, scale, s, t)
    return float(out) if out.ndim == 0 else out


def continuity_constraints(g: MetricGraph) -> np.ndarray:
    """Difference rows forcing all endpoint values at each vertex to agree.

    Endpoint coordinates are ordered (edge order, then t=0 end before
    t=length end): coordinates 2j and 2j+1 for edge j. For every vertex the
    incident endpoints are chained consecutively, giving degree(v) - 1 rows;
    a loop ties its own two endpoints together.
    """
    chains = [[2 * j + end for j, end in ends] for ends in g._incident]
    first = np.array([c for coords in chains for c in coords[:-1]], dtype=np.intp)
    second = np.array([c for coords in chains for c in coords[1:]], dtype=np.intp)
    K = np.zeros((len(first), 2 * g.edge_count))
    rows = np.arange(len(first))
    K[rows, first] = 1.0
    K[rows, second] = -1.0
    return K


def endpoint_prior_cov(g: MetricGraph, m: FieldModel) -> np.ndarray:
    """Block-diagonal covariance of all edge endpoint values before conditioning.

    Edges are independent Neumann fields, so the 2|E| x 2|E| matrix has one
    2x2 block Sigma_e per edge and zeros elsewhere.
    """
    _require_alpha_one(m)
    ec = _edge_constants(g, m)
    diag, off = _endpoint_block(ec.kt, ec.length, ec.scale)
    start = 2 * np.arange(g.edge_count)
    rows = np.concatenate([start, start + 1, start, start + 1])
    cols = np.concatenate([start, start + 1, start + 1, start])
    sigma = np.zeros((2 * g.edge_count, 2 * g.edge_count))
    sigma[rows, cols] = np.concatenate([diag, diag, off, off])
    return sigma


#: ``condition_on_constraints`` drops the constraint Gram matrix's
#: eigenvalues below this fraction of the largest
_RCOND = 1e-12


def condition_on_constraints(sigma: np.ndarray, constraints: np.ndarray) -> np.ndarray:
    """Covariance of a Gaussian vector conditioned on K x = 0.

    Returns sigma - sigma K' (K sigma K')^+ K sigma, where the inverse drops
    eigenvalues below ``_RCOND`` times the largest (redundant constraint
    rows are fine). The rank kept and the count dropped are logged at DEBUG
    on ``graphfields.exact``. Raises ConditioningError when the constraint
    Gram matrix is entirely degenerate, which signals bad input.
    """
    return _conditioned(sigma, constraints)[0]


def _conditioned(sigma, constraints) -> tuple[np.ndarray, int]:
    """``condition_on_constraints`` and the rank of the Gram inverse it kept."""
    K = np.asarray(constraints, dtype=float)
    if K.shape[0] == 0:
        return np.array(sigma, dtype=float), 0
    ks = K @ sigma
    gram = _symmetrize(ks @ K.T)
    vals, vecs = np.linalg.eigh(gram)
    if not np.all(np.isfinite(vals)) or vals[-1] <= 0.0:
        raise ConditioningError("constraint Gram matrix is singular")
    keep = vals > _RCOND * vals[-1]
    rank = int(np.count_nonzero(keep))
    _log.debug("condition_on_constraints: %d constraint rows, rank %d kept, %d dropped "
               "below rcond %.3g", K.shape[0], rank, K.shape[0] - rank, _RCOND)
    inv = (vecs[:, keep] / vals[keep]) @ vecs[:, keep].T
    return _symmetrize(sigma - ks.T @ inv @ ks), rank


def _segment_weights(kt, scale, length):
    """The two row weights of a piece of edge in a vertex precision Q = B'B.

    The inverse Neumann endpoint block of a piece of length L,
    c [[coth x, -csch x], [-csch x, coth x]] with x = kt L, splits as
    (c/2) [tanh(x/2) (1,1)(1,1)' + coth(x/2) (1,-1)(1,-1)'], so the piece
    from node a to node b adds the rows sqrt(c tanh(x/2) / 2) (e_a + e_b)
    and sqrt(c coth(x/2) / 2) (e_a - e_b). Returns the two weights;
    broadcasts over all arguments.

    The square of the second weight, the precision of the field's increment
    across the piece (about tau^2 a / L for a short piece), is capped at
    ``_MAX_PRECISION``, so it and the sums it enters stay finite for a piece
    only a few doubles long at any tau^2 a. Only a piece whose increment
    variance is below 1 / ``_MAX_PRECISION`` is weighted as if it were
    longer.
    """
    th = np.maximum(np.tanh(0.5 * kt * length), 0.5 * scale / _MAX_PRECISION)
    return np.sqrt(0.5 * scale * th), np.sqrt(0.5 * scale / th)


#: the largest square ``_segment_weights`` gives a difference weight
_MAX_PRECISION = 1e300


class _EdgeConstants(NamedTuple):
    """Per-edge arrays in edge order: end vertices, length, kt and c."""

    u: np.ndarray
    v: np.ndarray
    length: np.ndarray
    kt: np.ndarray
    scale: np.ndarray


@lru_cache(maxsize=CACHE_SIZE)
def _edge_constants(g: MetricGraph, m: FieldModel) -> _EdgeConstants:
    """The model's per-edge constants on the graph, cached, read-only."""
    kappa, a = m._edge_values(g.edges)
    out = _EdgeConstants(*g._edge_arrays, *_edge_scales(kappa, a, m.tau))
    out.kt.flags.writeable = out.scale.flags.writeable = False
    return out


#: ``_vertex_cov`` refines its solve this many columns at a time, so the
#: residual's 2|E| x block product stays small on large graphs.
_REFINE_BLOCK = 256


def _gram(cols: np.ndarray):
    """Row and column indices of the triplets of sum_r b_r b_r', as
    ``sampling._spd_pattern`` takes them, for the rows b_r = sum_s vals[r, s]
    e_{cols[r, s]}; ``_gram_values(vals)`` gives the values in that order."""
    width = cols.shape[1]
    return np.repeat(cols, width, axis=1).ravel(), np.tile(cols, width).ravel()


def _gram_values(vals: np.ndarray) -> np.ndarray:
    """Values of the triplets of ``_gram``."""
    return (vals[:, :, None] * vals[:, None, :]).ravel()


def _vertex_factor(g: MetricGraph, m: FieldModel):
    """The cut graph at no points, B's values there and the numeric factor
    of the vertex precision Q = B'B in its grounded coordinates, root
    first: what ``_vertex_cov`` solves with and ``sample`` draws from. Not
    cached itself; the layout is."""
    layout, _ = _layout_of(g, m, [])
    b_vals, *_ = _piece_values(layout, g, m)
    return layout, b_vals, _spd_numeric(layout.h_pattern, _gram_values(b_vals))


def _conductance_green(g: MetricGraph) -> np.ndarray:
    """G, the conductance Laplacian's Green's function grounded at vertex 0,
    as a new |V| x |V| array, from the cut graph at no points (the layout
    ``_vertex_factor`` reads).

    The Laplacian is the Gram matrix of the difference rows alone, each at
    weight piece_length ** -0.5, in grounded coordinates; column 0 of the
    first row, a sum row and so otherwise zero, is set to 1: z_0's own row,
    the +1 at vertex 0. No difference row reads z_0, so the inverse is
    block-diagonal, and zeroing z_0's row and column leaves Cov(z) given
    z_0 = 0 exactly. A short edge joins a cluster (``_layout``), so its
    stiff row reads one coordinate. The grounding map takes the inverse to
    the vertices, on its rows and then on its columns.
    """
    layout = _layout(g, b"", b"")
    w_a = np.concatenate([np.zeros(layout.piece_length.size), layout.piece_length ** -0.5])
    b_vals = np.concatenate([[0.0], w_a, -w_a, np.zeros_like(w_a)])[layout.b_pick]
    b_vals[0, 0] = 1.0
    green = _spd_numeric(layout.h_pattern, _gram_values(b_vals)).solve(np.eye(layout.nodes))
    green[0] = green[:, 0] = 0.0
    _to_nodes(layout, green)
    _to_nodes(layout, green.T)
    return _symmetrize(green)


@lru_cache(maxsize=CACHE_SIZE)
def _vertex_cov(g: MetricGraph, m: FieldModel):
    """Vertex covariance S_V = Q^{-1} and the factor's method and smallest
    pivot.

    Q = B'B for the rows of the cut graph at no points, one pair of
    ``_segment_weights`` rows per edge, in the grounded coordinates
    x = z_0 (1, ..., 1) + (0, z_1, ...). There column 0 of B is B 1, which
    the difference rows annihilate exactly: the constant vector's
    precision, made of the tanh terms alone, never mixes with the coth
    terms, so the constant mode that dominates S_V at small kt L keeps full
    relative accuracy although ``sampling._spd_numeric`` forms Q, on the
    pattern the layout at no points keeps. Vertices joined by short edges
    share a base there as points do (``_layout``). Solves for the identity
    give Cov(z), and the grounding map (``_to_nodes``) takes it to the
    vertices, on its rows and then on its columns.

    One step of iterative refinement mends the root's entry on large
    graphs at kt L of order one. z_0 couples to every vertex: its diagonal
    entry 1'Q1 is a sum of O(|V|) terms, which the factor cuts down to
    1 / S_V[0, 0], of order one, so the first solve keeps fewer digits of
    z_0's variance (on square grids of unit edges at kappa = 1, 9.5e-13
    relative off the ``constraints=`` reference at 20 x 20 and 3.3e-11 at
    30 x 30). The step adds Q^{-1} (I - B'(B X)) to the first solve X,
    with the residual taken through the rows B, in blocks of
    ``_REFINE_BLOCK`` columns; a residual through the formed Q would carry
    the same cancellation.
    """
    layout, b_vals, factor = _vertex_factor(g, m)
    nodes = layout.nodes
    sv = factor.solve(np.eye(nodes))
    rows, width = layout.b_cols.shape
    b = csr_array((b_vals.ravel(), layout.b_cols.ravel(), np.arange(0, rows * width + 1, width)),
                  shape=(rows, nodes))
    for lo in range(0, nodes, _REFINE_BLOCK):
        block = slice(lo, lo + _REFINE_BLOCK)
        resid = -(b.T @ (b @ sv[:, block]))
        diag = np.arange(resid.shape[1])
        resid[lo + diag, diag] += 1.0
        sv[:, block] += factor.solve(resid)
    sv = np.ascontiguousarray(sv)  # the solves return it F-ordered
    _to_nodes(layout, sv)
    _to_nodes(layout, sv.T)
    _symmetrize(sv)
    sv.flags.writeable = False
    return sv, (factor.method, factor.min_pivot)


def vertex_field_cov(g: MetricGraph, m: FieldModel) -> CovMatrix:
    """Exact covariance of the field's (deduplicated) vertex values.

    The inverse of the sparse vertex precision Q, one row and column per
    vertex; every edge endpoint at a vertex carries that vertex's value.
    ``info`` names the vertices, the factor's method and its smallest
    pivot.
    """
    sv, (method, min_pivot) = _vertex_cov(g, m)
    points = tuple(g.vertex_point(v) for v in range(g.vertex_count))
    info = {"vertices": tuple(range(g.vertex_count)), "factor": method,
            "min_pivot": min_pivot}
    return CovMatrix(sv.copy(), points, "exact", info=info)


def full_cov(
    g: MetricGraph,
    m: FieldModel,
    pts: Sequence[PointOnGraph],
    constraints: np.ndarray | None = None,
) -> CovMatrix:
    """Exact covariance matrix of the alpha = 1 field at arbitrary points.

    C = Phi S Phi' + bridges: row i of Phi holds G1(t_i), G2(t_i) of point
    i's edge in the columns of that edge's two ends (``graph._sandwich``
    forms the product), and the bridge term adds the Dirichlet Green's
    function to every same-edge pair. By default S is the vertex covariance
    and the columns are vertices.
    ``constraints`` selects the dense reference instead: S is the endpoint
    covariance conditioned on K x = 0 (any matrix with the same kernel as
    the continuity constraints yields the same covariance) and the columns
    are the 2|E| edge endpoints.
    ``info["route"]`` is ``"vertex"`` or ``"constraints"``; the vertex route
    adds the vertex factor's method and smallest pivot, as
    :func:`vertex_field_cov` reports them, and the constraints route the
    ``"constraint_rank"`` that :func:`condition_on_constraints` kept.
    """
    _require_alpha_one(m)
    pts, j, t, *_ = _point_arrays(g, pts)
    ec = _edge_constants(g, m)
    if constraints is None:
        ends, (method, min_pivot) = _vertex_cov(g, m)
        col_u, col_v = ec.u, ec.v
        info = {"route": "vertex", "factor": method, "min_pivot": min_pivot}
    else:
        ends, rank = _conditioned(endpoint_prior_cov(g, m), constraints)
        info = {"route": "constraints", "constraint_rank": rank}
        col_u = 2 * np.arange(g.edge_count)
        col_v = col_u + 1
    weights = _basis(ec.kt[j], ec.length[j], t)
    C = _symmetrize(_sandwich(ends, col_u[j], col_v[j], *weights))
    rows, cols = _same_edge_pairs(j)
    e = j[rows]
    C[rows, cols] += _dirichlet_green(
        ec.kt[e], ec.length[e], ec.scale[e], t[rows], t[cols]
    )
    return CovMatrix(C, tuple(pts), "exact", info=info)


class _Chain(NamedTuple):
    """The chain of distinct points along each edge (``_chain``).

    ``node``, each input point's node: its vertex, or |V| plus the rank of
    its location among the distinct interior points sorted by (edge, t).
    Then, for each of those points in that order: ``first``, the input
    index of its first point; ``starts``, whether it is the first on its
    edge; ``prev``, the node before it on its edge (the edge's start vertex
    or the point before it); and ``gap``, its arclength from ``prev``.
    """

    node: np.ndarray
    first: np.ndarray
    starts: np.ndarray
    prev: np.ndarray
    gap: np.ndarray


def _chain(g: MetricGraph, j, t) -> _Chain:
    """The chain of the points with validated edge indices ``j`` and
    arclengths ``t`` (``_point_arrays``), the one structure ``_layout`` and
    ``sample`` read.

    A point within the smallest normal double of an end of its edge is at
    that end's vertex, and one within it of the point before it on its edge
    is at that point's location. A piece of edge shorter than that would
    have a difference weight whose square, about tau^2 a / length,
    overflows at tau^2 a of order one (``_segment_weights``).
    """
    u, v, length = g._edge_arrays
    merge = np.finfo(float).tiny
    node = np.where(t <= merge, u[j], np.where(length[j] - t <= merge, v[j], -1))
    inner = np.flatnonzero(node < 0)
    inner = inner[np.lexsort((t[inner], j[inner]))]  # stable: ties keep input order
    pj, pt = j[inner], t[inner]
    starts = np.ones(inner.size, dtype=bool)
    starts[1:] = pj[1:] != pj[:-1]
    new = starts.copy()
    new[1:] |= pt[1:] - pt[:-1] > merge
    node[inner] = g.vertex_count + np.cumsum(new) - 1
    first, starts, pt = inner[new], starts[new], pt[new]
    prev = np.where(starts, u[j[first]], node[first] - 1)
    gap = pt.copy()
    gap[1:] -= np.where(starts[1:], 0.0, pt[:-1])
    return _Chain(node, first, starts, prev, gap)


#: a piece of edge shorter than this fraction of the longest edge at either
#: end of its edge joins its two nodes in one cluster of the cut graph
#: (``_layout``)
_CLUSTER_GAP = 1e-3


class _Layout(NamedTuple):
    """What a cut graph takes from its graph and points alone, for every
    model (``_layout``). Every array is read-only. ``nodes`` is the number
    of coordinates. Row r of B (of A) is sum_s vals[r, s] e_{cols[r, s]}.

    The pieces of edge: ``piece_edge``, ``piece_length``, and ``ends``, the
    two nodes of each row of B (``_piece_values`` order). ``base``, each
    node's base in the grounding map x_i = z_0 + z_base[i] + z_i: the
    smallest node of its cluster, 0 for none (for that node itself, a node
    in no cluster, or one in the cluster of vertex 0). B's columns
    ``b_cols``, and ``b_pick``, each entry's place in the weights
    ``_piece_values`` lays out. A's columns and values, which hold no
    weight, and ``obs``, each observation's node. ``label``, node i's row
    and column in Q, H = Q + A'A / noise and M (``_scaled_form``): the root
    is relabelled last when there are observations. One
    ``sampling._spd_pattern`` per layout, of H's Gram triplets followed by
    M's, so one fill-reducing order is found. M's triplets, in ``label``
    order too, are the Gram triplets of the rows at ``ends``, then one per
    node on the diagonal; each of their entries is one of H's, so H's
    slots and order are those of H's triplets alone. ``h_pattern`` is that
    analysis with its slots cut to H's, and Q's triplets are the first
    ``b_cols.size * b_cols.shape[1]`` of them, so Q is factored on H's
    pattern with A's entries as explicit zeros, in the same order.
    ``m_pattern`` is the same analysis with M's slots, sharing ``perm``,
    ``order``, ``indptr`` and ``indices`` with ``h_pattern``, H's entries
    outside M being explicit zeros; None at no points, where nothing
    factors M and M's triplets are left out of the analysis.
    """

    nodes: int
    piece_edge: np.ndarray
    piece_length: np.ndarray
    ends: np.ndarray
    base: np.ndarray
    b_cols: np.ndarray
    b_pick: np.ndarray
    a_cols: np.ndarray
    a_vals: np.ndarray
    obs: np.ndarray
    label: np.ndarray
    h_pattern: _Pattern
    m_pattern: _Pattern | None


def _to_nodes(layout: _Layout, arr: np.ndarray) -> np.ndarray:
    """The grounding map x_i = z_0 + z_base[i] + z_i along axis 0 of
    ``arr``, in place: the based rows first, then the root's. Returns
    ``arr``."""
    based = np.flatnonzero(layout.base)
    arr[based] += arr[layout.base[based]]
    arr[1:] += arr[0]
    return arr


def _grounded_rows(base, a, b):
    """Rows w_a x_a + w_b x_b in the coordinates x_i = z_0 + z_base[i] + z_i
    (the grounding map), as the pieces of edge of the cut graph add them,
    before their weights are known.

    Node 0's coordinate is z_0 alone, and base 0 means no base, so column 0
    carries every row's sum and a difference row none of it. Equal columns
    within a row are added, so a difference row across a node and its base
    loses that column exactly. A node is never its own base and a row's two
    nodes differ unless it is a loop's, so no slot takes more than one
    other, and every entry is 0, w_a, w_b or w_a + w_b. Returns (cols,
    pick) with one column per slot that is ever non-zero: pick indexes the
    entries in [0, w_a, w_b, w_a + w_b] (``_piece_values``).
    """
    r = a.size
    cols = np.stack([np.zeros_like(a), base[a], a, base[b], b], axis=1)
    kind = np.tile([3, 1, 1, 2, 2], (r, 1))  # 0 none, 1 w_a, 2 w_b, 3 w_a + w_b
    kind[:, 1:][cols[:, 1:] == 0] = 0
    for i, k in ((1, 3), (1, 4), (2, 3), (2, 4)):
        same = (cols[:, i] == cols[:, k]) & (cols[:, k] != 0)
        kind[same, i] = 3
        kind[same, k] = 0
        cols[same, k] = 0
    live = cols.any(axis=0)
    live[0] = True
    pick = np.where(kind == 0, 0, 1 + (kind - 1) * r + np.arange(r)[:, None])
    return cols[:, live], pick[:, live]


@lru_cache(maxsize=CACHE_SIZE)
def _layout(g: MetricGraph, j_key: bytes, t_key: bytes) -> _Layout:
    """The cut graph of ``g`` at the points whose validated edge indices
    and arclengths (``_point_arrays``) have the bytes ``j_key`` and
    ``t_key``: the field at the vertices and the distinct points as a
    Markov field, with precision Q = B'B and observations A x, both in
    grounded coordinates. B has two rows per piece of edge, and A one row
    per input point: its node's row of the grounding map.

    Cutting every edge at the points leaves pieces of edge whose laws given
    their ends do not depend on the rest of the graph, so each piece adds
    the two rows of ``_segment_weights`` between its end nodes; an edge
    with no point is one piece. Nodes 0 .. |V|-1 are the vertices and the
    distinct interior points follow, sorted by (edge, t): the nodes, the
    pieces up to each point and ``obs`` are those of ``_chain``.

    The coordinates are ``_vertex_cov``'s grounded ones, x = z_0 (1, ...,
    1) + (0, z_1, ...), so the constant mode keeps full accuracy at small
    kappa. A short piece would do to its end nodes what the constant mode
    does to the vertices: its difference row, of weight about 1/length,
    swamps every other term at those nodes. So one rule makes clusters: a
    piece shorter than ``_CLUSTER_GAP`` times the longest edge at either
    end of its edge joins its two nodes, the clusters are the connected
    components of those joins, whether they hold vertices, points or both,
    and each is based at its smallest node, a vertex where it holds one.
    A node in a cluster is written relative to its base, x_i = z_0 +
    z_base + z_i, so a stiff row inside a cluster reads the two nodes' own
    coordinates alone. Base 0 means no base, which is also right for the
    cluster of vertex 0, whose coordinate is z_0 alone. ``_chain`` puts a
    point within the smallest normal double of a vertex or of the point
    before it on its edge at that node, so no piece is shorter than that.

    Which nodes and which entries there are depends on the graph and the
    points alone: this is the layout, and only B's values
    (``_piece_values``) are computed for a model.
    """
    j = np.frombuffer(j_key, dtype=np.intp)
    t = np.frombuffer(t_key, dtype=float)
    u, v, length = g._edge_arrays
    chain = _chain(g, j, t)
    nv, k = g.vertex_count, chain.first.size
    nodes = nv + k
    pj, pt, node = j[chain.first], t[chain.first], np.arange(nv, nodes)
    # each point's piece from the node before it, then the last point's on
    # each edge to its end vertex, then the edges with no point
    ends = np.roll(chain.starts, -1)  # the point before the next edge's first
    touched = np.zeros(g.edge_count, dtype=bool)
    touched[pj] = True
    free = np.flatnonzero(~touched)
    a = np.concatenate([chain.prev, node[ends], u[free]])
    b = np.concatenate([node, v[pj[ends]], v[free]])
    piece_edge = np.concatenate([pj, pj[ends], free])
    piece_length = np.concatenate([chain.gap, length[pj[ends]] - pt[ends], length[free]])
    # the clusters: the nodes joined by short pieces, each based at its
    # smallest node (no base for that node itself, nor for a lone node)
    longest = np.zeros(nv)
    np.maximum.at(longest, np.concatenate([u, v]), np.concatenate([length, length]))
    short = piece_length < _CLUSTER_GAP * np.maximum(longest[u], longest[v])[piece_edge]
    joins = csr_array((np.ones(short.sum()), (a[short], b[short])), shape=(nodes, nodes))
    _, smallest, cluster = np.unique(connected_components(joins, directed=False)[1],
                                     return_index=True, return_inverse=True)
    base = smallest[cluster]
    base[base == np.arange(nodes)] = 0
    row_ends = np.stack([np.concatenate([a, a]), np.concatenate([b, b])], axis=1)
    b_cols, b_pick = _grounded_rows(base, *row_ends.T)
    # an observation at node i reads x_i = z_0 + z_base[i] + z_i: columns
    # (0, base[i], i) with weights (1, base[i] != 0, i != 0), and a column
    # that is 0 in every row dropped as in ``_grounded_rows``
    obs = chain.node
    a_cols = np.stack([np.zeros_like(obs), base[obs], obs], axis=1)
    a_cols = a_cols[:, a_cols.any(axis=0) | [True, False, False]]
    a_vals = (a_cols != 0).astype(float)
    a_vals[:, 0] = 1.0
    # every observation row puts weight 1 / noise on the root coordinate
    # z_0: relabelled last, it is eliminated last by the dense factor. With
    # no observation it keeps its place first, where ``_vertex_cov`` has it
    label = np.arange(nodes)
    if j.size:
        label = np.roll(label, 1)
    # H's triplets, then M's, whose entries are all H's, so one analysis
    # serves both. M is factored only for observations: at no points it is
    # left out
    parts = [_gram(label[b_cols]), _gram(label[a_cols])]
    h_size = sum(rows.size for rows, _ in parts)
    if j.size:
        parts += [_gram(label[row_ends]), (label, label)]
    pattern = _spd_pattern(*(np.concatenate(z) for z in zip(*parts)), nodes)
    out = _Layout(nodes, piece_edge, piece_length, row_ends, base, b_cols, b_pick,
                  a_cols, a_vals, obs, label, pattern, None)
    for arr in (*out[1:-2], *pattern[1:]):
        if arr is not None:
            arr.flags.writeable = False
    # the slot views are taken after the freeze, so they are read-only too
    return out._replace(h_pattern=pattern._replace(slot=pattern.slot[:h_size]), m_pattern=(
        pattern._replace(slot=pattern.slot[h_size:]) if j.size else None))


def _layout_of(g: MetricGraph, m: FieldModel, pts) -> tuple[_Layout, bool]:
    """The layout of the cut graph at ``pts`` and whether this call built
    it. The model and the points are checked on every call; the cache key
    is made of the validated arrays' bytes, never of the caller's objects.
    The flag reads the cache's miss count, so under threads it may count
    another thread's build; only the DEBUG line reads it."""
    _require_alpha_one(m)
    _, j, t, *_ = _point_arrays(g, pts)
    misses = _layout.cache_info().misses
    layout = _layout(g, j.tobytes(), t.tobytes())
    return layout, _layout.cache_info().misses > misses


def _piece_values(layout: _Layout, g: MetricGraph, m: FieldModel):
    """B's values in grounded coordinates, laid out by ``_grounded_rows``,
    and (w_a, w_b), the weights of B's rows at their two ``ends``: each
    piece's two ``_segment_weights`` rows, (w_sum, w_sum) for every piece,
    then (w_diff, -w_diff)."""
    ec = _edge_constants(g, m)
    e = layout.piece_edge
    w_sum, w_diff = _segment_weights(ec.kt[e], ec.scale[e], layout.piece_length)
    w_a = np.concatenate([w_sum, w_diff])
    w_b = np.concatenate([w_sum, -w_diff])
    return np.concatenate([[0.0], w_a, w_b, w_a + w_b])[layout.b_pick], w_a, w_b


#: ``_precision_loglik`` takes the scaled form where the noise variance is
#: at most this times 1 / (w_max w_min), the geometric mean of the
#: increment variances across the stiffest and the loosest piece, and the
#: grounded form above it. The scaled form's error grows like noise_var
#: w_max^2 and the grounded form's like 1 / (noise_var w_min^2), so the
#: rule weighs one against the other. On 700 random circles (1 or 4 edges,
#: 5-32 points with up to two more 1e-13 to 1e-3 from a vertex or a point,
#: kappa 1e-4 to 1e3, tau 0.5 to 3, noise 1e-16 to 1e4), against 50-digit
#: mpmath, every threshold from 0.05 to 1 kept every case within 1.2e-14
#: relative, while the rule noise_var w_max^2 <= 1 left 3 above 1e-12. The
#: benchmark's fit requests (``bench/workloads.py``, noise 0.01) read at
#: least 0.126 on seeds 1-199, so they stay on the grounded form.
_SCALED_MAX = 0.05


def _scaled_form(layout: _Layout, w_a, w_b, y, noise_var: float):
    """The quadratic form, log|M| plus the repeated locations' terms, and
    the factor's method, in absolute coordinates with every observed node
    pinned.

    Node i observed k_i times reads the mean ybar_i of its observations,
    with noise variance noise_var / k_i, and is written x_i = ybar_i + s_i
    v_i with s_i = sqrt(noise_var / k_i); an unobserved node keeps x_i.
    In these coordinates u, B x = R u + r and the density of ybar is

        log|C_ybar + D| = log|M| - log|Q|,  M = R'R + I_observed,
        ybar'(C_ybar + D)^{-1} ybar = min_u |R u + r|^2 + |v|^2,

    where M = [[Q_UU, Q_UO S], [S Q_OU, S Q_OO S + I]]: at zero noise
    Q_UU + I, and no 1 / noise_var appears. M's triplets are those of the
    rows R at ``ends``, then one per node on the diagonal, factored on H's
    analysis and in H's order (``m_pattern``).
    Each repeated location adds its spread about ybar_i over noise_var,
    (k_i - 1) log noise_var and log k_i. At zero noise a location observed
    twice is rejected.
    """
    nodes, obs, ends, label = layout.nodes, layout.obs, layout.ends, layout.label
    count = np.bincount(obs, minlength=nodes)
    if noise_var == 0.0 and count.max() > 1:
        raise ValidationError("duplicate observation points need positive noise variance")
    seen, k = count > 0, np.maximum(count, 1)
    pin = np.bincount(obs, y, minlength=nodes) / k  # ybar, and 0 where unobserved
    rows = np.stack([w_a, w_b], axis=1) * np.where(seen, np.sqrt(noise_var / k), 1.0)[ends]
    offset = w_a * pin[ends[:, 0]] + w_b * pin[ends[:, 1]]
    factor = _spd_numeric(layout.m_pattern, np.concatenate([_gram_values(rows), seen * 1.0]))
    rhs = np.empty(nodes)
    rhs[label] = -np.bincount(ends.ravel(), (rows * offset[:, None]).ravel(), minlength=nodes)
    u = factor.solve(rhs)[label]
    resid = np.sum(rows * u[ends], axis=1) + offset
    quad = float(resid @ resid) + float(u[seen] @ u[seen])
    logdet = factor.logdet + float(np.sum(np.log(k)))
    repeats = len(y) - np.count_nonzero(seen)
    if repeats:
        spread = y - pin[obs]
        quad += float(spread @ spread) / noise_var
        logdet += repeats * np.log(noise_var)
    return quad, logdet, factor.method


def _precision_loglik(g: MetricGraph, m: FieldModel, obs, y, noise_var: float):
    """``inference.loglik`` of the exact field through the precision of its
    cut graph: (value, node count, the factor's method, the form,
    ``"scaled"`` or ``"grounded"``, and whether the layout was ``"reused"``
    or ``"built"``).

    With the field x at the nodes of the cut graph (precision Q = B'B) and
    y = A x + noise,

        log p(y) = -(quad + log|C + noise_var I| + n log 2 pi) / 2,
        log|C + noise_var I| = log|F| - log|Q|,

    where log|Q| comes from Q's factor in grounded coordinates (the
    grounding map has determinant 1) and F is the second matrix of one of
    two forms, both factored in the layout's ``label`` order, on its one
    analysis. The scaled form (``_scaled_form``) pins each observed node
    and factors M, with no 1 / noise_var. The grounded form factors
    H = Q + A'A / noise_var in grounded coordinates, so n log noise_var +
    log|H| = log|F|; with b = A'y / noise_var and mu = H^{-1} b, the
    posterior mean at the nodes, the quadratic form is |y - A mu|^2 /
    noise_var + |B mu|^2, the minimum over x of |y - A x|^2 / noise_var +
    x'Qx as a sum of two non-negative terms.

    The scaled form loses digits as noise_var w_max^2 grows, w_max^2 being
    the precision of the increment across the stiffest piece (about
    tau^2 a / L for a piece of length L). The grounded form loses them as
    noise_var w_min^2 falls, w_min for the loosest piece: every
    observation row adds 1 / noise_var to H's root entry, which the factor
    cuts down to O(1). So the rule: scaled where noise_var w_max w_min is
    at most ``_SCALED_MAX``, grounded above it. No n x n covariance and no
    |V| x |V| table is formed. Raises ``NumericalError`` if the value is
    not finite.
    """
    layout, built = _layout_of(g, m, obs)
    how = "built" if built else "reused"
    n = len(y)
    if not n:  # no observation has density 1, in no form and with no factor
        return 0.0, layout.nodes, "no factor", "no", how
    b_vals, w_a, w_b = _piece_values(layout, g, m)
    q_vals = _gram_values(b_vals)
    q_logdet = _spd_numeric(layout.h_pattern, q_vals).logdet
    w_diff = w_a[w_a.size // 2:]
    if noise_var * w_diff.max() * w_diff.min() <= _SCALED_MAX:
        form, (quad, logdet, method) = "scaled", _scaled_form(layout, w_a, w_b, y, noise_var)
    else:
        form, nodes, label = "grounded", layout.nodes, layout.label
        h_factor = _spd_numeric(layout.h_pattern, np.concatenate(
            [q_vals, (1.0 / noise_var) * _gram_values(layout.a_vals)]))
        b = np.bincount(layout.a_cols.ravel(), (layout.a_vals * y[:, None]).ravel(),
                        minlength=nodes)
        rhs = np.empty(nodes)
        rhs[label] = b / noise_var
        mu = h_factor.solve(rhs)[label]
        resid = y - np.sum(layout.a_vals * mu[layout.a_cols], axis=1)
        prior = np.sum(b_vals * mu[layout.b_cols], axis=1)
        quad = float(resid @ resid) / noise_var + float(prior @ prior)
        logdet, method = n * np.log(noise_var) + h_factor.logdet, h_factor.method
    logdet -= q_logdet
    value = -0.5 * (quad + logdet + n * np.log(2.0 * np.pi))
    if not np.isfinite(value):
        raise NumericalError(f"log-likelihood is not finite ({form} form): quadratic form "
                             f"{quad:.3g}, log-determinant {logdet:.3g}")
    return value, layout.nodes, method, form, how


def _field_walk(ec: _EdgeConstants, chain: _Chain, j, t, x) -> None:
    """The field at the chain's points, in place on the rows of ``x`` in
    node order (one column per replicate): the vertex rows hold the vertex
    values, and row |V| + k the normal z_k of point k, which becomes

        x_k = G1(d; r) x_prev + G2(d; r) x_v + sqrt(D(d, d; r)) z_k,

    with d the ``gap`` from the node before it and G1, G2 and D taken on
    the rest of its edge, [t_prev, L], of length r = L - t_prev and with
    end vertex v. Given its values at t_prev and at v, the rest of the
    edge does not depend on anything drawn before, so this walk along the
    cut graph's pieces is exactly a factor of the points' covariance given
    the vertices. One step per rank within an edge, vectorised over the
    edges.
    """
    pj = j[chain.first]
    kt, gap = ec.kt[pj], chain.gap
    rest = ec.length[pj] - t[chain.first] + gap
    g1, g2 = _basis(kt, rest, gap)
    inner = x[x.shape[0] - pj.size:]
    inner *= np.sqrt(_dirichlet_green(kt, rest, ec.scale[pj], gap, gap))[:, None]
    inner += g2[:, None] * x[ec.v[pj]]
    at = np.flatnonzero(chain.starts)  # the first point on every edge, then the next, ...
    while at.size:
        inner[at] += g1[at, None] * x[chain.prev[at]]
        at = at[at + 1 < pj.size] + 1
        at = at[~chain.starts[at]]


#: ``sample`` draws a request of up to this many distinct points from the
#: dense Cholesky factor of its covariance, and a larger one from the
#: vertex factor and the field walk (``_field_walk``). The crossover grows
#: with the replicate count. On random figure-eight requests (single-thread
#: BLAS on a shared 2-core Xeon, best of 3-5) the Markov path was 2.2x
#: faster than the dense factor at 384 points and 200 replicates (1.4x at
#: 256); at 2,000 replicates the two were within 2% from 256 to 384 points
#: and the Markov path 1.2-1.9x faster from 512 to 1,024; at 20,000
#: replicates it was 1.5x slower at 256 points, 1.2x slower at 384, even at
#: 768 and 1.2x faster at 1,024.
_DENSE_SAMPLE_MAX = 384


def sample(
    g: MetricGraph,
    m: FieldModel,
    pts: Sequence[PointOnGraph],
    n: int,
    seed: int,
) -> np.ndarray:
    """n zero-mean draws of the exact field at the points, (n, len(pts)).

    Draws are a factor F of the covariance (F F' = C) times one standard
    normal per factor column, and all points at one location read one
    column, so equal points (a vertex addressed through any of its edge
    ends included) get equal values. Both paths draw in node order, the
    order of the cut graph (``_chain``): vertices ascending, then the
    distinct interior points by (edge, t). So the draws do not depend on
    the order the points are listed in: a permutation of the points
    permutes the columns. The number of distinct points alone picks the
    factor:

    - up to ``_DENSE_SAMPLE_MAX``, the dense Cholesky factor of
      ``full_cov`` at the distinct points in node order, each vertex at
      ``g.vertex_point``;
    - above it, the Markov factor. Every vertex of the graph comes first,
      drawn from the sparse vertex precision Q = L D L' of the cut graph at
      no points: x = L'^{-1} D^{-1/2} z in its grounded coordinates
      (``sampling._Factor.draw``, one triangular solve), mapped to the
      vertices by the grounding map (``_to_nodes``), so its covariance is
      Q^{-1} = S_V and no |V| x |V| table is formed. The distinct interior
      points follow, each drawn from the node before it on its edge and
      the edge's end vertex (``_field_walk``). Given its end values a piece
      of edge is independent of the rest of the graph, so this is exactly
      a factor of C in node order, with no n x n covariance. It runs on a
      (node x replicate) copy of the normals, so every step reads
      contiguous rows. The columns of vertices that are not among the
      points are dropped.

    Both paths build the draws as a (node x replicate) array and return
    its rows at the points' nodes, transposed. With no vertex among the
    points and none repeated, a request on the dense path draws
    ``replicate_normals(seed, n, len(pts)) @ chol(full_cov(sorted_pts)).T``,
    its columns put back in input order, with ``sorted_pts`` the points by
    (edge, t). The path and the counts
    are logged at DEBUG on ``graphfields.exact``, with the jitter that
    ``safe_cholesky`` added on the dense path, and the vertex factor's
    method and smallest pivot on the Markov path. Deterministic in
    ``seed``, an integer >= 0 (a bool, a float or None is rejected). The
    replicates' normals are rows drawn in turn from one generator, so a
    smaller run's normals are a byte prefix of a larger run's; its draws
    agree with the larger run's first rows to rounding, since the rounding
    of the factor product can depend on its row count.
    """
    n = _count(n, "replicate count")
    seed = _count(seed, "seed")
    _require_alpha_one(m)
    pts, j, t, u, v, _ = _point_arrays(g, pts)
    if n == 0:
        return np.empty((0, len(pts)))
    chain = _chain(g, j, t)
    nv = g.vertex_count
    used, column = np.unique(chain.node, return_inverse=True)
    if used.size <= _DENSE_SAMPLE_MAX:
        vertices = used[used < nv]
        at = [g.vertex_point(w) for w in vertices] + [pts[i] for i in chain.first]
        chol, jitter = safe_cholesky(full_cov(g, m, at).matrix)
        # (node x replicate), as on the Markov path, so the gather copies rows.
        # The normals stay referenced until the return: freed before the
        # gather, small-batch's 20,000 x 10 request read about 0.5 ms slower
        normals = replicate_normals(seed, n, used.size)
        xt = chol @ normals.T
        touched = np.union1d(vertices, np.concatenate((u[chain.first], v[chain.first])))
        _log.debug("sample: dense route, %d distinct points, %d touched vertices, jitter %.3g",
                   used.size, touched.size, jitter)
        return xt[column].T
    layout, _, factor = _vertex_factor(g, m)
    # the normals, copied once into (node x replicate) order, become the
    # draws in place, one row per factor column
    zt = np.ascontiguousarray(replicate_normals(seed, n, nv + chain.first.size).T)
    zt[:nv] = _to_nodes(layout, factor.draw(zt[:nv]))
    _field_walk(_edge_constants(g, m), chain, j, t, zt)
    _log.debug("sample: Markov route, %d distinct points, %d vertices drawn, %s factor, "
               "min pivot %.3g", used.size, nv, factor.method, factor.min_pivot)
    return zt[chain.node].T


def markov_check(cov, set_a, set_b, set_s) -> float:
    """Largest conditional covariance between index sets A and B given S.

    Computes max |C_AB - C_AS C_SS^{-1} C_SB|; zero (to rounding) certifies
    conditional independence of A and B given S. The three index sets must
    be disjoint, and S must carry every separating boundary value for the
    certificate to be meaningful.
    """
    mat = cov.matrix if isinstance(cov, CovMatrix) else np.asarray(cov, dtype=float)
    a, b, s = (
        _check_indices(x, mat.shape[0], "index sets") for x in (set_a, set_b, set_s)
    )
    if set(a) & set(b) or set(a) & set(s) or set(b) & set(s):
        raise ValidationError("index sets A, B, S must be disjoint")
    if not a or not b or not s:
        raise ValidationError("index sets A, B, S must be non-empty")
    try:
        css_inv_csb = np.linalg.solve(mat[np.ix_(s, s)], mat[np.ix_(s, b)])
    except np.linalg.LinAlgError as exc:
        raise ConditioningError(f"separator covariance is singular: {exc}") from None
    resid = mat[np.ix_(a, b)] - mat[np.ix_(a, s)] @ css_inv_csb
    return float(np.max(np.abs(resid)))


def kirchhoff_residual(
    g: MetricGraph,
    m: FieldModel,
    cov: CovMatrix,
    vertex: int,
    probe: PointOnGraph,
) -> float:
    """Flux residual of a covariance column at a vertex.

    Estimates | sum over incident edges of a_e * (outward derivative of
    rho(., probe) at the vertex) | with one-sided second-order differences
    on the covariance mesh; decays like the squared mesh spacing for the
    exact field. The conductivity weight a_e makes this the natural vertex
    condition of the operator; with uniform a it reduces to the plain
    derivative sum (and at a degree-2 vertex, to derivative continuity).
    """
    vertex = _count(vertex, "vertex", 0, g.vertex_count - 1, error=PointError)
    probe = g.point(probe.edge, probe.t)
    if g.vertex_of(probe) == vertex:
        raise PointError("probe point must differ from the vertex under test")
    _, j, t, u, v, ell = _point_arrays(g, cov.points)

    on_probe = (j == g.edge_index(probe.edge)) & (
        np.abs(t - probe.t) <= 1e-12 * max(1.0, probe.t)
    )
    if not on_probe.any():
        raise PointError("probe point is not among the covariance points")
    col = np.flatnonzero(on_probe)[-1]
    # the vertex node may be addressed through any incident edge
    # (deduplicated meshes); the first one found carries its value
    at_vertex = ((t == 0.0) & (u == vertex)) | ((t == ell) & (v == vertex))
    if not at_vertex.any():
        raise MeshResolutionError(f"covariance mesh has no node at vertex {vertex}")
    f0 = cov.matrix[np.flatnonzero(at_vertex)[0], col]

    total = 0.0
    for k, end in g.incident(vertex):
        e = g.edges[k]
        dist = np.abs(t - (0.0 if end == 0 else e.length))
        # the two interior stencil nodes nearest the vertex on this edge,
        # ties broken by arclength, then by position in the point list
        near = np.flatnonzero((j == k) & (dist > 1e-12 * max(1.0, e.length)))
        near = near[np.lexsort((t[near], dist[near]))][:2]
        if len(near) < 2:
            raise MeshResolutionError(
                f"need >= 2 interior mesh nodes on edge {e.id!r} near the vertex"
            )
        i1, i2 = near
        delta = dist[i1]
        if abs(dist[i2] - 2.0 * delta) > 1e-8 * delta:
            raise MeshResolutionError(
                f"stencil on edge {e.id!r} is not uniformly spaced"
            )
        f1 = cov.matrix[i1, col]
        f2 = cov.matrix[i2, col]
        deriv = (-3.0 * f0 + 4.0 * f1 - f2) / (2.0 * delta)
        total += m.a_on(e.id) * deriv
    return abs(total)
