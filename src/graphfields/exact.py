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
from a QR square root of Q, and the covariance at any points is
C = Phi S_V Phi' + bridges, with Phi the sparse matrix of G1, G2 values at
each point's two end vertices. The dense route (``endpoint_prior_cov``,
``continuity_constraints``, ``condition_on_constraints``) conditions the
block-diagonal endpoint covariance directly; it is the reference behind
``full_cov(..., constraints=K)``.

Sampling never forms C at points whose edges have both ends among the
points. Put the vertices first and such points after them, sorted by
(edge, t): the Cholesky factor of C is then [[L_V, 0], [Phi L_V,
blockdiag_e chol(B_e)]] with L_V = chol(S_V), B_e edge e's bridge block
and no fill between edges, and chol(B_e) is a walk along the edge.
``sample`` draws one standard normal per distinct point in that order; only
points on an edge with an end left out need ``full_cov``.

All formulas are overflow-safe for kt * L far beyond the ~700 range where
raw cosh/sinh overflow in double precision, and use expm1 wherever
1 - exp(-x) would cancel for small kt * L.

Loops and multiple edges are supported: a loop adds a single vertex term,
and a loop of length L reproduces the circle field of length L exactly.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np
import scipy.linalg
from scipy.sparse import csr_matrix

from .errors import (
    ConditioningError,
    MeshResolutionError,
    PointError,
    UnsupportedAlphaError,
    ValidationError,
)
from .graph import (
    CACHE_SIZE,
    Edge,
    MetricGraph,
    PointOnGraph,
    _grounded_factor,
    _point_arrays,
    _same_edge_pairs,
    _symmetrize,
)
from .models import CovMatrix, FieldModel, _check_indices, _normalize
from .sampling import replicate_normals, safe_cholesky

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
        _normalize(x, name)
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
            object.__setattr__(self, name, _normalize(getattr(self, name), name))

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


def condition_on_constraints(
    sigma: np.ndarray, constraints: np.ndarray, rcond: float = 1e-12
) -> np.ndarray:
    """Covariance of a Gaussian vector conditioned on K x = 0.

    Returns sigma - sigma K' (K sigma K')^+ K sigma, where the inverse drops
    eigenvalues below ``rcond`` times the largest (redundant constraint rows
    are fine). Raises ConditioningError when the constraint Gram matrix is
    entirely degenerate, which signals bad input.
    """
    K = np.asarray(constraints, dtype=float)
    if K.shape[0] == 0:
        return np.array(sigma, dtype=float)
    ks = K @ sigma
    gram = ks @ K.T
    gram = 0.5 * (gram + gram.T)
    vals, vecs = np.linalg.eigh(gram)
    if not np.all(np.isfinite(vals)) or vals[-1] <= 0.0:
        raise ConditioningError("constraint Gram matrix is singular")
    keep = vals > rcond * vals[-1]
    inv = (vecs[:, keep] / vals[keep]) @ vecs[:, keep].T
    out = sigma - ks.T @ inv @ ks
    return 0.5 * (out + out.T)


class _EdgeConstants(NamedTuple):
    """Per-edge arrays in edge order: end vertices, length, kt and c."""

    u: np.ndarray
    v: np.ndarray
    length: np.ndarray
    kt: np.ndarray
    scale: np.ndarray


def _edge_constants(g: MetricGraph, m: FieldModel) -> _EdgeConstants:
    kappa, a = m._edge_values(g.edges)
    return _EdgeConstants(*g._edge_arrays, *_edge_scales(kappa, a, m.tau))


@lru_cache(maxsize=CACHE_SIZE)
def _vertex_cov(g: MetricGraph, m: FieldModel):
    """Vertex covariance S_V = Q^{-1} and the per-edge constants behind it.

    Each edge's inverse Neumann endpoint block c [[coth x, -csch x],
    [-csch x, coth x]] (x = kt L) splits as (c/2) [tanh(x/2) (1,1)(1,1)' +
    coth(x/2) (1,-1)(1,-1)'], so Q = B'B for the 2|E| rows
    sqrt(c tanh(x/2) / 2) (e_u + e_v) and sqrt(c coth(x/2) / 2) (e_u - e_v).
    The factor of S_V comes from ``graph._grounded_factor`` with root 0.
    Factoring B instead of forming Q keeps the small tanh terms, which
    rounding loses against the coth terms in Q itself when kt L is small.
    In the grounded coordinates v = z_0 (1, ..., 1) + (0, z_1, ...), column
    0 of B becomes B 1, which the difference rows annihilate exactly: the
    constant vector's precision, made of the tanh terms alone, then never
    mixes with the coth terms, and the constant mode that dominates S_V at
    small kt L keeps full relative accuracy.
    """
    ec = _edge_constants(g, m)
    th = np.tanh(0.5 * ec.kt * ec.length)
    w_sum, w_diff = np.sqrt(0.5 * ec.scale * th), np.sqrt(0.5 * ec.scale / th)
    u, v = np.concatenate((ec.u, ec.u)), np.concatenate((ec.v, ec.v))
    w_u, w_v = np.concatenate((w_sum, w_diff)), np.concatenate((w_sum, -w_diff))
    w = _grounded_factor(g.vertex_count, u, v, w_u, w_v)
    w[1:] += w[0]  # from z back to the vertex values
    sv = w @ w.T
    sv = 0.5 * (sv + sv.T)
    for arr in (sv, *ec):
        arr.flags.writeable = False
    return sv, ec


def vertex_field_cov(g: MetricGraph, m: FieldModel) -> CovMatrix:
    """Exact covariance of the field's (deduplicated) vertex values.

    The inverse of the sparse vertex precision Q, one row and column per
    vertex; every edge endpoint at a vertex carries that vertex's value.
    """
    sv, _ = _vertex_cov(g, m)
    points = tuple(g.vertex_point(v) for v in range(g.vertex_count))
    return CovMatrix(
        sv.copy(), points, "exact", info={"vertices": tuple(range(g.vertex_count))}
    )


def full_cov(
    g: MetricGraph,
    m: FieldModel,
    pts: Sequence[PointOnGraph],
    constraints: np.ndarray | None = None,
) -> CovMatrix:
    """Exact covariance matrix of the alpha = 1 field at arbitrary points.

    C = Phi S Phi' + bridges: row i of the sparse Phi holds G1(t_i), G2(t_i)
    of point i's edge in the columns of that edge's two ends, and the bridge
    term adds the Dirichlet Green's function to every same-edge pair. By
    default S is the vertex covariance and the columns are vertices.
    ``constraints`` selects the dense reference instead: S is the endpoint
    covariance conditioned on K x = 0 (any matrix with the same kernel as
    the continuity constraints yields the same covariance) and the columns
    are the 2|E| edge endpoints.
    """
    _require_alpha_one(m)
    pts, j, t, *_ = _point_arrays(g, pts)
    if constraints is None:
        ends, ec = _vertex_cov(g, m)
        col_u, col_v = ec.u, ec.v
    else:
        ec = _edge_constants(g, m)
        ends = condition_on_constraints(endpoint_prior_cov(g, m), constraints)
        col_u = 2 * np.arange(g.edge_count)
        col_v = col_u + 1
    n = len(pts)
    phi = csr_matrix(
        (
            np.concatenate(_basis(ec.kt[j], ec.length[j], t)),
            (np.tile(np.arange(n), 2), np.concatenate([col_u[j], col_v[j]])),
        ),
        shape=(n, ends.shape[0]),
    )
    C = _symmetrize(phi @ (phi @ ends).T)
    rows, cols = _same_edge_pairs(j)
    e = j[rows]
    C[rows, cols] += _dirichlet_green(
        ec.kt[e], ec.length[e], ec.scale[e], t[rows], t[cols]
    )
    return CovMatrix(C, tuple(pts), "exact")


class _FactorOrder(NamedTuple):
    """The columns of the Markov factor of C, one per distinct point.

    ``vertices`` are the vertices among the points, ascending; ``bridged``
    and ``rest`` give, for each of their columns, the input index of the
    first point at that (edge, t): bridged points lie on edges with both
    ends in ``vertices`` and come sorted by (edge, t), the rest keep the
    order of first occurrence. ``column`` is every input point's column.
    """

    vertices: np.ndarray
    bridged: np.ndarray
    rest: np.ndarray
    column: np.ndarray


def _factor_order(g: MetricGraph, j, t, u, v, ell) -> _FactorOrder:
    """The factor columns of points given as ``_point_arrays`` arrays."""
    vertex = np.where(t == 0.0, u, np.where(t == ell, v, -1))
    at_vertex = vertex >= 0
    is_vertex = np.zeros(g.vertex_count, dtype=bool)
    is_vertex[vertex[at_vertex]] = True
    vertices = np.flatnonzero(is_vertex)
    inner = np.flatnonzero(~at_vertex)
    inner = inner[np.lexsort((t[inner], j[inner]))]  # stable: ties keep input order
    new = np.ones(inner.size, dtype=bool)
    new[1:] = (j[inner[1:]] != j[inner[:-1]]) | (t[inner[1:]] != t[inner[:-1]])
    first = inner[new]
    bridged = is_vertex[u[first]] & is_vertex[v[first]]
    nv, nb = vertices.size, np.count_nonzero(bridged)
    group_col = np.empty(first.size, dtype=np.intp)
    group_col[bridged] = nv + np.arange(nb)
    rest = np.flatnonzero(~bridged)
    rest = rest[np.argsort(first[rest])]  # by first occurrence
    group_col[rest] = nv + nb + np.arange(rest.size)
    column = np.empty(t.size, dtype=np.intp)
    column[at_vertex] = np.searchsorted(vertices, vertex[at_vertex])
    column[inner] = group_col[np.cumsum(new) - 1]
    return _FactorOrder(vertices, first[bridged], first[rest], column)


def _bridge_walk(ec: _EdgeConstants, j, t, draws) -> None:
    """Zero-boundary bridges at distinct interior points sorted by (edge, t).

    Turns the normals z_k in column k of ``draws``, in place, into
    b_k = G1(d_k) b_{k-1} + sqrt(D(d_k, d_k)) z_k with d_k = t_k - t_{k-1},
    t_0 = 0 and b_0 = 0, G1 and D taken on the remaining sub-edge
    [t_{k-1}, L]: the bridge is Markov, so this walk is exactly the
    Cholesky factor of its block. One step per rank within an edge,
    vectorised over the edges.
    """
    kt, length, scale = ec.kt[j], ec.length[j], ec.scale[j]
    starts = np.ones(j.size, dtype=bool)
    starts[1:] = j[1:] != j[:-1]
    prev = np.where(starts, 0.0, np.roll(t, 1))
    step, _ = _basis(kt, length - prev, t - prev)
    draws *= np.sqrt(_dirichlet_green(kt, length - prev, scale, t - prev, t - prev))
    pos = np.arange(j.size)
    rank = pos - np.maximum.accumulate(np.where(starts, pos, 0))
    by_rank = np.argsort(rank, kind="stable")
    bounds = np.cumsum(np.bincount(rank))
    for lo, hi in zip(bounds[:-1], bounds[1:]):  # ranks 1, 2, ... in turn
        at = by_rank[lo:hi]
        draws[:, at] += step[at] * draws[:, at - 1]


def sample(
    g: MetricGraph,
    m: FieldModel,
    pts: Sequence[PointOnGraph],
    n: int,
    seed: int,
) -> np.ndarray:
    """n zero-mean draws of the exact field at the points, (n, len(pts)).

    Draws are the Cholesky factor of C in a Markov order times one standard
    normal per distinct point, so equal points (a vertex addressed through
    any of its edge ends included) get equal values. The factor's columns
    come in three blocks:

    1. the vertices among the points: x_V = chol(S_V[V, V]) z_V;
    2. interior points on edges with both ends in block 1, sorted by
       (edge, t): x = G1(t) x_u + G2(t) x_v + b, with the bridge b drawn
       one step at a time along its edge (``_bridge_walk``). Given its end
       values an edge is independent of the rest of the graph, so this is
       exactly the factor of these columns, with no jitter and no fill;
    3. every other point: x_R = H' z_V + chol(C_RR - H'H) z_R with
       H = chol(S_V[V, V])^{-1} C_VR, from one ``full_cov`` call.

    With no vertex among the points and none repeated, block 3 is the whole
    request in its given order and the draws are ``replicate_normals(seed, n, len(pts)) @
    chol(full_cov(pts)).T``. Deterministic in ``seed``; the replicates are
    rows drawn in turn from one generator, so a smaller run is a prefix of
    a larger one.
    """
    if n < 0:
        raise ValidationError(f"replicate count must be >= 0, got {n}")
    _require_alpha_one(m)
    pts, j, t, u, v, ell = _point_arrays(g, pts)
    order = _factor_order(g, j, t, u, v, ell)
    if n == 0:
        return np.empty((0, len(pts)))
    nv, nb, nr = order.vertices.size, order.bridged.size, order.rest.size
    sv, ec = _vertex_cov(g, m)
    if nv:
        chol_v, _ = safe_cholesky(sv[np.ix_(order.vertices, order.vertices)])
    if nr:
        inputs = [pts[i] for i in order.rest]
        cov = full_cov(g, m, inputs + [g.vertex_point(w) for w in order.vertices])
        c_rr = cov.matrix[:nr, :nr]
        if nv:
            h = scipy.linalg.solve_triangular(chol_v, cov.matrix[nr:, :nr], lower=True)
            c_rr = c_rr - h.T @ h
        chol_r, _ = safe_cholesky(c_rr)
    # the normals become the draws in place, one column per factor column
    z = replicate_normals(seed, n, nv + nb + nr)
    if nr:
        rest = z[:, nv + nb :] @ chol_r.T
        if nv:
            rest += z[:, :nv] @ h  # before block 1 overwrites z_V
            z[:, nv + nb :] = rest
        else:  # no vertex among the points: block 3 is the whole request
            z = rest
    if nv:
        z[:, :nv] = z[:, :nv] @ chol_v.T
    if nb:
        b = order.bridged
        bridge = z[:, nv : nv + nb]
        _bridge_walk(ec, j[b], t[b], bridge)
        g1, g2 = _basis(ec.kt[j[b]], ec.length[j[b]], t[b])
        bridge += g1 * z[:, np.searchsorted(order.vertices, u[b])]
        bridge += g2 * z[:, np.searchsorted(order.vertices, v[b])]
    if np.array_equal(order.column, np.arange(len(pts))):
        return z
    return z[:, order.column]


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
