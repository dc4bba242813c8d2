"""Discretized operator, eigenpairs and spectral covariances on a graph.

Conforming piecewise-linear elements on a graph mesh share one degree of
freedom per vertex, so continuity is built in and the zero-flux vertex
conditions arise naturally from the bilinear form

    B(u, v) = sum over edges of (a u' v' + kappa^2 u v) integrated,

with no penalty terms. Generalized eigenpairs of the stiffness-plus-
reaction matrix against the mass matrix then give the covariance of the
field for any exponent alpha > 1/2 through the eigenvalue powers
lambda^{-alpha}, including fractional (non-Markov) exponents, and
Karhunen-Loeve sampling through lambda^{-alpha/2}.

The eigensolve does not depend on kappa where kappa is constant. The
pencil is split as A + R + kappa_min^2 M, with A the a/h element
stiffness, M the mass matrix and R = sum_e (kappa_e^2 - kappa_min^2) M_e
the residual reaction. The eigenpairs (mu, V) of (A + R, M) give those of
the operator as lambda = mu + kappa_min^2 with the same V. For a constant
kappa, R = 0, so every kappa, alpha and tau on one mesh shares one basis;
a per-edge kappa has R != 0 and a basis of its own. With R = 0 the null
pair of (A, M) is known exactly (A 1 = 0, and 1'M1 is the total length),
so it is pinned to mu_0 = 0 and v_0 = +-1/sqrt(1'M1), which makes
lambda_0 = kappa^2 exact. Bases are kept read-only in an LRU cache of
``graph.CACHE_SIZE`` entries keyed on (graph, h, n_modes, per-edge
(a_e, kappa_e^2 - kappa_min^2)).

An operator holds its graph, model and mesh spacing, the mesh's node
layout (``graph._mesh``, as ``graph.mesh`` has it), the shifted
eigenvalues, and, shared with every operator on its basis, the
eigenvectors, the sparse mass matrix (CSR, one build over all elements)
and one private slot. The eigenvectors are C-ordered, so the rows of a
set of nodes are one contiguous gather. Nothing else is assembled per
model: a dense n_dof^2 array is formed only where the math needs one,
namely the pencil that the eigensolve factors, once per basis and freed
after it; the eigenvectors; the covariance memo; the Karhunen-Loeve
draws; and the public dense ``mass`` (kept in the slot) and
``stiffness`` (built from the mesh and the model), each built on first
read. So a full-spectrum entry holds two n_dof^2 arrays of 8-byte floats
(23 MB at 1,199 dof): the eigenvectors and a one-slot memo of the last
whole-mesh covariance that ``spectral_cov`` formed, plus a third, the
dense mass, once ``mass`` is read.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
import scipy.linalg
import scipy.sparse

from .errors import PointError, UnsupportedAlphaError
from .graph import CACHE_SIZE, MetricGraph, PointOnGraph, _mesh, _Mesh
from .models import CovMatrix, FieldModel, _check_indices, _count, _scalar

__all__ = ["DiscreteOperator", "assemble", "spectral_cov", "kl_sample"]

_log = logging.getLogger(__name__)

#: ``kl_sample`` draws this many bytes of normals per block of replicates
#: (1,749 rows at 1,199 modes: two blocks for 3,000 replicates). Each
#: block's product packs the basis again, so small blocks cost time: 3,000
#: replicates at 1,199 modes took 7-13% longer in the median with 2- and
#: 4-MiB blocks, and within noise of one product with 8- to 64-MiB blocks
#: (alternated runs, single-thread BLAS, 2-core Xeon)
_KL_BLOCK_BYTES = 16 << 20

#: ``node_index`` takes a point for a node within this many edge lengths
#: of it (absolute, on edges shorter than 1)
_NODE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class DiscreteOperator:
    """Mesh, assembled matrices and generalized eigenpairs of the operator.

    Degrees of freedom 0 .. vertex_count-1 are the graph vertices; interior
    edge nodes follow in edge order. ``eigenvectors[:, k]`` is the k-th
    mass-orthonormal eigenvector with eigenvalue ``eigenvalues[k]``
    (ascending); the array is C-ordered, one row per node. Immutable: the
    fields cannot be rebound and the arrays are read-only, since operators
    on one mesh share one cached basis. The mass matrix is held sparse
    (CSR, private, the basis's own); the dense ``mass`` and ``stiffness``
    are built on first read, the stiffness from the mesh and the model, so
    no per-model matrix is assembled.
    Operators from :func:`assemble` on one basis also share that basis's
    private slot, which holds the one-slot covariance memo (see
    :func:`spectral_cov`) and the dense mass once read; an operator built
    by hand gets a slot of its own. The slot's entries are replaced by
    single assignments, so the operator stays safe for concurrent reads.
    Equality is identity (its fields hold arrays), so operators hash.
    """

    graph: MetricGraph
    model: FieldModel
    h: float
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    node_points: tuple[PointOnGraph, ...]
    edge_nodes: tuple[tuple[int, ...], ...]
    _mass_csr: scipy.sparse.csr_array = field(repr=False)
    _cov_memo: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def mass(self) -> np.ndarray:
        """Dense mass matrix, read-only, built on first read and kept in
        the basis's shared slot (so operators on one basis share it)."""
        dense = self._cov_memo.get("mass")
        if dense is None:
            dense = self._cov_memo["mass"] = _dense(self._mass_csr)
        return dense

    @cached_property
    def stiffness(self) -> np.ndarray:
        """Dense stiffness-plus-reaction matrix A + R + kappa_min^2 M,
        read-only, built on first read from the mesh and the model."""
        coeffs, kappa2_min = _coefficients(self.graph, self.model)
        return _dense(_stiffness(_mesh(self.graph, self.h), coeffs, kappa2_min))

    @property
    def n_dof(self) -> int:
        return self._mass_csr.shape[0]

    @property
    def n_modes(self) -> int:
        return len(self.eigenvalues)

    def vertex_node(self, v: int) -> int:
        return _count(v, "vertex", 0, self.graph.vertex_count - 1, error=PointError)

    def nodes_on_edge(self, edge_id: str) -> tuple[int, ...]:
        """DOF indices along an edge, endpoint to endpoint."""
        return self.edge_nodes[self.graph.edge_index(edge_id)]

    def node_index(self, p: PointOnGraph) -> int:
        """Index of the mesh node at the given point, or within
        ``_NODE_TOL`` edge lengths of it (absolute below length 1)."""
        j = self.graph.edge_index(p.edge)
        length = self.graph.edges[j].length
        idx = self.edge_nodes[j]
        nel = len(idx) - 1
        k = min(max(round(p.t / length * nel), 0), nel) if math.isfinite(p.t) else 0
        t = length * (k / nel)
        if not abs(t - p.t) <= _NODE_TOL * max(1.0, length):
            raise PointError(f"no mesh node at {p} (closest t = {t})")
        return idx[k]


def _dense(mat: scipy.sparse.csr_array) -> np.ndarray:
    arr = mat.toarray()
    arr.flags.writeable = False
    return arr


def _p1_matrix(mesh: _Mesh, diag: np.ndarray, off: np.ndarray) -> scipy.sparse.csr_array:
    """Sum of the element matrices [[diag, off], [off, diag]] over all
    elements, as a CSR matrix with sorted column indices and read-only
    arrays. The entries at one (row, col) add up in the order of the
    element list, as a dense COO build adds them, so ``toarray()`` has the
    bytes of that build."""
    n = mesh.n_dof
    rows = np.concatenate((mesh.i0, mesh.i1, mesh.i0, mesh.i1))
    cols = np.concatenate((mesh.i0, mesh.i1, mesh.i1, mesh.i0))
    keys, slot = np.unique(rows * n + cols, return_inverse=True)
    vals = np.bincount(slot, np.concatenate((diag, diag, off, off)), minlength=len(keys))
    indptr = np.searchsorted(keys, np.arange(n + 1) * n)
    mat = scipy.sparse.csr_array((vals, keys % n, indptr), shape=(n, n))
    for arr in (mat.data, mat.indices, mat.indptr):
        arr.flags.writeable = False
    return mat


def _stiffness(mesh: _Mesh, coeffs, shift: float) -> scipy.sparse.csr_array:
    """A + R + shift * M, summed per element: the a/h stiffness plus the
    reaction (kappa_e^2 - kappa_min^2 + shift) times the element mass."""
    a, r = (np.repeat(col, mesh.nel) for col in np.array(coeffs).T)
    react = (r + shift) * mesh.he
    return _p1_matrix(mesh, a / mesh.he + react / 3.0, -a / mesh.he + react / 6.0)


def _coefficients(g: MetricGraph, m: FieldModel):
    """Per edge (a_e, kappa_e^2 - kappa_min^2), and kappa_min^2."""
    kappa, a = m._edge_values(g.edges)
    kappa2 = kappa**2
    kappa2_min = float(kappa2.min())
    return tuple(zip(a.tolist(), (kappa2 - kappa2_min).tolist())), kappa2_min


@lru_cache(maxsize=CACHE_SIZE)
def _eigenbasis(
    g: MetricGraph, h: float, n_modes: int, coeffs: tuple[tuple[float, float], ...]
) -> tuple[np.ndarray, np.ndarray, scipy.sparse.csr_array, dict]:
    """Read-only lowest ``n_modes`` eigenpairs (mu, V) of the kappa-free
    pencil (A + R, M), with ``coeffs`` as from :func:`_coefficients`, the
    CSR mass matrix M they are orthonormal in, and the empty slot that
    every operator on this basis shares. The eigenvectors are C-ordered.
    """
    mesh = _mesh(g, h)
    mass = _p1_matrix(mesh, mesh.he / 3.0, mesh.he / 6.0)
    subset = None if n_modes == mesh.n_dof else [0, n_modes - 1]
    # the dense pencil exists only for the solve, which factors it in place
    mu, vecs = scipy.linalg.eigh(
        _stiffness(mesh, coeffs, 0.0).toarray(order="F"),
        mass.toarray(order="F"),
        subset_by_index=subset,
        overwrite_a=True,
        overwrite_b=True,
    )
    if not any(r for _, r in coeffs):
        # A 1 = 0 exactly and 1'M1 is the total length: pin the null pair,
        # so that lambda_0 = kappa^2 holds exactly after the shift, and take
        # the pinned constant out of the other modes (they are M-orthogonal
        # to it in exact arithmetic, and only to rounding as computed)
        mass_ones = np.bincount(mass.indices, mass.data, minlength=mesh.n_dof)
        c = math.copysign(1.0 / math.sqrt(mass_ones.sum()), vecs[:, 0].sum())
        mu[0] = 0.0
        vecs[:, 0] = c
        vecs[:, 1:] -= c * ((c * mass_ones) @ vecs[:, 1:])
    # one C-ordered copy after the solve, so that the rows of a set of
    # nodes are one gather of contiguous rows
    vecs = np.ascontiguousarray(vecs)
    for arr in (mu, vecs):
        arr.flags.writeable = False
    return mu, vecs, mass, {}


def assemble(
    g: MetricGraph, m: FieldModel, h: float, n_modes: int | None = None
) -> DiscreteOperator:
    """The operator on a mesh of spacing <= h, with the generalized
    eigenpairs and the sparse mass matrix taken from the mesh's cached
    kappa-free basis. Once that basis is cached, nothing is assembled: no
    matrix is built, sparse or dense.

    Per-edge constants kappa, a are taken from the model (constant on each
    edge, so the element integrals are exact). ``n_modes`` limits the number
    of computed eigenpairs; default is the full spectrum.
    """
    mesh = _mesh(g, h)
    if n_modes is None:
        n_modes = mesh.n_dof
    n_modes = _count(n_modes, "n_modes", 1, mesh.n_dof)
    coeffs, kappa2_min = _coefficients(g, m)
    mu, vecs, mass, memo = _eigenbasis(g, h, n_modes, coeffs)
    vals = mu + kappa2_min
    vals.flags.writeable = False
    return DiscreteOperator(
        graph=g,
        model=m,
        h=h,
        eigenvalues=vals,
        eigenvectors=vecs,
        node_points=mesh.node_points,
        edge_nodes=mesh.edge_nodes,
        _mass_csr=mass,
        _cov_memo=memo,
    )


def _spectral_params(op: DiscreteOperator, alpha, tau, k=None):
    """(alpha, tau, k) checked: alpha > 1/2, tau > 0 and 1 <= k <= n_modes
    (default: all modes)."""
    # the field exists only for alpha > 1/2
    alpha = _scalar(alpha, "alpha", 0.5, error=UnsupportedAlphaError)
    k = _count(op.n_modes if k is None else k, "truncation", 1, op.n_modes)
    return alpha, _scalar(tau, "tau"), k


def _scaled_basis(op: DiscreteOperator, alpha, tau, k, rows=slice(None)):
    """B = V[rows, :k] lambda^{-alpha/2} / tau for checked parameters (all
    rows by default), so that B B' is the covariance at those rows. A list
    of rows gathers a fresh copy, scaled in place; a slice is a view of the
    read-only eigenvectors, scaled into a new array."""
    scale = op.eigenvalues[:k] ** (-alpha / 2.0) / tau
    if isinstance(rows, slice):
        return op.eigenvectors[rows, :k] * scale
    basis = op.eigenvectors[rows, :k]
    basis *= scale
    return basis


def _tail_estimate(op: DiscreteOperator, alpha: float, k: int) -> float:
    return float(op.eigenvalues[k - 1] ** -(alpha - 0.5))


def spectral_cov(
    op: DiscreteOperator,
    alpha: float,
    tau: float,
    nodes=None,
    k: int | None = None,
) -> CovMatrix:
    """Truncated eigenexpansion covariance at mesh nodes.

    rho(x_i, x_j) = tau^{-2} sum_{j<k} lambda_j^{-alpha} e_j(x_i) e_j(x_j).
    ``nodes`` selects DOF indices (default: all). The info dict reports the
    truncation and the tail magnitude lambda_{k-1}^{-(alpha - 1/2)}, which
    bounds the decay rate of whatever the truncation dropped.

    The operator's basis keeps the last whole-mesh matrix B B' (B as in
    ``_scaled_basis``) with its key (alpha, tau, k, the first k
    eigenvalues) and the eigenvectors it came from. A request with that key
    and those eigenvectors is one gather from it (rows, then columns), with
    no product. A miss whose distinct nodes cover the whole mesh forms the
    whole-mesh product in node order, stores it in place of the last one
    and gathers from it; any other miss forms the product over the
    requested rows only and stores nothing. So ``nodes=None`` gives the same bytes either way, and
    a gathered subset can differ from its own product by rounding. Every
    call returns a new writable array.
    """
    rows = None if nodes is None else _check_indices(nodes, op.n_dof, "nodes")
    alpha, tau, k = _spectral_params(op, alpha, tau, k)
    if rows is None:
        points, n_rows, n_distinct = op.node_points, op.n_dof, op.n_dof
    else:
        points = tuple(op.node_points[i] for i in rows)
        _, first, inv = np.unique(rows, return_index=True, return_inverse=True)
        n_rows, n_distinct = len(rows), len(first)
    key = (alpha, tau, k, op.eigenvalues[:k].tobytes())
    memo = op._cov_memo.get("cov")
    if memo is not None and memo[0] == key and memo[1] is op.eigenvectors:
        route, full = "whole-mesh memo", memo[2]
    elif n_distinct == op.n_dof:
        # the request needs the product over every node anyway: form it
        # once in node order and keep it for later requests with this key
        route, basis = "whole-mesh product, kept", _scaled_basis(op, alpha, tau, k)
        # B @ B.T is one symmetric rank-k product: exactly symmetric as computed
        full = basis @ basis.T
        full.flags.writeable = False
        op._cov_memo["cov"] = (key, op.eigenvectors, full)
    else:
        route, full = "product", None
    if full is None:
        basis = _scaled_basis(op, alpha, tau, k, rows)
        mat = basis @ basis.T
        if n_distinct < n_rows:
            # a product's rows can differ in rounding by their position:
            # give each repeated node the row and column of its first
            # occurrence
            mat = mat.take(first[inv], 0).take(first[inv], 1)
    else:
        # a gather gives a repeated node bit-equal rows and columns
        mat = full.copy() if rows is None else full.take(rows, 0).take(rows, 1)
    _log.debug("spectral_cov: %s, %d rows over %d of %d nodes, %d modes",
               route, n_rows, n_distinct, op.n_dof, k)
    info = {
        "truncation": k,
        "tail_estimate": _tail_estimate(op, alpha, k),
        "mesh_h": op.h,
    }
    return CovMatrix(mat, points, "spectral", info=info)


def kl_sample(
    op: DiscreteOperator, alpha: float, tau: float, n: int, seed: int
) -> np.ndarray:
    """n truncated Karhunen-Loeve draws at all mesh nodes, (n, n_dof).

    u = tau^{-1} sum_k lambda_k^{-alpha/2} xi_k e_k with xi i.i.d. standard
    normal, drawn as in the exact sampler: deterministic in ``seed``, an
    integer >= 0, with replicate r drawn as row r of
    ``replicate_normals(seed, n, n_modes)``. The normals of a shorter run
    are a byte prefix of a longer run's, and its draws agree with the
    longer run's first rows to rounding. Every mode is used, so the draws
    carry the covariance ``spectral_cov`` gives at its default k.

    The normals are drawn and multiplied in blocks of rows
    (``_KL_BLOCK_BYTES`` of normals each), each product written straight
    into the output, so the n x n_modes normals never exist at once. A run
    of at most one block is the single product ``xi @ B'``.
    """
    alpha, tau, k = _spectral_params(op, alpha, tau)
    n, seed = _count(n, "replicate count"), _count(seed, "seed")
    basis_t = _scaled_basis(op, alpha, tau, k).T
    # one generator, rows in turn: the stream of ``replicate_normals``
    rng = np.random.default_rng(seed)
    step = max(1, _KL_BLOCK_BYTES // (8 * k))
    draws = np.empty((n, op.n_dof))
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        np.matmul(rng.standard_normal((hi - lo, k)), basis_t, out=draws[lo:hi])
    _log.debug("kl_sample: %d replicates, %d modes, tail estimate %.3g",
               n, k, _tail_estimate(op, alpha, k))
    return draws
