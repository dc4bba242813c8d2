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
(a_e, kappa_e^2 - kappa_min^2)); a full-spectrum entry holds
n_dof^2 * 8 bytes of eigenvectors (11.5 MB at 1,199 dof) and as much
again in its dense mass matrix, which every operator on the basis shares;
only the dense stiffness is assembled per call, in one sparse COO build.
Nodes follow the one mesh layout of ``graph._mesh``, as ``graph.mesh`` does.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg
import scipy.sparse

from .errors import PointError, UnsupportedAlphaError, ValidationError
from .graph import CACHE_SIZE, MetricGraph, PointOnGraph, _mesh, _Mesh
from .models import CovMatrix, FieldModel, _check_indices
from .sampling import replicate_normals

__all__ = ["DiscreteOperator", "assemble", "spectral_cov", "kl_sample"]


@dataclass(frozen=True)
class DiscreteOperator:
    """Mesh, assembled matrices and generalized eigenpairs of the operator.

    Degrees of freedom 0 .. vertex_count-1 are the graph vertices; interior
    edge nodes follow in edge order. ``eigenvectors[:, k]`` is the k-th
    mass-orthonormal eigenvector with eigenvalue ``eigenvalues[k]``
    (ascending). Immutable: the fields cannot be rebound and the arrays
    are read-only, since operators on one mesh share one cached basis.
    Safe for concurrent reads.
    """

    graph: MetricGraph
    model: FieldModel
    h: float
    mass: np.ndarray
    stiffness: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    node_points: tuple[PointOnGraph, ...]
    edge_nodes: tuple[tuple[int, ...], ...]

    @property
    def n_dof(self) -> int:
        return self.mass.shape[0]

    @property
    def n_modes(self) -> int:
        return len(self.eigenvalues)

    def vertex_node(self, v: int) -> int:
        if not (0 <= v < self.graph.vertex_count):
            raise PointError(f"vertex {v} outside graph")
        return v

    def nodes_on_edge(self, edge_id: str) -> tuple[int, ...]:
        """DOF indices along an edge, endpoint to endpoint."""
        return self.edge_nodes[self.graph.edge_index(edge_id)]

    def node_index(self, p: PointOnGraph, tol: float = 1e-9) -> int:
        """Index of the mesh node at (or within tol of) the given point."""
        j = self.graph.edge_index(p.edge)
        length = self.graph.edges[j].length
        idx = self.edge_nodes[j]
        nel = len(idx) - 1
        k = min(max(round(p.t / length * nel), 0), nel) if math.isfinite(p.t) else 0
        t = length * (k / nel)
        if not abs(t - p.t) <= tol * max(1.0, length):
            raise PointError(f"no mesh node at {p} (closest t = {t})")
        return idx[k]


def _p1_matrix(mesh: _Mesh, diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Dense sum of the element matrices [[diag, off], [off, diag]] in one
    COO build over all elements (entries at shared nodes add up)."""
    rows = np.concatenate((mesh.i0, mesh.i1, mesh.i0, mesh.i1))
    cols = np.concatenate((mesh.i0, mesh.i1, mesh.i1, mesh.i0))
    vals = np.concatenate((diag, diag, off, off))
    shape = (mesh.n_dof, mesh.n_dof)
    return scipy.sparse.coo_array((vals, (rows, cols)), shape=shape).toarray()


def _mass(mesh: _Mesh) -> np.ndarray:
    return _p1_matrix(mesh, mesh.he / 3.0, mesh.he / 6.0)


def _stiffness(mesh: _Mesh, coeffs, shift: float) -> np.ndarray:
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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only lowest ``n_modes`` eigenpairs (mu, V) of the kappa-free
    pencil (A + R, M), with ``coeffs`` as from :func:`_coefficients`, and
    the mass matrix M they are orthonormal in."""
    mesh = _mesh(g, h)
    mass = _mass(mesh)
    subset = None if n_modes == mesh.n_dof else [0, n_modes - 1]
    mu, vecs = scipy.linalg.eigh(
        _stiffness(mesh, coeffs, 0.0), mass, subset_by_index=subset
    )
    if not any(r for _, r in coeffs):
        # A 1 = 0 exactly and 1'M1 is the total length: pin the null pair,
        # so that lambda_0 = kappa^2 holds exactly after the shift, and take
        # the pinned constant out of the other modes (they are M-orthogonal
        # to it in exact arithmetic, and only to rounding as computed)
        mass_ones = mass.sum(axis=0)
        c = math.copysign(1.0 / math.sqrt(mass_ones.sum()), vecs[:, 0].sum())
        mu[0] = 0.0
        vecs[:, 0] = c
        vecs[:, 1:] -= c * ((c * mass_ones) @ vecs[:, 1:])
    for arr in (mu, vecs, mass):
        arr.flags.writeable = False
    return mu, vecs, mass


def assemble(
    g: MetricGraph, m: FieldModel, h: float, n_modes: int | None = None
) -> DiscreteOperator:
    """Assemble mass/stiffness matrices on a mesh of spacing <= h, with the
    generalized eigenpairs taken from the mesh's cached kappa-free basis.

    Per-edge constants kappa, a are taken from the model (constant on each
    edge, so the element integrals are exact). ``n_modes`` limits the number
    of computed eigenpairs; default is the full spectrum.
    """
    mesh = _mesh(g, h)
    if n_modes is None:
        n_modes = mesh.n_dof
    if not (1 <= n_modes <= mesh.n_dof):
        raise ValidationError(
            f"n_modes must be in [1, {mesh.n_dof}], got {n_modes}"
        )
    coeffs, kappa2_min = _coefficients(g, m)
    mu, vecs, mass = _eigenbasis(g, h, n_modes, coeffs)
    vals = mu + kappa2_min
    stiff = _stiffness(mesh, coeffs, kappa2_min)
    for arr in (vals, stiff):
        arr.flags.writeable = False
    return DiscreteOperator(
        graph=g,
        model=m,
        h=h,
        mass=mass,
        stiffness=stiff,
        eigenvalues=vals,
        eigenvectors=vecs,
        node_points=mesh.node_points,
        edge_nodes=mesh.edge_nodes,
    )


def _scaled_basis(op: DiscreteOperator, alpha, tau, k=None, rows=slice(None)):
    """B = V[rows, :k] lambda^{-alpha/2} / tau over the first k eigenpairs
    (default: all), so that B B' is the covariance at those rows."""
    if not alpha > 0.5:
        raise UnsupportedAlphaError(
            f"the field does not exist for alpha <= 1/2 (got {alpha})"
        )
    if k is None:
        k = op.n_modes
    if not (1 <= k <= op.n_modes):
        raise ValidationError(
            f"truncation {k} outside [1, {op.n_modes}] available eigenpairs"
        )
    if not tau > 0:
        raise ValidationError(f"tau must be positive, got {tau}")
    return op.eigenvectors[rows, :k] * (op.eigenvalues[:k] ** (-alpha / 2.0) / tau)


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
    """
    rows = slice(None) if nodes is None else _check_indices(nodes, op.n_dof, "nodes")
    basis = _scaled_basis(op, alpha, tau, k, rows)
    points = op.node_points if nodes is None else tuple(op.node_points[i] for i in rows)
    k = basis.shape[1]
    # B @ B.T is one symmetric rank-k product: exactly symmetric as computed
    mat = basis @ basis.T
    info = {
        "truncation": k,
        "tail_estimate": float(op.eigenvalues[k - 1] ** -(alpha - 0.5)),
        "mesh_h": op.h,
    }
    return CovMatrix(mat, points, "spectral", info=info)


def kl_sample(
    op: DiscreteOperator, alpha: float, tau: float, n: int, seed: int
) -> np.ndarray:
    """n truncated Karhunen-Loeve draws at all mesh nodes, (n, n_dof).

    u = tau^{-1} sum_k lambda_k^{-alpha/2} xi_k e_k with xi i.i.d. standard
    normal, drawn as in the exact sampler: deterministic in ``seed``, and a
    shorter run is a prefix of a longer one.
    """
    basis = _scaled_basis(op, alpha, tau)
    if n < 0:
        raise ValidationError(f"replicate count must be >= 0, got {n}")
    xi = replicate_normals(seed, n, basis.shape[1])
    return xi @ basis.T
