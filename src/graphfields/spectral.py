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
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import PointError, UnsupportedAlphaError, ValidationError
from .graph import MetricGraph, PointOnGraph
from .models import CovMatrix, FieldModel
from .sampling import replicate_normals

__all__ = ["DiscreteOperator", "assemble", "spectral_cov", "kl_sample"]


@dataclass
class DiscreteOperator:
    """Mesh, assembled matrices and generalized eigenpairs of the operator.

    Degrees of freedom 0 .. vertex_count-1 are the graph vertices; interior
    edge nodes follow in edge order. ``eigenvectors[:, k]`` is the k-th
    mass-orthonormal eigenvector with eigenvalue ``eigenvalues[k]``
    (ascending). Immutable once built; safe for concurrent reads.
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
        e = self.graph.edge(p.edge)
        idx = self.edge_nodes[self.graph.edge_index(p.edge)]
        ts = np.linspace(0.0, e.length, len(idx))
        k = int(np.argmin(np.abs(ts - p.t)))
        if abs(ts[k] - p.t) > tol * max(1.0, e.length):
            raise PointError(f"no mesh node at {p} (closest t = {ts[k]})")
        return idx[k]


def assemble(
    g: MetricGraph, m: FieldModel, h: float, n_modes: int | None = None
) -> DiscreteOperator:
    """Assemble mass/stiffness matrices on a mesh of spacing <= h and solve
    the generalized eigenproblem.

    Per-edge constants kappa, a are taken from the model (sampled at element
    midpoints, which is exact for constants). ``n_modes`` limits the number
    of computed eigenpairs; default is the full spectrum.
    """
    if not h > 0:
        raise ValidationError(f"mesh spacing must be positive, got {h}")
    nv = g.vertex_count
    edge_nodes: list[tuple[int, ...]] = []
    n_dof = nv
    for e in g.edges:
        nel = max(1, math.ceil(e.length / h - 1e-12))
        nodes = (e.u, *range(n_dof, n_dof + nel - 1), e.v)
        n_dof += nel - 1
        edge_nodes.append(nodes)

    mass = np.zeros((n_dof, n_dof))
    stiff = np.zeros((n_dof, n_dof))
    for e, nodes in zip(g.edges, edge_nodes):
        kappa, a = m.edge_params(e)
        he = e.length / (len(nodes) - 1)
        i0 = np.asarray(nodes[:-1])
        i1 = np.asarray(nodes[1:])
        m_diag, m_off = he / 3.0, he / 6.0
        s_el = a / he
        r_diag, r_off = kappa**2 * m_diag, kappa**2 * m_off
        np.add.at(mass, (i0, i0), m_diag)
        np.add.at(mass, (i1, i1), m_diag)
        np.add.at(mass, (i0, i1), m_off)
        np.add.at(mass, (i1, i0), m_off)
        np.add.at(stiff, (i0, i0), s_el + r_diag)
        np.add.at(stiff, (i1, i1), s_el + r_diag)
        np.add.at(stiff, (i0, i1), -s_el + r_off)
        np.add.at(stiff, (i1, i0), -s_el + r_off)

    if n_modes is None:
        n_modes = n_dof
    if not (1 <= n_modes <= n_dof):
        raise ValidationError(f"n_modes must be in [1, {n_dof}], got {n_modes}")
    subset = None if n_modes == n_dof else [0, n_modes - 1]
    vals, vecs = scipy.linalg.eigh(stiff, mass, subset_by_index=subset)

    points: list[PointOnGraph | None] = [None] * n_dof
    for e, nodes in zip(g.edges, edge_nodes):
        for k, dof in enumerate(nodes):
            if points[dof] is None:
                points[dof] = PointOnGraph(e.id, e.length * k / (len(nodes) - 1))

    return DiscreteOperator(
        graph=g,
        model=m,
        h=h,
        mass=mass,
        stiffness=stiff,
        eigenvalues=vals,
        eigenvectors=vecs,
        node_points=tuple(points),
        edge_nodes=tuple(edge_nodes),
    )


def _check_alpha_truncation(op: DiscreteOperator, alpha: float, k: int | None):
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
    return k


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
    k = _check_alpha_truncation(op, alpha, k)
    if not tau > 0:
        raise ValidationError(f"tau must be positive, got {tau}")
    vecs = op.eigenvectors[:, :k]
    if nodes is not None:
        nodes = list(nodes)
        vecs = vecs[nodes]
        points = tuple(op.node_points[i] for i in nodes)
    else:
        points = op.node_points
    lam = op.eigenvalues[:k]
    mat = (vecs * lam ** (-alpha)) @ vecs.T / tau**2
    mat = 0.5 * (mat + mat.T)
    info = {
        "truncation": k,
        "tail_estimate": float(lam[-1] ** -(alpha - 0.5)),
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
    k = _check_alpha_truncation(op, alpha, None)
    if n < 0:
        raise ValidationError(f"replicate count must be >= 0, got {n}")
    xi = replicate_normals(seed, n, k)
    basis = op.eigenvectors * op.eigenvalues ** (-alpha / 2.0)
    return (xi @ basis.T) / tau
