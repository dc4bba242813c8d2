"""Closed-form and dense-numpy references for the benchmark's output checks.

Nothing here imports graphfields. Graphs arrive as plain edge lists
``[(u, v, length), ...]`` and points as ``(edge index, arclength)`` pairs,
both made by the benchmark from its own description of each input, so a
fault in the program's graph layer cannot leak into a reference value.

Formulas (unit conductivity a = 1, constant kappa):

* alpha = 1 field: edges are independent Neumann fields; conditioning their
  endpoint values on continuity restricts the joint density to x = A v, so
  the vertex precision is Q = sum_e A_e' S_e^{-1} A_e with the 2x2 Neumann
  endpoint covariance S_e. A point at arclength t on edge (u, v, L) is
  G1(t) v_u + G2(t) v_v + bridge(t), with G1 = sinh(k(L-t))/sinh(kL),
  G2 = sinh(kt)/sinh(kL) and the bridge the Dirichlet Green's function of
  tau^2 (kappa^2 - d^2/dx^2), independent across edges.
* circle of length L: cosh(k(d - L/2)) / (2 k tau^2 sinh(kL/2)).
* resistance metric on a bouquet of cycles and pendant paths glued at one
  hub: d - d^2/L inside a cycle, d along a path, and a series sum through
  the hub between blocks.
* figure-eight loop eigenvalues: kappa^2 + (2 pi k / L)^2 for each loop.
"""
from __future__ import annotations

import math

import numpy as np


# -- alpha = 1 field ------------------------------------------------------


def neumann_endpoint_precision(kappa: float, tau: float, ell: float) -> np.ndarray:
    """Inverse of the 2x2 Neumann endpoint covariance of one edge.

    The covariance is [[coth, csch], [csch, coth]] / (tau^2 kappa) with
    argument kappa * ell; its determinant is 1 / (tau^2 kappa)^2 because
    coth^2 - csch^2 = 1, which gives the inverse in closed form.
    """
    x = kappa * ell
    coth = math.cosh(x) / math.sinh(x)
    csch = 1.0 / math.sinh(x)
    return tau**2 * kappa * np.array([[coth, -csch], [-csch, coth]])


def vertex_precision(
    n_vertices: int, edges, kappa: float, tau: float
) -> np.ndarray:
    """Q = sum_e A_e' S_e^{-1} A_e; a loop (u == v) folds onto one vertex."""
    q = np.zeros((n_vertices, n_vertices))
    for u, v, ell in edges:
        p = neumann_endpoint_precision(kappa, tau, ell)
        for (i, a), (j, b) in (
            ((0, u), (0, u)), ((0, u), (1, v)), ((1, v), (0, u)), ((1, v), (1, v))
        ):
            q[a, b] += p[i, j]
    return q


def dirichlet_bridge(kappa: float, tau: float, ell: float, s, t):
    """Green's function of tau^2 (kappa^2 - d^2/dx^2) on [0, ell], zero ends."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    lo = np.minimum(s, t)
    hi = np.maximum(s, t)
    return (
        np.sinh(kappa * lo) * np.sinh(kappa * (ell - hi))
        / (tau**2 * kappa * math.sinh(kappa * ell))
    )


def markov_cov(n_vertices: int, edges, kappa: float, tau: float, points) -> np.ndarray:
    """Covariance of the alpha = 1 field at ``points`` = [(edge index, t)]."""
    vcov = np.linalg.inv(vertex_precision(n_vertices, edges, kappa, tau))
    n = len(points)
    phi = np.zeros((n, n_vertices))
    for i, (j, t) in enumerate(points):
        u, v, ell = edges[j]
        den = math.sinh(kappa * ell)
        phi[i, u] += math.sinh(kappa * (ell - t)) / den
        phi[i, v] += math.sinh(kappa * t) / den
    cov = phi @ vcov @ phi.T
    edge_of = np.array([j for j, _ in points])
    ts = np.array([t for _, t in points], dtype=float)
    for j in np.unique(edge_of):
        idx = np.flatnonzero(edge_of == j)
        ell = edges[j][2]
        cov[np.ix_(idx, idx)] += dirichlet_bridge(
            kappa, tau, ell, ts[idx][:, None], ts[idx][None, :]
        )
    return 0.5 * (cov + cov.T)


def circle_cov(d, kappa: float, tau: float, ell: float):
    """Markov covariance on a circle of length ``ell`` at geodesic distance d."""
    d = np.asarray(d, dtype=float)
    return np.cosh(kappa * (d - ell / 2.0)) / (
        2.0 * kappa * tau**2 * math.sinh(kappa * ell / 2.0)
    )


# -- resistance metric on a hub bouquet -----------------------------------


def bouquet_resistance(blocks, a, b) -> float:
    """Resistance distance between two points of a hub bouquet.

    ``blocks[i]`` is ``("cycle", L)`` or ``("path", L)``; a point is
    ``(block index, arclength from the hub)``. On a cycle the two arcs
    between the points are resistors in parallel, d (L - d) / L; on a path
    resistance is length; distinct blocks meet only at the hub.
    """
    def to_hub(block, s):
        kind, ell = blocks[block]
        return s * (ell - s) / ell if kind == "cycle" else s

    (ba, sa), (bb, sb) = a, b
    if ba != bb:
        return to_hub(ba, sa) + to_hub(bb, sb)
    kind, ell = blocks[ba]
    d = abs(sa - sb)
    return d * (ell - d) / ell if kind == "cycle" else d


def bouquet_resistance_matrix(blocks, points) -> np.ndarray:
    n = len(points)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            out[i, j] = out[j, i] = bouquet_resistance(blocks, points[i], points[j])
    return out


def cycle_geodesic(s, t, ell: float):
    d = np.abs(np.asarray(s, dtype=float) - np.asarray(t, dtype=float))
    return np.minimum(d, ell - d)


# -- spectrum --------------------------------------------------------------


def loop_eigenvalues(kappa: float, loop_lengths, per_loop: int) -> list[float]:
    """kappa^2 + (2 pi k / L)^2, k = 1..per_loop, for every loop of a bouquet.

    sin(2 pi k x / L) on one loop and zero elsewhere is continuous, meets
    the Kirchhoff condition at the hub, and solves -u'' + kappa^2 u = lam u.
    """
    return sorted(
        kappa**2 + (2.0 * math.pi * k / ell) ** 2
        for ell in loop_lengths
        for k in range(1, per_loop + 1)
    )


def p1_matrices(n_dof: int, element_edges, kappa: float):
    """Mass and stiffness-plus-reaction matrices of linear elements.

    ``element_edges`` lists (node i, node j, element length) for every
    element; the local matrices are h/6 [[2, 1], [1, 2]] and
    1/h [[1, -1], [-1, 1]].
    """
    i = np.array([e[0] for e in element_edges])
    j = np.array([e[1] for e in element_edges])
    h = np.array([e[2] for e in element_edges], dtype=float)
    mass = np.zeros((n_dof, n_dof))
    stiff = np.zeros((n_dof, n_dof))
    for rows, cols, m_loc, s_loc in (
        (i, i, h / 3.0, 1.0 / h),
        (j, j, h / 3.0, 1.0 / h),
        (i, j, h / 6.0, -1.0 / h),
        (j, i, h / 6.0, -1.0 / h),
    ):
        np.add.at(mass, (rows, cols), m_loc)
        np.add.at(stiff, (rows, cols), s_loc)
    return mass, stiff + kappa**2 * mass


def pencil_eigen(mass: np.ndarray, stiff: np.ndarray):
    """Eigenvalues and mass-orthonormal eigenvectors of the pencil (stiff, mass).

    Reduced to a standard symmetric problem through the Cholesky factor of
    the mass matrix, so no generalized eigensolver is involved.
    """
    linv = np.linalg.inv(np.linalg.cholesky(mass))
    lam, w = np.linalg.eigh(linv @ stiff @ linv.T)
    return lam, linv.T @ w


def spectral_matrix(lam: np.ndarray, basis: np.ndarray, alpha: float, tau: float, rows=None):
    """tau^-2 sum_k lam_k^-alpha e_k e_k', optionally at selected rows only.

    The stiffness is S + kappa^2 M, so the eigenvectors do not depend on
    kappa and another kappa only shifts lam by the difference of squares.
    """
    if rows is not None:
        basis = basis[rows]
    return (basis * lam ** (-alpha)) @ basis.T / tau**2


# -- Gaussian conditioning -------------------------------------------------


def posterior(cov: np.ndarray, n_obs: int, y, noise_var: float):
    """Posterior mean and covariance at points n_obs.. given the first n_obs."""
    coo = cov[:n_obs, :n_obs] + noise_var * np.eye(n_obs)
    cpo = cov[n_obs:, :n_obs]
    inv = np.linalg.inv(coo)
    return cpo @ inv @ np.asarray(y, dtype=float), cov[n_obs:, n_obs:] - cpo @ inv @ cpo.T


def log_likelihood(cov: np.ndarray, y, noise_var: float) -> float:
    y = np.asarray(y, dtype=float)
    sigma = cov + noise_var * np.eye(len(y))
    sign, logdet = np.linalg.slogdet(sigma)
    if sign <= 0:
        raise ValueError("covariance plus noise is not positive definite")
    quad = float(y @ np.linalg.solve(sigma, y))
    return -0.5 * (quad + logdet + len(y) * math.log(2.0 * math.pi))


def conditional_cov(cov: np.ndarray, rows, cols, given) -> np.ndarray:
    """C_AB - C_AS C_SS^{-1} C_SB."""
    rows, cols, given = list(rows), list(cols), list(given)
    inv = np.linalg.inv(cov[np.ix_(given, given)])
    return cov[np.ix_(rows, cols)] - cov[np.ix_(rows, given)] @ inv @ cov[np.ix_(given, cols)]


def whitened_second_moment(draws: np.ndarray, cov: np.ndarray) -> float:
    """Mean of z^2 over all entries after whitening draws by cov's factor."""
    chol = np.linalg.cholesky(cov)
    z = np.linalg.solve(chol, np.asarray(draws, dtype=float).T)
    return float(np.mean(z**2))
