"""Deterministic Gaussian sampling helpers and the factors they rest on:
the jittered dense Cholesky of a covariance, and the SPD factor of a sparse
precision given as triplets."""
from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np
from scipy.linalg import cho_solve
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

from .errors import NotPositiveDefiniteError

__all__ = ["replicate_normals", "safe_cholesky"]


def replicate_normals(seed: int, n: int, k: int) -> np.ndarray:
    """(n, k) standard normals drawn row by row from one generator of ``seed``.

    Row r holds replicate r, so the first m rows of a larger run at the same
    seed and width coincide with a run of m replicates.
    """
    return np.random.default_rng(seed).standard_normal((n, k))


def safe_cholesky(mat: np.ndarray, tol_factor: float = 1e-10):
    """Cholesky factor of a PSD-up-to-rounding matrix.

    Escalates a diagonal jitter of (1e-12, 1e-10, 1e-8) * trace/n before
    giving up. Returns (lower factor, jitter used). Raises
    NotPositiveDefiniteError if the matrix is indefinite beyond
    ``tol_factor * trace`` or no jitter level succeeds.
    """
    mat = np.asarray(mat, dtype=float)
    n = mat.shape[0]
    scale = float(np.trace(mat)) / max(n, 1)
    try:
        return np.linalg.cholesky(mat), 0.0
    except np.linalg.LinAlgError:
        pass
    min_eig = float(np.linalg.eigvalsh(mat)[0])
    if min_eig < -tol_factor * float(np.trace(mat)):
        raise NotPositiveDefiniteError(
            f"matrix is not PSD within tolerance (min eigenvalue {min_eig:.3e})"
        )
    for rel in (1e-12, 1e-10, 1e-8):
        jitter = rel * scale
        try:
            return np.linalg.cholesky(mat + jitter * np.eye(n)), jitter
        except np.linalg.LinAlgError:
            continue
    raise NotPositiveDefiniteError("Cholesky failed at every jitter level")


#: ``_spd_factor`` factors a dense matrix up to this order and uses SuperLU
#: above it. The two took equal time between 225 and 250 nodes in the
#: likelihood of cut graphs (figure-eight, 20- and 8-cycle bouquets;
#: single-thread BLAS on a 2-core Xeon); the dense factor took half the
#: time at 100 nodes and SuperLU half at 350.
_DENSE_MAX = 225

#: ``exact.sample`` draws a request of up to this many distinct points from
#: the dense Cholesky factor of its covariance, and a larger one from the
#: vertex factor and the per-edge bridge walks. The crossover grows with the
#: replicate count. On random figure-eight requests (single-thread BLAS on
#: a 2-core Xeon) the bridge walks were 1.9x faster than the dense factor
#: at 384 points and 200 replicates, within 10% of it from 384 to 768
#: points at 2,000 replicates (22% faster at 1,024), and 2.0-2.5x slower up
#: to 768 points at 20,000 replicates.
_DENSE_SAMPLE_MAX = 384


class _Factor(NamedTuple):
    """log|M| of an SPD matrix M, a solve x -> M^{-1} x, the method and the
    smallest pivot of M = L D L' (how close the factor came to failing)."""

    logdet: float
    solve: Callable[[np.ndarray], np.ndarray]
    method: str
    min_pivot: float


def _gram(cols: np.ndarray, vals: np.ndarray, scale: float = 1.0):
    """Triplets (rows, cols, vals) of scale * sum_r b_r b_r' for the rows
    b_r = sum_s vals[r, s] e_{cols[r, s]}, as ``_spd_factor`` takes them."""
    width = cols.shape[1]
    return (
        np.repeat(cols, width, axis=1).ravel(),
        np.tile(cols, width).ravel(),
        scale * (vals[:, :, None] * vals[:, None, :]).ravel(),
    )


def _spd_factor(rows, cols, vals, n: int) -> _Factor:
    """Factor the n x n SPD matrix sum of triplets (rows, cols, vals).

    Repeated (row, col) pairs add. Up to ``_DENSE_MAX`` the matrix is
    assembled with ``np.bincount`` and factored by a dense Cholesky, which
    at that size is cheaper than any sparse set-up. Above it,
    ``scipy.sparse.linalg.splu`` factors it as P'MP = L D L' with no
    off-diagonal pivoting (``SymmetricMode``, ``diag_pivot_thresh=0``) and
    a minimum-degree ordering of M + M', and log|M| is the sum of log D.
    The smallest pivot is the least D, or the least squared Cholesky
    diagonal on the dense branch. Raises NotPositiveDefiniteError on a
    pivot that is not positive.
    """
    if n <= _DENSE_MAX:
        mat = np.bincount(rows * n + cols, vals, minlength=n * n).reshape(n, n)
        try:
            chol = np.linalg.cholesky(mat)
        except np.linalg.LinAlgError:
            raise NotPositiveDefiniteError("precision is not positive definite") from None
        diag = np.diag(chol)
        return _Factor(
            2.0 * float(np.sum(np.log(diag))),
            lambda b: cho_solve((chol, True), b, check_finite=False),
            "dense Cholesky",
            float(diag.min()) ** 2,
        )
    lu = splu(
        csc_matrix((vals, (rows, cols)), shape=(n, n)),
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )
    pivots = lu.U.diagonal()
    if not (np.all(pivots > 0.0) and np.array_equal(lu.perm_r, lu.perm_c)):
        raise NotPositiveDefiniteError("precision is not positive definite")
    return _Factor(float(np.sum(np.log(pivots))), lu.solve, "SuperLU", float(pivots.min()))
