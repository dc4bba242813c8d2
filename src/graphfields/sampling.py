"""Deterministic Gaussian sampling helpers and the factors they rest on:
the jittered dense Cholesky of a covariance, and the SPD factor of a sparse
precision given as triplets (``_spd_factor``, for ``exact``'s cut-graph
precisions and ``metrics``' grounded Laplacian, each of which builds its
own triplets).

Every dense Cholesky factor in the package comes from ``_potrf``: one
copy of the matrix, factored in place by LAPACK ``dpotrf``. Its lower
factor L is C-contiguous, so ``L.T`` is the F-contiguous upper factor that
LAPACK's triangular solves (``dtrtrs``, ``dpotrs``) read without a copy;
``inference`` and ``_spd_factor`` solve with it that way."""
from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np
from scipy.linalg import lapack
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


def _potrf(mat: np.ndarray, shift: float = 0.0) -> np.ndarray | None:
    """Lower Cholesky factor of the symmetric ``mat`` + ``shift`` I, or None
    when the matrix is not numerically positive definite.

    ``mat`` is copied once into a C-ordered array, with ``shift`` added to
    the copy's diagonal, and LAPACK ``dpotrf`` factors that copy in place:
    read in F order it is the same symmetric matrix, whose upper factor
    U = L' is, read back in C order, L. The result is C-contiguous with
    exact zeros above the diagonal; ``mat`` itself is never written.
    """
    work = np.array(mat, dtype=float, order="C")
    if work.ndim != 2 or work.shape[0] != work.shape[1]:
        raise np.linalg.LinAlgError(f"cannot factor a matrix of shape {work.shape}")
    if shift:
        work.flat[:: work.shape[0] + 1] += shift
    upper, info = lapack.dpotrf(work.T, lower=0, overwrite_a=1, clean=1)
    if info < 0:
        raise ValueError(f"dpotrf: illegal value in argument {-info}")
    return upper.T if info == 0 else None


def safe_cholesky(mat: np.ndarray, tol_factor: float = 1e-10):
    """Cholesky factor of a PSD-up-to-rounding matrix.

    Escalates a diagonal jitter of (1e-12, 1e-10, 1e-8) * trace/n before
    giving up. Returns (lower factor, jitter used); the factor is
    ``_potrf``'s, C-contiguous with exact zeros above the diagonal, and
    ``mat`` is not written on any attempt. Raises NotPositiveDefiniteError
    if the matrix is indefinite beyond ``tol_factor * trace`` or no jitter
    level succeeds.
    """
    mat = np.asarray(mat, dtype=float)
    n = mat.shape[0]
    scale = float(np.trace(mat)) / max(n, 1)
    chol = _potrf(mat)
    if chol is not None:
        return chol, 0.0
    min_eig = float(np.linalg.eigvalsh(mat)[0])
    if min_eig < -tol_factor * float(np.trace(mat)):
        raise NotPositiveDefiniteError(
            f"matrix is not PSD within tolerance (min eigenvalue {min_eig:.3e})"
        )
    for rel in (1e-12, 1e-10, 1e-8):
        jitter = rel * scale
        chol = _potrf(mat, jitter)
        if chol is not None:
            return chol, jitter
    raise NotPositiveDefiniteError("Cholesky failed at every jitter level")


#: ``_spd_factor`` factors a dense matrix up to this order and uses SuperLU
#: above it. The two took equal time between 225 and 250 nodes in the
#: likelihood of cut graphs (figure-eight, 20- and 8-cycle bouquets;
#: single-thread BLAS on a 2-core Xeon); the dense factor took half the
#: time at 100 nodes and SuperLU half at 350.
_DENSE_MAX = 225

class _Factor(NamedTuple):
    """log|M| of an SPD matrix M, a solve x -> M^{-1} x, the method and the
    smallest pivot of M = L D L' (how close the factor came to failing)."""

    logdet: float
    solve: Callable[[np.ndarray], np.ndarray]
    method: str
    min_pivot: float


def _spd_factor(rows, cols, vals, n: int) -> _Factor:
    """Factor the n x n SPD matrix sum of triplets (rows, cols, vals).

    Repeated (row, col) pairs add. Up to ``_DENSE_MAX`` the matrix is
    assembled with ``np.bincount`` and factored by ``_potrf``, which at
    that size is cheaper than any sparse set-up, and the solve is LAPACK
    ``dpotrs`` on the same factor. Above it,
    ``scipy.sparse.linalg.splu`` factors it as P'MP = L D L' with no
    off-diagonal pivoting (``SymmetricMode``, ``diag_pivot_thresh=0``) and
    a minimum-degree ordering of M + M', and log|M| is the sum of log D.
    The smallest pivot is the least D, or the least squared Cholesky
    diagonal on the dense branch. Raises NotPositiveDefiniteError on a
    pivot that is not positive.
    """
    if n <= _DENSE_MAX:
        chol = _potrf(np.bincount(rows * n + cols, vals, minlength=n * n).reshape(n, n))
        if chol is None:
            raise NotPositiveDefiniteError("precision is not positive definite")
        diag = np.diag(chol)
        return _Factor(
            2.0 * float(np.sum(np.log(diag))),
            lambda b: lapack.dpotrs(chol.T, b, lower=0)[0],
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
