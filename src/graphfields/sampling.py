"""Deterministic Gaussian sampling helpers shared by the field modules."""
from __future__ import annotations

import numpy as np

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
