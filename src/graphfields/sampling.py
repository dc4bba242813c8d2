"""Deterministic Gaussian sampling helpers and the factors they rest on:
the jittered dense Cholesky of a covariance, and the SPD factor of a sparse
precision given as triplets, in two steps, ``_spd_pattern`` and
``_spd_numeric``, for the precisions of ``exact``'s cut graph, which
builds the triplets.

The pattern step (``_spd_pattern``) reads the triplets' rows and columns
alone: the dense or SuperLU branch, each triplet's slot in the assembled
data, and on the SuperLU branch the fill-reducing order and the CSC
pattern permuted by it. The numeric step (``_spd_numeric``) sums the
values into their slots and factors. ``exact`` makes one analysis per
cached layout of a cut graph, on which each of its matrices is factored,
so a new model pays only the numeric step; the layout at no points
serves the vertex covariance, the Markov sampler and the resistance metric
alike. This module is the one home of the sparse factor: no other module
calls ``splu`` or another sparse factor or solve.

The factor (``_Factor``) of M = L D L' solves with M and draws from
N(0, M^{-1}): ``draw`` maps standard normals z, one column per draw, to
L'^{-1} D^{-1/2} z (Rue & Held, "Gaussian Markov Random Fields", 2005,
section 2.3), so a Gaussian Markov field is sampled from its sparse
precision with no covariance formed. The dense branch solves with LAPACK
``dtrtrs`` on L'. The SuperLU branch uses SuperLU's own solve, which
applies (L D L')^{-1}, on L D^{1/2} z: (L D L')^{-1} L D^{1/2} z =
L'^{-1} D^{-1/2} z, with no conversion of the factor per call, so a
sampler that draws block by block pays the set-up once.

Every normal comes from ``replicate_normals``, row by row from one
generator. ``_replicate_blocks`` draws a run's normals a block of
replicates at a time from one generator, keeping the stream of one call
byte for byte, so ``exact.sample`` and ``spectral.kl_sample`` hold their
output and one block.

Every dense Cholesky factor in the package comes from ``_potrf``: one
copy of the matrix, factored in place by LAPACK ``dpotrf``. Its lower
factor L is C-contiguous, so ``L.T`` is the F-contiguous upper factor that
LAPACK's triangular solves (``dtrtrs``, ``dpotrs``) read without a copy;
``inference`` and ``_spd_numeric`` solve with it that way. A PSD-up-to-
rounding matrix goes through ``safe_cholesky``, with a diagonal shift for
``inference``'s C_oo + noise I: a matrix that factors costs that one copy
and nothing more, and only a failed factor takes the trace, checks the
smallest eigenvalue and escalates a jitter.

Each dense kernel asks LAPACK for what its caller returns: the one route
to a smallest eigenvalue, ``_min_eigenvalue`` (the PSD report of
``CovMatrix`` and the check on ``safe_cholesky``'s failure path), asks
``dsyevr`` for that one eigenvalue and no vectors."""
from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np
from scipy.linalg import lapack
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

from .errors import NotPositiveDefiniteError

__all__ = ["replicate_normals", "safe_cholesky"]


def replicate_normals(seed: int | np.random.Generator, n: int, k: int) -> np.ndarray:
    """(n, k) standard normals drawn row by row from one generator of ``seed``.

    Row r holds replicate r, so the first m rows of a larger run at the same
    seed and width coincide with a run of m replicates. ``seed`` is an
    integer or a ``numpy.random.Generator``; a Generator is used as it is
    and continues its stream, so blocks of rows drawn in turn from one
    generator of a seed are the rows of one call at that seed, byte for byte
    (``_replicate_blocks``).
    """
    return np.random.default_rng(seed).standard_normal((n, k))


def _replicate_blocks(normals, seed: int, n: int, k: int, step: int):
    """The rows of ``replicate_normals(seed, n, k)`` in blocks of ``step``
    rows (the last may be shorter), as pairs (first row, block) in turn:
    each block is ``normals(rng, rows, k)`` on one generator of ``seed``, so
    the blocks concatenate to the one call's normals byte for byte. The
    caller holds one block at a time if it drops each block before the loop
    asks for the next. ``normals`` is the caller's own
    ``replicate_normals``, so that a wrapper put on the caller's module
    sees every block.
    """
    rng = np.random.default_rng(seed)
    for lo in range(0, n, step):
        yield lo, normals(rng, min(step, n - lo), k)


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


def _min_eigenvalue(mat: np.ndarray) -> float:
    """Smallest eigenvalue of the symmetric matrix whose lower triangle is
    that of ``mat`` (the triangle numpy's ``eigvalsh`` reads); inf for a
    0 x 0 matrix, the minimum over no eigenvalues.

    LAPACK ``dsyevr`` is asked for that one eigenvalue (``range="I"``,
    ``il = iu = 1``) and no vectors. ``mat`` is passed as it is: the
    wrapper makes the one working copy that the reduction overwrites.
    Raises ``LinAlgError`` where the eigensolver does not converge, as
    ``eigvalsh`` does.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.size == 0:
        return math.inf
    w, _, _, _, info = lapack.dsyevr(mat, compute_v=0, range="I", lower=1, il=1, iu=1)
    if info < 0:
        raise ValueError(f"dsyevr: illegal value in argument {-info}")
    if info > 0:
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return float(w[0])


#: a matrix whose least eigenvalue is at least -_PSD_TOL times its trace
#: is PSD up to rounding (``safe_cholesky``, ``CovMatrix.is_psd``)
_PSD_TOL = 1e-10


def safe_cholesky(mat: np.ndarray, shift: float = 0.0):
    """Cholesky factor of a PSD-up-to-rounding matrix ``mat`` + ``shift`` I.

    Factors one copy of ``mat`` by ``_potrf``, with the shift on the
    copy's diagonal: a matrix that factors costs nothing more. Only if that
    fails is the shifted matrix formed, its trace taken, its smallest
    eigenvalue checked (``_min_eigenvalue``) and a diagonal jitter of
    (1e-12, 1e-10, 1e-8) * trace/n escalated, each level on a fresh copy,
    before giving up. Returns (lower factor, jitter used); the factor is
    ``_potrf``'s, C-contiguous with exact zeros above the diagonal, and
    ``mat`` is not written on any attempt. Raises NotPositiveDefiniteError
    if the shifted matrix is indefinite beyond ``_PSD_TOL * trace`` or no
    jitter level succeeds.
    """
    chol = _potrf(mat, shift)
    if chol is not None:
        return chol, 0.0
    mat = np.array(mat, dtype=float)
    mat.flat[:: mat.shape[0] + 1] += shift
    trace = float(np.trace(mat))
    min_eig = _min_eigenvalue(mat)
    if min_eig < -_PSD_TOL * trace:
        raise NotPositiveDefiniteError(
            f"matrix is not PSD within tolerance (min eigenvalue {min_eig:.3e})"
        )
    scale = trace / max(mat.shape[0], 1)
    for rel in (1e-12, 1e-10, 1e-8):
        jitter = rel * scale
        chol = _potrf(mat, jitter)
        if chol is not None:
            return chol, jitter
    raise NotPositiveDefiniteError("Cholesky failed at every jitter level")


#: ``_spd_pattern`` takes the dense branch up to this order and SuperLU
#: above it. In the likelihood of cut graphs at a new kappa, with the
#: pattern and its order cached (figure-eight, 20- and 8-cycle bouquets;
#: single-thread BLAS on a 2-core Xeon), the two took equal time between
#: 185 and 200 nodes; the dense factor took half the time at 100-120 nodes,
#: and SuperLU 1.3-1.4x less at 210 and 1.7-2.0x less at 225. When SuperLU
#: found its order on every call, the two were equal at 225-250 nodes.
_DENSE_MAX = 200

class _Factor(NamedTuple):
    """log|M| of an SPD matrix M, a solve x -> M^{-1} x, the method and the
    smallest pivot of M = L D L' (how close the factor came to failing),
    and a draw z -> L'^{-1} D^{-1/2} z, which maps standard normals to
    draws of covariance M^{-1}: a triangular solve with L' on the dense
    branch, the full solve of M on L D^{1/2} z on the SuperLU branch."""

    logdet: float
    solve: Callable[[np.ndarray], np.ndarray]
    method: str
    min_pivot: float
    draw: Callable[[np.ndarray], np.ndarray]


class _Pattern(NamedTuple):
    """What ``_spd_pattern`` takes from the triplets' rows and columns
    alone, for any values: ``slot``, each triplet's place in
    the assembled data. The dense branch's data is the n x n matrix in C
    order. The SuperLU branch's is the CSC data of P'MP, whose pattern is
    ``indptr`` and ``indices``, with ``perm[i]`` the new place of row and
    column i and ``order`` its inverse; ``perm`` is None on the dense
    branch."""

    n: int
    slot: np.ndarray
    perm: np.ndarray | None = None
    order: np.ndarray | None = None
    indptr: np.ndarray | None = None
    indices: np.ndarray | None = None


def _splu(mat, permc_spec: str):
    """SuperLU's P'MP = L D L' with no off-diagonal pivoting."""
    return splu(mat, permc_spec=permc_spec, diag_pivot_thresh=0.0,
                options={"SymmetricMode": True})


def _spd_pattern(rows, cols, n: int) -> _Pattern:
    """The pattern step of the sparse factor, for the n x n matrix with the
    triplet rows and columns (rows, cols) and a symmetric pattern; repeated
    (row, col) pairs share a slot, so their values add.

    Up to ``_DENSE_MAX`` it is each triplet's flat place: at that size a
    dense factor is cheaper than any sparse set-up. Above it,
    SuperLU's minimum-degree order of M + M' is found once, from a
    stand-in SPD matrix with the same pattern (-1 off the diagonal, one
    more than the row's off-diagonal count on it): the order reads the
    pattern alone. ``lu.perm_c[j]`` is the new place of column j, so the
    pattern is stored permuted by it, as CSC.
    """
    flat = np.asarray(rows, dtype=np.intp) * n + np.asarray(cols, dtype=np.intp)
    if n <= _DENSE_MAX:
        return _Pattern(n, flat)
    entries, slot = np.unique(flat, return_inverse=True)
    r, c = np.divmod(entries, n)
    off = r != c
    diag = np.arange(n)
    stand_in = csc_matrix(
        (np.concatenate([np.full(np.count_nonzero(off), -1.0),
                         1.0 + np.bincount(r[off], minlength=n)]),
         (np.concatenate([r[off], diag]), np.concatenate([c[off], diag]))),
        shape=(n, n))
    perm = _splu(stand_in, "MMD_AT_PLUS_A").perm_c.astype(np.intp)
    r, c = perm[r], perm[c]
    by_column = np.lexsort((r, c))  # CSC order: by column, then by row
    place = np.empty_like(by_column)
    place[by_column] = np.arange(by_column.size)
    indptr = np.zeros(n + 1, dtype=np.intc)
    np.cumsum(np.bincount(c, minlength=n), out=indptr[1:])
    return _Pattern(n, place[slot], perm, np.argsort(perm), indptr,
                    r[by_column].astype(np.intc))


def _spd_numeric(pattern: _Pattern, vals) -> _Factor:
    """The numeric step of the sparse factor: factor the SPD matrix of the
    first ``len(vals)`` triplets of ``pattern`` (``_spd_pattern``) with the
    values ``vals``; the pattern's other entries are explicit zeros.

    The data is ``np.bincount`` of the values by slot. The dense branch
    factors it by ``_potrf``, solves with LAPACK ``dpotrs`` on the same
    factor and draws with ``dtrtrs`` on its upper half L'. The SuperLU
    branch factors P'MP = L D L' in its natural order with no off-diagonal
    pivoting (``SymmetricMode``, ``diag_pivot_thresh=0``), and permutes the
    solve's right-hand side in and its result out. A draw is that solve on
    L D^{1/2} z, permuted out: SuperLU's L is unit lower and its U is D L',
    so it is L'^{-1} D^{-1/2} z. The draw reads ``lu.L`` when it runs, so a
    factor that never draws never forms it (SuperLU keeps it after the
    first read). log|M| is the sum of log D, and the smallest pivot the
    least D, or the least squared Cholesky diagonal on the dense branch.
    Raises NotPositiveDefiniteError on a pivot that is not positive.
    """
    n = pattern.n
    slot = pattern.slot[: len(vals)]
    if pattern.perm is None:
        chol = _potrf(np.bincount(slot, vals, minlength=n * n).reshape(n, n))
        if chol is None:
            raise NotPositiveDefiniteError("precision is not positive definite")
        diag = np.diag(chol)
        return _Factor(
            2.0 * float(np.sum(np.log(diag))),
            lambda b: lapack.dpotrs(chol.T, b, lower=0)[0],
            "dense Cholesky",
            float(diag.min()) ** 2,
            lambda z: lapack.dtrtrs(chol.T, z, lower=0)[0],
        )
    data = np.bincount(slot, vals, minlength=pattern.indices.size)
    lu = _splu(csc_matrix((data, pattern.indices, pattern.indptr), shape=(n, n)), "NATURAL")
    pivots = lu.U.diagonal()
    if not (np.all(pivots > 0.0) and np.array_equal(lu.perm_r, lu.perm_c)):
        raise NotPositiveDefiniteError("precision is not positive definite")
    perm, order = pattern.perm, pattern.order
    return _Factor(float(np.sum(np.log(pivots))), lambda b: lu.solve(b[order])[perm],
                   "SuperLU", float(pivots.min()),
                   lambda z: lu.solve(lu.L @ (np.sqrt(pivots)[:, None] * z))[perm])

