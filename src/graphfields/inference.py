"""Gaussian conditioning on top of any covariance source: kriging and
log-density evaluation.

A covariance source is any callable mapping an ordered point list to the
dense covariance matrix over it; the exact and spectral builders both fit
(see :func:`exact_cov_source`). The joint matrix over observation and
prediction points is built in a single call so the cross blocks are always
consistent with the diagonal ones.

Observations are checked once, for both routines and before either route:
y is finite with one value per point, and the noise variance is finite and
>= 0. With zero noise one location may be observed only once. On the dense
route locations are compared by their rows of the observation covariance,
and on the precision route by their nodes of the cut graph, not by their
addresses, so a vertex reached through two of its edges counts as one
location.

``loglik`` has one route per source. On an exact source it takes the
precision route, ``exact._precision_loglik``, at every noise variance,
zero included: the field at the vertices and the observation points is a
Gaussian Markov field with a sparse precision, which ``exact`` builds and
factors beside its rows, and neither the n x n covariance nor the
|V| x |V| vertex table is formed. Its layout depends on the graph and the
points alone and is cached with the sparse patterns of its precisions and
their fill-reducing orders, so a sweep over the model at fixed points
recomputes only the weights and the numeric factors.
That route picks one of two forms by one rule (see ``loglik``) and keeps
full accuracy at small kappa, where a Cholesky of C + noise I loses the
O(1) part of C under its 1/(kappa^2 |Gamma|) constant mode. Nothing falls
back: where the route cannot evaluate, it raises ``NumericalError``. Every
other source, and ``krige`` on any source, take the dense route through
the joint covariance.

The dense route reads C_oo in place in the joint matrix and factors one
private copy of C_oo + noise I (``sampling.safe_cholesky``); the trace
and the jitter are computed only if that factor fails. ``krige`` then makes
one LAPACK ``dtrtrs`` on the stacked F-ordered right-hand side [y | C_op],
which gives alpha = L^{-1} y and V = L^{-1} C_op together: the mean is
V' alpha, the covariance C_pp - V'V and the log-likelihood reads alpha
and diag(L). ``loglik``'s dense route makes the same factor and one solve
for alpha.

An exact source keeps the last point set it computed, with its matrix, in
a one-slot memo keyed on each point's ``(edge, t)``: a request over points
all in the slot, in any order and with any repeats, is a gather from that
matrix with no ``full_cov`` call (see :func:`exact_cov_source`). So a
leave-one-out sweep of ``krige`` computes one covariance, and the memory
held is at most one n x n matrix per source.

The DEBUG line on ``graphfields.inference``, once per call, names the
route, and on the precision route the factor, the form and whether the
layout was built or reused. An exact source logs one more line per call
there, saying whether it gathered its matrix from its memo or computed it.
"""
from __future__ import annotations

import inspect
import logging
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import lapack

from . import exact
from .errors import ValidationError
from .graph import MetricGraph, PointOnGraph, _arclength, _symmetrize
from .models import CovMatrix, FieldModel, _scalar
from .sampling import safe_cholesky

__all__ = ["KrigingResult", "krige", "loglik", "exact_cov_source"]

CovSource = Callable[[Sequence[PointOnGraph]], np.ndarray]

_log = logging.getLogger(__name__)


@dataclass
class KrigingResult:
    """Posterior of a Gaussian field given noisy point observations."""

    mean: np.ndarray
    cov: np.ndarray
    log_likelihood: float
    jitter: float = 0.0

    @property
    def variance(self) -> np.ndarray:
        return np.diag(self.cov).copy()


class _ExactSource:
    """``exact.full_cov`` at the points behind a one-slot memo (see
    :func:`exact_cov_source`), keeping the graph and model for ``loglik``'s
    precision route. The slot is one tuple (points, read-only matrix, row
    map or None), read once per call and replaced in one assignment, so
    callers that share a source never see one set's rows beside another
    set's matrix. Each call logs at DEBUG whether it gathered or computed.
    """

    __slots__ = ("g", "m", "_slot")

    def __init__(self, g: MetricGraph, m: FieldModel):
        self.g, self.m = g, m
        self._slot = None

    def __call__(self, pts: Sequence[PointOnGraph]) -> np.ndarray:
        pts = list(pts)
        slot = self._slot
        if slot is not None:
            old, cov, index = slot
            if index is None:
                index = {(p.edge, _arclength(p.t)): i for i, p in enumerate(old)}
                self._slot = (old, cov, index)
            get = index.get
            rows = [get((p.edge, _arclength(p.t)), -1) for p in pts]
            if -1 not in rows:
                _log.debug("exact source: %d points, covariance gathered from its memo", len(pts))
                rows = np.array(rows, dtype=np.intp)
                return cov.take(rows, 0).take(rows, 1)
        cov = exact.full_cov(self.g, self.m, pts).matrix
        _log.debug("exact source: %d points, covariance computed", len(pts))
        cov.flags.writeable = False
        self._slot = (pts, cov, None)
        return cov.copy()


def exact_cov_source(g: MetricGraph, m: FieldModel) -> CovSource:
    """Covariance source backed by the exact unit-exponent construction.

    The source keeps a one-slot memo: the last point set it computed with
    ``exact.full_cov``, that set's matrix (read-only) and, built on the
    first lookup, a map from each of its points' ``(edge, t)``, with t as
    ``graph._arclength`` reads it, to its row (``full_cov`` reads nothing
    else of a point). A
    request whose every point is in the map is a gather from that matrix,
    rows then columns, with no ``full_cov`` call; any other request calls
    ``full_cov`` and takes the slot. So the requests of a leave-one-out
    sweep, each the same point set in a new order, compute one covariance
    between them. A key is in the map only because ``full_cov`` validated
    that same ``(edge, t)`` (clamped within the 1e-12 slack) on this
    immutable graph, so a point it would reject (an unknown edge, a NaN
    ``t``, a ``t`` past the slack) always misses and raises as before, a
    ``t`` that is not a number (a string, None, a bool) raises
    ``PointError`` at the lookup, and a failed request leaves the slot as
    it was. Gathered equals computed
    to the byte on the tested graphs (the circle, star, tadpole,
    figure-eight and a 301-vertex bouquet). The memory is one n x n matrix
    per source, for the n points it last computed, freed with the source.
    Every call returns a new writable array: a gather, or one copy of the
    slot's matrix on a miss. Each call's DEBUG line on
    ``graphfields.inference`` tells which it was.
    """
    return _ExactSource(g, m)


def _joint(cov_source: CovSource, obs, pred) -> np.ndarray:
    pts = list(obs) + list(pred)
    mat = cov_source(pts)
    if isinstance(mat, CovMatrix):
        mat = mat.matrix
    mat = np.asarray(mat, dtype=float)
    if mat.shape != (len(pts), len(pts)):
        raise ValidationError(
            f"covariance source returned shape {mat.shape} for {len(pts)} points"
        )
    if not np.all(np.isfinite(mat)):
        raise ValidationError("covariance source returned a value that is not finite")
    return mat


def _check_obs(obs, y, noise_var) -> tuple[np.ndarray, float]:
    """The one observation check, run first on every route: y finite with
    one value per observation point, noise_var finite and >= 0."""
    y = np.asarray(y, dtype=float)
    if y.shape != (len(obs),) or not np.all(np.isfinite(y)):
        raise ValidationError(
            f"y must hold one finite value for each of {len(obs)} observation points"
        )
    return y, _scalar(noise_var, "noise variance", strict=False)


def _condition(cov_source: CovSource, obs, y, noise_var, pred=()) -> tuple:
    """The joint covariance over obs + pred and the Cholesky factor (with
    its jitter) of C_oo + noise_var I, for y and noise_var that passed
    ``_check_obs``.

    C_oo is read in place from the joint matrix, and
    ``sampling.safe_cholesky`` factors one private copy of it with
    noise_var on the diagonal; the trace and the jitter are computed only
    if that factor fails.

    At zero noise no two rows of C_oo may be equal: a covariance source
    gives one location one row however it is addressed (a vertex through
    any of its edge ends included), so equal rows mean the same location
    observed twice, and C_oo is singular.
    """
    joint = _joint(cov_source, obs, pred)
    no = len(obs)
    coo = joint[:no, :no]
    if noise_var == 0.0 and len(np.unique(coo, axis=0)) != no:
        raise ValidationError(
            "duplicate observation points need positive noise variance"
        )
    return joint, *safe_cholesky(coo, noise_var)


def _tri_solve(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """L^{-1} b for the lower factor L of ``safe_cholesky``, by one
    LAPACK ``dtrtrs`` on the F-contiguous upper factor ``chol.T``. ``b``
    must be the caller's own: an F-ordered ``b`` is overwritten with the
    result, not copied."""
    if len(chol) == 0:  # LAPACK rejects a leading dimension of 0
        return np.zeros(np.shape(b))
    return lapack.dtrtrs(chol.T, b, lower=0, trans=1, overwrite_b=1)[0]


def _gauss_loglik(chol: np.ndarray, alpha: np.ndarray) -> float:
    """Gaussian log density of y from the lower Cholesky factor L of its
    covariance and alpha = L^{-1} y."""
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
    n = len(alpha)
    return -0.5 * (float(alpha @ alpha) + logdet + n * np.log(2.0 * np.pi))


def krige(
    cov_source: CovSource,
    obs_pts: Sequence[PointOnGraph],
    y: Sequence[float],
    noise_var: float,
    pred_pts: Sequence[PointOnGraph],
) -> KrigingResult:
    """Posterior mean/covariance at prediction points, plus the marginal
    log-likelihood of the observations.

    mean = C_po (C_oo + noise I)^{-1} y and
    cov  = C_pp - C_po (C_oo + noise I)^{-1} C_op. With L the Cholesky
    factor of one copy of C_oo + noise I, one triangular solve of
    [y | C_op] gives alpha = L^{-1} y and V = L^{-1} C_op, so the mean is
    V' alpha, the covariance C_pp - V'V (made exactly symmetric) and the
    log-likelihood -(alpha'alpha + 2 sum log diag L + n log 2 pi) / 2. A
    diagonal jitter is escalated (and reported) only if the observation
    matrix is PSD but not numerically factorable; one location observed
    twice with zero noise is rejected instead.
    """
    obs_pts, pred_pts = list(obs_pts), list(pred_pts)
    y, noise_var = _check_obs(obs_pts, y, noise_var)
    # the result is allocated before the joint matrix, the factor and the
    # solve, so that freeing those leaves one free block above it: made
    # after them it splits the heap, and a long-lived process grows (peak
    # RSS of the figure-eight benchmark: 216-232 MiB, against 205 this way)
    cov = np.empty((len(pred_pts), len(pred_pts)))
    joint, chol, jitter = _condition(cov_source, obs_pts, y, noise_var, pred_pts)
    _log.debug("krige: dense route, %d points (krige has no precision route)", len(obs_pts))
    no = len(obs_pts)
    # one solve for [alpha | V] = L^{-1} [y | C_op], with C_op read as C_po'
    rhs = np.empty((no, len(pred_pts) + 1), order="F")
    rhs[:, 0] = y
    rhs[:, 1:] = joint[no:, :no].T
    sol = _tri_solve(chol, rhs)
    alpha, half = sol[:, 0], sol[:, 1:]
    np.matmul(half.T, half, out=cov)
    np.subtract(joint[no:, no:], cov, out=cov)
    return KrigingResult(
        mean=half.T @ alpha,
        cov=_symmetrize(cov),
        log_likelihood=_gauss_loglik(chol, alpha),
        jitter=jitter,
    )


def loglik(
    cov_source: CovSource,
    obs_pts: Sequence[PointOnGraph],
    y: Sequence[float],
    noise_var: float,
) -> float:
    """Log density of y under the zero-mean model at the observation points.

    On an exact source (``exact_cov_source``, or a wrapper of one that sets
    ``__wrapped__`` as ``functools.wraps`` does) this takes the precision
    route, ``exact._precision_loglik``, at every noise variance >= 0; every
    other source takes the dense route through C_oo. The precision route
    has two forms of one cut-graph precision. The scaled form pins each
    observed node at the mean of its observations plus its noise, scaled
    by the noise's standard deviation, so no 1 / noise_var appears and
    zero noise is its plain case. The grounded form adds A'A / noise_var
    to the precision in grounded coordinates. One rule picks the form:
    scaled where noise_var * w_max * w_min <= ``exact._SCALED_MAX`` (0.05),
    grounded above it, with w_max^2 and w_min^2 the largest and the
    smallest precision of the field's increment across a piece of the cut
    graph (about tau^2 a / L for a piece of length L). Against 50-digit
    mpmath on 700 random circles the scaled form was within 3e-14 wherever
    noise_var w_max^2 <= 1e4 and the grounded form within 2e-14 wherever
    noise_var w_min^2 >= 1e-4; the rule kept every case within 1.2e-14.
    Nothing falls back to the dense route: a value that is not finite (a
    density that underflows) or a factor that is not positive definite
    raises ``NumericalError``. The route, and on the precision route the
    factor and the form, is logged at DEBUG.
    """
    obs_pts = list(obs_pts)
    y, noise_var = _check_obs(obs_pts, y, noise_var)
    source = inspect.unwrap(cov_source)
    if isinstance(source, _ExactSource):
        value, *how = exact._precision_loglik(source.g, source.m, obs_pts, y, noise_var)
        _log.debug("loglik: precision route, %d points, %d nodes, %s, %s form, layout %s",
                   len(obs_pts), *how)
        return value
    _log.debug("loglik: dense route, %d points (source is not exact)", len(obs_pts))
    _, chol, _ = _condition(cov_source, obs_pts, y, noise_var)
    return _gauss_loglik(chol, _tri_solve(chol, y.copy()))
