"""Gaussian conditioning on top of any covariance source: kriging and
log-density evaluation.

A covariance source is any callable mapping an ordered point list to the
dense covariance matrix over it; the exact and spectral builders both fit
(see :func:`exact_cov_source`). The joint matrix over observation and
prediction points is built in a single call so the cross blocks are always
consistent with the diagonal ones.

Observations are checked once, for both routines and before either route:
y is finite with one value per point, and the noise variance is finite and
>= 0. With zero noise one location may be observed only once. Locations are
compared by their rows of the observation covariance, not by their
addresses, so a vertex reached through two of its edges counts as one
location.

``loglik`` has two routes. With noise on an exact source it takes the
precision route, ``exact._precision_loglik``: the field at the vertices and
the observation points is a Gaussian Markov field with a sparse precision,
which ``exact`` builds and factors beside its rows, and neither the n x n
covariance nor the |V| x |V| vertex table is formed. Its layout depends on
the graph and the points alone and is cached with the sparse pattern of
the precisions and its fill-reducing order, which Q and H share, so a
sweep over the model at fixed points recomputes only the weights and the
numeric factors, and the DEBUG line says whether the layout was built or
reused. That route also keeps
full accuracy at small kappa, where the dense route's Cholesky of
C + noise I loses the O(1) part of C under its 1/(kappa^2 |Gamma|)
constant mode. Zero noise, every other source, a precision route that
fails (a factor that is not positive definite, or a value that is not
finite) and ``krige`` take the dense route through the joint covariance.
This module chooses the route and logs it at DEBUG on
``graphfields.inference``, once per call.
"""
from __future__ import annotations

import inspect
import logging
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import lapack

from . import exact
from .errors import NotPositiveDefiniteError, ValidationError
from .graph import MetricGraph, PointOnGraph
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
    """``exact.full_cov`` at the points, keeping the graph and model for
    ``loglik``'s precision route."""

    __slots__ = ("g", "m")

    def __init__(self, g: MetricGraph, m: FieldModel):
        self.g, self.m = g, m

    def __call__(self, pts: Sequence[PointOnGraph]) -> np.ndarray:
        return exact.full_cov(self.g, self.m, pts).matrix


def exact_cov_source(g: MetricGraph, m: FieldModel) -> CovSource:
    """Covariance source backed by the exact unit-exponent construction."""
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

    At zero noise no two rows of C_oo may be equal: a covariance source
    gives one location one row however it is addressed (a vertex through
    any of its edge ends included), so equal rows mean the same location
    observed twice, and C_oo is singular.
    """
    joint = _joint(cov_source, obs, pred)
    no = len(obs)
    coo = joint[:no, :no].copy()
    if noise_var == 0.0 and len(np.unique(coo, axis=0)) != no:
        raise ValidationError(
            "duplicate observation points need positive noise variance"
        )
    coo.flat[:: no + 1] += noise_var
    return joint, *safe_cholesky(coo)


def _tri_solve(chol: np.ndarray, b: np.ndarray, trans: int = 1) -> np.ndarray:
    """L^{-1} b (``trans`` 1) or L'^{-1} b (``trans`` 0) for the lower
    factor L of ``safe_cholesky``, by LAPACK ``dtrtrs`` on the F-contiguous
    upper factor ``chol.T``."""
    if len(chol) == 0:  # LAPACK rejects a leading dimension of 0
        return np.zeros(np.shape(b))
    return lapack.dtrtrs(chol.T, b, lower=0, trans=trans)[0]


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
    cov  = C_pp - C_po (C_oo + noise I)^{-1} C_op. A diagonal jitter is
    escalated (and reported) if the observation matrix is PSD but not
    numerically factorable; one location observed twice with zero noise is
    rejected instead.
    """
    obs_pts = list(obs_pts)
    y, noise_var = _check_obs(obs_pts, y, noise_var)
    _log.debug("krige: dense route, %d points (krige has no precision route)",
               len(obs_pts))
    joint, chol, jitter = _condition(cov_source, obs_pts, y, noise_var, pred_pts)
    no = len(obs_pts)
    cpo = joint[no:, :no]
    cpp = joint[no:, no:]
    alpha = _tri_solve(chol, y)
    mean = cpo @ _tri_solve(chol, alpha, trans=0)
    half = _tri_solve(chol, cpo.T)
    cov = cpp - half.T @ half
    cov = 0.5 * (cov + cov.T)
    return KrigingResult(
        mean=mean,
        cov=cov,
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

    With noise on an exact source (``exact_cov_source``, or a wrapper of one
    that sets ``__wrapped__`` as ``functools.wraps`` does) this takes the
    precision route (``exact._precision_loglik``); zero noise and every other
    source take the dense route through C_oo. So does a precision route that
    fails: a precision that is not positive definite, or a value that is
    not finite (seen with a point within about tau^2 a times the smallest
    normal double of a node, whose weights overflow, and with a noise
    variance below about 1e-300). The route, and why the dense one, is
    logged at DEBUG.
    """
    obs_pts = list(obs_pts)
    y, noise_var = _check_obs(obs_pts, y, noise_var)
    source = inspect.unwrap(cov_source)
    why = "zero noise" if noise_var == 0.0 else "source is not exact"
    if noise_var > 0.0 and isinstance(source, _ExactSource):
        try:
            # the piece weights (exact._segment_weights) overflow on a piece
            # shorter than about tau^2 a times the smallest normal double, and
            # b / noise_var at a noise near 5e-324: the value is then not
            # finite, checked below
            with np.errstate(over="ignore", invalid="ignore"):
                value, *how = exact._precision_loglik(source.g, source.m, obs_pts, y,
                                                      noise_var)
        except NotPositiveDefiniteError as err:
            why = f"precision route: {err}"
        else:
            if math.isfinite(value):
                _log.debug("loglik: precision route, %d points, %d nodes, %s, layout %s",
                           len(obs_pts), *how)
                return value
            why = "precision route: value is not finite"
    _log.debug("loglik: dense route, %d points (%s)", len(obs_pts), why)
    _, chol, _ = _condition(cov_source, obs_pts, y, noise_var)
    return _gauss_loglik(chol, _tri_solve(chol, y))
