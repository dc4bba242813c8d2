"""Gaussian conditioning on top of any covariance source: kriging and
log-density evaluation.

A covariance source is any callable mapping an ordered point list to the
dense covariance matrix over it; the exact and spectral builders both fit
(see :func:`exact_cov_source`). The joint matrix over observation and
prediction points is built in a single call so the cross blocks are always
consistent with the diagonal ones.

Observations are checked once, for both routines: y is finite with one
value per point, and the noise variance is finite and >= 0. With zero noise
one location may be observed only once. Locations are compared by their
rows of the observation covariance, not by their addresses, so a vertex
reached through two of its edges counts as one location.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import cho_solve, solve_triangular

from .errors import ValidationError
from .graph import MetricGraph, PointOnGraph
from .models import CovMatrix, FieldModel, _scalar
from .sampling import safe_cholesky

__all__ = ["KrigingResult", "krige", "loglik", "exact_cov_source"]

CovSource = Callable[[Sequence[PointOnGraph]], np.ndarray]


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


def exact_cov_source(g: MetricGraph, m: FieldModel) -> CovSource:
    """Covariance source backed by the exact unit-exponent construction."""
    from .exact import full_cov

    return lambda pts: full_cov(g, m, pts).matrix


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
    return mat


def _condition(cov_source: CovSource, obs, y, noise_var, pred=()) -> tuple:
    """The one observation check, then the joint covariance over obs + pred
    and the Cholesky factor (with its jitter) of C_oo + noise_var I.

    y must be finite with one value per observation point and noise_var
    finite and >= 0. At zero noise no two rows of C_oo may be equal: a
    covariance source gives one location one row however it is addressed
    (a vertex through any of its edge ends included), so equal rows mean
    the same location observed twice, and C_oo is singular.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (len(obs),) or not np.all(np.isfinite(y)):
        raise ValidationError(
            f"y must hold one finite value for each of {len(obs)} observation points"
        )
    noise_var = _scalar(noise_var, "noise variance", strict=False)
    joint = _joint(cov_source, obs, pred)
    coo = joint[: len(obs), : len(obs)]
    if noise_var == 0.0 and len(np.unique(coo, axis=0)) != len(obs):
        raise ValidationError(
            "duplicate observation points need positive noise variance"
        )
    return y, joint, *safe_cholesky(coo + noise_var * np.eye(len(obs)))


def _gauss_loglik(chol: np.ndarray, y: np.ndarray) -> float:
    alpha = solve_triangular(chol, y, lower=True)
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
    n = len(y)
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
    y, joint, chol, jitter = _condition(cov_source, obs_pts, y, noise_var, pred_pts)
    no = len(obs_pts)
    cpo = joint[no:, :no]
    cpp = joint[no:, no:]
    w = cho_solve((chol, True), y)
    mean = cpo @ w
    half = solve_triangular(chol, cpo.T, lower=True)
    cov = cpp - half.T @ half
    cov = 0.5 * (cov + cov.T)
    return KrigingResult(
        mean=mean,
        cov=cov,
        log_likelihood=_gauss_loglik(chol, y),
        jitter=jitter,
    )


def loglik(
    cov_source: CovSource,
    obs_pts: Sequence[PointOnGraph],
    y: Sequence[float],
    noise_var: float,
) -> float:
    """Log density of y under the zero-mean model at the observation points."""
    y, _, chol, _ = _condition(cov_source, list(obs_pts), y, noise_var)
    return _gauss_loglik(chol, y)
