"""Isotropic covariance models on metric graphs.

An isotropic model is a univariate kernel composed with a graph metric
(geodesic or resistance). This module also provides the closed-form
covariance of the range-kappa Markov field on a circle,

    r(h) = cosh(kappa (h - L/2)) / (2 kappa tau^2 sinh(kappa L/2)),

and numeric demonstrators for the fact that no single kernel can be
isotropic and Markov across cycles of different lengths (or a cycle and a
pendant edge): on matched resistance distances the two closed forms cannot
agree for all h, and the maximal discrepancy over an h grid is reported.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import DegenerateCaseError, PointError, ValidationError
from .graph import MetricGraph, PointOnGraph
from .metrics import _geodesic_matrix, _resistance_matrix
from .models import CovMatrix, _count, _scalar

__all__ = [
    "circle_cov",
    "ExponentialKernel",
    "CircleMarkovKernel",
    "IsotropicModel",
    "iso_cov_matrix",
    "GapResult",
    "nonexistence_gap",
    "two_cycles_profile",
    "cycle_plus_edge_profile",
]


def circle_cov(h, kappa: float, tau: float, ell: float):
    """Markov covariance on a circle of length ``ell`` at geodesic distance h.

    Evaluates cosh(kappa (h - ell/2)) / (2 kappa tau^2 sinh(kappa ell/2))
    in an overflow-safe form; h must lie in [0, ell].
    """
    kappa, tau, ell = _scalar(kappa, "kappa"), _scalar(tau, "tau"), _scalar(ell, "ell")
    h = np.asarray(h, dtype=float)
    if not np.all((0.0 <= h) & (h <= ell)):  # NaN fails too
        raise PointError(f"distance outside [0, {ell}]")
    num = np.exp(-kappa * h) + np.exp(-kappa * (ell - h))
    den = 2.0 * kappa * tau**2 * -np.expm1(-kappa * ell)
    out = num / den
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class ExponentialKernel:
    """r(h) = sigma2 * exp(-kappa h)."""

    sigma2: float
    kappa: float

    def __post_init__(self):
        for name in ("sigma2", "kappa"):
            object.__setattr__(self, name, _scalar(getattr(self, name), name))

    def __call__(self, h):
        return self.sigma2 * np.exp(-self.kappa * np.asarray(h, dtype=float))


@dataclass(frozen=True)
class CircleMarkovKernel:
    """The circle Markov covariance as a kernel of geodesic distance."""

    kappa: float
    tau: float
    ell: float

    def __post_init__(self):
        for name in ("kappa", "tau", "ell"):
            object.__setattr__(self, name, _scalar(getattr(self, name), name))

    def __call__(self, h):
        return circle_cov(h, self.kappa, self.tau, self.ell)


@dataclass(frozen=True)
class IsotropicModel:
    """Kernel composed with a metric: metric is "geodesic" or "resistance"."""

    metric: str
    kernel: Callable

    def __post_init__(self):
        if self.metric not in ("geodesic", "resistance"):
            raise ValidationError(f"unknown metric {self.metric!r}")


def iso_cov_matrix(
    g: MetricGraph, model: IsotropicModel, pts: Sequence[PointOnGraph]
) -> CovMatrix:
    """Kernel-of-metric covariance matrix r(d(p_i, p_j)) over the points.

    The result carries a min-eigenvalue report; nothing guarantees positive
    semidefiniteness for an arbitrary kernel/metric/graph combination, which
    is the point of the accompanying eigenvalue check.
    """
    build = _geodesic_matrix if model.metric == "geodesic" else _resistance_matrix
    pts, d = build(g, pts)
    mat = np.asarray(model.kernel(d), dtype=float)
    cov = CovMatrix(mat, tuple(pts), "isotropic")
    cov.min_eigenvalue()
    return cov


class GapResult(NamedTuple):
    """Max |lhs - rhs| over the h grid, the h where it occurs, and the scale
    (largest |value| either side takes on the grid, for relative reading)."""

    gap: float
    h_at_max: float
    scale: float


def _cycle_value_at_resistance(h, kappa: float, tau: float, ell: float):
    """Circle Markov covariance at geodesic distance matched to resistance h.

    Inverting d_R = d - d^2/ell on a cycle (valid for h <= ell/4) gives
    d = ell/2 (1 +- sqrt(1 - 4h/ell)); both roots yield the same covariance
    because cosh is even about ell/2.
    """
    d = 0.5 * (ell + np.sqrt(ell * (ell - 4.0 * np.asarray(h, dtype=float))))
    return circle_cov(d, kappa, tau, ell)


def two_cycles_profile(
    ell1: float, ell2: float, kappa: float, tau: float, grid: int = 10000
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(h, lhs, rhs) for two cycles at matched resistance distance h.

    A kernel isotropic in the resistance metric and Markov on both cycles
    would need lhs(h) = rhs(h) for every h in [0, min(ell1, ell2)/4].
    """
    ell1, ell2, kappa, tau = (
        _scalar(x, "two_cycles parameter") for x in (ell1, ell2, kappa, tau)
    )
    if ell1 == ell2:
        raise DegenerateCaseError(
            "cycle lengths must differ; equal lengths admit an isotropic "
            "Markov kernel"
        )
    h = np.linspace(0.0, min(ell1, ell2) / 4.0, _count(grid, "grid", 1))
    lhs = _cycle_value_at_resistance(h, kappa, tau, ell1)
    rhs = _cycle_value_at_resistance(h, kappa, tau, ell2)
    return h, lhs, rhs


def cycle_plus_edge_profile(
    ell: float,
    ell_edge: float,
    kappa1: float,
    kappa2: float,
    sigma: float,
    tau: float,
    grid: int = 10000,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(h, lhs, rhs) for a cycle glued to a pendant edge.

    On the edge an isotropic Markov kernel is forced exponential,
    lhs(h) = sigma^2 exp(-kappa1 h); on the cycle it is forced to the circle
    Markov form at matched resistance distance, rhs(h). The two cannot agree
    for all h in [0, min(ell_edge, ell/4)].
    """
    ell, ell_edge, kappa1, kappa2, sigma, tau = (
        _scalar(x, "cycle_plus_edge parameter")
        for x in (ell, ell_edge, kappa1, kappa2, sigma, tau)
    )
    h = np.linspace(0.0, min(ell_edge, ell / 4.0), _count(grid, "grid", 1))
    lhs = sigma**2 * np.exp(-kappa1 * h)
    rhs = _cycle_value_at_resistance(h, kappa2, tau, ell)
    return h, lhs, rhs


def nonexistence_gap(case: str, *params: float, grid: int = 10000) -> GapResult:
    """Max discrepancy certifying isotropy/Markov incompatibility.

    ``case`` is "two_cycles" with params (ell1, ell2, kappa, tau) or
    "cycle_plus_edge" with params (ell, ell_edge, kappa1, kappa2, sigma,
    tau). A strictly positive gap certifies that no single isotropic kernel
    restricts to the Markov covariance on both pieces.
    """
    if case == "two_cycles":
        h, lhs, rhs = two_cycles_profile(*params, grid=grid)
    elif case == "cycle_plus_edge":
        h, lhs, rhs = cycle_plus_edge_profile(*params, grid=grid)
    else:
        raise ValidationError(f"unknown nonexistence case {case!r}")
    diff = np.abs(lhs - rhs)
    i = int(np.argmax(diff))
    scale = float(max(np.max(np.abs(lhs)), np.max(np.abs(rhs))))
    return GapResult(gap=float(diff[i]), h_at_max=float(h[i]), scale=scale)
