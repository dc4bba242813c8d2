"""Shared model and result types: field parameters and covariance matrices."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import ValidationError
from .graph import Edge

__all__ = ["FieldModel", "CovMatrix"]


def _normalize(value, name: str):
    """Positive float, or mapping edge id -> positive float (made hashable)."""
    if isinstance(value, Mapping):
        items = tuple(sorted((str(k), float(v)) for k, v in value.items()))
        for k, v in items:
            if not v > 0:
                raise ValidationError(f"{name}[{k!r}] must be positive, got {v}")
        return items
    value = float(value)
    if not value > 0:
        raise ValidationError(f"{name} must be positive, got {value}")
    return value


def _check_indices(indices, n: int, name: str) -> list:
    """``indices`` as a list, each an integer in [0, n): none may alias."""
    out = list(indices)
    if not all(isinstance(i, (int, np.integer)) and not isinstance(i, bool)
               and 0 <= i < n for i in out):
        raise ValidationError(f"{name} must be integers in [0, {n}), got {out}")
    return out


@dataclass(frozen=True)
class FieldModel:
    """Parameters of the differential-operator field on a graph.

    ``kappa`` (range) and ``a`` (conductivity) are constant per edge: either
    one float for the whole graph or a mapping from edge id to value.
    ``tau`` scales the field as 1/tau, and ``alpha`` is the smoothness
    exponent (> 1/2; the exact construction additionally needs alpha = 1).
    """

    kappa: float | Mapping[str, float] = 1.0
    a: float | Mapping[str, float] = 1.0
    tau: float = 1.0
    alpha: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "kappa", _normalize(self.kappa, "kappa"))
        object.__setattr__(self, "a", _normalize(self.a, "a"))
        object.__setattr__(self, "tau", _normalize(self.tau, "tau"))
        alpha = float(self.alpha)
        if not alpha > 0.5:
            raise ValidationError(f"alpha must exceed 1/2, got {alpha}")
        object.__setattr__(self, "alpha", alpha)

    def _lookup(self, table, edge_id: str, name: str) -> float:
        if isinstance(table, float):
            return table
        for k, v in table:
            if k == edge_id:
                return v
        raise ValidationError(f"no {name} given for edge {edge_id!r}")

    def kappa_on(self, edge_id: str) -> float:
        return self._lookup(self.kappa, edge_id, "kappa")

    def a_on(self, edge_id: str) -> float:
        return self._lookup(self.a, edge_id, "a")

    def edge_params(self, e: Edge) -> tuple[float, float]:
        """(kappa, a) on the given edge."""
        return self.kappa_on(e.id), self.a_on(e.id)


@dataclass
class CovMatrix:
    """Dense symmetric covariance over an ordered point list.

    ``provenance`` records how the matrix was built: "exact" (closed-form
    conditioning), "spectral" (truncated eigenexpansion) or "isotropic"
    (kernel of a metric). ``info`` carries provenance-specific extras such
    as eigenvalue truncation or min-eigenvalue reports.
    """

    matrix: np.ndarray
    points: tuple
    provenance: str
    info: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.matrix = np.asarray(self.matrix, dtype=float)
        self.points = tuple(self.points)
        if self.matrix.shape != (len(self.points), len(self.points)):
            raise ValidationError(
                f"matrix shape {self.matrix.shape} does not match "
                f"{len(self.points)} points"
            )

    def min_eigenvalue(self) -> float:
        """Smallest eigenvalue, cached in ``info``; inf for a 0 x 0 matrix
        (the minimum over no eigenvalues), so an empty matrix is PSD."""
        key = "min_eigenvalue"
        if key not in self.info:
            vals = np.linalg.eigvalsh(self.matrix)
            self.info[key] = float(vals[0]) if vals.size else math.inf
        return self.info[key]

    def is_psd(self, tol_factor: float = 1e-10) -> bool:
        """PSD up to rounding: min eigenvalue >= -tol_factor * trace."""
        return self.min_eigenvalue() >= -tol_factor * float(np.trace(self.matrix))
