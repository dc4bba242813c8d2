"""Shared model and result types: field parameters and covariance matrices.

This module is also the one place the package checks scalar input:
``_scalar`` (a finite float above a bound, never a bool: kappa, a, tau,
lengths, alpha, kernel scales, noise), ``_count`` (an integer in a range,
never a bool or a float: replicate counts, mode counts, grid sizes) and
``_check_indices`` (indices into a matrix). The first two live in
``graph``, whose edge lengths and vertex indices they also check, and are
re-exported here. Other modules call these rather than write their own
comparisons, so every parameter is held to the same rule.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import ValidationError
from .graph import Edge, _count, _scalar
from .sampling import _PSD_TOL, _min_eigenvalue

__all__ = ["FieldModel", "CovMatrix"]


def _normalize(value, name: str):
    """Positive float, or mapping edge id -> positive float (made hashable)."""
    if isinstance(value, Mapping):
        return tuple(sorted((str(k), _scalar(v, f"{name}[{str(k)!r}]"))
                            for k, v in value.items()))
    return _scalar(value, name)


def _check_indices(indices, n: int, name: str) -> list:
    """``indices`` as a list, each an integer in [0, n): none may alias.

    A 1-D integer array passes with one range test; anything else, and any
    array that fails, goes item by item through ``_count``, which raises at
    the first bad entry.
    """
    if not isinstance(indices, np.ndarray):
        indices = list(indices)
    arr = np.asarray(indices)
    # numpy reads a bool in a list of ints as 0 or 1, so a list's types count
    if (arr.ndim == 1 and arr.dtype.kind in "iu"
            and (indices is arr or not {bool, np.bool_} & set(map(type, indices)))
            and (arr.size == 0 or (arr.min() >= 0 and arr.max() < n))):
        return arr.tolist()
    return [_count(i, name, 0, n - 1) for i in indices]


@dataclass(frozen=True)
class FieldModel:
    """Parameters of the differential-operator field on a graph.

    ``kappa`` (range) and ``a`` (conductivity) are constant per edge: either
    one float for the whole graph or a mapping from edge id to value.
    ``tau``, one float for the whole graph, scales the field as 1/tau, and
    ``alpha`` is the smoothness exponent (> 1/2; the exact construction
    additionally needs alpha = 1).
    """

    kappa: float | Mapping[str, float] = 1.0
    a: float | Mapping[str, float] = 1.0
    tau: float = 1.0
    alpha: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "kappa", _normalize(self.kappa, "kappa"))
        object.__setattr__(self, "a", _normalize(self.a, "a"))
        object.__setattr__(self, "tau", _scalar(self.tau, "tau"))
        object.__setattr__(self, "alpha", _scalar(self.alpha, "alpha", 0.5))

    @staticmethod
    def _lookup(table, edge_ids, name: str) -> np.ndarray:
        """Values on each edge id of a float or of a sorted (id, value)
        tuple, read into a dict once: O(|E|), not one scan per edge."""
        if isinstance(table, float):
            return np.full(len(edge_ids), table)
        values = dict(table)
        try:
            return np.array([values[k] for k in edge_ids])
        except KeyError as exc:
            raise ValidationError(f"no {name} given for edge {exc.args[0]!r}") from None

    def _edge_values(self, edges) -> tuple[np.ndarray, np.ndarray]:
        """(kappa, a) on each of the given edges, as two arrays."""
        ids = [e.id for e in edges]
        return self._lookup(self.kappa, ids, "kappa"), self._lookup(self.a, ids, "a")

    def kappa_on(self, edge_id: str) -> float:
        return float(self._lookup(self.kappa, [edge_id], "kappa")[0])

    def a_on(self, edge_id: str) -> float:
        return float(self._lookup(self.a, [edge_id], "a")[0])

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
        (the minimum over no eigenvalues), so an empty matrix is PSD. It is
        ``sampling._min_eigenvalue``'s: LAPACK computes that one eigenvalue,
        from the lower triangle, and no other."""
        key = "min_eigenvalue"
        if key not in self.info:
            self.info[key] = _min_eigenvalue(self.matrix)
        return self.info[key]

    def is_psd(self) -> bool:
        """PSD up to rounding: min eigenvalue >= -``sampling._PSD_TOL`` * trace."""
        return self.min_eigenvalue() >= -_PSD_TOL * float(np.trace(self.matrix))
