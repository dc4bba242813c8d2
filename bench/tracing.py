"""Per-layer spans and counters, recorded from outside the program.

:class:`Tracer` replaces the program's public functions, in every loaded
``graphfields`` module namespace that holds them, with wrappers that
record a span per call; ``scipy.linalg.eigh``, which ``spectral`` looks up
at call time, is wrapped the same way. Removing the tracer puts the
originals back, so untraced rounds run the program untouched.

A span's self time is its duration minus that of the spans opened directly
inside it, so a layer's self time is the time spent in it and in no other
traced layer. Spans of a layer nested in the same layer (``point`` calls
``edge`` calls ``edge_index``) count as one call.
"""
from __future__ import annotations

import sys
import time
from collections import defaultdict

import scipy.linalg

from graphfields import exact, graph, inference, kernels, metrics, sampling, spectral

# the relative jitters ``sampling.safe_cholesky`` tries in turn; it reports
# only the jitter it used, from which the number of retries follows
JITTER_LEVELS = (1e-12, 1e-10, 1e-8)


class Tracer:
    """Spans and counters of one run; install before traced work, remove after."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self._stack: list[list] = []
        self._restore: list[tuple[object, str, object]] = []
        self._cache_start: dict[str, tuple[int, int]] = {}

    # -- spans -------------------------------------------------------------

    def wrap(self, layer: str, fn, before=None, after=None):
        """Wrapper timing ``fn`` as ``layer``; ``before(args, kwargs)`` may
        return replacement arguments and ``after(args, result)`` counts."""
        stack = self._stack

        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            outer = all(frame[0] != layer for frame in stack)
            frame = [layer, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spent = time.perf_counter() - start
                stack.pop()
                self.self_s[layer] += spent - frame[1]
                if outer:
                    self.calls[layer] += 1
                    self.total_s[layer] += spent
                if stack:
                    stack[-1][1] += spent
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- install / remove --------------------------------------------------

    def _replace_everywhere(self, fn, wrapper) -> None:
        for name, module in list(sys.modules.items()):
            if name != "graphfields" and not name.startswith("graphfields."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._restore.append((module, attr, fn))
                    setattr(module, attr, wrapper)

    def _set(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        w = self.wrap
        for attr in ("edge_index", "edge", "point"):
            self._set(graph.MetricGraph, attr,
                      w("graph.lookup", getattr(graph.MetricGraph, attr)))
        self._replace_everywhere(graph.mesh, w("graph.mesh", graph.mesh))
        for fn in (metrics.resistance_distance, metrics.geodesic_distance):
            self._replace_everywhere(fn, w(f"metrics.{fn.__name__}", fn))
        self._replace_everywhere(
            kernels.iso_cov_matrix, w("kernels.iso_cov_matrix", kernels.iso_cov_matrix)
        )
        self._replace_everywhere(
            exact.full_cov, w("exact.full_cov", exact.full_cov, after=self._edge_pairs)
        )
        for fn in (exact.endpoint_prior_cov, exact.continuity_constraints,
                   exact.condition_on_constraints):
            self._replace_everywhere(fn, w("exact.condition", fn))
        self._replace_everywhere(
            sampling.replicate_normals,
            w("sampling.replicate_normals", sampling.replicate_normals, after=self._normals),
        )
        self._replace_everywhere(
            sampling.safe_cholesky,
            w("sampling.cholesky", sampling.safe_cholesky, after=self._cholesky),
        )
        self._replace_everywhere(
            spectral.assemble, w("spectral.assemble", spectral.assemble, after=self._dof)
        )
        self._set(scipy.linalg, "eigh", w("spectral.eigh", scipy.linalg.eigh))
        for fn in (spectral.spectral_cov, spectral.kl_sample):
            self._replace_everywhere(fn, w(f"spectral.{fn.__name__}", fn))
        for fn in (inference.krige, inference.loglik):
            self._replace_everywhere(
                fn, w(f"inference.{fn.__name__}", fn, before=self._time_source)
            )
        self._cache_start = {
            "exact.vertex_cov": self._cache_counts(exact._vertex_cov),
            "metrics.resistance_structure": self._cache_counts(metrics.resistance_structure),
        }

    def remove(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        for name, cached in (("exact.vertex_cov", exact._vertex_cov),
                             ("metrics.resistance_structure", metrics.resistance_structure)):
            hits, misses = self._cache_counts(cached)
            hits0, misses0 = self._cache_start[name]
            self.counts[f"{name}_hits"] += hits - hits0
            self.counts[f"{name}_misses"] += misses - misses0
            self.counts[f"{name}_entries"] = cached.cache_info().currsize

    @staticmethod
    def _cache_counts(cached) -> tuple[int, int]:
        info = cached.cache_info()
        return info.hits, info.misses

    # -- counters ------------------------------------------------------------

    def _edge_pairs(self, args, result) -> None:
        k = len({p.edge for p in result.points})
        self.counts["exact.full_cov_edge_pairs"] += k * (k + 1) // 2

    def _normals(self, args, result) -> None:
        self.counts["sampling.normals_drawn"] += result.size

    def _cholesky(self, args, result) -> None:
        mat = args[0]
        n = mat.shape[0]
        self.counts["sampling.cholesky_gflop"] += n**3 / 3.0 / 1e9
        jitter = result[1]
        if jitter > 0.0:
            rel = jitter / (float(mat.trace()) / n)
            level = min(range(len(JITTER_LEVELS)), key=lambda i: abs(JITTER_LEVELS[i] - rel))
            self.counts["sampling.jitter_retries"] += level + 1

    def _dof(self, args, result) -> None:
        self.counts["spectral.n_dof"] = max(self.counts["spectral.n_dof"], result.n_dof)

    def _time_source(self, args, kwargs):
        """Time the covariance source handed to krige/loglik as its own span."""
        args = (self.wrap("inference.cov_source", args[0]), *args[1:])
        return args, kwargs

    # -- report ----------------------------------------------------------------

    def per_layer(self) -> dict[str, tuple[float, str]]:
        """The per-layer metrics, (value, unit) by name."""
        c, t, s, n = self.calls, self.total_s, self.self_s, self.counts
        return {
            "graph.lookup_calls": (c["graph.lookup"], "count"),
            "graph.lookup_s": (t["graph.lookup"], "s"),
            "graph.mesh_s": (t["graph.mesh"], "s"),
            "metrics.resistance_distance_calls": (c["metrics.resistance_distance"], "count"),
            "metrics.resistance_distance_s": (t["metrics.resistance_distance"], "s"),
            "metrics.geodesic_distance_s": (t["metrics.geodesic_distance"], "s"),
            "metrics.resistance_structure_hits": (n["metrics.resistance_structure_hits"], "count"),
            "metrics.resistance_structure_misses": (
                n["metrics.resistance_structure_misses"], "count"),
            "kernels.iso_cov_matrix_s": (s["kernels.iso_cov_matrix"], "s"),
            "exact.full_cov_calls": (c["exact.full_cov"], "count"),
            "exact.full_cov_s": (s["exact.full_cov"], "s"),
            "exact.full_cov_edge_pairs": (n["exact.full_cov_edge_pairs"], "count"),
            "exact.condition_s": (t["exact.condition"], "s"),
            "exact.vertex_cov_misses": (n["exact.vertex_cov_misses"], "count"),
            "exact.vertex_cov_hits": (n["exact.vertex_cov_hits"], "count"),
            "exact.vertex_cov_entries": (n["exact.vertex_cov_entries"], "count"),
            "sampling.replicate_normals_s": (t["sampling.replicate_normals"], "s"),
            "sampling.normals_drawn": (n["sampling.normals_drawn"], "count"),
            "sampling.cholesky_s": (t["sampling.cholesky"], "s"),
            "sampling.cholesky_gflop": (n["sampling.cholesky_gflop"], "GFLOP"),
            "sampling.jitter_retries": (n["sampling.jitter_retries"], "count"),
            "spectral.assemble_s": (s["spectral.assemble"], "s"),
            "spectral.eigh_s": (t["spectral.eigh"], "s"),
            "spectral.n_dof": (n["spectral.n_dof"], "count"),
            "spectral.spectral_cov_s": (t["spectral.spectral_cov"], "s"),
            "spectral.kl_sample_s": (t["spectral.kl_sample"], "s"),
            "inference.cov_source_s": (t["inference.cov_source"], "s"),
            "inference.krige_s": (s["inference.krige"], "s"),
            "inference.loglik_s": (s["inference.loglik"], "s"),
        }
