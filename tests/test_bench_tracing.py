"""The benchmark's tracer against the names it wraps in the program.

``bench/tracing.py`` replaces program functions by name and reads two
``lru_cache`` counters; a rename in the program would break a traced run
without failing any other test.
"""
import sys
from pathlib import Path

import numpy as np
import scipy.linalg

import graphfields as gf
from graphfields import FieldModel, exact, graph, inference, metrics

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from tracing import Tracer  # noqa: E402


def _bindings():
    """Every name the tracer may replace: graphfields module attributes,
    the three MetricGraph lookups and scipy.linalg.eigh."""
    names = {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name == "graphfields" or name.startswith("graphfields.")
        for attr, value in vars(module).items()
    }
    for attr in ("edge_index", "edge", "point"):
        names[("MetricGraph", attr)] = getattr(graph.MetricGraph, attr)
    names[("scipy.linalg", "eigh")] = scipy.linalg.eigh
    return names


def test_tracer_wraps_exact_layer_and_restores_everything():
    g = gf.star([1.0, 1.0, 1.0])
    m = FieldModel(kappa=1.3)
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        assert exact.full_cov is not before[("graphfields.exact", "full_cov")]
        exact.full_cov(g, m, gf.mesh(g, 0.5))
        exact.endpoint_prior_cov(g, m)
    finally:
        tracer.remove()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tracer.calls["exact.full_cov"] > 0
    assert tracer.calls["exact.condition"] > 0
    assert tracer.per_layer()["exact.full_cov_calls"][0] > 0


def test_tracer_counts_the_resistance_structure_cache():
    # the bench reads the structure cache's hits, misses and size, and the
    # three call forms of one root are one entry
    g = gf.star([0.4, 0.9, 1.7])
    tracer = Tracer()
    tracer.install()
    try:
        rs = metrics.resistance_structure(g)
        assert metrics.resistance_structure(g, 0) is rs
        assert metrics.resistance_structure(g, v0=0) is rs
    finally:
        tracer.remove()
    layer = tracer.per_layer()
    assert layer["metrics.resistance_structure_misses"] == (1, "count")
    assert layer["metrics.resistance_structure_hits"] == (2, "count")
    info = metrics.resistance_structure.cache_info()
    assert 1 <= tracer.counts["metrics.resistance_structure_entries"] == info.currsize


def test_traced_sample_factors_only_the_vertex_block():
    # every vertex of the mesh is among the points, so sampling needs the
    # sparse vertex precision's factor alone: no dense Cholesky, neither of
    # the |V| x |V| vertex table nor of a covariance of the points
    g = gf.one_sum([gf.circle(1.4, 4) for _ in range(40)], [(0, 0)] * 39)
    pts = gf.mesh(g, 0.1)
    tracer = Tracer()
    tracer.install()
    try:
        exact.sample(g, FieldModel(kappa=2.0), pts, 20, 3)
    finally:
        tracer.remove()
    layers = tracer.per_layer()
    assert layers["sampling.cholesky_gflop"][0] == 0.0
    assert layers["exact.full_cov_calls"][0] == 0
    assert layers["sampling.normals_drawn"][0] == 20 * len(pts)


def test_traced_sample_without_a_vertex_draws_it_and_forms_no_covariance():
    # the mesh without vertex 0: the Markov factor still draws vertex 0, as
    # one more normal column that it then drops, and no covariance of the
    # points on its edges is formed
    g = gf.one_sum([gf.circle(1.4, 4) for _ in range(40)], [(0, 0)] * 39)
    pts = [p for p in gf.mesh(g, 0.1) if g.vertex_of(p) != 0]
    tracer = Tracer()
    tracer.install()
    try:
        exact.sample(g, FieldModel(kappa=2.0), pts, 20, 3)
    finally:
        tracer.remove()
    layers = tracer.per_layer()
    assert layers["exact.full_cov_calls"][0] == 0
    assert layers["sampling.normals_drawn"][0] == 20 * (len(pts) + 1)


def test_traced_loglik_at_a_new_kappa_builds_no_covariance():
    # the tracer hands loglik a wrapper of the source; the precision route
    # sees through it, and needs neither C nor the |V| x |V| vertex table
    g = gf.one_sum([gf.circle(1.4, 4) for _ in range(40)], [(0, 0)] * 39)
    rng = np.random.default_rng(8)
    obs = [gf.PointOnGraph(e.id, float(rng.uniform(0.05, 0.95) * e.length))
           for e in (g.edges[i] for i in rng.integers(g.edge_count, size=200))]
    source = inference.exact_cov_source(g, FieldModel(kappa=2.0 + 1e-3 * np.pi))
    tracer = Tracer()
    tracer.install()
    try:
        value = inference.loglik(source, obs, rng.normal(size=200), 0.01)
    finally:
        tracer.remove()
    layers = tracer.per_layer()
    assert np.isfinite(value)
    assert tracer.calls["inference.loglik"] == 1
    assert layers["exact.full_cov_calls"][0] == 0
    assert layers["exact.vertex_cov_misses"][0] == 0
