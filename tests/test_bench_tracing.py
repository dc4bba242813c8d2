"""The benchmark's tracer against the names it wraps in the program.

``bench/tracing.py`` replaces program functions by name and reads two
``lru_cache`` counters; a rename in the program would break a traced run
without failing any other test.
"""
import sys
from pathlib import Path

import scipy.linalg

import graphfields as gf
from graphfields import FieldModel, exact, graph

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
