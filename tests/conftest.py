import numpy as np
import pytest

from graphfields import MetricGraph, Edge, PointOnGraph, circle, figure_eight, star


@pytest.fixture
def unit_star():
    return star([1.0, 1.0, 1.0])


@pytest.fixture
def circle24():
    return circle(2.0, 4)


@pytest.fixture
def fig8():
    return figure_eight(1.0, 2.0)


@pytest.fixture
def loop_graph():
    """Single vertex carrying a loop of length 2."""
    return MetricGraph(1, (Edge("loop", 0, 0, 2.0),))


@pytest.fixture
def multi_graph():
    """Two vertices joined by parallel edges of lengths 1 and 3."""
    return MetricGraph(2, (Edge("short", 0, 1, 1.0), Edge("long", 0, 1, 3.0)))


def random_point(g: MetricGraph, rng: np.random.Generator) -> PointOnGraph:
    e = g.edges[rng.integers(len(g.edges))]
    return PointOnGraph(e.id, float(rng.uniform(0.0, e.length)))


def grid(side: int) -> MetricGraph:
    """A side x side square grid of unit edges, vertex r * side + c."""
    edges = [Edge(f"{kind}{v}", v, v + step, 1.0)
             for v in range(side * side)
             for kind, step, ok in (("h", 1, (v + 1) % side), ("v", side, v + side < side**2))
             if ok]
    return MetricGraph(side * side, tuple(edges))
