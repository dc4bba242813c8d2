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


#: the graphs of ``short_edge_graph``
SHORT_EDGE_SHAPES = ("triangle", "chain", "loop", "parallel", "pendant", "root")


def short_edge_graph(shape: str, short: float) -> MetricGraph:
    """A graph whose edges named "short" and "short2" are ``short`` and
    2 ``short`` long, and whose other edges are 0.7 to 1.3 long. In every
    shape the short edges join one cluster of vertices: two vertices of a
    triangle, three through a chain of two short edges, one vertex through
    a short loop, two through two short parallel edges, a pendant vertex,
    or vertex 0 and its neighbour ("root")."""
    E = Edge
    edges = {
        "triangle": [E("a", 0, 1, 1.0), E("short", 1, 2, short), E("b", 2, 0, 1.3),
                     E("pendant", 2, 3, 0.7)],
        "chain": [E("a", 0, 1, 1.0), E("short", 1, 2, short), E("short2", 2, 3, 2 * short),
                  E("b", 3, 0, 1.3), E("pendant", 3, 4, 0.7)],
        "loop": [E("a", 0, 1, 1.0), E("b", 1, 2, 0.8), E("c", 2, 0, 1.3),
                 E("short", 1, 1, short)],
        "parallel": [E("a", 0, 1, 1.0), E("short", 1, 2, short), E("short2", 1, 2, 2 * short),
                     E("b", 2, 0, 1.3), E("pendant", 2, 3, 0.7)],
        "pendant": [E("a", 0, 1, 1.0), E("b", 1, 2, 1.3), E("c", 2, 0, 0.8),
                    E("short", 2, 3, short)],
        "root": [E("short", 0, 1, short), E("a", 1, 2, 1.0), E("b", 2, 0, 1.3),
                 E("pendant", 1, 3, 0.7)],
    }[shape]
    return MetricGraph(1 + max(max(e.u, e.v) for e in edges), tuple(edges))


def short_edge_points(g: MetricGraph):
    """Every vertex, then two points inside each short edge of a
    ``short_edge_graph`` and one inside each other edge; and whether each
    point is on a short edge or at one of its ends."""
    short = [e for e in g.edges if e.id.startswith("short")]
    pts = [g.vertex_point(v) for v in range(g.vertex_count)]
    pts += [g.point(e.id, s * e.length) for e in short for s in (0.25, 0.6)]
    pts += [g.point(e.id, 0.37 * e.length) for e in g.edges if e not in short]
    ends = {v for e in short for v in (e.u, e.v)}
    clustered = np.array([p.edge.startswith("short") or g.vertex_of(p) in ends for p in pts])
    return pts, clustered
