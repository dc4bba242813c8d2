import json
import pickle

import numpy as np
import pytest
from scipy.sparse import issparse

import graphfields as gf
from graphfields import (
    DanglingEndpointError,
    DisconnectedGraphError,
    GraphValidationError,
    MetricGraph,
    Edge,
    NonPositiveLengthError,
    PointError,
    PointOnGraph,
)
from graphfields.exact import full_cov, kirchhoff_residual
from graphfields import graph as graph_module
from graphfields.graph import (
    _DENSE_PHI_MAX,
    _point_arrays,
    _same_edge_pairs,
    _sandwich,
    vertex_distance_matrix,
)
from graphfields.metrics import geodesic_distance

from conftest import grid, random_point
from oracles import mesh_rule


def test_build_interval_smallest_valid():
    g = gf.build_graph({"vertices": 2, "edges": [{"u": 0, "v": 1, "length": 1.0}]})
    assert g.edge_count == 1
    assert g.vertex_count == 2
    assert g.edges[0].id == "e0"
    assert g.total_length == 1.0


def test_build_preserves_edge_order_and_ids():
    doc = {
        "vertices": 3,
        "edges": [
            {"id": "b", "u": 0, "v": 1, "length": 1.0},
            {"id": "a", "u": 1, "v": 2, "length": 2.0},
        ],
    }
    g = gf.build_graph(doc)
    assert [e.id for e in g.edges] == ["b", "a"]
    assert g.to_json() == doc


@pytest.mark.parametrize("length, stored", [
    ("1.0", 1.0), (1, 1.0), (np.float32(1.0), 1.0), (np.int64(2), 2.0), (0.5, 0.5),
    (None, None), (True, None), (np.True_, None), ("abc", None), ([1.0], None),
    (0.0, None), (-1.0, None), (float("nan"), None), (float("inf"), None),
])
def test_edge_lengths_go_through_the_scalar_check(length, stored):
    # every length is read through graph._scalar: stored as a Python float,
    # or rejected with a GraphValidationError subclass, never a bare TypeError
    if stored is None:
        with pytest.raises(NonPositiveLengthError):
            MetricGraph(2, [("e", 0, 1, length)])
        return
    g = MetricGraph(2, [("e", 0, 1, length)])
    assert type(g.edges[0].length) is float and g.edges[0].length == stored
    assert g == MetricGraph(2, [("e", 0, 1, stored)])


@pytest.mark.parametrize("make", [
    lambda: gf.FieldModel(kappa=True), lambda: gf.FieldModel(tau=np.True_),
    lambda: gf.FieldModel(a={"e0": False}), lambda: gf.interval(True),
    lambda: gf.circle(True), lambda: gf.build_graph(
        {"vertices": 2, "edges": [{"u": 0, "v": 1, "length": True}]}),
])
def test_scalar_rejects_bools(make):
    with pytest.raises(gf.ValidationError, match="must be a number"):
        make()


def test_build_three_cycle_distance_consistency():
    g = gf.circle(3.0, 3)
    assert gf.classify(g).euclidean_edges
    for e in g.edges:
        p = g.point(e.id, 0.0)
        q = g.point(e.id, e.length)
        assert geodesic_distance(g, p, q) == pytest.approx(e.length, abs=1e-12)


@pytest.mark.parametrize(
    "doc,err",
    [
        ({"vertices": 2, "edges": [{"u": 0, "v": 1, "length": 0.0}]},
         NonPositiveLengthError),
        ({"vertices": 2, "edges": [{"u": 0, "v": 1, "length": -1.0}]},
         NonPositiveLengthError),
        ({"vertices": 2, "edges": [{"u": 0, "v": 5, "length": 1.0}]},
         DanglingEndpointError),
        ({"vertices": 4,
          "edges": [{"u": 0, "v": 1, "length": 1.0},
                    {"u": 2, "v": 3, "length": 1.0}]},
         DisconnectedGraphError),
        ({"vertices": 2,
          "edges": [{"id": "x", "u": 0, "v": 1, "length": 1.0},
                    {"id": "x", "u": 0, "v": 1, "length": 2.0}]},
         GraphValidationError),
        # an isolated vertex 0, then an isolated last vertex
        ({"vertices": 3,
          "edges": [{"u": 1, "v": 2, "length": 1.0},
                    {"u": 2, "v": 1, "length": 2.0}]},
         DisconnectedGraphError),
        ({"vertices": 3,
          "edges": [{"u": 0, "v": 1, "length": 1.0},
                    {"u": 1, "v": 1, "length": 2.0}]},
         DisconnectedGraphError),
        ({"vertices": "x", "edges": []}, GraphValidationError),
        ({"vertices": 2, "edges": [{"u": 0, "v": 1, "length": "abc"}]},
         GraphValidationError),
        ({"vertices": 2, "edges": [{"v": 1, "length": 1.0}]}, GraphValidationError),
        ({"vertices": 2, "edges": [[0, 1, 1.0]]}, GraphValidationError),
        # vertex indices and the vertex count are counts, never truncated
        ({"vertices": 2, "edges": [{"u": 0.5, "v": 1, "length": 1.0}]},
         GraphValidationError),
        ({"vertices": 2, "edges": [{"u": 0, "v": 1.0, "length": 1.0}]},
         GraphValidationError),
        ({"vertices": 2.9, "edges": [{"u": 0, "v": 1, "length": 1.0}]},
         GraphValidationError),
        ({"vertices": True, "edges": [{"u": 0, "v": 0, "length": 1.0}]},
         GraphValidationError),
        ({"vertices": "2", "edges": [{"u": 0, "v": 1, "length": 1.0}]},
         GraphValidationError),
    ],
)
def test_build_rejects_bad_specs(doc, err):
    with pytest.raises(err):
        gf.build_graph(doc)


_TRIANGLE = gf.circle(3.0, 3)
_TRIANGLE_MESH = gf.mesh(_TRIANGLE, 0.25)

#: every entry that takes a vertex count or index: (call on the count, a
#: valid value, a value out of range, the error an out-of-range value raises)
COUNT_ENTRIES = {
    "MetricGraph-vertex-count": (
        lambda x: MetricGraph(x, (Edge("a", 0, 1, 1.0),)), 2, 0, GraphValidationError),
    "Edge-end": (lambda x: MetricGraph(2, (Edge("a", x, 0, 1.0),)), 1, 2, DanglingEndpointError),
    "circle": (lambda x: gf.circle(1.0, x), 3, 0, GraphValidationError),
    "subdivide_edge": (lambda x: gf.subdivide_edge(_TRIANGLE, "e0", x), 2, 1,
                       GraphValidationError),
    "one_sum": (lambda x: gf.one_sum([_TRIANGLE, gf.interval(1.0)], [(x, 0)]), 1, 3,
                GraphValidationError),
    "vertex_point": (_TRIANGLE.vertex_point, 1, 3, PointError),
    "resistance_structure": (lambda x: gf.resistance_structure(_TRIANGLE, x).linv.tolist(),
                             1, 3, gf.UnsupportedGraphError),
    "vertex_node": (lambda x: gf.assemble(_TRIANGLE, gf.FieldModel(), 0.5, n_modes=1)
                    .vertex_node(x), 1, 3, PointError),
    "kirchhoff_residual": (
        lambda x: kirchhoff_residual(
            _TRIANGLE, gf.FieldModel(), full_cov(_TRIANGLE, gf.FieldModel(), _TRIANGLE_MESH),
            x, _TRIANGLE.point("e0", 0.5)),
        1, 3, PointError),
}


@pytest.mark.parametrize("name", list(COUNT_ENTRIES))
def test_vertex_counts_and_indices_are_counts(name):
    call, good, outside, err = COUNT_ENTRIES[name]
    assert call(np.int64(good)) == call(good)
    # a float or a bool is never read as an index, not even from a cache
    for bad in (float(good), good + 0.5, True):
        with pytest.raises(GraphValidationError if err is DanglingEndpointError else err):
            call(bad)
    with pytest.raises(err):
        call(outside)


def test_incident_and_degree_read_counts():
    # an integer outside the graph has no incident ends; anything else that
    # is not an integer is rejected, not read as a vertex
    for call in (_TRIANGLE.incident, _TRIANGLE.degree):
        assert call(np.int64(1)) == call(1)
        for bad in (1.0, 1.5, True):
            with pytest.raises(GraphValidationError):
                call(bad)
    for outside in (3, -1, np.int64(3)):
        assert _TRIANGLE.incident(outside) == ()
        assert _TRIANGLE.degree(outside) == 0


def test_classify_star_is_euclidean_tree(unit_star):
    flags = gf.classify(unit_star)
    assert flags.tree and flags.euclidean_edges
    assert not flags.euclidean_cycle
    assert not flags.has_loops and not flags.has_multi_edges


def test_classify_shortcut_breaks_distance_consistency(multi_graph):
    # the length-3 edge's endpoints are at geodesic distance 1
    flags = gf.classify(multi_graph)
    assert flags.has_multi_edges and not flags.euclidean_edges
    p = multi_graph.point("long", 0.0)
    q = multi_graph.point("long", 3.0)
    assert geodesic_distance(multi_graph, p, q) == pytest.approx(1.0)


def test_classify_unit_cycle(circle24):
    flags = gf.classify(circle24)
    assert flags.euclidean_cycle and flags.euclidean_edges
    assert not flags.tree


def test_classify_loop_flags(loop_graph):
    flags = gf.classify(loop_graph)
    assert flags.has_loops and not flags.euclidean_edges and not flags.tree


def _triangle(third):
    return MetricGraph(3, (Edge("a", 0, 1, 1.0), Edge("b", 1, 2, 1.0), Edge("c", 0, 2, third)))


def _grid_with_shortcut(side, v, length):
    """A side x side grid of unit edges plus an edge from v to v + 2."""
    return MetricGraph(side * side, grid(side).edges + (Edge("x", v, v + 2, length),))


#: graphs without loops or multi-edges, and whether every edge is a geodesic
EUCLIDEAN_VERDICTS = {
    "interval": (lambda: gf.interval(2.5), True),
    "circle": (lambda: gf.circle(2.0, 4), True),
    "star": (lambda: gf.star([0.5, 1.0, 1.5]), True),
    "tadpole": (lambda: gf.tadpole(2.0, 1.0), True),
    "figure-eight": (lambda: gf.figure_eight(1.0, 2.0), True),
    "grid-10": (lambda: grid(10), True),
    # the long edge is cut short by the two-edge path
    "shortcut": (lambda: _triangle(3.0), False),
    # an edge exactly as long as the path, one inside the 1e-12 relative
    # slack and one outside it
    "tight": (lambda: _triangle(2.0), True),
    "tight-slack": (lambda: _triangle(2.0 + 1e-12), True),
    "just-long": (lambda: _triangle(2.0 + 5e-12), False),
    # 289 sources: the shortcut's start lies in the second block of 256
    "grid-17-shortcut": (lambda: _grid_with_shortcut(17, 280, 3.0), False),
    "grid-17-tight": (lambda: _grid_with_shortcut(17, 280, 2.0), True),
}


@pytest.mark.parametrize("name", list(EUCLIDEAN_VERDICTS))
def test_classify_matches_the_all_pairs_verdict(name):
    make, want = EUCLIDEAN_VERDICTS[name]
    g = make()
    dist = vertex_distance_matrix(g)
    all_pairs = all(abs(dist[e.u, e.v] - e.length) <= 1e-12 * max(1.0, e.length)
                    for e in g.edges)
    assert gf.classify(g).euclidean_edges == all_pairs == want


def test_classify_forms_no_all_pairs_table(monkeypatch):
    def spy(g):
        raise AssertionError("classify read the all-pairs distance table")

    monkeypatch.setattr(graph_module, "vertex_distance_matrix", spy)
    assert gf.classify(grid(10)).euclidean_edges
    assert not gf.classify(_grid_with_shortcut(17, 280, 3.0)).euclidean_edges
    assert gf.resistance_structure(gf.star([0.25, 0.5, 0.75])).root == 0


def test_one_sum_of_intervals_is_path():
    g = gf.one_sum([gf.interval(1.0), gf.interval(1.0)], [(1, 0)])
    assert g.vertex_count == 3
    assert g.total_length == 2.0
    ends = geodesic_distance(g, g.point("p0.e0", 0.0), g.point("p1.e0", 1.0))
    assert ends == pytest.approx(2.0, abs=1e-12)


def test_one_sum_figure_eight_topology(fig8):
    # the join vertex has degree 4, everything else degree 2
    degrees = sorted(fig8.degree(v) for v in range(fig8.vertex_count))
    assert degrees == [2, 2, 2, 2, 2, 2, 4]
    assert gf.classify(fig8).euclidean_edges
    assert fig8.total_length == pytest.approx(3.0)


def test_one_sum_cross_part_distance_formula():
    rng = np.random.default_rng(5)
    part1 = gf.circle(1.0, 3)
    part2 = gf.star([1.0, 2.0])
    joined = gf.one_sum([part1, part2], [(0, 0)])
    for _ in range(5):
        x = random_point(part1, rng)
        y = random_point(part2, rng)
        expect = geodesic_distance(part1, x, gf.PointOnGraph("e0", 0.0))
        expect += geodesic_distance(part2, gf.PointOnGraph("e0", 0.0), y)
        got = geodesic_distance(
            joined,
            gf.PointOnGraph(f"p0.{x.edge}", x.t),
            gf.PointOnGraph(f"p1.{y.edge}", y.t),
        )
        assert got == pytest.approx(expect, abs=1e-12)


def test_one_sum_preserves_intra_part_distances():
    rng = np.random.default_rng(11)
    part1 = gf.circle(2.0, 4)
    part2 = gf.star([1.0, 1.5])
    joined = gf.one_sum([part1, part2], [(1, 1)])
    for _ in range(20):
        x, y = random_point(part1, rng), random_point(part1, rng)
        inside = geodesic_distance(part1, x, y)
        merged = geodesic_distance(
            joined,
            gf.PointOnGraph(f"p0.{x.edge}", x.t),
            gf.PointOnGraph(f"p0.{y.edge}", y.t),
        )
        assert merged == pytest.approx(inside, abs=1e-12)


def test_one_sum_rejects_missing_join_vertex():
    with pytest.raises(GraphValidationError):
        gf.one_sum([gf.interval(1.0), gf.interval(1.0)], [(7, 0)])


def test_canonical_circle_lengths(circle24):
    assert [e.length for e in circle24.edges] == [0.5, 0.5, 0.5, 0.5]
    assert circle24.vertex_count == 4


def test_canonical_star_center_is_last_vertex(unit_star):
    assert unit_star.vertex_count == 4
    assert unit_star.degree(3) == 3
    assert all(e.v == 3 for e in unit_star.edges)


def test_canonical_figure_eight_two_euclidean_cycles(fig8):
    lengths = {}
    for e in fig8.edges:
        part = e.id.split(".")[0]
        lengths[part] = lengths.get(part, 0.0) + e.length
    assert lengths == {"p0": pytest.approx(1.0), "p1": pytest.approx(2.0)}


def test_canonical_spec_strings():
    assert gf.canonical("interval:2.5").total_length == 2.5
    assert gf.canonical("circle:2,8").edge_count == 8
    assert gf.canonical("star:1,1,1").vertex_count == 4
    assert gf.canonical("figure-eight:1,2").total_length == pytest.approx(3.0)
    assert gf.canonical("tadpole:2,1").total_length == pytest.approx(3.0)
    with pytest.raises(GraphValidationError):
        gf.canonical("moebius:1")
    with pytest.raises(GraphValidationError):
        gf.canonical("circle:2,0")


def test_mesh_interval_spacing():
    g = gf.interval(1.0)
    pts = gf.mesh(g, 0.5)
    assert [p.t for p in pts] == [0.0, 0.5, 1.0]


def test_mesh_coarser_than_edge_gives_endpoints():
    g = gf.interval(1.0)
    pts = gf.mesh(g, 10.0)
    assert [p.t for p in pts] == [0.0, 1.0]


def test_mesh_deduplicates_vertices(circle24):
    pts = gf.mesh(circle24, 0.25)
    assert len(pts) == 8  # 4 vertices + 4 interior
    vertices = [circle24.vertex_of(p) for p in pts]
    assert sorted(v for v in vertices if v is not None) == [0, 1, 2, 3]


def test_mesh_spacing_never_exceeds_h(fig8):
    pts = gf.mesh(fig8, 0.3)
    by_edge = {}
    for p in pts:
        by_edge.setdefault(p.edge, []).append(p.t)
    for e in fig8.edges:
        # endpoints always exist as vertex nodes, possibly addressed
        # through another incident edge
        ts = sorted(by_edge.get(e.id, []))
        gaps = np.diff([0.0, *ts, e.length])
        assert np.all(gaps[gaps > 0] <= 0.3 + 1e-12)


def _mesh_cases():
    rng = np.random.default_rng(11)
    cases = [
        (gf.interval(1.0), 0.3),
        (gf.circle(2.0, 4), 0.1),
        (gf.star([1.0, 1.0, 1.0]), 0.07),
        (gf.figure_eight(1.0, 2.0), 0.0025),
        (gf.tadpole(2.0, 1.0), 0.13),
        (MetricGraph(1, (Edge("loop", 0, 0, 2.0),)), 0.3),
        (MetricGraph(2, (Edge("short", 0, 1, 1.0), Edge("long", 0, 1, 3.0))), 0.4),
        (gf.star([1e-6, 1.0, 1e4]), 7.3),
    ]
    for _ in range(4):
        lengths = rng.uniform(0.05, 5.0, size=4)
        h = rng.uniform(0.01, 0.3, size=3)
        cases.append((gf.star(lengths), float(h[0])))
        cases.append((gf.figure_eight(*lengths[:2], 3, 5), float(h[1])))
        cases.append((gf.tadpole(*lengths[2:], 1), float(h[2])))
    return cases


@pytest.mark.parametrize("g, h", _mesh_cases())
def test_mesh_matches_rule_exactly(g, h):
    pts = gf.mesh(g, h)
    assert [(p.edge, p.t) for p in pts] == mesh_rule(g.edges, h)
    vertex_nodes = [p for p in pts if g.vertex_of(p) is not None]
    assert sorted(map(g.vertex_of, vertex_nodes)) == list(range(g.vertex_count))
    assert set(vertex_nodes) == {g.vertex_point(v) for v in range(g.vertex_count)}


@pytest.mark.parametrize("h", [0.0, -0.1, float("nan")])
def test_mesh_rejects_bad_spacing(h):
    with pytest.raises(PointError):
        gf.mesh(gf.interval(1.0), h)


@pytest.mark.parametrize("h", [True, np.bool_(True), "0.1", None, float("nan"), float("inf"),
                               0, -1])
def test_mesh_spacing_goes_through_the_scalar_check(h):
    # both readers of a spacing check it before the cached mesh: a bool is
    # not 1, a string is not parsed, and an infinite spacing is no mesh
    g = gf.interval(1.0)
    with pytest.raises(PointError, match="mesh spacing"):
        gf.mesh(g, h)
    with pytest.raises(PointError, match="mesh spacing"):
        gf.assemble(g, gf.FieldModel(), h)


def test_operator_keeps_its_spacing_as_a_float():
    op = gf.assemble(gf.interval(1.0), gf.FieldModel(), 1)
    assert type(op.h) is float and op.h == 1.0


def test_equal_graphs_compare_and_hash_equal(fig8):
    rebuilt = gf.figure_eight(1.0, 2.0)
    assert rebuilt is not fig8
    assert rebuilt == fig8 and hash(rebuilt) == hash(fig8)
    assert {fig8: 1}[rebuilt] == 1
    copied = pickle.loads(pickle.dumps(fig8))
    assert copied == fig8 and hash(copied) == hash(fig8)
    assert copied.edge_index("p1.e2") == fig8.edge_index("p1.e2") == 6
    other = gf.figure_eight(1.0, 2.5)
    assert other != fig8
    with pytest.raises(PointError):
        fig8.edge_index("e0")
    with pytest.raises(PointError):
        fig8.edge("nope")


def _scan_incident(g, v):
    """Reference incidence: one pass over every edge."""
    out = []
    for j, e in enumerate(g.edges):
        if e.u == v:
            out.append((j, 0))
        if e.v == v:
            out.append((j, 1))
    return tuple(out)


@pytest.mark.parametrize(
    "maker",
    [
        lambda: MetricGraph(1, (Edge("loop", 0, 0, 2.0),)),
        lambda: MetricGraph(2, (Edge("short", 0, 1, 1.0), Edge("long", 0, 1, 3.0))),
        lambda: gf.tadpole(2.0, 1.0),
        lambda: gf.one_sum([gf.circle(1.4, 4) for _ in range(100)], [(0, 0)] * 99),
    ],
    ids=["loop", "double-edge", "tadpole", "bouquet"],
)
def test_incidence_table_matches_edge_scan(maker):
    g = maker()
    for v in (-1, *range(g.vertex_count), g.vertex_count):
        assert g.incident(v) == _scan_incident(g, v)
        assert g.degree(v) == sum((e.u == v) + (e.v == v) for e in g.edges)
    for v in range(g.vertex_count):
        j, end = g.incident(v)[0]
        e = g.edges[j]
        assert g.vertex_point(v) == (e.id, e.length if end else 0.0)
    copied = pickle.loads(pickle.dumps(g))
    assert [copied.incident(v) for v in range(g.vertex_count)] == [
        g.incident(v) for v in range(g.vertex_count)
    ]


def test_loop_counts_twice_in_degree():
    tadpole_loop = MetricGraph(2, (Edge("loop", 0, 0, 2.0), Edge("tail", 0, 1, 1.0)))
    assert tadpole_loop.degree(0) == 3
    assert tadpole_loop.incident(0) == ((0, 0), (0, 1), (1, 0))
    assert tadpole_loop.degree(1) == 1


def test_point_validation(circle24):
    with pytest.raises(PointError):
        circle24.point("e0", 0.6)
    with pytest.raises(PointError):
        circle24.point("nope", 0.1)
    p = circle24.point("e0", 0.5)
    assert circle24.vertex_of(p) == 1
    assert circle24.vertex_of(circle24.point("e0", 0.2)) is None


def point_error(g, edge, t):
    """The message of the PointError that ``g.point`` raises."""
    with pytest.raises(PointError) as exc:
        g.point(edge, t)
    return str(exc.value)


@pytest.mark.parametrize(
    "edge,t",
    [("nope", 0.1), ("e0", 0.5 + 1e-9), ("e1", float("nan")), ("e2", -1e-9)],
    ids=["unknown-id", "past-end", "nan", "before-start"],
)
def test_point_arrays_raise_the_point_error(circle24, edge, t):
    good = [circle24.point("e0", 0.1), circle24.point("e3", 0.5)]
    message = point_error(circle24, edge, t)
    with pytest.raises(PointError) as exc:
        _point_arrays(circle24, good + [PointOnGraph(edge, t)] + good)
    assert str(exc.value) == message


def test_point_arrays_first_bad_point_decides(circle24):
    pts = [
        PointOnGraph("e0", 0.2),
        PointOnGraph("e1", 0.7),
        PointOnGraph("nope", 0.1),
        PointOnGraph("e2", float("nan")),
    ]
    with pytest.raises(PointError) as exc:
        _point_arrays(circle24, pts)
    assert str(exc.value) == point_error(circle24, "e1", 0.7)
    with pytest.raises(PointError) as exc:
        _point_arrays(circle24, pts[2:] + pts[:2])
    assert str(exc.value) == point_error(circle24, "nope", 0.1)


def _warm_krige(g, m, pts, y):
    """``krige`` on an exact source whose memo holds every point of the
    request, with (e0, 0.2) for the one at issue."""
    source = gf.exact_cov_source(g, m)
    source([pts[0], g.point("e0", 0.2), pts[2]])
    return gf.krige(source, pts[1:], y[1:], 0.1, pts[:1])


#: every public caller of ``graph._point_arrays`` on an exact field or a
#: metric, and ``krige`` through an exact source with a cold and a warm memo
T_CALLERS = {
    "full_cov": lambda g, m, pts, y: full_cov(g, m, pts),
    "sample": lambda g, m, pts, y: gf.sample(g, m, pts, 2, 0),
    "loglik": lambda g, m, pts, y: gf.loglik(gf.exact_cov_source(g, m), pts, y, 0.1),
    "krige": lambda g, m, pts, y: gf.krige(gf.exact_cov_source(g, m), pts, y, 0.1, pts[:1]),
    "krige-warm": _warm_krige,
    "iso_cov_matrix": lambda g, m, pts, y: gf.iso_cov_matrix(
        g, gf.IsotropicModel("resistance", gf.ExponentialKernel(sigma2=1.0, kappa=1.0)), pts),
}


@pytest.mark.parametrize("t", ["0.2", b"0.2", None, True, np.True_, [0.2], "abc"])
@pytest.mark.parametrize("caller", list(T_CALLERS))
def test_a_point_whose_t_is_not_a_number_raises_the_point_error(circle24, caller, t):
    # g.point and _point_arrays hold t to one rule, so a numeric string is
    # rejected as g.point rejects it, never parsed or raised as a TypeError
    pts = [circle24.point("e1", 0.1), PointOnGraph("e0", t), circle24.point("e2", 0.4)]
    with pytest.raises(PointError) as exc:
        circle24.point("e0", t)
    with pytest.raises(PointError, match="arclength must be a number"):
        T_CALLERS[caller](circle24, gf.FieldModel(), pts, np.zeros(len(pts)))
    assert str(exc.value).startswith("arclength must be a number")


def test_point_arrays_read_every_number_type_of_t(circle24):
    raw = [PointOnGraph("e0", 0), PointOnGraph("e1", np.float32(0.25)),
           PointOnGraph("e2", np.array(0.125)), PointOnGraph("e3", np.int64(0)),
           PointOnGraph("e0", np.float64(0.2))]
    pts, _, t, *_ = _point_arrays(circle24, raw)
    assert t.tolist() == [0.0, 0.25, 0.125, 0.0, 0.2]
    assert pts == [circle24.point(p.edge, float(p.t)) for p in raw]
    assert all(type(p.t) is float for p in pts[:4]) and pts[4] is raw[4]


def test_point_arrays_clamp_inside_the_slack(circle24):
    raw = [
        PointOnGraph("e0", 0.5 + 2e-13),
        PointOnGraph("e1", 0.25),
        PointOnGraph("e2", -3e-13),
        PointOnGraph("e3", 0.0),
    ]
    pts, j, t, u, v, ell = _point_arrays(circle24, raw)
    assert pts == [circle24.point(*p) for p in raw]
    assert pts[0] == ("e0", 0.5) and pts[2] == ("e2", 0.0)
    assert pts[1] is raw[1] and all(type(p) is PointOnGraph for p in pts)
    assert t.tolist() == [0.5, 0.25, 0.0, 0.0]
    assert j.tolist() == [0, 1, 2, 3]
    assert u.tolist() == [0, 1, 2, 3] and v.tolist() == [1, 2, 3, 0]
    assert ell.tolist() == [0.5] * 4


@pytest.mark.parametrize("n", [0, 1, 40, 300])
def test_sandwich_matches_a_dense_phi(n):
    # orders at the constant take the dense Phi, above it the CSR Phi
    for m in (_DENSE_PHI_MAX, _DENSE_PHI_MAX + 1, 30):
        rng = np.random.default_rng(n)
        root = rng.standard_normal((m, m))
        table = root @ root.T
        u, v = rng.integers(m, size=n), rng.integers(m, size=n)
        w_v = rng.uniform(size=n)
        v[::5] = u[::5]  # loops: both weights land in one column
        w_v[1::7], w_v[2::7] = 0.0, 1.0  # points at a vertex
        if n:  # repeated points
            u[3::7], v[3::7], w_v[3::7] = u[0], v[0], w_v[0]
        w_u = 1.0 - w_v
        phi = np.zeros((n, m))
        np.add.at(phi, (np.arange(n), u), w_u)
        np.add.at(phi, (np.arange(n), v), w_v)
        want = phi @ table @ phi.T
        got = _sandwich(table, u, v, w_u, w_v)
        assert got.shape == (n, n) and type(got) is np.ndarray
        if n:
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
            assert all(np.array_equal(got[i], got[0]) for i in range(3, n, 7))


def test_sandwich_builds_csr_only_above_the_dense_order(monkeypatch):
    # counts the Phi builds themselves, so other sparse arrays built in
    # ``graph`` (the vertex adjacency) do not read as sandwiches
    built = []
    phi = graph_module._phi

    def spy(*args):
        out = phi(*args)
        if issparse(out):
            built.append(out.shape)
        return out

    bouquet = gf.one_sum([gf.circle(1.4, 4) for _ in range(100)], [(0, 0)] * 99)
    rng = np.random.default_rng(5)
    m = gf.FieldModel(kappa=1.5)
    iso = gf.IsotropicModel("resistance", gf.ExponentialKernel(1.0, 1.5))
    monkeypatch.setattr(graph_module, "_phi", spy)
    small = (gf.circle(2.0, 4), gf.star([0.7, 1.0, 1.3]), gf.tadpole(2.0, 1.0),
             gf.figure_eight(1.0, 2.0))
    for g in small:
        assert g.vertex_count <= _DENSE_PHI_MAX
        for n in (10, 40):
            pts = [random_point(g, rng) for _ in range(n)]
            full_cov(g, m, pts)
            gf.iso_cov_matrix(g, iso, pts)
    assert built == []
    pts = [random_point(bouquet, rng) for _ in range(25)]
    full_cov(bouquet, m, pts)
    gf.iso_cov_matrix(bouquet, iso, pts)
    assert built == [(25, 301)] * 2


@pytest.mark.parametrize("n", [0, 1, 2, 31, 32, 33, 64, 65, 100])
def test_symmetrize_averages_the_two_triangles_in_place(n):
    mat = np.random.default_rng(n).standard_normal((n, n))
    want = 0.5 * (mat + mat.T)
    got = graph_module._symmetrize(mat)
    assert got is mat
    np.testing.assert_array_equal(got, want)


def test_symmetrize_leaves_a_one_by_one_matrix_as_it_is():
    big = np.full((1, 1), 1.5e308)  # c + c would overflow
    assert graph_module._symmetrize(big)[0, 0] == 1.5e308


def _same_edge_pairs_unique(j):
    """The grouping by np.unique that _same_edge_pairs replaced."""
    order = np.argsort(j, kind="stable")
    _, first, count = np.unique(j[order], return_index=True, return_counts=True)
    size = np.repeat(count, count)
    rows = np.repeat(order, size)
    within = np.arange(rows.size) - np.repeat(np.cumsum(size) - size, size)
    cols = order[np.repeat(np.repeat(first, count), size) + within]
    return rows, cols


@pytest.mark.parametrize("seed", range(8))
def test_same_edge_pairs_match_the_unique_grouping(seed):
    rng = np.random.default_rng(seed)
    cases = [
        np.zeros(0, dtype=np.intp),
        np.zeros(1, dtype=np.intp),
        np.full(7, 3, dtype=np.intp),  # a single edge, edges 0-2 unused
        rng.integers(50, size=250),  # most of 0..49 used, some not
        rng.choice([2, 9, 40], size=int(rng.integers(1, 30))),
    ]
    for j in cases:
        j = j.astype(np.intp)
        got, want = _same_edge_pairs(j), _same_edge_pairs_unique(j)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert got[0].size == np.sum(np.bincount(j) ** 2)


@pytest.mark.parametrize(
    "maker",
    [
        lambda: gf.circle(2.0, 4),
        lambda: gf.star([1.0, 1.0, 1.0]),
        lambda: gf.figure_eight(1.0, 2.0),
        lambda: gf.tadpole(2.0, 1.0),
        lambda: MetricGraph(2, (Edge("short", 0, 1, 1.0), Edge("long", 0, 1, 3.0))),
        lambda: MetricGraph(1, (Edge("loop", 0, 0, 2.0),)),
    ],
)
def test_geodesic_metric_axioms(maker):
    g = maker()
    rng = np.random.default_rng(17)
    pts = [random_point(g, rng) for _ in range(60)]
    for i in range(100):
        p, q = pts[i % len(pts)], pts[(3 * i + 7) % len(pts)]
        dpq = geodesic_distance(g, p, q)
        assert dpq >= 0.0
        assert geodesic_distance(g, p, p) == 0.0
        assert abs(dpq - geodesic_distance(g, q, p)) <= 1e-12
    for i in range(50):
        p, q, r = (pts[(i * k + k) % len(pts)] for k in (1, 2, 3))
        assert geodesic_distance(g, p, r) <= (
            geodesic_distance(g, p, q) + geodesic_distance(g, q, r) + 1e-12
        )


@pytest.mark.parametrize("edge_pos", [0, 2, 5])
def test_subdivision_preserves_distances(fig8, edge_pos):
    edge_id = fig8.edges[edge_pos].id
    fine = gf.subdivide_edge(fig8, edge_id, 3)
    coarse_d = vertex_distance_matrix(fig8)
    fine_d = vertex_distance_matrix(fine)
    nv = fig8.vertex_count
    assert np.max(np.abs(fine_d[:nv, :nv] - coarse_d)) <= 1e-12


def test_json_roundtrip(fig8, tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(fig8.to_json()))
    g2 = gf.MetricGraph.from_json(path.read_text())
    assert g2 == fig8
