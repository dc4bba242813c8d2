import numpy as np
import pytest

import graphfields as gf
from graphfields import PointOnGraph, UnsupportedGraphError
from graphfields.graph import _point_arrays
from graphfields.kernels import ExponentialKernel, IsotropicModel, iso_cov_matrix
from graphfields.metrics import (
    _geodesic_matrix,
    _resistance_matrix,
    geodesic_distance,
    resistance_distance,
    resistance_structure,
)

from conftest import grid, random_point
from oracles import grounded_laplacian_inverse_mp, subdivided_distances


def arc_point(g, position):
    """Point at a given arc position on a circle graph built from edge order."""
    acc = 0.0
    for e in g.edges:
        if position <= acc + e.length + 1e-12:
            return g.point(e.id, min(position - acc, e.length))
        acc += e.length
    raise AssertionError("position beyond total length")


def test_geodesic_circle_takes_shorter_arc(circle24):
    p = arc_point(circle24, 0.0)
    q = arc_point(circle24, 1.5)
    assert geodesic_distance(circle24, p, q) == pytest.approx(0.5, abs=1e-12)


def test_geodesic_figure_eight_through_join(fig8):
    # 0.3 along the first cycle, 0.4 along the second: path crosses the join
    p = PointOnGraph("p0.e1", 0.05)
    q = PointOnGraph("p1.e0", 0.4)
    assert geodesic_distance(fig8, p, q) == pytest.approx(0.7, abs=1e-12)


def test_geodesic_same_point_is_zero(fig8):
    rng = np.random.default_rng(3)
    for _ in range(10):
        p = random_point(fig8, rng)
        assert geodesic_distance(fig8, p, p) == 0.0


def test_resistance_structure_unit_triangle_matrices():
    tri = gf.circle(3.0, 3)
    rs = resistance_structure(tri, v0=0)
    expected_l = np.array([[3.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]])
    np.testing.assert_allclose(rs.laplacian, expected_l, atol=0)
    # dense-inverse oracle
    np.testing.assert_allclose(rs.linv, np.linalg.inv(expected_l), atol=1e-14)
    assert rs.linv[0, 0] == pytest.approx(1.0, abs=1e-14)
    # effective resistance between adjacent triangle vertices is 2/3
    d01 = resistance_distance(tri, tri.vertex_point(0), tri.vertex_point(1))
    assert d01 == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_resistance_structure_is_positive_definite(fig8):
    rs = resistance_structure(fig8)
    assert np.linalg.eigvalsh(rs.laplacian)[0] > 0.0


def test_resistance_structure_call_forms_share_one_entry():
    g = gf.star([0.3, 0.7, 1.9])
    before = resistance_structure.cache_info()
    rs = resistance_structure(g)
    for same in (resistance_structure(g, 0), resistance_structure(g, v0=0),
                 resistance_structure(g, np.int64(0))):
        assert same is rs
    after = resistance_structure.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 3)
    # a bool or a float is never read as a root, not even from the cache
    for bad in (True, 1.0, False, 0.0):
        with pytest.raises(UnsupportedGraphError):
            resistance_structure(g, bad)
    assert resistance_structure(g, 1).root == 1


def test_resistance_rejects_non_euclidean(loop_graph, multi_graph):
    for g in (loop_graph, multi_graph):
        with pytest.raises(UnsupportedGraphError):
            resistance_structure(g)
        with pytest.raises(UnsupportedGraphError):
            resistance_distance(
                g, PointOnGraph(g.edges[0].id, 0.1), PointOnGraph(g.edges[0].id, 0.2)
            )
        model = IsotropicModel("resistance", ExponentialKernel(1.0, 1.0))
        with pytest.raises(UnsupportedGraphError):
            iso_cov_matrix(g, model, [PointOnGraph(g.edges[0].id, 0.1)])


def test_resistance_equals_geodesic_on_trees(unit_star):
    rng = np.random.default_rng(23)
    tree = gf.one_sum([unit_star, gf.star([0.5, 2.0])], [(0, 2)])
    for g in (unit_star, tree):
        for _ in range(40):
            p, q = random_point(g, rng), random_point(g, rng)
            assert resistance_distance(g, p, q) == pytest.approx(
                geodesic_distance(g, p, q), abs=1e-10
            )


@pytest.mark.parametrize("length,n", [(2.0, 4), (3.0, 5)])
def test_resistance_cycle_closed_form(length, n):
    g = gf.circle(length, n)
    rng = np.random.default_rng(29)
    for _ in range(50):
        p, q = random_point(g, rng), random_point(g, rng)
        d = geodesic_distance(g, p, q)
        expected = d - d * d / length
        assert resistance_distance(g, p, q) == pytest.approx(expected, abs=1e-10)


def test_resistance_cycle_spot_value(circle24):
    p = PointOnGraph("e0", 0.0)
    q = PointOnGraph("e1", 0.0)  # arc distance 0.5
    assert resistance_distance(circle24, p, q) == pytest.approx(0.375, abs=1e-12)


def test_resistance_never_exceeds_geodesic(fig8):
    rng = np.random.default_rng(31)
    for g in (fig8, gf.tadpole(2.0, 1.0)):
        for _ in range(100):
            p, q = random_point(g, rng), random_point(g, rng)
            assert resistance_distance(g, p, q) <= (
                geodesic_distance(g, p, q) + 1e-10
            )


def test_resistance_root_invariance(fig8):
    rng = np.random.default_rng(37)
    pairs = [(random_point(fig8, rng), random_point(fig8, rng)) for _ in range(25)]
    worst = 0.0
    for p, q in pairs:
        values = [
            resistance_distance(fig8, p, q, v0=v) for v in range(fig8.vertex_count)
        ]
        worst = max(worst, max(values) - min(values))
    assert worst <= 1e-10


def test_resistance_metric_axioms(fig8):
    rng = np.random.default_rng(41)
    pts = [random_point(fig8, rng) for _ in range(30)]
    for i in range(60):
        p, q, r = (pts[(i * k + k) % len(pts)] for k in (1, 2, 3))
        dpq = resistance_distance(fig8, p, q)
        assert dpq >= 0.0
        assert resistance_distance(fig8, p, p) == pytest.approx(0.0, abs=1e-12)
        assert dpq == pytest.approx(resistance_distance(fig8, q, p), abs=1e-10)
        assert resistance_distance(fig8, p, r) <= (
            dpq + resistance_distance(fig8, q, r) + 1e-10
        )


def test_resistance_subdivision_invariance(fig8):
    fine = gf.subdivide_edge(fig8, fig8.edges[1].id, 3)
    for v in range(fig8.vertex_count):
        for w in range(v + 1, fig8.vertex_count):
            coarse = resistance_distance(
                fig8, fig8.vertex_point(v), fig8.vertex_point(w)
            )
            refined = resistance_distance(
                fine, fine.vertex_point(v), fine.vertex_point(w)
            )
            assert refined == pytest.approx(coarse, abs=1e-10)


# -- matrices against the subdivided-graph oracle ----------------------------


def oracle(g, pts):
    """(geodesic, resistance) from ``oracles.subdivided_distances``."""
    return subdivided_distances(
        g.vertex_count,
        [(e.u, e.v, e.length) for e in g.edges],
        [(g.edge_index(p.edge), p.t) for p in pts],
    )


def query_points(g, n, seed):
    """n random points, then every vertex through its first incident edge."""
    rng = np.random.default_rng(seed)
    pts = [random_point(g, rng) for _ in range(n)]
    return pts + [g.vertex_point(v) for v in range(g.vertex_count)]


def assert_metric_matrix(d, ref, rtol):
    """Exactly symmetric, zero diagonal, no negative entry, and within rtol
    of the strictly positive reference off the diagonal."""
    assert np.array_equal(d, d.T)
    assert np.all(np.diag(d) == 0.0)
    assert np.all(d >= 0.0)
    off = ~np.eye(len(d), dtype=bool)
    assert np.all(ref[off] > 0.0)
    assert np.max(np.abs(d - ref)[off] / ref[off]) <= rtol


def bouquet(cycles):
    """1-sum at vertex 0 of cycles of lengths 0.5 .. 2.5, 3 or 4 pieces each."""
    lengths = np.linspace(0.5, 2.5, cycles)
    parts = [gf.circle(ell, 3 + k % 2) for k, ell in enumerate(lengths)]
    return gf.one_sum(parts, [(0, 0)] * (cycles - 1))


@pytest.mark.parametrize(
    "g",
    [gf.figure_eight(1.0, 2.0), gf.tadpole(2.0, 1.0), bouquet(40)],
    ids=["figure-eight", "tadpole", "bouquet-40"],
)
def test_metric_matrices_match_subdivided_oracle(g):
    pts = query_points(g, 60, 43)
    geo, res = oracle(g, pts)
    got_pts, d_geo = _geodesic_matrix(g, pts)
    assert got_pts == pts
    assert_metric_matrix(d_geo, geo, 1e-10)
    assert_metric_matrix(_resistance_matrix(g, pts)[1], res, 1e-10)


@pytest.mark.parametrize(
    "g,closed_form",
    [
        (gf.star([1e-6, 1.0, 1e4]), lambda d, g: d),
        (gf.circle(1e-3, 4), lambda d, g: d - d * d / g.total_length),
        (gf.circle(1e4, 4), lambda d, g: d - d * d / g.total_length),
    ],
    ids=["star-1e-6-1-1e4", "circle-1e-3", "circle-1e4"],
)
def test_resistance_matrix_extreme_lengths(g, closed_form):
    # resistance equals geodesic on a tree and d - d^2/L on a cycle
    pts = query_points(g, 40, 47)
    geo, _ = oracle(g, pts)
    assert_metric_matrix(_geodesic_matrix(g, pts)[1], geo, 1e-9)
    assert_metric_matrix(_resistance_matrix(g, pts)[1], closed_form(geo, g), 1e-9)


def star_distances(g, pts):
    """Tree closed form on a star whose edges run leaf -> centre: |s - t| on
    one edge, else the two distances to the centre."""
    j = np.array([g.edge_index(p.edge) for p in pts])
    t = np.array([p.t for p in pts])
    to_centre = np.array([g.edges[k].length for k in j]) - t
    return np.where(
        j[:, None] == j, np.abs(t[:, None] - t), to_centre[:, None] + to_centre
    )


def test_resistance_short_edge_at_the_root_is_exact():
    # the 1e-6 edge ends at root 0: its resistances are read from the grounded
    # Green's function, with no constant of size 1 to cancel
    g = gf.star([1e-6, 1.0, 1e4])
    pts = query_points(g, 40, 47)
    assert_metric_matrix(_resistance_matrix(g, pts, 0)[1], star_distances(g, pts), 1e-13)


def _dense_inverse(g, v0):
    return np.linalg.inv(resistance_structure(g, v0).laplacian)


def _mp_inverse(g, v0):
    # the stored Laplacian of the extreme star rounds its centre's row sum,
    # and its exact inverse is 5e-11 off: build it from the lengths instead
    return grounded_laplacian_inverse_mp(g.vertex_count, g.edges, v0)


@pytest.mark.parametrize(
    "g, inverse",
    [(gf.figure_eight(1.0, 2.0), _dense_inverse), (gf.tadpole(2.0, 1.0), _dense_inverse),
     (bouquet(40), _dense_inverse), (gf.star([1e-6, 1.0, 1e4]), _mp_inverse),
     (grid(10), _dense_inverse)],
    ids=["figure-eight", "tadpole", "bouquet-40", "extreme-star", "grid-10"],
)
def test_linv_is_the_grounded_inverse(g, inverse):
    for v0 in (0, g.vertex_count - 1):
        rs = resistance_structure(g, v0)
        np.testing.assert_allclose(rs.linv, inverse(g, v0), rtol=1e-12, atol=0.0)
        # 1 + G with G grounded at v0: row and column v0 are exactly 1
        assert np.all(rs.linv[v0] == 1.0) and np.all(rs.linv[:, v0] == 1.0)
        assert np.array_equal(rs.linv, rs.linv.T)


@pytest.mark.parametrize(
    "g",
    [
        gf.MetricGraph(1, (gf.Edge("loop", 0, 0, 2.0),)),
        gf.circle(3.0, 2),
        gf.tadpole(2.0, 1.0, n=1),
    ],
    ids=["loop", "double-edge", "loop-tadpole"],
)
def test_geodesic_matrix_on_loops_and_multi_edges(g):
    pts = query_points(g, 30, 53)
    geo, _ = oracle(g, pts)
    assert_metric_matrix(_geodesic_matrix(g, pts)[1], geo, 1e-12)


def dense_phi_resistance(g, pts):
    """The resistance matrix of the module docstring with a dense Phi."""
    _, j, t, u, v, ell = _point_arrays(g, pts)
    r_v = resistance_structure(g)._r_v
    n = len(pts)
    phi = np.zeros((n, g.vertex_count))
    np.add.at(phi, (np.arange(n), u), 1.0 - t / ell)
    np.add.at(phi, (np.arange(n), v), t / ell)
    own = (1.0 - t / ell) * (t / ell) * r_v[u, v] - t * (ell - t) / ell
    d = phi @ r_v @ phi.T - own[:, None] - own
    delta = t[:, None] - t
    same = r_v[u, v][:, None] * (delta / ell[:, None]) ** 2 + np.abs(delta) - delta**2 / ell
    return np.where(j[:, None] == j, same, np.maximum(0.5 * (d + d.T), 0.0))


@pytest.mark.parametrize(
    "g",
    [gf.circle(2.0, 4), gf.star([0.7, 1.0, 1.3]), gf.tadpole(2.0, 1.0),
     gf.figure_eight(1.0, 2.0), bouquet(40)],
    ids=["circle", "star", "tadpole", "figure-eight", "bouquet-40"],
)
def test_resistance_matrix_matches_a_dense_phi(g):
    pts = query_points(g, 60, 61)
    pts += pts[:3]  # repeated points
    want = dense_phi_resistance(g, pts)
    got = _resistance_matrix(g, pts)[1]
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(want)


def test_resistance_memory_is_one_dense_matrix_and_a_little():
    import tracemalloc

    g = gf.one_sum([gf.circle(1.4, 4) for _ in range(100)], [(0, 0)] * 99)
    pts = gf.mesh(g, 0.1)
    assert len(pts) == 1501
    _resistance_matrix(g, pts[:10])  # the cached vertex table is built here
    tracemalloc.start()
    try:
        _resistance_matrix(g, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.6 * len(pts) ** 2 * 8


def test_pairwise_functions_equal_matrix_entries(fig8):
    pts = query_points(fig8, 12, 59)
    d_geo = _geodesic_matrix(fig8, pts)[1]
    d_res = _resistance_matrix(fig8, pts)[1]
    for i, p in enumerate(pts):
        for j, q in enumerate(pts):
            assert geodesic_distance(fig8, p, q) == d_geo[i, j]
            assert resistance_distance(fig8, p, q) == d_res[i, j]
