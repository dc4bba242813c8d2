import logging
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphfields as gf
from graphfields import (
    Edge,
    FieldModel,
    MetricGraph,
    NotPositiveDefiniteError,
    PointOnGraph,
    ValidationError,
    exact,
    sampling,
)
from graphfields.graph import CACHE_SIZE
from graphfields.inference import exact_cov_source, krige, loglik

from conftest import grid, random_point
from oracles import circle_loglik_mp, dense_loglik


@pytest.fixture
def star_source(unit_star):
    return exact_cov_source(unit_star, FieldModel())


def test_noiseless_interpolation(unit_star, star_source):
    obs = [unit_star.point("e0", 0.3), unit_star.point("e1", 0.6),
           unit_star.point("e2", 0.9)]
    y = [1.0, -0.5, 0.25]
    result = krige(star_source, obs, y, 0.0, obs)
    np.testing.assert_allclose(result.mean, y, atol=1e-10)
    assert np.max(np.abs(result.variance)) <= 1e-10


def test_far_prediction_reverts_to_prior():
    g = gf.interval(60.0)
    source = exact_cov_source(g, FieldModel())
    obs = [g.point("e0", 1.0)]
    pred = [g.point("e0", 55.0)]  # kappa * distance = 54 >> 1
    result = krige(source, obs, [2.0], 0.0, pred)
    prior_var = source(pred)[0, 0]
    assert abs(result.mean[0]) <= 1e-6
    assert result.variance[0] == pytest.approx(prior_var, abs=1e-6)


def test_posterior_variance_never_exceeds_prior(unit_star, star_source):
    rng = np.random.default_rng(19)
    obs = [unit_star.point("e0", 0.5), unit_star.point("e2", 0.25)]
    pred = [unit_star.point(f"e{j}", t) for j in range(3)
            for t in (0.1, 0.5, 0.95)]
    result = krige(star_source, obs, rng.normal(size=2), 0.05, pred)
    prior = np.diag(star_source(pred))
    assert np.all(result.variance <= prior + 1e-10)
    assert np.linalg.eigvalsh(result.cov)[0] >= -1e-10 * np.trace(result.cov)


def test_duplicate_observations_need_noise(unit_star, star_source):
    p = unit_star.point("e0", 0.4)
    with pytest.raises(ValidationError):
        krige(star_source, [p, p], [1.0, 1.0], 0.0, [unit_star.point("e1", 0.5)])
    result = krige(star_source, [p, p], [1.0, 1.0], 0.1,
                   [unit_star.point("e1", 0.5)])
    assert np.all(np.isfinite(result.mean))
    # the center vertex through two of its edges is one location too
    center = [unit_star.point("e0", 1.0), unit_star.point("e1", 1.0)]
    with pytest.raises(ValidationError):
        loglik(star_source, center, [1.0, -1.0], 0.0)
    with pytest.raises(ValidationError):
        krige(star_source, center, [1.0, -1.0], 0.0, [p])
    assert np.isfinite(loglik(star_source, center, [1.0, -1.0], 0.1))


@pytest.mark.parametrize("g", [gf.star([1.0, 1.5, 2.0]), gf.figure_eight(1.0, 2.0),
                               gf.tadpole(2.0, 1.0)])
def test_every_vertex_address_is_one_location(g):
    source = exact_cov_source(g, FieldModel(kappa=1.3))
    inner = [g.point(e.id, 0.5 * e.length) for e in g.edges]
    for v in range(g.vertex_count):
        ends = [g.point(g.edges[j].id, g.edges[j].length * end)
                for j, end in g.incident(v)]
        if len(set(ends)) < 2:
            continue
        with pytest.raises(ValidationError):
            loglik(source, inner + ends, np.ones(len(inner + ends)), 0.0)
    assert np.isfinite(loglik(source, inner, np.ones(len(inner)), 0.0))


def test_loglik_single_standard_normal_point():
    source = lambda pts: np.eye(len(pts))
    value = loglik(source, [gf.PointOnGraph("e0", 0.0)], [0.0], 0.0)
    assert value == pytest.approx(-0.91893853320467274, rel=1e-14)


def test_loglik_matches_dense_oracle(unit_star, star_source):
    rng = np.random.default_rng(21)
    obs = [unit_star.point(f"e{j}", t) for j, t in
           ((0, 0.2), (0, 0.7), (1, 0.4), (2, 0.1), (2, 0.9))]
    y = rng.normal(size=5)
    noise = 0.3
    got = loglik(star_source, obs, y, noise)
    sigma = star_source(obs) + noise * np.eye(5)
    assert got == pytest.approx(dense_loglik(sigma, y), rel=1e-12)
    result = krige(star_source, obs, y, noise, [unit_star.point("e1", 0.9)])
    assert result.log_likelihood == pytest.approx(got, rel=1e-12)


def test_loglik_decreases_when_scaling_past_mle(unit_star, star_source):
    obs = [unit_star.point("e0", 0.25), unit_star.point("e1", 0.5)]
    y = np.array([3.0, -2.0])  # quadratic form dominates at this size
    values = [loglik(star_source, obs, c * y, 0.0) for c in (1.0, 2.0, 4.0)]
    assert values[0] > values[1] > values[2]


def test_kriging_markov_screening(unit_star, star_source):
    # with the center value observed, far-side observations are irrelevant
    center = unit_star.point("e0", 1.0)
    near = [unit_star.point("e1", t) for t in (0.3, 0.7)]
    far = [unit_star.point("e2", t) for t in (0.2, 0.6)]
    pred = [unit_star.point("e0", t) for t in (0.15, 0.45, 0.75)]
    y_near = [0.8, 0.3, -0.4]
    y_far = [5.0, -7.0]
    base = krige(star_source, [center] + near, y_near, 0.0, pred)
    extended = krige(star_source, [center] + near + far, y_near + y_far, 0.0, pred)
    assert np.max(np.abs(extended.mean - base.mean)) <= 1e-10
    assert np.max(np.abs(extended.variance - base.variance)) <= 1e-10


def test_jitter_reported_for_near_singular_systems(unit_star, star_source):
    p = unit_star.point("e0", 0.5)
    q = unit_star.point("e0", 0.5 + 1e-12)
    result = krige(star_source, [p, q], [1.0, 1.0], 0.0,
                   [unit_star.point("e1", 0.4)])
    assert result.jitter >= 0.0
    well_posed = krige(star_source, [p], [1.0], 0.0,
                       [unit_star.point("e1", 0.4)])
    assert well_posed.jitter == 0.0


def test_shape_validation(unit_star, star_source):
    with pytest.raises(ValidationError):
        krige(star_source, [unit_star.point("e0", 0.1)], [1.0, 2.0], 0.0, [])
    with pytest.raises(ValidationError):
        krige(star_source, [unit_star.point("e0", 0.1)], [1.0], -0.5,
              [unit_star.point("e1", 0.2)])
    obs = [unit_star.point("e0", 0.1), unit_star.point("e1", 0.3)]
    pred = [unit_star.point("e2", 0.2)]
    for y, noise in (([1.0, 2.0], np.nan), ([1.0, 2.0], np.inf),
                     ([np.nan, 2.0], 0.1), ([1.0, np.inf], 0.0)):
        with pytest.raises(ValidationError):
            krige(star_source, obs, y, noise, pred)
        with pytest.raises(ValidationError):
            loglik(star_source, obs, y, noise)


# -- loglik's precision route -------------------------------------------------


def _bouquet(cycles=40):
    return gf.one_sum([gf.circle(1.4, 4) for _ in range(cycles)], [(0, 0)] * (cycles - 1))


ROUTE_GRAPHS = {
    "loop": lambda: gf.MetricGraph(1, (gf.Edge("loop", 0, 0, 2.0),)),
    "double-edge": lambda: gf.MetricGraph(
        2, (gf.Edge("short", 0, 1, 1.0), gf.Edge("long", 0, 1, 3.0))),
    "tadpole": lambda: gf.tadpole(2.0, 1.0),
    "bouquet-40": _bouquet,
}


def _dense(source):
    """The same covariance behind a plain callable, which loglik sends
    down the dense route."""
    return lambda pts: source(pts)


def _route_points(g, rng, n):
    """n random points, then both ends of the first edge, a second address of
    its start vertex (through another edge where there is one), a repeat of
    the first point and a point 1e-12 from the last edge's start."""
    pts = [g.point(e.id, float(rng.uniform(0.0, e.length)))
           for e in (g.edges[i] for i in rng.integers(g.edge_count, size=n))]
    first, last = g.edges[0], g.edges[-1]
    j, end = g.incident(first.u)[1]
    pts += [g.point(first.id, 0.0), g.point(first.id, first.length),
            g.point(g.edges[j].id, end * g.edges[j].length), pts[0],
            g.point(last.id, 1e-12)]
    return pts


def _precision(source, pts, y, noise):
    """The precision route's value on an exact source, called directly:
    ``loglik`` answers a failed precision route by the dense one."""
    return exact._precision_loglik(source.g, source.m, list(pts),
                                   np.asarray(y, dtype=float), noise)[0]


def _per_edge_model(g, kappa):
    ids = [e.id for e in g.edges]
    return FieldModel(kappa={i: kappa * (1.0 + 0.3 * (k % 3)) for k, i in enumerate(ids)},
                      a={i: 0.5 + 0.25 * (k % 4) for k, i in enumerate(ids)}, tau=0.7)


@pytest.mark.parametrize("noise", [1e-2, 10.0])
@pytest.mark.parametrize("kappa", [1.0, 10.0])
@pytest.mark.parametrize("name", list(ROUTE_GRAPHS))
def test_precision_route_matches_dense_route(name, kappa, noise):
    g = ROUTE_GRAPHS[name]()
    rng = np.random.default_rng(len(name) + int(kappa))
    pts = _route_points(g, rng, 30)
    y = rng.normal(size=len(pts))
    source = exact_cov_source(g, _per_edge_model(g, kappa))
    got = _precision(source, pts, y, noise)
    assert got == pytest.approx(loglik(_dense(source), pts, y, noise), rel=1e-12)


@pytest.mark.parametrize("kappa", [1.0, 10.0])
def test_precision_route_with_every_point_on_one_edge(kappa):
    g = gf.tadpole(2.0, 1.0)
    tail = g.edges[-1]
    rng = np.random.default_rng(3)
    ts = np.concatenate([[0.0, tail.length, 1e-12], rng.uniform(0.0, tail.length, 60)])
    pts = [g.point(tail.id, float(t)) for t in ts]
    y = rng.normal(size=len(pts))
    source = exact_cov_source(g, _per_edge_model(g, kappa))
    got = _precision(source, pts, y, 0.05)
    assert got == pytest.approx(loglik(_dense(source), pts, y, 0.05), rel=1e-12)


@pytest.mark.parametrize("side", ["dense Cholesky", "SuperLU"])
def test_precision_route_on_both_sides_of_the_factor_crossover(side, caplog):
    g, pts, y = _bouquet_request(side)
    n = len(pts)
    source = exact_cov_source(g, _per_edge_model(g, 1.0))
    with caplog.at_level(logging.DEBUG, logger="graphfields.inference"):
        got = loglik(source, pts, y, 0.01)
    assert f"{g.vertex_count + n} nodes, {side}" in caplog.text
    assert got == pytest.approx(loglik(_dense(source), pts, y, 0.01), rel=1e-12)


@pytest.mark.parametrize("n", [12, sampling._DENSE_MAX + 20])
def test_spd_factor_on_both_sides_of_the_crossover(n):
    rng = np.random.default_rng(n)
    root = rng.normal(size=(n, n)) / np.sqrt(n) + 2.0 * np.eye(n)
    mat = root @ root.T
    rows, cols = np.nonzero(np.ones((n, n)))
    # every entry given as two triplets that add up to it
    half = 0.5 * mat[rows, cols]
    factor = sampling._spd_factor(np.tile(rows, 2), np.tile(cols, 2), np.tile(half, 2), n)
    assert factor.method == ("dense Cholesky" if n <= sampling._DENSE_MAX else "SuperLU")
    assert factor.logdet == pytest.approx(np.linalg.slogdet(mat)[1], rel=1e-12)
    # every pivot of an SPD matrix lies between its extreme eigenvalues
    eigs = np.linalg.eigvalsh(mat)
    assert eigs[0] * (1 - 1e-12) <= factor.min_pivot <= eigs[-1]
    b = rng.normal(size=n)
    np.testing.assert_allclose(factor.solve(b), np.linalg.solve(mat, b), rtol=1e-10)
    with pytest.raises(NotPositiveDefiniteError):
        sampling._spd_factor(rows, cols, -mat[rows, cols], n)


def _bouquet_request(side):
    """Points on the 40-cycle bouquet whose cut graph takes the factor
    ``side``, 10 nodes inside or 60 beyond ``sampling._DENSE_MAX``."""
    g = _bouquet()
    limit = sampling._DENSE_MAX - g.vertex_count
    n = limit - 10 if side == "dense Cholesky" else limit + 60
    rng = np.random.default_rng(n)
    pts = [g.point(e.id, float(rng.uniform(0.05, 0.95) * e.length))
           for e in (g.edges[i] for i in rng.integers(g.edge_count, size=n))]
    return g, pts, rng.normal(size=n)


@pytest.mark.parametrize("side", ["dense Cholesky", "SuperLU"])
def test_a_kappa_sweep_orders_its_pattern_once(side, monkeypatch):
    g, pts, y = _bouquet_request(side)
    orders, fill = [], []
    real = sampling.splu

    def spy(mat, permc_spec, **kwargs):
        lu = real(mat, permc_spec=permc_spec, **kwargs)
        orders.append(permc_spec)
        fill.append(lu.L.nnz + lu.U.nnz)
        return lu

    monkeypatch.setattr(sampling, "splu", spy)
    exact._layout.cache_clear()
    values = [_precision(exact_cov_source(g, FieldModel(kappa=kappa)), pts, y, 0.01)
              for kappa in (0.3, 0.7, 1.0, 2.5, 6.0)]
    if side == "SuperLU":
        # one minimum-degree order for the layout; Q and H of every kappa
        # are factored in it, with the fill of the order's own factor (the
        # pattern permuted by the inverse order would fill several times more)
        assert orders == ["MMD_AT_PLUS_A"] + ["NATURAL"] * 10
        assert set(fill) == {fill[0]}
    else:
        assert orders == []
    monkeypatch.undo()
    for kappa, value in zip((0.3, 6.0), (values[0], values[-1])):
        source = exact_cov_source(g, FieldModel(kappa=kappa))
        assert value == pytest.approx(loglik(_dense(source), pts, y, 0.01), rel=1e-12)


def test_layout_keeps_one_index_array_per_triplet():
    for side in ("dense Cholesky", "SuperLU"):
        g, pts, _ = _bouquet_request(side)
        layout, _ = exact._layout_of(g, FieldModel(), pts)
        pattern = layout.h_pattern
        triplets = sum(len(cols) * cols.shape[1] ** 2 for cols in (layout.b_cols, layout.a_cols))
        arrays = [x for x in (*layout, *pattern) if isinstance(x, np.ndarray)]
        assert [x.size for x in arrays].count(triplets) == 1
        assert pattern.slot.size == triplets
        assert not any(x.flags.writeable for x in arrays)
        assert (pattern.perm is None) == (side == "dense Cholesky")


@pytest.mark.parametrize("side, n, kappa", [(20, 500, 0.05), (20, 500, 1.3), (30, 800, 3.0)])
def test_precision_route_matches_dense_route_on_grids(side, n, kappa):
    g = grid(side)
    rng = np.random.default_rng(side + n)
    pts = [random_point(g, rng) for _ in range(n)]
    y = rng.normal(size=n)
    source = exact_cov_source(g, FieldModel(kappa=kappa))
    got = _precision(source, pts, y, 0.01)
    assert got == pytest.approx(loglik(_dense(source), pts, y, 0.01), rel=1e-12)


def _circle_positions(g, pts):
    """Arclength along the cycle of a loop or a double edge from vertex 0,
    exact in floats: the long edge runs backwards from 0."""
    return [-p.t if p.edge == "long" else p.t for p in pts]


@pytest.mark.parametrize("kappa", [1.0, 10.0])
@pytest.mark.parametrize("name", ["loop", "double-edge"])
def test_precision_route_at_tiny_noise_matches_mpmath(name, kappa):
    # at noise 1e-8 the dense route is no reference: C + noise I is too
    # ill-conditioned for 1e-12 (it reads up to 6e-9 off the routes here)
    g = ROUTE_GRAPHS[name]()
    rng = np.random.default_rng(11)
    pts = _route_points(g, rng, 20)
    y = rng.normal(size=len(pts))
    want = circle_loglik_mp(_circle_positions(g, pts), y, kappa, 0.7, g.total_length, 1e-8)
    got = _precision(exact_cov_source(g, FieldModel(kappa=kappa, tau=0.7)), pts, y, 1e-8)
    assert got == pytest.approx(want, rel=1e-12)


def _cluster_points(g, kind, rng):
    """A point inside every edge, the root vertex and the end of the last
    edge each addressed through two edge ends, then a cluster of ``kind``:
    points within ``exact._CLUSTER_GAP`` of an edge's start, of its end,
    of each other inside it, or 1,000 points covering the last edge."""
    pts = [g.point(e.id, float(rng.uniform(0.1, 0.9) * e.length)) for e in g.edges]
    for v in (0, g.edges[-1].v):
        pts += [g.point(g.edges[j].id, end * g.edges[j].length)
                for j, end in (g.incident(v)[0], g.incident(v)[-1])]
    e = g.edges[min(1, g.edge_count - 1)]
    at = {"start": [2e-4, 6e-4], "end": [1.0 - 3e-4, 1.0 - 1e-4], "point": [0.4, 0.4005]}
    if kind == "whole":
        last = g.edges[-1]
        return pts + [g.point(last.id, last.length * k / 1001) for k in range(1, 1001)]
    return pts + [g.point(e.id, e.length * s) for s in at[kind]]


def _last_base(g, m, pts):
    """The base of the last point's node in the cut graph, 0 for none."""
    cols = exact._layout_of(g, m, pts)[0].a_cols[-1]
    return cols[1] if cols.size == 3 else 0


CLUSTER_KINDS = ["start", "end", "point", "whole"]


@pytest.mark.parametrize("kappa", [1.0, 10.0])
@pytest.mark.parametrize("kind", CLUSTER_KINDS)
@pytest.mark.parametrize("name", list(ROUTE_GRAPHS))
def test_precision_route_on_every_cluster_base(name, kind, kappa):
    g = ROUTE_GRAPHS[name]()
    rng = np.random.default_rng(5)
    pts = _cluster_points(g, kind, rng)
    y = rng.normal(size=len(pts))
    m = _per_edge_model(g, kappa)
    e, last = g.edges[min(1, g.edge_count - 1)], g.edges[-1]
    base = _last_base(g, m, pts)
    if kind == "point":
        assert base >= g.vertex_count
    else:
        assert base == {"start": e.u, "end": e.v, "whole": last.u}[kind]
    source = exact_cov_source(g, m)
    got = _precision(source, pts, y, 0.01)
    assert got == pytest.approx(loglik(_dense(source), pts, y, 0.01), rel=1e-12)


@pytest.mark.parametrize("kind", CLUSTER_KINDS[:3])
@pytest.mark.parametrize("name", ["loop", "double-edge"])
def test_precision_route_on_cluster_bases_matches_mpmath_at_small_kappa(name, kind):
    # at kappa = 1e-3 the dense route is no reference: it reads 5.2e-10 to
    # 4.8e-9 off mpmath on these requests, the precision route 4.0e-16
    g = ROUTE_GRAPHS[name]()
    rng = np.random.default_rng(5)
    pts = _cluster_points(g, kind, rng)
    y = rng.normal(size=len(pts))
    want = circle_loglik_mp(_circle_positions(g, pts), y, 1e-3, 0.7, g.total_length, 0.01)
    got = _precision(exact_cov_source(g, FieldModel(kappa=1e-3, tau=0.7)), pts, y, 0.01)
    assert got == pytest.approx(want, rel=1e-12)


# --- the cut graph's layout, cached per set of points --------------------------


def _bytes(values):
    return np.asarray(values, dtype=float).tobytes()


def _cold_and_warm(g, pts, y, models, noises):
    """``_precision_loglik`` for every model and noise, first with the
    layout cache cleared before each call, then with the layout built once
    by a model outside the list, which every warm call must reuse; and the
    set of factor methods the cold calls took."""
    cold, methods = [], set()
    for m in models:
        for noise in noises:
            exact._layout.cache_clear()
            value, _, method, how = exact._precision_loglik(g, m, pts, y, noise)
            assert how == "built"
            cold.append(value)
            methods.add(method)
    exact._layout.cache_clear()
    exact._precision_loglik(g, FieldModel(kappa=3.0, tau=1.3), pts, y, 0.5)
    warm = []
    for m in models:
        for noise in noises:
            value, *_, how = exact._precision_loglik(g, m, pts, y, noise)
            assert how == "reused"
            warm.append(value)
    return cold, warm, methods


@pytest.mark.parametrize("kind", CLUSTER_KINDS)
@pytest.mark.parametrize("name", list(ROUTE_GRAPHS))
def test_layout_cache_keeps_every_likelihood_byte(name, kind):
    g = ROUTE_GRAPHS[name]()
    rng = np.random.default_rng(8)
    pts = _cluster_points(g, kind, rng)
    y = rng.normal(size=len(pts))
    models = [FieldModel(kappa=k, tau=tau) for k, tau in ((1e-6, 1.0), (1.0, 0.7), (1e3, 2.0))]
    models += [_per_edge_model(g, k) for k in (1e-6, 1.0, 1e3)]
    cold, warm, methods = _cold_and_warm(g, pts, y, models, (1e-8, 0.01))
    assert np.all(np.isfinite(cold))
    assert _bytes(cold) == _bytes(warm)
    # a node inside each of the bouquet's 160 edges, or the 1,000 points
    # of "whole", put the cut graph on the SuperLU side
    sparse = name == "bouquet-40" or kind == "whole"
    assert methods == {"SuperLU" if sparse else "dense Cholesky"}


def test_layout_cache_is_bounded():
    g = gf.tadpole(2.0, 1.0)
    source = exact_cov_source(g, FieldModel(kappa=1.5))
    rng = np.random.default_rng(20)
    misses = exact._layout.cache_info().misses
    for k in range(20):
        pts = [random_point(g, rng) for _ in range(5 + k)]
        loglik(source, pts, rng.normal(size=len(pts)), 0.01)
    info = exact._layout.cache_info()
    assert info.misses - misses == 20
    assert info.maxsize == CACHE_SIZE and info.currsize <= CACHE_SIZE


def test_layout_is_never_reused_for_other_points():
    g = gf.figure_eight(1.0, 2.0)
    m = FieldModel(kappa=1.5)
    rng = np.random.default_rng(21)
    origin = PointOnGraph(g.edges[0].id, 0.0)
    pts = [random_point(g, rng) for _ in range(12)] + [origin]
    y = rng.normal(size=len(pts))
    # one point 1 ulp further along its edge; the vertex at -0.0, not 0.0
    moved = list(pts)
    moved[5] = PointOnGraph(pts[5].edge, float(np.nextafter(pts[5].t, np.inf)))
    signed = pts[:-1] + [PointOnGraph(origin.edge, -0.0)]

    def cold(points):
        exact._layout.cache_clear()
        return exact._precision_loglik(g, m, points, y, 0.01)[0]

    want = {key: cold(points) for key, points in
            (("pts", pts), ("moved", moved), ("signed", signed))}
    exact._layout.cache_clear()
    mutated = list(pts)
    value, *_, how = exact._precision_loglik(g, m, mutated, y, 0.01)
    assert (how, _bytes(value)) == ("built", _bytes(want["pts"]))
    mutated[5] = moved[5]  # the same list, changed in place
    value, *_, how = exact._precision_loglik(g, m, mutated, y, 0.01)
    assert (how, _bytes(value)) == ("built", _bytes(want["moved"]))
    value, *_, how = exact._precision_loglik(g, m, signed, y, 0.01)
    assert (how, _bytes(value)) == ("built", _bytes(want["signed"]))
    value, *_, how = exact._precision_loglik(g, m, pts, y, 0.01)
    assert (how, _bytes(value)) == ("reused", _bytes(want["pts"]))


def test_precision_route_at_a_subnormal_gap():
    g = ROUTE_GRAPHS["loop"]()
    pts = [g.point("loop", 2.2e-313)]
    source = exact_cov_source(g, FieldModel())
    got = _precision(source, pts, [0.3], 1e-4)
    assert got == pytest.approx(loglik(_dense(source), pts, [0.3], 1e-4), rel=1e-12)


def test_precision_route_at_a_subnormal_gap_between_points():
    # two points 1 ulp apart near 1e-300 are a subnormal 1.4e-316 apart: the
    # cut graph puts them at one node, as it puts a point at its vertex
    g = ROUTE_GRAPHS["loop"]()
    t = 1e-300
    pts = [g.point("loop", t), g.point("loop", float(np.nextafter(t, 1.0))),
           g.point("loop", 1.0), g.point("loop", 5e-324)]
    layout, _ = exact._layout_of(g, FieldModel(), pts)
    assert layout.nodes == 3  # the vertex, the point pair and the point at 1
    y = [0.3, -0.2, 0.5, 0.1]
    source = exact_cov_source(g, FieldModel())
    got = _precision(source, pts, y, 1e-4)
    assert got == pytest.approx(loglik(_dense(source), pts, y, 1e-4), rel=1e-12)


def _fallback(g, m, pts, y, noise, caplog):
    """loglik on the exact source, the same on the dense route, and the
    one DEBUG line the first call logged."""
    source = exact_cov_source(g, m)
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="graphfields.inference"):
        got = loglik(source, pts, y, noise)
    [record] = caplog.records
    return got, loglik(_dense(source), pts, y, noise), record.getMessage()


@pytest.mark.parametrize("m, t", [
    (FieldModel(tau=10.0), 3e-308),
    (FieldModel(tau=10.0), 1e-307),
    (FieldModel(a=100.0), 3e-308),
    (FieldModel(tau=3.0), 2.3e-308),
])
def test_loglik_falls_back_to_dense_where_the_weights_overflow(m, t, caplog):
    # at tau^2 a > 4 a piece of edge longer than the smallest normal double,
    # which the layout keeps, can still have a difference weight whose
    # square, about tau^2 a / t, overflows
    g = ROUTE_GRAPHS["loop"]()
    pts = [g.point("loop", t)]
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(exact._precision_loglik(g, m, pts, np.array([0.3]), 1e-4)[0])
    got, dense, message = _fallback(g, m, pts, [0.3], 1e-4, caplog)
    assert got == pytest.approx(dense, rel=1e-12)
    assert message == "loglik: dense route, 1 points (precision route: value is not finite)"


@pytest.mark.parametrize("noise, failure", [
    (1e-308, "value is not finite"),
    (5e-324, "value is not finite"),
    (1e-300, "precision is not positive definite"),
])
def test_loglik_falls_back_to_dense_at_extreme_noise(noise, failure, caplog):
    g = ROUTE_GRAPHS["loop"]()
    pts = [g.point("loop", 0.5), g.point("loop", 1.5)]
    got, dense, message = _fallback(g, FieldModel(), pts, [0.3, -0.2], noise, caplog)
    assert got == pytest.approx(dense, rel=1e-12)
    assert message == f"loglik: dense route, 2 points (precision route: {failure})"


#: fractions of an edge that put points at its ends, within 1e-12 and 1e-4
#: of them (clusters with a vertex base) and of each other (a point base)
_FRACTIONS = [0.0, 1.0, 1e-12, 1e-4, 1.0 - 1e-12, 1.0 - 1e-4, 0.5, 0.5 + 1e-12, 0.5 + 1e-4]


@st.composite
def _graphs_with_points(draw):
    """A connected multigraph of 1-6 vertices (loops and multi-edges
    allowed) with clustered, repeated and vertex points."""
    nv = draw(st.integers(1, 6))
    ends = [(draw(st.integers(0, v - 1)), v) for v in range(1, nv)]
    ends += draw(st.lists(st.tuples(st.integers(0, nv - 1), st.integers(0, nv - 1)),
                          min_size=1 if nv == 1 else 0, max_size=3))
    lengths = draw(st.lists(st.floats(1e-3, 1e2), min_size=len(ends), max_size=len(ends)))
    g = MetricGraph(nv, tuple(Edge(f"e{k}", u, v, ell)
                              for k, ((u, v), ell) in enumerate(zip(ends, lengths))))
    picks = draw(st.lists(st.tuples(st.integers(0, g.edge_count - 1),
                                    st.sampled_from(_FRACTIONS) | st.floats(0.0, 1.0)),
                          min_size=1, max_size=14))
    pts = [g.point(g.edges[k].id, frac * g.edges[k].length) for k, frac in picks]
    pts += draw(st.lists(st.sampled_from(pts), max_size=3))
    kappa = 10.0 ** draw(st.floats(-3.0, 3.0))
    noise = draw(st.sampled_from([1e-4, 0.01, 1.0]))
    return g, pts, kappa, noise


# on a failure, hypothesis writes a patch with libcst, whose import warns
@pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(_graphs_with_points())
def test_layout_cache_keeps_the_bytes_on_random_graphs(case):
    g, pts, kappa, noise = case
    y = np.random.default_rng(len(pts)).normal(size=len(pts))
    models = [FieldModel(kappa=kappa), _per_edge_model(g, kappa)]
    cold, warm, _ = _cold_and_warm(g, pts, y, models, (noise,))
    assert _bytes(cold) == _bytes(warm)


def _small_batch_circle():
    """small-batch's circle: four edges, 40 observations, noise 0.01; the
    arclength p of a point is exactly 0.5 k + t on edge k."""
    g = gf.circle(2.0, 4)
    rng = np.random.default_rng(40)
    pos = rng.uniform(0.0, 2.0, 40)
    pts = [g.point(f"e{int(p // 0.5)}", float(p % 0.5)) for p in pos]
    return g, pts, pos, 0.5 * rng.standard_normal(40)


@pytest.mark.parametrize("kappa", [1e-6, 1e-3, 1.0, 1e3])
def test_loglik_matches_mpmath_from_tiny_to_large_kappa(kappa):
    g, pts, pos, y = _small_batch_circle()
    want = circle_loglik_mp(pos, y, kappa, 1.0, 2.0, 0.01)
    got = loglik(exact_cov_source(g, FieldModel(kappa=kappa)), pts, y, 0.01)
    assert got == pytest.approx(want, rel=1e-12)


def test_loglik_at_tiny_noise_over_random_circles():
    # noise 1e-8 puts weight 1e8 on the root coordinate of every observation
    # row; with that coordinate eliminated first the mean error over these
    # circles was 1.6e-12 (worst 9.7e-12), with it eliminated last 6.4e-13
    # (worst 5.5e-12): the errors scatter from circle to circle
    g = gf.circle(2.0, 4)
    source = exact_cov_source(g, FieldModel())
    errs = []
    for seed in range(1000, 1030):
        rng = np.random.default_rng(seed)
        pos = rng.uniform(0.0, 2.0, 40)
        pts = [g.point(f"e{int(p // 0.5)}", float(p % 0.5)) for p in pos]
        y = rng.standard_normal(40)
        want = circle_loglik_mp(pos, y, 1.0, 1.0, 2.0, 1e-8, dps=30)
        errs.append(abs(loglik(source, pts, y, 1e-8) - want) / abs(want))
    assert np.mean(errs) < 1e-12
    assert max(errs) < 1e-11


@pytest.mark.xfail(strict=True, reason=(
    "the precision route's error grows like 1/noise: every observation adds "
    "1/noise to H, and log|H| cancels it down to O(1) (4.9e-8 relative off "
    "here, 1.9e-11 at noise 1e-8), where the dense route is within 1e-15"))
def test_loglik_matches_mpmath_at_noise_1e_12():
    g = gf.circle(2.0, 4)
    rng = np.random.default_rng(7)
    pos = rng.uniform(0.0, 2.0, 12)
    pts = [g.point(f"e{int(p // 0.5)}", float(p % 0.5)) for p in pos]
    y = rng.standard_normal(12)
    want = circle_loglik_mp(pos, y, 1.0, 1.0, 2.0, 1e-12, dps=60)
    assert loglik(exact_cov_source(g, FieldModel()), pts, y, 1e-12) == pytest.approx(
        want, rel=1e-12)


@pytest.mark.xfail(strict=True, reason=(
    "krige keeps the dense route: at kappa = 1e-6 the Cholesky of C + noise I "
    "loses the O(1) part of C under its 1/(kappa^2 |Gamma|) constant mode"))
def test_krige_likelihood_matches_mpmath_at_tiny_kappa():
    g, pts, pos, y = _small_batch_circle()
    want = circle_loglik_mp(pos, y, 1e-6, 1.0, 2.0, 0.01)
    result = krige(exact_cov_source(g, FieldModel(kappa=1e-6)), pts, y, 0.01, pts[:1])
    assert result.log_likelihood == pytest.approx(want, rel=1e-12)


def test_loglik_logs_its_route(unit_star, star_source, caplog):
    obs = [unit_star.point("e0", 0.3), unit_star.point("e1", 1.0)]
    exact._layout.cache_clear()
    with caplog.at_level(logging.DEBUG, logger="graphfields.inference"):
        loglik(star_source, obs, [1.0, 2.0], 0.1)
        loglik(star_source, obs, [1.0, 2.0], 0.0)
        loglik(_dense(star_source), obs, [1.0, 2.0], 0.1)
        loglik(exact_cov_source(unit_star, FieldModel(kappa=2.0)), obs, [1.0, 2.0], 0.1)
    assert [r.name for r in caplog.records] == ["graphfields.inference"] * 4
    precision, zero, other, again = (r.getMessage() for r in caplog.records)
    # the star's 4 vertices plus the one interior point; the second model
    # at the same points reuses the layout the first built
    assert precision == "loglik: precision route, 2 points, 5 nodes, dense Cholesky, layout built"
    assert zero == "loglik: dense route, 2 points (zero noise)"
    assert other == "loglik: dense route, 2 points (source is not exact)"
    assert again == "loglik: precision route, 2 points, 5 nodes, dense Cholesky, layout reused"


def test_loglik_memory_stays_far_below_the_dense_covariance():
    # 2,000 observations on a 20 x 20 grid of unit edges: the dense C alone
    # is 2,000^2 doubles, 32 MB; the precision route peaked at 11.2 MB
    g = grid(20)
    edges = g.edges
    rng = np.random.default_rng(2000)
    pts = [gf.PointOnGraph(edges[i].id, float(rng.uniform(0.0, 1.0)))
           for i in rng.integers(len(edges), size=2000)]
    y = rng.normal(size=2000)
    source = exact_cov_source(g, FieldModel())
    loglik(source, pts[:10], y[:10], 0.01)  # imports and caches out of the count
    tracemalloc.start()
    try:
        value = loglik(source, pts, y, 0.01)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(value)
    assert peak < 16e6


def test_no_observations_give_the_prior(unit_star, star_source):
    pred = [unit_star.point("e0", 0.3), unit_star.point("e2", 0.9)]
    result = krige(star_source, [], [], 0.1, pred)
    np.testing.assert_array_equal(result.mean, np.zeros(2))
    np.testing.assert_array_equal(result.cov, star_source(pred))
    assert result.log_likelihood == 0.0
    assert loglik(_dense(star_source), [], [], 0.0) == 0.0


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("block", ["C_oo", "C_po"])
def test_a_source_that_is_not_finite_is_rejected(unit_star, star_source, block, value):
    obs = [unit_star.point("e0", 0.3), unit_star.point("e1", 0.6)]
    pred = [unit_star.point("e2", 0.9)]
    # (0, 1) lies in C_oo; (2, 0) and (0, 2) hold the prediction's row and column
    cell = (0, 1) if block == "C_oo" else (2, 0)

    def source(pts):
        mat = star_source(pts)
        if len(pts) > cell[0]:
            mat[cell] = mat[cell[::-1]] = value
        return mat

    with pytest.raises(ValidationError, match="not finite"):
        krige(source, obs, [1.0, -0.5], 0.1, pred)
    if block == "C_oo":
        for noise in (0.0, 0.1):  # the dense route, with and without noise
            with pytest.raises(ValidationError, match="not finite"):
                loglik(source, obs, [1.0, -0.5], noise)
