import ast
import functools
import itertools
import logging
import sys
import threading
import tracemalloc
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

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
    inference,
    sampling,
)
from graphfields.graph import CACHE_SIZE
from graphfields.inference import exact_cov_source, krige, loglik

from conftest import SHORT_EDGE_SHAPES, grid, random_point, short_edge_graph, short_edge_points
from oracles import (circle_loglik_mp, cut_graph_cov_mp, dense_loglik, dense_posterior,
                     gauss_loglik_mp)


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


def _star_request(g, kind):
    """Observations, data, noise and predictions on the unit star for one
    case of the dense route: zero noise, zero noise with no predictions, or
    repeated predictions (one of them an observed point) under noise."""
    rng = np.random.default_rng(31)
    obs = [g.point(f"e{j}", t) for j, t in ((0, 0.2), (0, 0.7), (1, 0.4), (2, 0.1), (2, 0.9))]
    pred = [g.point("e0", 0.45), g.point("e1", 0.95), g.point("e2", 0.5)]
    y, noise = rng.normal(size=len(obs)), 0.0
    if kind == "no predictions":
        pred = []
    elif kind == "repeated predictions":
        pred = [pred[0], pred[1], pred[0], obs[2], pred[0]]
        noise = 0.05
    return obs, y, noise, pred


def _low_rank_request(g):
    """A source of rank 3 on the unit star, the field sum_k C(., a_k) z_k
    for three anchors a_k and standard normals z_k, with five observations
    (so C_oo is singular, with distinct rows), data the field could take
    and three predictions."""
    star = exact_cov_source(g, FieldModel())
    anchors = [g.point("e0", 0.5), g.point("e1", 0.3), g.point("e2", 0.8)]

    def source(pts):
        pts = list(pts)
        phi = star(pts + anchors)[: len(pts), len(pts):]
        return phi @ phi.T

    obs, _, _, pred = _star_request(g, "zero noise")
    phi = star(obs + anchors)[: len(obs), len(obs):]
    return source, obs, phi @ np.random.default_rng(31).normal(size=3), pred


@pytest.mark.parametrize("kind", ["zero noise", "no predictions", "repeated predictions"])
@pytest.mark.parametrize("exact_source", [True, False])
def test_dense_route_matches_the_dense_posterior(unit_star, star_source, kind, exact_source):
    obs, y, noise, pred = _star_request(unit_star, kind)
    source = star_source if exact_source else _dense(star_source)
    result = krige(source, obs, y, noise, pred)
    assert result.jitter == 0.0
    mean, cov, value = dense_posterior(star_source(obs + pred), len(obs), y, noise)
    scale = np.max(np.abs(star_source(pred)), initial=0.0)
    assert np.max(np.abs(result.mean - mean), initial=0.0) <= 1e-12 * np.max(np.abs(y))
    assert np.max(np.abs(result.cov - cov), initial=0.0) <= 1e-12 * scale
    np.testing.assert_array_equal(result.cov, result.cov.T)
    assert result.log_likelihood == pytest.approx(value, rel=1e-12)
    if not exact_source:  # loglik's dense route
        assert loglik(source, obs, y, noise) == pytest.approx(value, rel=1e-12)


def _count_dense_steps(monkeypatch):
    """Count ``sampling._potrf`` copies, LAPACK ``dtrtrs`` solves in
    ``inference`` and smallest-eigenvalue reports while the test runs: the
    counts, and each call's name and arguments in order."""
    calls = {"potrf": 0, "dtrtrs": 0, "min_eigenvalue": 0}
    seen = []

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            seen.append((key, args))
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(sampling, "_potrf", counted("potrf", sampling._potrf))
    monkeypatch.setattr(sampling, "_min_eigenvalue",
                        counted("min_eigenvalue", sampling._min_eigenvalue))
    monkeypatch.setattr(inference, "lapack", SimpleNamespace(
        dtrtrs=counted("dtrtrs", inference.lapack.dtrtrs)))
    return calls, seen


def test_a_factorable_request_makes_one_copy_and_one_solve(unit_star, star_source,
                                                           monkeypatch):
    obs, y, noise, pred = _star_request(unit_star, "repeated predictions")
    calls, seen = _count_dense_steps(monkeypatch)
    assert krige(star_source, obs, y, noise, pred).jitter == 0.0
    assert calls == {"potrf": 1, "dtrtrs": 1, "min_eigenvalue": 0}
    # _potrf reads C_oo in place in the joint matrix: its copy is the only one
    assert [key for key, _ in seen] == ["potrf", "dtrtrs"]
    coo, shift = seen[0][1]
    assert not coo.flags.owndata and shift == noise
    calls.update(potrf=0, dtrtrs=0)
    loglik(_dense(star_source), obs, y, noise)
    assert calls == {"potrf": 1, "dtrtrs": 1, "min_eigenvalue": 0}


def test_a_jittered_request_reports_its_jitter(unit_star, monkeypatch):
    source, obs, y, pred = _low_rank_request(unit_star)
    calls, _ = _count_dense_steps(monkeypatch)
    result = krige(source, obs, y, 0.0, pred)
    coo = source(obs)
    rel = result.jitter / (np.trace(coo) / len(obs))
    assert any(rel == pytest.approx(level) for level in (1e-12, 1e-10, 1e-8))
    # the failed factor, then one per jitter level up to the first that holds
    assert calls["min_eigenvalue"] == 1 and calls["dtrtrs"] == 1
    assert 2 <= calls["potrf"] <= 4
    # the jitter leaves C_oo's condition near 1 / level, and any solve with
    # it, the oracle's too, is good to about eps times that condition
    tol = np.finfo(float).eps * np.linalg.cond(coo + result.jitter * np.eye(len(obs)))
    mean, cov, value = dense_posterior(source(obs + pred), len(obs), y, result.jitter)
    assert np.max(np.abs(result.mean - mean)) <= tol * np.max(np.abs(y))
    assert np.max(np.abs(result.cov - cov)) <= tol * np.max(np.abs(source(pred)))
    assert result.log_likelihood == pytest.approx(value, rel=tol)
    assert loglik(_dense(source), obs, y, 0.0) == result.log_likelihood


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
    """The precision route's value on an exact source, called directly."""
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
def test_spd_numeric_on_both_sides_of_the_crossover(n):
    rng = np.random.default_rng(n)
    root = rng.normal(size=(n, n)) / np.sqrt(n) + 2.0 * np.eye(n)
    mat = root @ root.T
    rows, cols = np.nonzero(np.ones((n, n)))
    # every entry given as two triplets that add up to it
    half = 0.5 * mat[rows, cols]
    pattern = sampling._spd_pattern(np.tile(rows, 2), np.tile(cols, 2), n)
    factor = sampling._spd_numeric(pattern, np.tile(half, 2))
    assert factor.method == ("dense Cholesky" if n <= sampling._DENSE_MAX else "SuperLU")
    assert factor.logdet == pytest.approx(np.linalg.slogdet(mat)[1], rel=1e-12)
    # every pivot of an SPD matrix lies between its extreme eigenvalues
    eigs = np.linalg.eigvalsh(mat)
    assert eigs[0] * (1 - 1e-12) <= factor.min_pivot <= eigs[-1]
    b = rng.normal(size=n)
    np.testing.assert_allclose(factor.solve(b), np.linalg.solve(mat, b), rtol=1e-10)
    # the draw of the identity is a factor of the inverse
    draw = factor.draw(np.eye(n))
    inverse = np.linalg.inv(mat)
    assert np.max(np.abs(draw @ draw.T - inverse)) <= 1e-13 * np.max(np.abs(inverse))
    with pytest.raises(NotPositiveDefiniteError):
        sampling._spd_numeric(sampling._spd_pattern(rows, cols, n), -mat[rows, cols])


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
        # one minimum-degree order for the layout, H's, which M's entries
        # share, and none per kappa; Q and H of every kappa are factored in
        # it, with the fill of the order's own factor (the pattern permuted
        # by the inverse order would fill several times more)
        assert orders == ["MMD_AT_PLUS_A"] + ["NATURAL"] * 10
        assert set(fill) == {fill[0]}
    else:
        assert orders == []
    monkeypatch.undo()
    for kappa, value in zip((0.3, 6.0), (values[0], values[-1])):
        source = exact_cov_source(g, FieldModel(kappa=kappa))
        assert value == pytest.approx(loglik(_dense(source), pts, y, 0.01), rel=1e-12)


def _check_one_analysis(layout):
    """M's entries lie in H's, and H's and M's slots are read-only views
    of one analysis, H's the analysis of H's triplets alone; no M at no
    points."""
    h, m = layout.h_pattern, layout.m_pattern
    h_rows, h_cols = (np.concatenate(z) for z in zip(exact._gram(layout.b_cols),
                                                     exact._gram(layout.a_cols)))
    alone = sampling._spd_pattern(h_rows, h_cols, layout.nodes)
    for got, want in zip(h, alone):
        assert (got is None and want is None) or np.array_equal(got, want)
    assert not h.slot.flags.writeable
    if not layout.obs.size:
        assert m is None
        return
    diag = np.arange(layout.nodes)
    m_rows, m_cols = (np.concatenate([z, diag]) for z in exact._gram(layout.ends))
    assert set(zip(m_rows.tolist(), m_cols.tolist())) <= set(zip(h_rows.tolist(), h_cols.tolist()))
    assert m.n == h.n and m.slot.size == m_rows.size and not m.slot.flags.writeable
    assert all(getattr(m, name) is getattr(h, name)
               for name in ("perm", "order", "indptr", "indices"))


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
        for at in (pts, []):
            _check_one_analysis(exact._layout_of(g, FieldModel(), at)[0])


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


@pytest.mark.parametrize("kappa", [1e-3, 1.0, 10.0])
@pytest.mark.parametrize("name", ["loop", "double-edge"])
def test_precision_route_at_tiny_noise_matches_mpmath(name, kappa):
    # at noise 1e-8 the dense route is no reference: C + noise I is too
    # ill-conditioned for 1e-12 (it reads up to 6e-9 off the routes here).
    # A repeated point, a vertex addressed twice and a point 1e-12 from a
    # vertex: the scaled form pins the mean of a repeat, the grounded form
    # keeps the near point in a cluster
    g = ROUTE_GRAPHS[name]()
    rng = np.random.default_rng(11)
    pts = _route_points(g, rng, 20)
    y = rng.normal(size=len(pts))
    source = exact_cov_source(g, FieldModel(kappa=kappa, tau=0.7))
    for noise in (1e-16, 1e-8, 1e-4, 1e-2, 1.0):
        want = circle_loglik_mp(_circle_positions(g, pts), y, kappa, 0.7, g.total_length,
                                noise, dps=60)
        got = _precision(source, pts, y, noise)
        assert abs(got - want) <= 1e-12 * abs(want), noise


@functools.lru_cache(maxsize=None)
def _short_edge_request(shape, short):
    """A ``short_edge_graph`` request, its y and its 100-digit covariance.

    y holds one value on the short edges and at their ends, as a draw of
    the field does to within sqrt(short), so the O(1) terms of the
    likelihood are not lost under (y_a - y_b)^2 / short."""
    g = short_edge_graph(shape, short)
    pts, clustered = short_edge_points(g)
    y = np.random.default_rng(32).normal(size=len(pts))
    y[clustered] = y[np.argmax(clustered)]
    cov = cut_graph_cov_mp(g.vertex_count, g.edges,
                           [(g.edge_index(p.edge), p.t) for p in pts], 1.0, 0.7)
    return g, pts, y, cov


#: requests just below the form switch (``exact._SCALED_MAX``), where the
#: scaled form's error, which grows like noise w_max^2, reads 1.7e-13,
#: 3.5e-13, 1.2e-13 and 1.9e-13 relative; the grounded form read 1.3e-15,
#: 9.3e-15, 2.1e-15 and 1.2e-15 on them
_NEAR_THE_SWITCH = {(shape, 1e-12, 1e-8) for shape in ("triangle", "loop", "pendant", "root")}


@pytest.mark.parametrize("shape, short, noise", [
    pytest.param(*case, marks=pytest.mark.xfail(strict=True, reason=(
        "the scaled form loses digits like noise w_max^2 just below the form switch"))
        if case in _NEAR_THE_SWITCH else ())
    for case in itertools.product(SHORT_EDGE_SHAPES, [1e-8, 1e-12, 1e-14, 1e-20, 1e-40],
                                  [0.0, 1e-8, 1e-2])])
def test_loglik_matches_mpmath_across_short_edges(shape, short, noise, caplog):
    g, pts, y, cov = _short_edge_request(shape, short)
    source = exact_cov_source(g, FieldModel(kappa=1.0, tau=0.7))
    with caplog.at_level(logging.DEBUG, logger="graphfields.inference"):
        got = loglik(source, pts, y, noise)
    [line] = [r.getMessage() for r in caplog.records]
    # zero noise takes the scaled form and 1e-2 the grounded one, here
    # across pieces from 1e-40 to 1.3 long
    assert {0.0: "scaled form", 1e-2: "grounded form"}.get(noise, "form") in line
    want = gauss_loglik_mp(cov, y, noise, dps=100)
    assert abs(got - want) <= 1e-13 * abs(want)


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
    """The base of the last point's node in the cut graph, 0 for none. A's
    columns are coordinates, which number node i as i - 1 and the root
    last, so the base's node is one more than its column, modulo the
    coordinate count (the root's column, in a row with no base, is 0)."""
    layout = exact._layout_of(g, m, pts)[0]
    cols = layout.a_cols[-1]
    return (cols[1] + 1) % layout.nodes if cols.size == 3 else 0


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
        assert base == {"start": e.u, "end": e.v, "whole": min(last.u, last.v)}[kind]
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
    assert abs(got - want) <= 1e-12 * abs(want)


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
            value, _, method, _, how = exact._precision_loglik(g, m, pts, y, noise)
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


def _against_dense(g, m, pts, y, noise, caplog):
    """loglik on the exact source, the same on the dense route, and the
    one DEBUG line the first call logged. These requests once took the
    dense route because the precision route failed on them; now they take
    the precision route, which must give the dense route's value."""
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
def test_loglik_matches_dense_where_the_weights_overflow(m, t, caplog):
    # at tau^2 a > 4 a piece of edge longer than the smallest normal double,
    # which the layout keeps, can still have a difference weight whose
    # square, about tau^2 a / t, overflowed before ``exact._segment_weights``
    # capped it
    g = ROUTE_GRAPHS["loop"]()
    pts = [g.point("loop", t)]
    got, dense, message = _against_dense(g, m, pts, [0.3], 1e-4, caplog)
    assert got == pytest.approx(dense, rel=1e-12)
    assert message.startswith("loglik: precision route, 1 points, 2 nodes, dense Cholesky, "
                              "grounded form, layout ")


# ``former`` names how the grounded form, the one precision form there was
# then, failed at this noise; it stays in the test ids
@pytest.mark.parametrize("noise, former", [
    (1e-308, "value is not finite"),
    (5e-324, "value is not finite"),
    (1e-300, "precision is not positive definite"),
])
def test_loglik_matches_dense_at_extreme_noise(noise, former, caplog):
    g = ROUTE_GRAPHS["loop"]()
    pts = [g.point("loop", 0.5), g.point("loop", 1.5)]
    got, dense, message = _against_dense(g, FieldModel(), pts, [0.3, -0.2], noise, caplog)
    assert got == pytest.approx(dense, rel=1e-12)
    assert message.startswith("loglik: precision route, 2 points, 3 nodes, dense Cholesky, "
                              "scaled form, layout ")


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
    noise = draw(st.sampled_from([0.0, 1e-12, 1e-4, 0.01, 1.0]))
    if noise:  # repeats, which zero noise rejects
        pts += draw(st.lists(st.sampled_from(pts), max_size=3))
    elif len(set(exact._layout_of(g, FieldModel(), pts)[0].obs)) < len(pts):
        noise = 1e-12  # a location the picks hit twice
    kappa = 10.0 ** draw(st.floats(-3.0, 3.0))
    return g, pts, kappa, noise


def _in_form(form, g, m, pts, y, noise):
    """``exact._precision_loglik``'s value with its rule set to ``form``."""
    with mock.patch.object(exact, "_SCALED_MAX", np.inf if form == "scaled" else -1.0):
        value, *_, taken, _ = exact._precision_loglik(g, m, pts, y, noise)
    assert taken == form
    return value


def _both_forms_hold(g, m, pts, noise):
    """Where the ``exact._precision_loglik`` docstring says both forms
    hold: noise w_max^2 <= 1e4 and noise w_min^2 >= 1e-4, for the largest
    and the smallest difference weight of the cut graph."""
    _, w_a, _ = exact._piece_values(exact._layout_of(g, m, pts)[0], g, m)
    w_diff = w_a[w_a.size // 2:]
    return noise * w_diff.max() ** 2 <= 1e4 and noise * w_diff.min() ** 2 >= 1e-4


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
    for m in models:
        if _both_forms_hold(g, m, pts, noise):
            scaled, grounded = (_in_form(form, g, m, pts, y, noise)
                                for form in ("scaled", "grounded"))
            assert scaled == pytest.approx(grounded, rel=1e-12)


# on a failure, hypothesis writes a patch with libcst, whose import warns
@pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(_graphs_with_points())
def test_scaled_form_reads_the_analysis_of_h_on_random_graphs(case):
    g, pts, *_ = case
    for at in (pts, []):
        _check_one_analysis(exact._layout_of(g, FieldModel(), at)[0])


@pytest.mark.parametrize("kappa", [0.3, 1.0, 6.0])
def test_scaled_form_on_superlu_matches_the_dense_branch(kappa, monkeypatch):
    # M factored on H's order against the dense factor of the same layout,
    # built outside the cache, and the scaled loglik against the dense route
    g, pts, y = _bouquet_request("SuperLU")
    m = FieldModel(kappa=kappa)
    layout, _ = exact._layout_of(g, m, pts)
    _, j, t, *_ = gf.graph._point_arrays(g, pts)
    monkeypatch.setattr(sampling, "_DENSE_MAX", layout.nodes)
    dense = exact._layout.__wrapped__(g, j.tobytes(), t.tobytes())
    monkeypatch.undo()
    assert dense.m_pattern.perm is None and layout.m_pattern.perm is not None
    _, w_a, w_b = exact._piece_values(layout, g, m)
    for noise in (0.0, 1e-12, 1e-8):
        *got, method = exact._scaled_form(layout, w_a, w_b, y, noise)
        *want, _ = exact._scaled_form(dense, w_a, w_b, y, noise)
        assert method == "SuperLU"
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
        route = loglik(_dense(exact_cov_source(g, m)), pts, y, noise)
        assert _in_form("scaled", g, m, pts, y, noise) == pytest.approx(route, rel=1e-12)


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
    assert abs(got - want) <= 1e-12 * abs(want)


def test_loglik_at_tiny_noise_over_random_circles():
    # at noise 1e-8 these circles take the scaled form, with a mean error of
    # 1.5e-16 (worst 6.4e-16) against 30-digit mpmath. The grounded form,
    # whose observation rows put weight 1e8 on the root coordinate, read a
    # mean error of 1.6e-12 (worst 9.7e-12) with that coordinate eliminated
    # first and 6.4e-13 (worst 5.5e-12) with it eliminated last
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


def test_loglik_matches_mpmath_at_noise_1e_12():
    g = gf.circle(2.0, 4)
    rng = np.random.default_rng(7)
    pos = rng.uniform(0.0, 2.0, 12)
    pts = [g.point(f"e{int(p // 0.5)}", float(p % 0.5)) for p in pos]
    y = rng.standard_normal(12)
    want = circle_loglik_mp(pos, y, 1.0, 1.0, 2.0, 1e-12, dps=60)
    got = loglik(exact_cov_source(g, FieldModel()), pts, y, 1e-12)
    assert abs(got - want) <= 1e-12 * abs(want)


def _circle_request(n, seed=7):
    """n uniform points on the four-edge circle of length 2 and standard
    normal values, drawn from ``seed``, with each point's arclength."""
    g = gf.circle(2.0, 4)
    rng = np.random.default_rng(seed)
    pos = rng.uniform(0.0, 2.0, n)
    pts = [g.point(f"e{int(p // 0.5)}", float(p % 0.5)) for p in pos]
    return g, pts, pos, rng.standard_normal(n)


_EVERY_NOISE = [0.0, 1e-200, 1e-16, 1e-12, 1e-8, 1e-2, 1.0, 1e2, 1e6]


@pytest.mark.parametrize("kappa", [1e-6, 1e-3, 1.0, 1e3])
def test_loglik_matches_mpmath_at_every_noise(kappa):
    # the dense route read up to 2.6e-3 off at zero noise and kappa 1e-6,
    # and the grounded form alone 2.3e-2 off at noise 1e-16
    for n, noises in ((12, _EVERY_NOISE), (40, [0.0, 1e-16, 1e6])):
        g, pts, pos, y = _circle_request(n)
        source = exact_cov_source(g, FieldModel(kappa=kappa))
        for noise in noises:
            want = circle_loglik_mp(pos, y, kappa, 1.0, 2.0, noise, dps=60)
            got = loglik(source, pts, y, noise)
            assert abs(got - want) <= 1e-12 * abs(want), (n, noise)


@pytest.mark.parametrize("noise, form", [
    (0.0, "scaled"), (5e-324, "scaled"), (1e-300, "scaled"), (1e-16, "scaled"),
    (1e-2, "grounded"), (1e6, "grounded"),
])
def test_loglik_on_an_exact_source_takes_no_dense_step(noise, form, monkeypatch, caplog):
    g = ROUTE_GRAPHS["double-edge"]()
    rng = np.random.default_rng(12)
    pts = _route_points(g, rng, 10)[:-3]  # no location twice, so zero noise is allowed
    y = rng.normal(size=len(pts))
    calls = []

    def spy(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(f"{module.__name__}.{name}")
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((inference, "_condition"), (inference, "safe_cholesky"),
                         (sampling, "safe_cholesky"), (exact, "safe_cholesky"),
                         (exact, "full_cov")):
        spy(module, name)
    with caplog.at_level(logging.DEBUG, logger="graphfields.inference"):
        value = loglik(exact_cov_source(g, FieldModel(kappa=1.3)), pts, y, noise)
    assert np.isfinite(value)
    assert calls == []
    [record] = caplog.records
    assert f", {form} form, layout " in record.getMessage()


def test_loglik_raises_where_the_density_underflows():
    # two different values at one location under noise 5e-324: their
    # spread over the noise overflows, so the log density is -inf
    g = ROUTE_GRAPHS["loop"]()
    pts = [g.point("loop", 0.5), g.point("loop", 0.5), g.point("loop", 1.5)]
    source = exact_cov_source(g, FieldModel())
    with pytest.raises(gf.NumericalError, match="not finite .scaled form.: quadratic form inf"):
        loglik(source, pts, [0.3, -0.2, 0.1], 5e-324)
    assert np.isfinite(loglik(source, pts, [0.3, 0.3, 0.1], 5e-324))


@pytest.mark.parametrize("side", ["dense Cholesky", "SuperLU"])
def test_scaled_form_factors_its_matrix_on_the_layout_pattern(side):
    # M's triplets, placed by the slots of their own pattern, assemble the
    # same matrix as the triplets summed directly
    g, pts, _ = _bouquet_request(side)
    layout, _ = exact._layout_of(g, FieldModel(), pts)
    pattern, n = layout.m_pattern, layout.nodes
    assert (pattern.perm is None) == (side == "dense Cholesky")
    rng = np.random.default_rng(3)
    vals = rng.uniform(0.5, 1.5, pattern.slot.size)
    rows, cols = (np.concatenate([z, np.arange(n)]) for z in exact._gram(layout.ends))
    want = np.zeros((n, n))
    np.add.at(want, (rows, cols), vals)
    if pattern.perm is None:
        got = np.bincount(pattern.slot, vals, minlength=n * n).reshape(n, n)
    else:
        data = np.bincount(pattern.slot, vals, minlength=pattern.indices.size)
        permuted = np.zeros((n, n))
        col = np.repeat(np.arange(n), np.diff(pattern.indptr))
        permuted[pattern.indices, col] = data
        got = permuted[np.ix_(pattern.perm, pattern.perm)]
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("noise", [0.0, 0.01])
def test_a_source_returning_a_cov_matrix_reads_as_its_array(noise):
    # a covariance source may return a CovMatrix, as exact.full_cov does:
    # the joint covariance is its matrix, so krige and loglik read the
    # same bytes as from the plain array
    g = gf.figure_eight(1.0, 2.0)
    m = FieldModel(kappa=1.3, tau=0.8)
    rng = np.random.default_rng(21)
    pts = [random_point(g, rng) for _ in range(9)]
    obs, pred = pts[:6], pts[6:]
    y = rng.normal(size=len(obs))

    def wrapped(at):
        return gf.full_cov(g, m, at)

    def plain(at):
        return gf.full_cov(g, m, at).matrix

    assert isinstance(wrapped(obs), gf.CovMatrix)
    got, want = krige(wrapped, obs, y, noise, pred), krige(plain, obs, y, noise, pred)
    for name in ("mean", "cov"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    assert (got.log_likelihood, got.jitter) == (want.log_likelihood, want.jitter)
    assert loglik(wrapped, obs, y, noise) == loglik(plain, obs, y, noise)


@pytest.mark.xfail(strict=True, reason=(
    "krige keeps the dense route: at kappa = 1e-6 the Cholesky of C + noise I "
    "loses the O(1) part of C under its 1/(kappa^2 |Gamma|) constant mode"))
def test_krige_likelihood_matches_mpmath_at_tiny_kappa():
    g, pts, pos, y = _small_batch_circle()
    want = circle_loglik_mp(pos, y, 1e-6, 1.0, 2.0, 0.01)
    result = krige(exact_cov_source(g, FieldModel(kappa=1e-6)), pts, y, 0.01, pts[:1])
    assert abs(result.log_likelihood - want) <= 1e-12 * abs(want)


@pytest.mark.xfail(strict=True, reason=(
    "CHANGES.md FOUND: the two loglik forms do not overlap when piece lengths differ "
    "by many orders; just above the switch the grounded form reads about "
    "eps w_max / w_min (4.3e-11 here)"))
def test_loglik_matches_mpmath_just_above_the_form_switch():
    # a point 1e-14 from vertex 1 makes the stiffest piece's difference
    # weight 5e6 times the loosest's; the noise is twice the switch, on the
    # grounded side
    g, m = gf.circle(2.0, 4), FieldModel(kappa=1.0)
    rng = np.random.default_rng(1)
    pts = [g.point("e1", 1e-14)] + [g.point(e.id, float(rng.uniform(0.0, e.length)))
                                    for e in (g.edges[i] for i in rng.integers(4, size=12))]
    y = rng.normal(size=len(pts))
    layout, _ = exact._layout_of(g, m, pts)
    w_a = exact._piece_values(layout, g, m)[1]
    w_diff = w_a[w_a.size // 2:]
    noise = 2.0 * exact._SCALED_MAX / (w_diff.max() * w_diff.min())
    cov = cut_graph_cov_mp(g.vertex_count, g.edges, [(g.edge_index(p.edge), p.t) for p in pts],
                           1.0, dps=50)
    want = gauss_loglik_mp(cov, y, noise, dps=50)
    got = loglik(exact_cov_source(g, m), pts, y, noise)
    assert abs(got - want) <= 1e-12 * abs(want)


@pytest.mark.xfail(strict=True, raises=NotPositiveDefiniteError, reason=(
    "CHANGES.md FOUND: _precision_loglik fails to factor Q where a point sits "
    "1.4e-251 from a vertex, a normal double kept as its own node, while the "
    "dense route answers"))
def test_loglik_at_a_point_a_normal_double_from_a_vertex():
    # the case the layout-cache sweep finds when this file runs alone
    g = MetricGraph(2, (Edge("e0", 0, 1, 16.0), Edge("e1", 1, 0, 0.015625)))
    pts, y = [PointOnGraph("e1", 1.379789217739289e-251)], [0.3]
    src = exact_cov_source(g, FieldModel())
    want = krige(src, pts, y, 1e-4, pts).log_likelihood
    assert loglik(src, pts, y, 1e-4) == pytest.approx(want, rel=1e-12)


def test_loglik_logs_its_route(unit_star, star_source, caplog):
    obs = [unit_star.point("e0", 0.3), unit_star.point("e1", 1.0)]
    exact._layout.cache_clear()
    with caplog.at_level(logging.DEBUG, logger="graphfields.inference"):
        loglik(star_source, obs, [1.0, 2.0], 0.1)
        loglik(star_source, obs, [1.0, 2.0], 0.0)
        loglik(_dense(star_source), obs, [1.0, 2.0], 0.1)
        loglik(exact_cov_source(unit_star, FieldModel(kappa=2.0)), obs, [1.0, 2.0], 0.1)
    assert [r.name for r in caplog.records] == ["graphfields.inference"] * 5
    # the plain callable calls the exact source, which logs its own line
    precision, zero, other, source, again = (r.getMessage() for r in caplog.records)
    # the star's 4 vertices plus the one interior point; the second model
    # at the same points reuses the layout the first built
    assert precision == ("loglik: precision route, 2 points, 5 nodes, dense Cholesky, "
                         "grounded form, layout built")
    assert zero == ("loglik: precision route, 2 points, 5 nodes, dense Cholesky, "
                    "scaled form, layout reused")
    assert other == "loglik: dense route, 2 points (source is not exact)"
    assert source == "exact source: 2 points, covariance computed"
    assert again == ("loglik: precision route, 2 points, 5 nodes, dense Cholesky, "
                     "grounded form, layout reused")


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
    for noise in (0.0, 0.1):  # both forms of the precision route
        assert loglik(star_source, [], [], noise) == 0.0


@pytest.mark.parametrize("scaled_max", [np.inf, -1.0])  # either side of the form switch
def test_no_observations_pick_no_form(scaled_max, monkeypatch, caplog):
    # the layout at no points analyses no M, which nothing there factors,
    # and loglik of no observations is 0 before any form is picked
    g = ROUTE_GRAPHS["double-edge"]()
    layout, _ = exact._layout_of(g, FieldModel(), [])
    assert layout.m_pattern is None and layout.h_pattern is not None
    monkeypatch.setattr(exact, "_SCALED_MAX", scaled_max)
    with caplog.at_level(logging.DEBUG, logger="graphfields.inference"):
        for noise in (0.0, 0.1):
            assert loglik(exact_cov_source(g, FieldModel(kappa=0.7)), [], [], noise) == 0.0
    assert all("no factor, no form" in r.getMessage() for r in caplog.records)


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


# -- the exact source's one-slot memo -------------------------------------------


MEMO_GRAPHS = {
    "circle": (lambda: gf.circle(2.0, 4), 40),
    "star": (lambda: gf.star([0.7, 1.0, 1.3]), 40),
    "tadpole": (lambda: gf.tadpole(2.0, 1.0), 40),
    "figure_eight": (lambda: gf.figure_eight(1.0, 2.0), 40),
    # 301 vertices, above graph._DENSE_PHI_MAX: the CSR Phi
    "bouquet-100": (lambda: _bouquet(100), 60),
}


def _memo_points(g, n, seed=0):
    """n points: random ones, both ends of the first edge, a point 1e-13
    past the last edge's end (clamped onto it) and a repeat of the first."""
    rng = np.random.default_rng(seed)
    first, last = g.edges[0], g.edges[-1]
    pts = [g.point(e.id, float(rng.uniform(0.0, e.length)))
           for e in (g.edges[i] for i in rng.integers(g.edge_count, size=n - 4))]
    return pts + [PointOnGraph(first.id, 0.0), PointOnGraph(first.id, first.length),
                  PointOnGraph(last.id, last.length + 1e-13), pts[0]]


def _counting_full_cov(monkeypatch):
    """The number of points of each ``exact.full_cov`` call from now on."""
    calls = []
    full_cov = exact.full_cov

    def counted(*args, **kwargs):
        calls.append(len(args[2]))
        return full_cov(*args, **kwargs)

    monkeypatch.setattr(exact, "full_cov", counted)
    return calls


@pytest.mark.parametrize("name", list(MEMO_GRAPHS))
def test_memo_gathers_the_bytes_of_a_fresh_full_cov(name, monkeypatch):
    make, n = MEMO_GRAPHS[name]
    g, m = make(), FieldModel(kappa=1.5)
    pts = _memo_points(g, n)
    rng = np.random.default_rng(1)
    requests = [pts[:i] + pts[i + 1:] + [pts[i]] for i in range(n)]
    requests += [pts[::-1], pts[3:17], [pts[i] for i in rng.permutation(n)],
                 [pts[i] for i in rng.choice(n, n // 2, replace=False)], pts[-12:], []]
    want = [exact.full_cov(g, m, req).matrix for req in [pts] + requests]
    source = exact_cov_source(g, m)
    calls = _counting_full_cov(monkeypatch)
    got = [source(req) for req in [pts] + requests]
    assert calls == [n]
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_memo_recomputes_and_replaces_its_slot_for_a_new_point(monkeypatch):
    g, m = gf.figure_eight(1.0, 2.0), FieldModel()
    pts = _memo_points(g, 20)
    req = pts[5:] + [g.point(g.edges[1].id, 0.123)]
    want = exact.full_cov(g, m, req).matrix
    source = exact_cov_source(g, m)
    calls = _counting_full_cov(monkeypatch)
    source(pts)
    source(pts[::-1])
    assert calls == [20]
    got = source(req)
    assert calls == [20, 16]
    assert got.tobytes() == want.tobytes()
    # the slot now holds the new set: its points gather, the dropped ones miss
    source(req[::-1])
    assert calls == [20, 16]
    source(pts[:5])
    assert calls == [20, 16, 5]


def test_writing_into_a_returned_matrix_leaves_later_answers(monkeypatch):
    g, m = gf.tadpole(2.0, 1.0), FieldModel()
    pts = _memo_points(g, 12)
    want = exact.full_cov(g, m, pts).matrix
    source = exact_cov_source(g, m)
    calls = _counting_full_cov(monkeypatch)
    first = source(pts)
    assert first.flags.writeable
    first[:] = 7.0
    second = source(pts)
    assert calls == [12] and second.flags.writeable
    assert second.tobytes() == want.tobytes()
    second[:] = 8.0
    third = source(pts[::-1])
    assert third.tobytes() == want[::-1, ::-1].tobytes()
    assert not np.shares_memory(first, second) and not np.shares_memory(second, third)


def test_a_warm_memo_still_rejects_bad_points(monkeypatch):
    g, m = gf.circle(2.0, 4), FieldModel()
    pts = _memo_points(g, 12)
    source = exact_cov_source(g, m)
    source(pts)
    end = g.edges[0].length
    for bad in (PointOnGraph("nope", 0.1), PointOnGraph("e0", float("nan")),
                PointOnGraph("e0", end + 1e-9), PointOnGraph("e0", -1e-9)):
        with pytest.raises(gf.PointError):
            source(pts[:3] + [bad])
        with pytest.raises(gf.PointError):
            krige(source, pts[:3], [0.1, 0.2, 0.3], 0.01, [bad])
    # the failed requests left the slot as it was
    calls = _counting_full_cov(monkeypatch)
    source(pts[::-1])
    assert calls == []


def test_repeated_points_get_equal_rows_from_the_memo(monkeypatch):
    g, m = gf.star([0.7, 1.0, 1.3]), FieldModel()
    pts = _memo_points(g, 15)
    source = exact_cov_source(g, m)
    source(pts)
    calls = _counting_full_cov(monkeypatch)
    # pts[-1] repeats pts[0]
    got = source([pts[3], pts[0], pts[3], pts[-1], pts[3]])
    assert calls == []
    for a, b in ((0, 2), (0, 4), (1, 3)):
        assert got[a].tobytes() == got[b].tobytes()
        assert got[:, a].tobytes() == got[:, b].tobytes()


def test_memo_keys_on_the_value_of_t(monkeypatch):
    g, m = gf.circle(2.0, 4), FieldModel()
    pts = [PointOnGraph("e0", 0.25), PointOnGraph("e1", 0.125), PointOnGraph("e2", 0.5)]
    source = exact_cov_source(g, m)
    want = source(pts)
    calls = _counting_full_cov(monkeypatch)
    # a 0-d array is no dict key, but full_cov reads it as the same float
    got = source([PointOnGraph("e0", np.array(0.25)), PointOnGraph("e1", np.float64(0.125)),
                  PointOnGraph("e2", 0.5)])
    assert calls == [] and got.tobytes() == want.tobytes()


def test_a_leave_one_out_sweep_computes_one_covariance(monkeypatch):
    g, m = gf.circle(2.0, 4), FieldModel(kappa=1.5)
    pts = _memo_points(g, 40)
    y = np.random.default_rng(2).normal(size=40)
    splits = [(pts[:i] + pts[i + 1:], np.delete(y, i), [pts[i]]) for i in range(40)]
    # each request on a fresh source: full_cov every time
    want = [krige(exact_cov_source(g, m), o, yo, 0.01, p) for o, yo, p in splits]
    source = exact_cov_source(g, m)
    calls = _counting_full_cov(monkeypatch)
    got = [krige(source, o, yo, 0.01, p) for o, yo, p in splits]
    assert calls == [40]
    for a, b in zip(got, want):
        assert a.mean.tobytes() == b.mean.tobytes() and a.cov.tobytes() == b.cov.tobytes()
        assert a.log_likelihood == b.log_likelihood


def test_krige_logs_whether_it_gathered_its_covariance(unit_star, star_source, caplog):
    obs = [unit_star.point("e0", 0.3), unit_star.point("e1", 1.0)]
    pred = [unit_star.point("e2", 0.5)]
    wrapped = functools.wraps(star_source)(lambda pts: star_source(pts))
    with caplog.at_level(logging.DEBUG, logger="graphfields.inference"):
        krige(star_source, obs, [1.0, 2.0], 0.1, pred)
        krige(star_source, pred + obs[:1], [0.5, 1.0], 0.1, obs[1:])
        krige(wrapped, pred, [0.5], 0.1, obs)
        krige(star_source, obs, [1.0, 2.0], 0.1, [unit_star.point("e2", 0.7)])
        krige(_dense(star_source), obs, [1.0, 2.0], 0.1, pred)
        krige(lambda pts: np.eye(len(pts)), obs, [1.0, 2.0], 0.1, pred)
    krige_line = "krige: dense route, {} points (krige has no precision route)"
    assert [r.getMessage() for r in caplog.records] == [
        "exact source: 3 points, covariance computed", krige_line.format(2),
        "exact source: 3 points, covariance gathered from its memo", krige_line.format(2),
        # through a wrapper, the same source and its memo
        "exact source: 3 points, covariance gathered from its memo", krige_line.format(1),
        # a new point: a miss after gathers
        "exact source: 3 points, covariance computed", krige_line.format(2),
        "exact source: 3 points, covariance computed", krige_line.format(2),
        # a source that is not exact logs nothing of its own
        krige_line.format(2),
    ]


def test_threads_sharing_a_source_get_the_matrix_of_their_request():
    # two point sets alternate, so threads keep replacing the slot while
    # others build its row map or gather from it
    g, m = gf.figure_eight(1.0, 2.0), FieldModel()
    sets = [_memo_points(g, 12, seed) for seed in (3, 4)]
    rng = np.random.default_rng(5)
    requests = [[pts[i] for i in rng.permutation(12)[:k]]
                for k in (12, 7) for pts in sets for _ in range(4)]
    want = [exact.full_cov(g, m, req).matrix.tobytes() for req in requests]
    source = exact_cov_source(g, m)
    wrong = []

    def work(offset):
        for i in range(60):
            k = (offset + i) % len(requests)
            if source(requests[k]).tobytes() != want[k]:
                wrong.append(k)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(w.is_alive() for w in workers)
    assert wrong == []


def test_inference_reads_full_cov_only_through_the_exact_source():
    # the memo is the one way inference reads an exact covariance
    tree = ast.parse(Path(inference.__file__).read_text())
    [memo] = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "_ExactSource"]
    inside = {id(n) for n in ast.walk(memo)}
    reads = [n for n in ast.walk(tree)
             if "full_cov" in (getattr(n, "attr", None), getattr(n, "id", None),
                               getattr(n, "name", None))
             or (isinstance(n, ast.Constant) and n.value == "full_cov")]
    assert reads and all(id(n) in inside for n in reads)
