import numpy as np
import pytest

import graphfields as gf
from graphfields import FieldModel, ValidationError
from graphfields.inference import exact_cov_source, krige, loglik

from oracles import dense_loglik


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
