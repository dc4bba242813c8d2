import math

import numpy as np
import pytest

import graphfields as gf
from graphfields import DegenerateCaseError, PointError
from graphfields.kernels import (
    CircleMarkovKernel,
    ExponentialKernel,
    IsotropicModel,
    circle_cov,
    cycle_plus_edge_profile,
    iso_cov_matrix,
    nonexistence_gap,
    two_cycles_profile,
)

from conftest import random_point


def test_circle_cov_value_at_zero():
    # high-precision evaluation of cosh(1) / (2 sinh(1))
    assert circle_cov(0.0, 1.0, 1.0, 2.0) == pytest.approx(
        0.65651764274966565, rel=1e-15
    )


def test_circle_cov_minimum_at_half_length():
    kappa, tau, ell = 1.3, 0.7, 2.0
    mid = circle_cov(ell / 2, kappa, tau, ell)
    assert mid == pytest.approx(
        1.0 / (2 * kappa * tau**2 * np.sinh(kappa * ell / 2)), rel=1e-14
    )
    h = np.linspace(0.0, ell, 101)
    assert np.all(circle_cov(h, kappa, tau, ell) >= mid - 1e-15)


def test_circle_cov_symmetric_about_half_length():
    ell = 2.0
    for frac in np.arange(0.1, 1.0, 0.1):
        left = circle_cov(frac * ell, 1.0, 1.0, ell)
        right = circle_cov((1 - frac) * ell, 1.0, 1.0, ell)
        assert left == pytest.approx(right, rel=1e-14)


def test_circle_cov_matches_cosh_form():
    rng = np.random.default_rng(2)
    for _ in range(20):
        kappa, tau, ell = rng.uniform(0.2, 3.0, 3)
        h = rng.uniform(0.0, ell)
        direct = np.cosh(kappa * (h - ell / 2)) / (
            2 * kappa * tau**2 * np.sinh(kappa * ell / 2)
        )
        assert circle_cov(h, kappa, tau, ell) == pytest.approx(direct, rel=1e-13)


def test_circle_cov_rejects_out_of_range():
    with pytest.raises(PointError):
        circle_cov(-0.1, 1.0, 1.0, 2.0)
    with pytest.raises(PointError):
        circle_cov(2.1, 1.0, 1.0, 2.0)
    with pytest.raises(PointError):
        circle_cov(math.nan, 1.0, 1.0, 2.0)
    with pytest.raises(PointError):
        circle_cov([0.5, math.nan], 1.0, 1.0, 2.0)


@pytest.mark.parametrize("kappa, tau, ell", [
    (-1.0, 1.0, 2.0), (0.0, 1.0, 2.0), (1.0, 0.0, 2.0), (1.0, -1.0, 2.0),
    (math.inf, 1.0, 2.0), (1.0, math.inf, 2.0), (1.0, 1.0, math.inf),
    (math.nan, 1.0, 2.0),
])
def test_circle_kernels_reject_bad_parameters(kappa, tau, ell):
    with pytest.raises(gf.ValidationError):
        circle_cov(0.5, kappa, tau, ell)
    with pytest.raises(gf.ValidationError):
        CircleMarkovKernel(kappa=kappa, tau=tau, ell=ell)


@pytest.mark.parametrize("sigma2, kappa", [
    (math.inf, 1.0), (1.0, math.inf), (0.0, 1.0), (1.0, -1.0), (math.nan, 1.0),
])
def test_exponential_kernel_rejects_bad_parameters(sigma2, kappa):
    with pytest.raises(gf.ValidationError):
        ExponentialKernel(sigma2, kappa)


def test_circle_cov_overflow_safe():
    val = circle_cov(1.0, 2000.0, 1.0, 2.0)
    assert np.isfinite(val) and val >= 0.0


def test_iso_matrix_single_point(unit_star):
    model = IsotropicModel("geodesic", ExponentialKernel(sigma2=2.5, kappa=1.0))
    cov = iso_cov_matrix(unit_star, model, [unit_star.point("e0", 0.3)])
    np.testing.assert_allclose(cov.matrix, [[2.5]])
    assert cov.provenance == "isotropic"
    assert "min_eigenvalue" in cov.info


@pytest.mark.parametrize("metric", ["geodesic", "resistance"])
def test_iso_matrix_no_points(unit_star, metric):
    model = IsotropicModel(metric, ExponentialKernel(sigma2=1.0, kappa=1.0))
    cov = iso_cov_matrix(unit_star, model, [])
    assert cov.matrix.shape == (0, 0) and cov.points == ()
    assert cov.min_eigenvalue() == math.inf
    assert cov.is_psd()


def test_iso_matrix_tree_metrics_coincide(unit_star):
    rng = np.random.default_rng(4)
    pts = [random_point(unit_star, rng) for _ in range(8)]
    kernel = ExponentialKernel(sigma2=1.0, kappa=0.8)
    geo = iso_cov_matrix(unit_star, IsotropicModel("geodesic", kernel), pts)
    res = iso_cov_matrix(unit_star, IsotropicModel("resistance", kernel), pts)
    np.testing.assert_allclose(geo.matrix, res.matrix, atol=1e-12)


def test_iso_matrix_circle_markov_is_psd():
    g = gf.circle(2.0, 8)
    pts = gf.mesh(g, 0.125)
    model = IsotropicModel("geodesic", CircleMarkovKernel(kappa=1.0, tau=1.0, ell=2.0))
    cov = iso_cov_matrix(g, model, pts)
    assert cov.min_eigenvalue() > 0.0


@pytest.mark.parametrize("kappa,tau,h", [(1.0, 1.0, 0.125), (3.0, 0.5, 0.2)])
def test_circle_markov_mesh_matrix_psd(kappa, tau, h):
    g = gf.circle(2.0, 4)
    pts = gf.mesh(g, h)
    model = IsotropicModel(
        "geodesic", CircleMarkovKernel(kappa=kappa, tau=tau, ell=2.0)
    )
    cov = iso_cov_matrix(g, model, pts)
    assert cov.min_eigenvalue() >= -1e-10 * np.trace(cov.matrix)


def test_exponential_markov_factorization_on_interval():
    # screening identity of a stationary Markov covariance on a line
    kernel = ExponentialKernel(sigma2=1.7, kappa=0.9)
    rng = np.random.default_rng(6)
    for _ in range(50):
        s1, s2, s3 = np.sort(rng.uniform(0.0, 5.0, 3))
        lhs = kernel(s2 - s1) * kernel(s3 - s2)
        rhs = kernel(0.0) * kernel(s3 - s1)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_two_cycles_gap_reference_case():
    result = nonexistence_gap("two_cycles", 1.0, 2.0, 1.0, 1.0)
    # independent evaluation at matched resistance h = 0: both cycles are
    # probed at their antipode, where the covariance is coth(kappa L/2)/(2 kappa tau^2)
    at_zero = abs(1.0 / np.tanh(0.5) - 1.0 / np.tanh(1.0)) / 2.0
    assert result.gap >= at_zero - 1e-12
    assert result.gap > 1e-3
    assert 0.0 <= result.h_at_max <= 0.25


def test_two_cycles_equal_lengths_degenerate():
    with pytest.raises(DegenerateCaseError):
        nonexistence_gap("two_cycles", 1.5, 1.5, 1.0, 1.0)


def test_two_cycles_gap_positive_on_grid():
    grid = np.logspace(-1, 1, 5)
    for kappa in grid:
        for tau in grid:
            result = nonexistence_gap("two_cycles", 1.0, 2.0, kappa, tau, grid=2001)
            assert result.gap > 0.0
            # tau only rescales both sides, so the relative gap is tau-free
            assert result.gap / result.scale > 1e-3


def test_cycle_plus_edge_gap_positive():
    result = nonexistence_gap(
        "cycle_plus_edge", 2.0, 1.0, 1.0, 1.0, 1.0, 1.0, grid=2001
    )
    assert result.gap > 0.0
    h, lhs, rhs = cycle_plus_edge_profile(2.0, 1.0, 1.0, 1.0, 1.0, 1.0, grid=101)
    assert h[-1] == pytest.approx(min(1.0, 0.5))
    assert np.all(np.isfinite(lhs)) and np.all(np.isfinite(rhs))


def test_profile_grids_cover_stated_range():
    h, lhs, rhs = two_cycles_profile(1.0, 2.0, 1.0, 1.0, grid=101)
    assert h[0] == 0.0 and h[-1] == pytest.approx(0.25)
    assert len(h) == len(lhs) == len(rhs) == 101


def test_unknown_case_rejected():
    with pytest.raises(gf.ValidationError):
        nonexistence_gap("three_cycles", 1.0, 2.0, 1.0, 1.0)


@pytest.mark.parametrize("case, params", [
    ("two_cycles", (1.0, math.inf, 1.0, 1.0)),
    ("two_cycles", (1.0, 2.0, -1.0, 1.0)),
    ("cycle_plus_edge", (2.0, 1.0, 1.0, math.inf, 1.0, 1.0)),
    ("cycle_plus_edge", (2.0, 1.0, 1.0, 1.0, 0.0, 1.0)),
])
def test_profiles_reject_bad_parameters(case, params):
    profile = two_cycles_profile if case == "two_cycles" else cycle_plus_edge_profile
    with pytest.raises(gf.ValidationError):
        profile(*params)
    with pytest.raises(gf.ValidationError):
        nonexistence_gap(case, *params)


@pytest.mark.parametrize("grid", [0, -5, 2.0, True])
def test_profiles_reject_bad_grid(grid):
    with pytest.raises(gf.ValidationError):
        nonexistence_gap("two_cycles", 1.0, 2.0, 1.0, 1.0, grid=grid)
    with pytest.raises(gf.ValidationError):
        cycle_plus_edge_profile(2.0, 1.0, 1.0, 1.0, 1.0, 1.0, grid=grid)
