import ast
import logging
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import graphfields as gf
from graphfields import exact
from graphfields import (
    ConditioningError,
    FieldModel,
    MeshResolutionError,
    PointError,
    PointOnGraph,
    UnsupportedAlphaError,
    ValidationError,
)
from graphfields.exact import (
    _DENSE_SAMPLE_MAX,
    _vertex_cov,
    EdgeBasis,
    bridge_cov,
    condition_on_constraints,
    continuity_constraints,
    edge_basis,
    endpoint_prior_cov,
    full_cov,
    kirchhoff_residual,
    markov_check,
    neumann_edge_cov,
    sample,
    vertex_field_cov,
)
from graphfields.kernels import circle_cov
from graphfields.spectral import _coefficients
from graphfields.metrics import geodesic_distance
from graphfields.sampling import replicate_normals, safe_cholesky

from conftest import SHORT_EDGE_SHAPES, grid, random_point, short_edge_graph, short_edge_points
from oracles import (
    field_walk_rows,
    circle_cov_mp,
    cut_graph_cov_mp,
    neumann_four_exp,
    neumann_green_oracle,
    schur_conditional,
    second_derivative,
    vertex_cov_mp,
)


# --- Neumann edge covariance -------------------------------------------------


def test_neumann_cov_frozen_corner_value():
    # cosh(1)/sinh(1), cross-checked against the FD oracle below
    assert neumann_edge_cov(1.0, 1.0, 1.0, 1.0, 0.0, 0.0) == pytest.approx(
        1.3130352854993313, rel=1e-14
    )


@pytest.mark.parametrize(
    "kappa,a,tau,ell",
    [(1.0, 1.0, 1.0, 1.0), (2.0, 3.0, 1.5, 2.0), (0.7, 0.4, 0.9, 1.5)],
)
@pytest.mark.parametrize("fs,ft", [(0.0, 0.0), (0.25, 0.75), (0.5, 0.5), (1.0, 0.25)])
def test_neumann_cov_matches_fd_oracle(kappa, a, tau, ell, fs, ft):
    s, t = fs * ell, ft * ell
    expected = neumann_green_oracle(kappa, a, tau, ell, s, t, n=500)
    assert neumann_edge_cov(kappa, a, tau, ell, s, t) == pytest.approx(
        expected, abs=1e-8, rel=1e-8
    )


@pytest.mark.parametrize("kappa,a,tau", [(1.0, 1.0, 1.0), (2.0, 0.5, 1.3)])
def test_neumann_cov_interior_stationary_limit(kappa, a, tau):
    ell = 50.0
    kt = kappa / np.sqrt(a)
    for h in np.linspace(0.0, 3.0, 13):
        got = neumann_edge_cov(kappa, a, tau, ell, 25.0, 25.0 + h)
        stationary = np.exp(-kt * h) / (2.0 * tau**2 * kappa * np.sqrt(a))
        assert got == pytest.approx(stationary, abs=1e-8)


def test_neumann_cov_symmetric():
    rng = np.random.default_rng(9)
    for _ in range(20):
        s, t = rng.uniform(0.0, 2.0, 2)
        assert neumann_edge_cov(1.2, 0.8, 1.0, 2.0, s, t) == neumann_edge_cov(
            1.2, 0.8, 1.0, 2.0, t, s
        )


def test_neumann_cov_rejects_outside_edge():
    with pytest.raises(PointError):
        neumann_edge_cov(1.0, 1.0, 1.0, 1.0, -0.1, 0.5)
    with pytest.raises(PointError):
        neumann_edge_cov(1.0, 1.0, 1.0, 1.0, 0.1, 1.5)


@pytest.mark.parametrize("bad", [-1.0, 0.0, np.nan, np.inf])
@pytest.mark.parametrize("slot", range(4))
def test_edge_law_rejects_non_positive_parameters(bad, slot):
    # kappa, a, tau and the length, one at a time
    args = [1.0, 1.0, 1.0, 1.0]
    args[slot] = bad
    with pytest.raises(ValidationError):
        neumann_edge_cov(*args, 0.5, 0.5)
    if slot != 2:  # EdgeBasis has no tau
        with pytest.raises(ValidationError):
            EdgeBasis(args[0], args[1], args[3])


@pytest.mark.parametrize("x", [np.nan, -0.1, 1.1])
def test_edge_law_rejects_nan_and_off_edge_arclengths(unit_star, x):
    e = unit_star.edges[0]
    with pytest.raises(PointError):
        neumann_edge_cov(1.0, 1.0, 1.0, 1.0, x, 0.5)
    with pytest.raises(PointError):
        bridge_cov(FieldModel(), e, 0.5, x)
    with pytest.raises(PointError):
        EdgeBasis(1.0, 1.0, 1.0).matrix(x)
    with pytest.raises(PointError):
        EdgeBasis(1.0, 1.0, 1.0).matrix([0.5, x])


@pytest.mark.parametrize("kappa", [1e-6, 1e-3, 1.0, 10.0, 1e3, 1e5])
def test_neumann_cov_matches_four_exponential_oracle(kappa):
    # basis, bridge and endpoint block against the image sum, across the
    # parameter range: both underflow to exactly 0 together far apart
    rng = np.random.default_rng(11)
    for a in (0.3, 1.0, 4.0):
        for ell in (1e-6, 1e-3, 1.0, 50.0, 1e4):
            s = np.concatenate([rng.uniform(0.0, ell, 200), [0.0, 0.0, ell, ell]])
            t = np.concatenate([rng.uniform(0.0, ell, 200), [0.0, ell, 0.0, ell]])
            got = neumann_edge_cov(kappa, a, 0.7, ell, s, t)
            ref = neumann_four_exp(kappa, a, 0.7, ell, s, t)
            assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref)), (a, ell)


# --- homogeneous edge basis --------------------------------------------------


def test_edge_basis_boundary_normalization_exact():
    basis = EdgeBasis(kappa=1.7, a=0.6, length=2.0)
    g0 = basis.matrix(0.0)
    g1 = basis.matrix(2.0)
    assert g0[0] == 1.0 and g0[1] == 0.0
    assert g1[0] == 0.0 and g1[1] == 1.0


def test_edge_basis_unit_case_closed_form():
    basis = EdgeBasis(kappa=1.0, a=1.0, length=1.0)
    x = np.linspace(0.0, 1.0, 21)
    np.testing.assert_allclose(
        basis.matrix(x)[:, 0], np.sinh(1.0 - x) / np.sinh(1.0), atol=1e-14
    )
    np.testing.assert_allclose(
        basis.matrix(x)[:, 1], np.sinh(x) / np.sinh(1.0), atol=1e-14
    )


def test_edge_basis_call_is_its_matrix():
    basis = EdgeBasis(kappa=1.7, a=0.6, length=2.0)
    for x in (0.0, 0.7, np.linspace(0.0, 2.0, 9), np.full((2, 3), 1.3)):
        got = basis(x)
        assert got.shape == np.shape(x) + (2,)
        assert got.tobytes() == basis.matrix(x).tobytes()


def test_edge_basis_solves_boundary_system():
    # independent construction: solve the 2x2 system in a cosh/sinh basis
    kappa, a, ell = 1.4, 0.9, 1.8
    kt = kappa / np.sqrt(a)
    mat = np.array([[1.0, 0.0], [np.cosh(kt * ell), np.sinh(kt * ell)]])
    basis = EdgeBasis(kappa=kappa, a=a, length=ell)
    x = np.linspace(0.0, ell, 17)
    for j, rhs in enumerate(np.eye(2)):
        c = np.linalg.solve(mat, rhs)
        direct = c[0] * np.cosh(kt * x) + c[1] * np.sinh(kt * x)
        np.testing.assert_allclose(basis.matrix(x)[:, j], direct, atol=1e-12)


@pytest.mark.parametrize("kappa,a,ell", [(1.0, 1.0, 1.0), (2.0, 0.5, 1.5)])
def test_edge_basis_annihilated_by_edge_operator(kappa, a, ell):
    basis = EdgeBasis(kappa=kappa, a=a, length=ell)
    for j in (0, 1):
        for x in np.linspace(0.15, 0.85, 5) * ell:
            g = lambda y: basis.matrix(y)[j]
            residual = kappa**2 * g(x) - a * second_derivative(g, x)
            assert abs(residual) <= 1e-8


def test_edge_basis_overflow_safe_for_large_range():
    with np.errstate(over="raise"):
        basis = EdgeBasis(kappa=800.0, a=1.0, length=2.0)
        vals = basis.matrix(np.linspace(0.0, 2.0, 41))
    assert np.all(np.isfinite(vals))
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0 + 1e-12)
    assert basis.matrix(0.0)[0] == 1.0


def test_edge_basis_spans_boundary_exponentials():
    # the normalized basis spans the same space as (r(x), r(x - L)) with the
    # stationary exponential r: both solve the edge equation, and matching
    # boundary values identifies them inside the span
    kappa, tau, ell = 1.0, 1.0, 1.0
    basis = EdgeBasis(kappa=kappa, a=1.0, length=ell)
    r = lambda h: np.exp(-kappa * np.abs(h)) / (2 * kappa * tau**2)
    x = np.linspace(0.0, ell, 21)
    G = basis.matrix(x)
    np.testing.assert_allclose(
        r(x), r(0.0) * G[:, 0] + r(ell) * G[:, 1], atol=1e-13
    )
    np.testing.assert_allclose(
        r(x - ell), r(ell) * G[:, 0] + r(0.0) * G[:, 1], atol=1e-13
    )
    boundary = np.array([[r(0.0), r(ell)], [r(ell), r(0.0)]])
    assert abs(np.linalg.det(boundary)) > 1e-6


def test_edge_basis_requires_alpha_one(unit_star):
    with pytest.raises(UnsupportedAlphaError):
        edge_basis(FieldModel(alpha=2.0), unit_star.edges[0])


# --- continuity constraints and conditioning ---------------------------------


def test_continuity_constraints_star_reference_matrix(unit_star):
    K = continuity_constraints(unit_star)
    np.testing.assert_array_equal(
        K, [[0, 1, 0, -1, 0, 0], [0, 0, 0, 1, 0, -1]]
    )


def test_continuity_constraints_interval_empty():
    g = gf.interval(1.0)
    K = continuity_constraints(g)
    assert K.shape == (0, 2)
    sigma = endpoint_prior_cov(g, FieldModel())
    np.testing.assert_array_equal(condition_on_constraints(sigma, K), sigma)


def test_continuity_constraints_loop_single_row(loop_graph):
    np.testing.assert_array_equal(
        continuity_constraints(loop_graph), [[1.0, -1.0]]
    )


def test_constraint_rank_matches_degrees(fig8):
    K = continuity_constraints(fig8)
    expected_rows = sum(fig8.degree(v) - 1 for v in range(fig8.vertex_count))
    assert K.shape == (expected_rows, 2 * fig8.edge_count)
    assert np.linalg.matrix_rank(K) == expected_rows


def test_constraint_choice_invariance(unit_star):
    m = FieldModel(kappa=1.3, tau=0.9)
    pts = [
        unit_star.point("e0", 0.25),
        unit_star.point("e1", 0.7),
        unit_star.point("e2", 1.0),
    ]
    k_chain = np.array([[0, 1, 0, -1, 0, 0], [0, 0, 0, 1, 0, -1]], dtype=float)
    k_alt = np.array([[0, 1, 0, 0, 0, -1], [0, 0, 0, 1, 0, -1]], dtype=float)
    k_redundant = np.vstack([k_chain, k_chain[0] + k_chain[1]])
    base = full_cov(unit_star, m, pts, constraints=k_chain).matrix
    for K in (k_alt, k_redundant):
        other = full_cov(unit_star, m, pts, constraints=K).matrix
        np.testing.assert_allclose(other, base, atol=1e-12)
    default = full_cov(unit_star, m, pts).matrix
    np.testing.assert_allclose(default, base, atol=1e-12)


def test_constraint_rank_reports_a_duplicated_row(unit_star, caplog):
    m = FieldModel(kappa=1.3, tau=0.9)
    pts = [unit_star.point("e0", 0.25), unit_star.point("e1", 0.7)]
    k = continuity_constraints(unit_star)
    twice = np.vstack([k, k[:1]])
    with caplog.at_level(logging.DEBUG, logger="graphfields.exact"):
        cov = full_cov(unit_star, m, pts, constraints=twice)
    assert cov.info == {"route": "constraints", "constraint_rank": 2}
    assert "3 constraint rows, rank 2 kept, 1 dropped" in caplog.text
    np.testing.assert_allclose(cov.matrix, full_cov(unit_star, m, pts).matrix, atol=1e-12)


def test_degenerate_constraints_raise():
    sigma = np.eye(2)
    with pytest.raises(ConditioningError):
        condition_on_constraints(sigma, np.zeros((1, 2)))


def test_vertex_field_cov_interval_is_neumann_block():
    g = gf.interval(1.0)
    m = FieldModel()
    cov = vertex_field_cov(g, m)
    n = lambda s, t: neumann_edge_cov(1.0, 1.0, 1.0, 1.0, s, t)
    np.testing.assert_allclose(
        cov.matrix, [[n(0, 0), n(0, 1)], [n(0, 1), n(1, 1)]], atol=1e-14
    )


def test_vertex_field_cov_reports_its_factor():
    # in grounded coordinates the interval's precision is [[4w, 2w], [2w,
    # w + w']] with w = tanh(1/2) / 2 and w' = coth(1/2) / 2, so its pivots
    # are 2 tanh(1/2) and coth(1/2) / 2
    info = vertex_field_cov(gf.interval(1.0), FieldModel()).info
    assert info["vertices"] == (0, 1) and info["factor"] == "dense Cholesky"
    assert info["min_pivot"] == pytest.approx(2.0 * np.tanh(0.5), rel=1e-14)
    info = vertex_field_cov(_bouquet(), FieldModel()).info
    assert info["factor"] == "SuperLU" and info["min_pivot"] > 0.0


@pytest.mark.parametrize(
    "maker,factor",
    [(lambda: gf.interval(1.0), "dense Cholesky"), (lambda: _bouquet(), "SuperLU")],
    ids=["interval", "bouquet"],
)
def test_vertex_table_is_c_ordered(maker, factor):
    # both solves return F-ordered arrays; sandwich products read the table
    # by rows, so it is stored C-ordered
    g, m = maker(), FieldModel()
    table, (method, _) = _vertex_cov(g, m)
    assert method == factor
    assert table.flags.c_contiguous and not table.flags.writeable
    assert np.array_equal(table, table.T)


def test_full_cov_info_names_its_route(unit_star, fig8):
    for g in (unit_star, fig8, _bouquet()):
        m = FieldModel(kappa=1.3)
        pts = [g.point(e.id, 0.3 * e.length) for e in g.edges[:5]]
        vertex = vertex_field_cov(g, m).info
        assert full_cov(g, m, pts).info == {
            "route": "vertex", "factor": vertex["factor"], "min_pivot": vertex["min_pivot"]}
    k = continuity_constraints(unit_star)
    for pts in ([], [unit_star.point("e0", 0.5)]):
        cov = full_cov(unit_star, FieldModel(), pts, constraints=k)
        # the star's centre ties three ends with two independent rows
        assert cov.info == {"route": "constraints", "constraint_rank": 2}


def test_vertex_field_cov_star_center_endpoints_agree(unit_star):
    m = FieldModel()
    sigma = endpoint_prior_cov(unit_star, m)
    conditioned = condition_on_constraints(sigma, continuity_constraints(unit_star))
    center_coords = [1, 3, 5]
    for i in center_coords:
        for j in center_coords:
            np.testing.assert_allclose(
                conditioned[i], conditioned[j], atol=1e-12
            )
            assert conditioned[i, i] == pytest.approx(conditioned[j, j], abs=1e-12)


def test_endpoint_prior_matches_oracle_with_per_edge_kappa(fig8):
    kappas = {e.id: 0.3 * 2.0**k for k, e in enumerate(fig8.edges)}
    m = FieldModel(kappa=kappas, tau=0.7)
    sigma = endpoint_prior_cov(fig8, m)
    mask = np.ones_like(sigma, dtype=bool)
    for j, e in enumerate(fig8.edges):
        ell = e.length
        ref = neumann_four_exp(kappas[e.id], 1.0, 0.7, ell, [0.0, 0.0, ell], [0.0, ell, ell])
        block = sigma[2 * j : 2 * j + 2, 2 * j : 2 * j + 2]
        got = np.array([block[0, 0], block[0, 1], block[1, 1]])
        np.testing.assert_allclose(got, ref, rtol=1e-14, atol=0.0)
        assert block[1, 0] == block[0, 1]
        mask[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = False
    assert np.all(sigma[mask] == 0.0)


def test_constant_mapping_resolves_like_a_scalar(fig8):
    scalar = FieldModel(kappa=1.3, a=0.7, tau=0.9)
    mapped = FieldModel(
        kappa={e.id: 1.3 for e in fig8.edges}, a={e.id: 0.7 for e in fig8.edges},
        tau=0.9,
    )
    for got, want in zip(mapped._edge_values(fig8.edges), scalar._edge_values(fig8.edges)):
        assert got.dtype == want.dtype == float and np.array_equal(got, want)
    assert _coefficients(fig8, mapped) == _coefficients(fig8, scalar)
    assert np.array_equal(
        vertex_field_cov(fig8, mapped).matrix, vertex_field_cov(fig8, scalar).matrix
    )


@pytest.mark.parametrize("kwargs", [
    {"kappa": np.inf}, {"kappa": -1.0}, {"a": np.nan}, {"tau": np.inf},
    {"kappa": {"e0": np.inf}}, {"a": {"e0": 0.0}}, {"kappa": {"e0": "x"}},
    {"kappa": {"e0": None}}, {"tau": {"e0": 1.0}}, {"alpha": np.inf}, {"alpha": 0.5},
])
def test_field_model_rejects_bad_parameters(kwargs):
    with pytest.raises(ValidationError):
        FieldModel(**kwargs)


def test_mapping_without_an_edge_raises(fig8):
    missing = fig8.edges[2]
    m = FieldModel(a={e.id: 0.5 for e in fig8.edges if e != missing})
    calls = (
        lambda: m._edge_values(fig8.edges),
        lambda: m.a_on(missing.id),
        lambda: m.edge_params(missing),
        lambda: vertex_field_cov(fig8, m),
        lambda: _coefficients(fig8, m),
    )
    for call in calls:
        with pytest.raises(ValidationError, match=f"no a given for edge '{missing.id}'"):
            call()
    assert m.kappa_on(missing.id) == 1.0


def test_endpoint_prior_is_block_diagonal(unit_star):
    sigma = endpoint_prior_cov(unit_star, FieldModel())
    mask = np.ones_like(sigma, dtype=bool)
    for j in range(unit_star.edge_count):
        mask[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = False
    assert np.all(sigma[mask] == 0.0)


# --- full covariance ----------------------------------------------------------


def test_full_cov_circle_matches_closed_form(circle24):
    m = FieldModel()
    pts = gf.mesh(circle24, 0.25)
    cov = full_cov(circle24, m, pts)
    for i, p in enumerate(pts):
        for j, q in enumerate(pts):
            d = geodesic_distance(circle24, p, q)
            assert cov.matrix[i, j] == pytest.approx(
                circle_cov(d, 1.0, 1.0, 2.0), abs=1e-12
            )


def test_full_cov_single_point_positive(unit_star):
    cov = full_cov(unit_star, FieldModel(), [unit_star.point("e1", 0.4)])
    assert cov.matrix.shape == (1, 1)
    assert cov.matrix[0, 0] > 0.0


def test_full_cov_no_points(unit_star):
    cov = full_cov(unit_star, FieldModel(), [])
    assert cov.matrix.shape == (0, 0)
    assert cov.is_psd()
    k = continuity_constraints(unit_star)
    assert full_cov(unit_star, FieldModel(), [], constraints=k).matrix.shape == (0, 0)


def test_full_cov_requires_alpha_one(unit_star):
    with pytest.raises(UnsupportedAlphaError):
        full_cov(unit_star, FieldModel(alpha=0.75), [unit_star.point("e0", 0.5)])
    with pytest.raises(UnsupportedAlphaError):
        vertex_field_cov(unit_star, FieldModel(alpha=0.75))


def test_full_cov_vertex_continuity_is_exact(unit_star):
    # the center addressed through any incident edge gives the same value
    m = FieldModel()
    pts = [
        unit_star.point("e0", 1.0),
        unit_star.point("e1", 1.0),
        unit_star.point("e2", 0.31),
    ]
    cov = full_cov(unit_star, m, pts)
    assert cov.matrix[0, 2] == cov.matrix[1, 2]
    assert cov.matrix[0, 0] == cov.matrix[1, 1]


@pytest.mark.parametrize(
    "maker",
    [
        lambda: gf.star([1.0, 1.0, 1.0]),
        lambda: gf.figure_eight(1.0, 2.0),
        lambda: gf.tadpole(2.0, 1.0),
        lambda: gf.MetricGraph(1, (gf.Edge("loop", 0, 0, 2.0),)),
        lambda: gf.MetricGraph(
            2, (gf.Edge("short", 0, 1, 1.0), gf.Edge("long", 0, 1, 3.0))
        ),
    ],
)
def test_full_cov_symmetric_psd(maker):
    g = maker()
    m = FieldModel(kappa=1.1, tau=0.8)
    cov = full_cov(g, m, gf.mesh(g, 0.21))
    np.testing.assert_array_equal(cov.matrix, cov.matrix.T)
    assert cov.is_psd()


def test_full_cov_symmetry_group_of_uniform_star(unit_star):
    # permuting the three identical legs leaves the covariance invariant
    m = FieldModel()
    ts = [0.2, 0.5, 0.9]
    base_pts = [unit_star.point(f"e{j}", t) for j in range(3) for t in ts]
    base = full_cov(unit_star, m, base_pts).matrix
    for perm in ((1, 2, 0), (2, 0, 1), (1, 0, 2)):
        pts = [unit_star.point(f"e{perm[j]}", t) for j in range(3) for t in ts]
        permuted = full_cov(unit_star, m, pts).matrix
        np.testing.assert_allclose(permuted, base, atol=1e-12)


def test_full_cov_loop_is_circle_field(loop_graph):
    # a loop at a single vertex is a circle: conditioning the Neumann edge
    # on matching endpoint values must reproduce the circle covariance
    m = FieldModel()
    pts = [PointOnGraph("loop", t) for t in np.linspace(0.0, 2.0, 9)]
    cov = full_cov(loop_graph, m, pts)
    for i, p in enumerate(pts):
        for j, q in enumerate(pts):
            d = geodesic_distance(loop_graph, p, q)
            assert cov.matrix[i, j] == pytest.approx(
                circle_cov(d, 1.0, 1.0, 2.0), abs=1e-12
            )


def test_full_cov_parallel_edges_form_circle(multi_graph):
    # two vertices joined by edges of lengths 1 and 3 form a circle of
    # length 4 with two marked points
    m = FieldModel()
    pts = [multi_graph.point("short", t) for t in (0.0, 0.3, 0.7, 1.0)]
    pts += [multi_graph.point("long", t) for t in (0.5, 1.4, 2.6)]
    cov = full_cov(multi_graph, m, pts)
    for i, p in enumerate(pts):
        for j, q in enumerate(pts):
            d = geodesic_distance(multi_graph, p, q)
            assert cov.matrix[i, j] == pytest.approx(
                circle_cov(d, 1.0, 1.0, 4.0), abs=1e-12
            )


def test_full_cov_per_edge_parameters(fig8):
    kappa = {e.id: 0.5 + 0.1 * j for j, e in enumerate(fig8.edges)}
    a = {e.id: 1.0 + 0.2 * j for j, e in enumerate(fig8.edges)}
    m = FieldModel(kappa=kappa, a=a, tau=1.1)
    cov = full_cov(fig8, m, gf.mesh(fig8, 0.3))
    assert cov.is_psd()


@pytest.mark.parametrize("kappa", [1e-6, 1e-3, 1.0, 1e3, 1e5])
def test_full_cov_circle_extreme_kappa_vs_mpmath(circle24, kappa):
    tau, ell = 1.3, 2.0
    pts = gf.mesh(circle24, 0.1)
    cov = full_cov(circle24, FieldModel(kappa=kappa, tau=tau), pts).matrix
    # edge e<j> runs from arclength 0.5 j around the circle
    pos = [0.5 * int(p.edge[1:]) + p.t for p in pts]
    ref = np.array(
        [
            [circle_cov_mp(min(abs(x - y), ell - abs(x - y)), kappa, tau, ell) for y in pos]
            for x in pos
        ]
    )
    assert np.max(np.abs(cov - ref)) <= 1e-9 * np.max(np.abs(ref))


def _bouquet():
    return gf.one_sum([gf.circle(1.4, 4) for _ in range(100)], [(0, 0)] * 99)


def _fig8_per_edge():
    g = gf.figure_eight(1.0, 2.0)
    kappa = {e.id: 0.5 + 0.3 * j for j, e in enumerate(g.edges)}
    a = {e.id: 0.4 + 0.25 * j for j, e in enumerate(g.edges)}
    return g, FieldModel(kappa=kappa, a=a, tau=0.8)


@pytest.mark.parametrize(
    "maker",
    [
        lambda: (_bouquet(), FieldModel(kappa=2.0)),
        lambda: (gf.MetricGraph(1, (gf.Edge("loop", 0, 0, 2.0),)), FieldModel(kappa=0.5)),
        lambda: (
            gf.MetricGraph(2, (gf.Edge("short", 0, 1, 1.0), gf.Edge("long", 0, 1, 3.0))),
            FieldModel(kappa=3.0, tau=1.4),
        ),
        lambda: (gf.tadpole(2.0, 1.0), FieldModel(kappa=1.0, a=2.0, tau=0.7)),
        _fig8_per_edge,
        lambda: (grid(10), FieldModel(kappa=1.0)),
        lambda: (grid(10), FieldModel(kappa=1e3)),
    ],
    ids=["bouquet", "loop", "double-edge", "tadpole", "fig8-per-edge", "grid-1", "grid-1e3"],
)
def test_full_cov_vertex_precision_matches_dense_reference(maker):
    g, m = maker()
    # the mesh, plus every vertex addressed through each incident edge end
    pts = gf.mesh(g, 0.1) + [g.point(e.id, t) for e in g.edges for t in (0.0, e.length)]
    fast = full_cov(g, m, pts).matrix
    ref = full_cov(g, m, pts, constraints=continuity_constraints(g)).matrix
    assert np.max(np.abs(fast - ref)) <= 1e-11 * np.max(np.abs(ref))


@pytest.mark.parametrize(
    "g, kappa",
    [(grid(10), 1e-3), (gf.star([1e-6, 1.0, 1e4]), 1e-6), (gf.tadpole(2.0, 1e-5), 1e-6)],
    ids=["grid-1e-3", "star-1e-6", "short-tadpole-1e-6"],
)
def test_vertex_cov_matches_mpmath_at_small_kappa(g, kappa):
    # the constraints= reference loses up to 1.4e-6 of the largest entry on
    # these inputs, so the vertex table is checked at 40 digits instead
    got = vertex_field_cov(g, FieldModel(kappa=kappa)).matrix
    want = vertex_cov_mp(g.vertex_count, g.edges, kappa)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.xfail(strict=True, reason=(
    "CHANGES.md FOUND: condition_on_constraints, the dense route behind "
    "full_cov(..., constraints=K), loses digits at small kappa L (6.1e-7, 1.4e-6 and "
    "1.3e-10 of the largest entry off the vertex route on these inputs)"))
@pytest.mark.parametrize(
    "g, kappa",
    [(grid(10), 1e-3), (gf.star([1e-6, 1.0, 1e4]), 1e-6), (gf.tadpole(2.0, 1e-5), 1e-6)],
    ids=["grid-1e-3", "star-1e-6", "short-tadpole-1e-6"],
)
def test_constraints_route_matches_the_vertex_route_at_small_kappa(g, kappa):
    # the vertex route is within 1e-13 of 40-digit mpmath here
    # (``test_vertex_cov_matches_mpmath_at_small_kappa``)
    m = FieldModel(kappa=kappa)
    pts = gf.mesh(g, max(0.1, g.total_length / 2000)) + [
        g.point(e.id, t) for e in g.edges for t in (0.0, e.length)]
    want = full_cov(g, m, pts).matrix
    got = full_cov(g, m, pts, constraints=continuity_constraints(g)).matrix
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_vertex_cov_matches_mpmath_across_a_short_edge():
    g = gf.MetricGraph(4, (gf.Edge("a", 0, 1, 1.0), gf.Edge("short", 1, 2, 1e-12),
                           gf.Edge("b", 2, 0, 1.3), gf.Edge("pendant", 2, 3, 0.7)))
    got = vertex_field_cov(g, FieldModel(kappa=1.0)).matrix
    want = vertex_cov_mp(g.vertex_count, g.edges, 1.0, dps=60)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("short", [1e-8, 1e-12, 1e-14, 1e-20, 1e-40])
@pytest.mark.parametrize("shape", SHORT_EDGE_SHAPES)
def test_covariances_match_mpmath_across_short_edges(shape, short):
    # the short edges' pieces join their vertices in one cluster of the cut
    # graph, based at its smallest node
    g = short_edge_graph(shape, short)
    m = FieldModel(kappa=1.0, tau=0.7)
    pts, _ = short_edge_points(g)
    want = cut_graph_cov_mp(g.vertex_count, g.edges,
                            [(g.edge_index(p.edge), p.t) for p in pts], 1.0, 0.7)
    want = np.array(want.tolist(), dtype=float)
    nv = g.vertex_count
    got = vertex_field_cov(g, m).matrix
    assert np.max(np.abs(got - want[:nv, :nv])) <= 1e-13 * np.max(np.abs(want))
    got = full_cov(g, m, pts).matrix
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_vertex_cov_root_entry_on_a_large_grid():
    # z_0's diagonal 1'Q1 sums O(|V|) terms; without the refinement step
    # S_V[0, 0] read 9.5e-13 relative off the reference here
    g = grid(20)
    m = FieldModel(kappa=1.0)
    got = vertex_field_cov(g, m).matrix
    pts = [g.vertex_point(v) for v in range(g.vertex_count)]
    ref = full_cov(g, m, pts, constraints=continuity_constraints(g)).matrix
    assert abs(got[0, 0] - ref[0, 0]) <= 1e-13 * ref[0, 0]
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_vertex_cov_cache_is_bounded(unit_star):
    from graphfields.exact import _vertex_cov
    from graphfields.graph import CACHE_SIZE, vertex_distance_matrix
    from graphfields.metrics import resistance_structure

    for k in range(300):
        vertex_field_cov(unit_star, FieldModel(kappa=1.0 + 0.01 * k))
    assert _vertex_cov.cache_info().currsize <= CACHE_SIZE
    for cached in (resistance_structure, vertex_distance_matrix):
        assert cached.cache_info().maxsize == CACHE_SIZE


# --- bridge and edge representation ------------------------------------------


def test_bridge_cov_zero_at_endpoints(unit_star):
    m = FieldModel()
    e = unit_star.edges[0]
    assert bridge_cov(m, e, 0.0, 0.37) == 0.0
    assert bridge_cov(m, e, 0.37, 1.0) == 0.0
    assert bridge_cov(m, e, 0.0, 1.0) == 0.0


def test_bridge_cov_psd_on_edge_mesh(unit_star):
    m = FieldModel(kappa=1.4)
    e = unit_star.edges[1]
    ts = np.linspace(0.0, e.length, 20)
    mat = bridge_cov(m, e, ts[:, None], ts[None, :])
    assert np.linalg.eigvalsh(mat)[0] >= -1e-10 * np.trace(mat)


def test_bridge_plus_boundary_reconstructs_full_cov(unit_star):
    m = FieldModel(kappa=0.9, tau=1.2)
    e = unit_star.edges[0]
    ts = np.linspace(0.0, e.length, 9)
    pts = [unit_star.point(e.id, t) for t in ts]
    exact = full_cov(unit_star, m, pts).matrix
    ends = [unit_star.point(e.id, 0.0), unit_star.point(e.id, e.length)]
    boundary_cov = full_cov(unit_star, m, ends).matrix
    G = edge_basis(m, e).matrix(ts)
    reconstructed = bridge_cov(m, e, ts[:, None], ts[None, :])
    reconstructed += G @ boundary_cov @ G.T
    np.testing.assert_allclose(reconstructed, exact, atol=1e-10)


def test_bridge_independent_of_boundary_part(unit_star):
    # cross covariance between u(s) - G(s)'B and the endpoint vector B is zero
    m = FieldModel()
    e = unit_star.edges[2]
    s = 0.43
    pts = [
        unit_star.point(e.id, s),
        unit_star.point(e.id, 0.0),
        unit_star.point(e.id, e.length),
    ]
    cov = full_cov(unit_star, m, pts).matrix
    G = edge_basis(m, e).matrix(s)
    cross = cov[0, 1:] - G @ cov[1:, 1:]
    assert np.max(np.abs(cross)) <= 1e-12


# --- sampling -----------------------------------------------------------------


def test_sample_zero_replicates(unit_star):
    draws = sample(unit_star, FieldModel(), [unit_star.point("e0", 0.5)], 0, 1)
    assert draws.shape == (0, 1)


def test_sample_seed_determinism_and_prefix(unit_star):
    m = FieldModel()
    interior = [unit_star.point("e0", 0.5), unit_star.point("e1", 0.25)]
    for pts in (interior, gf.mesh(unit_star, 0.3)):
        a = sample(unit_star, m, pts, 10, 123)
        b = sample(unit_star, m, pts, 10, 123)
        np.testing.assert_array_equal(a, b)
        # replicates are drawn row by row: a shorter run is a prefix of a longer one
        np.testing.assert_array_equal(sample(unit_star, m, pts, 4, 123), a[:4])
        c = sample(unit_star, m, pts, 10, 124)
        assert not np.array_equal(a, c)


def test_sample_prefix_at_scale(fig8, monkeypatch):
    # on both paths the normals of a shorter run are a byte prefix of a
    # longer run's, and the draws agree with its first rows to rounding,
    # also where the shorter run ends at a block edge
    pts = gf.mesh(fig8, 0.05)
    assert len(pts) == 59
    # the mesh holds every vertex, so both paths draw one normal per point
    assert {fig8.vertex_of(p) for p in pts} >= set(range(fig8.vertex_count))
    k = len(pts)
    step = exact._SAMPLE_BLOCK_BYTES // (8 * k)
    n_long = max(2000, 2 * step + 2)
    long_xi = replicate_normals(5, n_long, k)
    # blocks drawn in turn from one generator are the rows of one call
    rng = np.random.default_rng(5)
    blocks = [replicate_normals(rng, rows, k) for rows in (step - 1, 1, step, n_long - 2 * step)]
    assert np.concatenate(blocks).tobytes() == long_xi.tobytes()
    for markov in (False, True):
        if markov:
            monkeypatch.setattr(gf.exact, "_DENSE_SAMPLE_MAX", 0)
        long = sample(fig8, FieldModel(), pts, n_long, 5)
        for n in (1, 3, step - 1, step, step + 1, 2 * step + 1):
            np.testing.assert_array_equal(replicate_normals(5, n, k), long_xi[:n])
            short = sample(fig8, FieldModel(), pts, n, 5)
            assert np.max(np.abs(short - long[:n])) <= 1e-13 * np.max(np.abs(long))


def test_sample_covariance_monte_carlo(unit_star):
    m = FieldModel()
    pts = [unit_star.point(f"e{j}", t) for j in range(3) for t in (0.3, 0.8)]
    cov = full_cov(unit_star, m, pts).matrix
    n = 20000
    draws = sample(unit_star, m, pts, n, seed=7)
    emp = draws.T @ draws / n
    se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov**2) / n)
    assert np.max(np.abs(emp - cov) / se) <= 4.0


def test_sample_rejects_negative_count(unit_star):
    for n in (-1, 2.0, True):
        with pytest.raises(ValidationError):
            sample(unit_star, FieldModel(), [unit_star.point("e0", 0.5)], n, 0)


@pytest.mark.parametrize("n", [0, 3])
def test_sample_checks_the_seed_as_a_count(unit_star, n):
    pts = [unit_star.point("e0", 0.5), unit_star.point("e1", 1.0)]
    for seed in (-1, 1.5, True, None, "a"):
        with pytest.raises(ValidationError, match="seed"):
            sample(unit_star, FieldModel(), pts, n, seed)
    want = sample(unit_star, FieldModel(), pts, n, 7)
    np.testing.assert_array_equal(sample(unit_star, FieldModel(), pts, n, np.int64(7)), want)


@pytest.mark.parametrize("n", [0, 3])
def test_sample_rejects_bad_points_and_alpha(unit_star, n):
    with pytest.raises(PointError):
        sample(unit_star, FieldModel(), [PointOnGraph("e0", 1.5)], n, 0)
    with pytest.raises(PointError):
        sample(unit_star, FieldModel(), [PointOnGraph("nope", 0.5)], n, 0)
    with pytest.raises(UnsupportedAlphaError):
        sample(unit_star, FieldModel(alpha=2.0), [unit_star.point("e0", 0.5)], n, 0)


_SAME_POINT = [PointOnGraph("e0", 0.5), PointOnGraph("e0", 0.5)]
# one vertex addressed through two of its edges
_SAME_VERTEX = [PointOnGraph("e0", 1.0), PointOnGraph("e1", 1.0)]
# a point within the smallest normal double of a vertex is at the vertex,
# on both paths, as in the cut graph (``exact._distinct_points``)
_NEAR_VERTEX = [PointOnGraph("e0", 0.0), PointOnGraph("e0", 5e-324)]


@pytest.mark.parametrize(
    "pts,markov,width",
    [
        (_SAME_POINT, False, 3),
        (_SAME_VERTEX, False, 3),
        # every vertex of the star (leaves 0, 1, 2 and centre 3), two interior points
        (_SAME_POINT, True, 6),
        # every vertex of the star, one interior point
        (_SAME_VERTEX, True, 5),
        (_NEAR_VERTEX, False, 3),
        (_NEAR_VERTEX, True, 5),
    ],
    ids=["same-point", "same-vertex", "same-point-markov", "same-vertex-markov",
         "near-vertex", "near-vertex-markov"],
)
def test_sample_duplicate_points_share_one_normal(unit_star, pts, markov, width, monkeypatch):
    widths = []
    original = gf.exact.replicate_normals

    def recording(seed, n, k):
        widths.append(k)
        return original(seed, n, k)

    monkeypatch.setattr(gf.exact, "replicate_normals", recording)
    if markov:
        monkeypatch.setattr(gf.exact, "_DENSE_SAMPLE_MAX", 0)
    extra = [PointOnGraph("e1", 0.3), PointOnGraph("e2", 0.0)]
    draws = sample(unit_star, FieldModel(), pts + extra + pts, 3, 0)
    for col in (1, 4, 5):
        assert draws[:, col].tobytes() == draws[:, 0].tobytes()
    assert widths == [width]


@pytest.mark.parametrize("markov", [False, True], ids=["dense", "markov"])
def test_sample_permuting_the_points_permutes_the_columns(markov):
    # both paths draw in node order, so the order the points are listed in
    # moves the columns and nothing else, byte for byte
    g = _ORACLE_GRAPHS["bouquet-40"]()
    m = FieldModel(kappa=1.3, tau=0.8)
    rng = np.random.default_rng(11)
    inner = [random_point(g, rng) for _ in range(20)]
    # vertex 0 through two of its edges, and a repeated point
    pts = [g.point("p0.e0", 0.0), g.point("p1.e3", g.edge("p1.e3").length)] + inner + inner[:1]
    if markov:
        pts += gf.mesh(g, 0.1)
    assert (len({(p.edge, p.t) for p in pts}) > _DENSE_SAMPLE_MAX) == markov
    perm = rng.permutation(len(pts))
    draws = sample(g, m, pts, 30, 3)
    assert sample(g, m, [pts[i] for i in perm], 30, 3).tobytes() == draws[:, perm].tobytes()
    assert draws[:, 1].tobytes() == draws[:, 0].tobytes()


def _factor_order_points(g, pts):
    """The factor order of ``sample``, worked out point by point: node
    order on both paths. The vertices come first, ascending, and the
    interior points follow by (edge, t). Up to ``_DENSE_SAMPLE_MAX``
    distinct points the vertices are those among the points; above it,
    every vertex of the graph. Returns the points in that order and each
    input point's position, which drops the columns of vertices that are
    not among the points."""
    keys = []
    for p in pts:
        w = g.vertex_of(p)
        keys.append((0, w) if w is not None else (1, g.edge_index(p.edge), p.t))
    order = sorted(set(keys))
    if len(order) > _DENSE_SAMPLE_MAX:
        order = [(0, w) for w in range(g.vertex_count)] + [k for k in order if k[0]]
    points = [
        g.vertex_point(k[1]) if k[0] == 0 else PointOnGraph(g.edges[k[1]].id, k[2])
        for k in order
    ]
    position = {k: i for i, k in enumerate(order)}
    return points, [position[k] for k in keys]


_ORACLE_GRAPHS = {
    "figure-eight": lambda: gf.figure_eight(1.0, 2.0),
    "tadpole": lambda: gf.tadpole(2.0, 1.0),
    "star": lambda: gf.star([1.0, 0.5, 2.0]),
    "loop": lambda: gf.MetricGraph(1, (gf.Edge("loop", 0, 0, 2.0),)),
    "double-edge": lambda: gf.MetricGraph(
        2, (gf.Edge("short", 0, 1, 1.0), gf.Edge("long", 0, 1, 3.0))
    ),
    "bouquet-40": lambda: gf.one_sum(
        [gf.circle(1.4, 4) for _ in range(40)], [(0, 0)] * 39
    ),
}


@pytest.mark.parametrize("drop", [False, True], ids=["full-mesh", "vertices-dropped"])
@pytest.mark.parametrize("kappa", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("name", list(_ORACLE_GRAPHS))
def test_sample_is_dense_cholesky_in_factor_order(name, kappa, drop):
    g = _ORACLE_GRAPHS[name]()
    m = FieldModel(kappa=kappa)
    pts = gf.mesh(g, 0.1)
    if drop:
        # on the Markov path the dropped vertices are drawn, then left out
        gone = {1, 2} if g.vertex_count > 2 else {g.vertex_count - 1}
        pts = [p for p in pts if g.vertex_of(p) not in gone]
    ordered, position = _factor_order_points(g, pts)
    # only the 601-point bouquet mesh is large enough for the Markov factor
    markov = len(set(position)) > _DENSE_SAMPLE_MAX
    assert markov == (name == "bouquet-40")
    factor = np.linalg.cholesky(full_cov(g, m, ordered).matrix)
    if markov:
        # the Markov factor draws the vertices from the vertex precision's
        # factor T, with T T' = S_V: the dense Cholesky factor with its
        # vertex block L_V turned by the orthogonal L_V^{-1} T
        nv = g.vertex_count
        turn = scipy.linalg.solve_triangular(factor[:nv, :nv], _vertex_draw(g, m, np.eye(nv)),
                                             lower=True)
        factor[:, :nv] = factor[:, :nv] @ turn
    ref = (replicate_normals(5, 7, len(ordered)) @ factor.T)[:, position]
    got = sample(g, m, pts, 7, 5)
    assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))


@pytest.mark.parametrize("name", ["figure-eight", "star", "bouquet-40"])
def test_sample_without_vertices_keeps_dense_stream(name):
    # no vertex among the points and none repeated: up to the dense
    # threshold the factor is the dense Cholesky in node order, the points
    # by (edge, t), and the columns go back to the input order
    g = _ORACLE_GRAPHS[name]()
    rng = np.random.default_rng(4)
    m = FieldModel(kappa=1.3, tau=0.8)
    for k in (25, _DENSE_SAMPLE_MAX):
        pts = [random_point(g, rng) for _ in range(k)]
        order = sorted(range(k), key=lambda i: (g.edge_index(pts[i].edge), pts[i].t))
        chol, _ = safe_cholesky(full_cov(g, m, [pts[i] for i in order]).matrix)
        ref = (replicate_normals(17, 40, k) @ chol.T)[:, np.argsort(order)]
        assert sample(g, m, pts, 40, 17).tobytes() == ref.tobytes()


def _threshold_request(g, k):
    """k distinct locations on the unit star: its centre through two of its
    edges, then k - 1 interior points spread over the edges, the first of
    them repeated last."""
    per_edge = -(-(k - 1) // g.edge_count)
    inner = [g.point(e.id, e.length * (i + 1) / (per_edge + 1))
             for i in range(per_edge) for e in g.edges][: k - 1]
    return [g.point("e0", 1.0), g.point("e1", 1.0)] + inner + inner[:1]


@pytest.mark.parametrize("extra", [0, 1], ids=["at-threshold", "above-threshold"])
def test_sample_at_the_dense_threshold(unit_star, extra, monkeypatch, caplog):
    m = FieldModel()
    k = _DENSE_SAMPLE_MAX + extra
    pts = _threshold_request(unit_star, k)
    calls = []

    def spy(*args):
        calls.append(len(args[2]))
        return full_cov(*args)

    monkeypatch.setattr(gf.exact, "full_cov", spy)
    n = 20000
    with caplog.at_level(logging.DEBUG, logger="graphfields.exact"):
        draws = sample(unit_star, m, pts, n, seed=7)
    # the dense route factors C at the distinct points and touches the
    # centre and the three leaves; the Markov route forms no covariance and
    # draws every vertex from the vertex precision's factor
    assert calls == ([] if extra else [k])
    (record,) = caplog.records
    if extra:
        info = vertex_field_cov(unit_star, m).info
        want = (f"sample: Markov route, {k} distinct points, 4 vertices drawn, "
                f"{info['factor']} factor, min pivot {info['min_pivot']:.3g}")
    else:
        want = f"sample: dense route, {k} distinct points, 4 touched vertices, jitter 0"
    assert record.getMessage() == want
    assert draws[:, 1].tobytes() == draws[:, 0].tobytes()
    assert draws[:, -1].tobytes() == draws[:, 2].tobytes()
    # both addresses of the centre, the point next to it, the first point
    # on each edge by the leaves, the next one on e0, and the repeat
    cols = [0, 1, len(pts) - 2, 2, 3, 4, 5, len(pts) - 1]
    cov = full_cov(unit_star, m, [pts[i] for i in cols]).matrix
    emp = draws[:, cols].T @ draws[:, cols] / n
    se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov**2) / n)
    assert np.max(np.abs(emp - cov) / se) <= 4.0


def test_sample_memory_is_far_below_one_dense_matrix():
    import tracemalloc

    g = gf.one_sum([gf.circle(1.4, 4) for _ in range(100)], [(0, 0)] * 99)
    m = FieldModel(kappa=2.0)
    pts = gf.mesh(g, 0.1)
    assert len(pts) == 1501
    sample(g, m, pts, 10, 1)  # the cached layout at no points is built here
    tracemalloc.start()
    try:
        sample(g, m, pts, 10, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(pts) ** 2 * 8 / 4


@pytest.mark.parametrize("markov", [False, True], ids=["dense", "markov"])
def test_sample_memory_is_output_and_one_block(markov):
    # the draws are filled in place block by block: the sampler holds its
    # output and one block of normals, not the whole run's normals and
    # their copies (2.6 to 3.0 times the output before)
    import tracemalloc

    if markov:
        g, n = _ORACLE_GRAPHS["bouquet-40"](), 1000
        pts = gf.mesh(g, 0.1)  # 601 distinct points: the Markov path
    else:
        g, n = _ORACLE_GRAPHS["figure-eight"](), 50000
        rng = np.random.default_rng(6)
        inner = [random_point(g, rng) for _ in range(8)]
        pts = inner + inner[:4]  # a repeated point widens the output, not the normals
    m = FieldModel(kappa=1.3)
    sample(g, m, pts, 1, 1)  # the cached layout and factor are built here
    tracemalloc.start()
    try:
        draws = sample(g, m, pts, n, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert draws.nbytes > 4 * exact._SAMPLE_BLOCK_BYTES  # several blocks
    assert peak < draws.nbytes + exact._SAMPLE_BLOCK_BYTES + (1 << 20)


def _vertex_draw(g, m, z):
    """Draws of the vertex values from the normals z, one column per draw,
    through the vertex precision's factor: L'^{-1} D^{-1/2} z in grounded
    coordinates, then x_v = z_0 + z_base(v) + z_v."""
    layout, _, factor = exact._vertex_factor(g, m)
    x = factor.draw(z)
    based = np.flatnonzero(layout.base)
    x[based] += x[layout.base[based]]
    x[1:] += x[0]
    return x


def _vertex_draw_error(g, m):
    """max |X X' - S_V| / max |S_V| for the vertex draw X of the identity."""
    x = _vertex_draw(g, m, np.eye(g.vertex_count))
    sv = vertex_field_cov(g, m).matrix
    return np.max(np.abs(x @ x.T - sv)) / np.max(np.abs(sv))


@pytest.mark.parametrize("kappa", [1e-4, 1e-2, 1.0, 1e2])
@pytest.mark.parametrize("name, method", [
    ("figure-eight", "dense Cholesky"),
    ("bouquet-40", "dense Cholesky"),
    ("bouquet-100", "SuperLU"),
])
def test_vertex_draw_has_the_vertex_covariance(name, method, kappa):
    g = (gf.one_sum([gf.circle(1.4, 4) for _ in range(100)], [(0, 0)] * 99)
         if name == "bouquet-100" else _ORACLE_GRAPHS[name]())
    m = FieldModel(kappa=kappa, tau=0.8)
    assert vertex_field_cov(g, m).info["factor"] == method
    assert _vertex_draw_error(g, m) <= 1e-13


@pytest.mark.parametrize("short", [1e-8, 1e-12, 1e-20])
@pytest.mark.parametrize("shape", SHORT_EDGE_SHAPES)
def test_vertex_draw_has_the_vertex_covariance_across_short_edges(shape, short):
    # the short edges' vertices share a base, which the draw maps back
    assert _vertex_draw_error(short_edge_graph(shape, short), FieldModel(kappa=1.0, tau=0.7)) <= 1e-13


def test_vertex_draw_has_the_vertex_covariance_on_a_grid():
    # 3.3e-11 here: ``vertex_field_cov`` refines the root's entry, which
    # the factor alone keeps to about that (``_vertex_cov``); a draw does
    # not need it
    assert _vertex_draw_error(grid(30), FieldModel(kappa=1.0)) <= 1e-10


@pytest.mark.parametrize("n", [200, 20000])
def test_markov_walk_keeps_the_bytes_of_a_row_major_walk(fig8, n, monkeypatch):
    # every vertex is among the points, so the draws' first columns are the
    # vertex values the walk starts from
    monkeypatch.setattr(gf.exact, "_DENSE_SAMPLE_MAX", 0)
    m = FieldModel(kappa=1.3, tau=0.8)
    rng = np.random.default_rng(9)
    inner = [random_point(fig8, rng) for _ in range(60)]
    nv = fig8.vertex_count
    pts = [fig8.vertex_point(w) for w in range(nv)] + inner + inner[:5]
    got = sample(fig8, m, pts, n, 21)
    order = sorted(range(len(inner)), key=lambda i: (fig8.edge_index(inner[i].edge), inner[i].t))
    j = np.array([fig8.edge_index(inner[i].edge) for i in order])
    t = np.array([inner[i].t for i in order])
    ec = exact._edge_constants(fig8, m)
    kt, length, scale = ec.kt[j], ec.length[j], ec.scale[j]
    starts = np.concatenate([[True], j[1:] != j[:-1]])
    prev = np.where(starts, ec.u[j], nv + np.arange(len(j)) - 1)
    gap = t - np.where(starts, 0.0, np.concatenate([[0.0], t[:-1]]))
    rest = length - t + gap
    dev = np.sqrt(exact._dirichlet_green(kt, rest, scale, gap, gap))
    draws = replicate_normals(21, n, nv + len(inner))
    draws[:, :nv] = got[:, :nv]
    field_walk_rows(draws, nv, prev, ec.v[j], *exact._basis(kt, rest, gap), dev)
    place = np.argsort(order)
    position = list(range(nv)) + [nv + place[i] for i in range(len(inner))] + [
        nv + place[i] for i in range(5)]
    assert draws[:, position].tobytes() == got.tobytes()


def test_markov_sample_on_a_large_grid_needs_no_vertex_table():
    # 500 points on a fresh 100 x 100 grid: the Markov path builds no entry
    # of the vertex table, whose dense S_V alone would be 763 MiB
    import tracemalloc

    g = grid(100)
    rng = np.random.default_rng(3)
    pts = [random_point(g, rng) for _ in range(500)]
    misses = _vertex_cov.cache_info().misses
    tracemalloc.start()
    try:
        draws = sample(g, FieldModel(kappa=1.0), pts, 200, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert draws.shape == (200, 500)
    assert _vertex_cov.cache_info().misses == misses
    assert peak < 500 * 2**20


def test_full_cov_memory_is_one_dense_matrix_and_a_little():
    import tracemalloc

    g = gf.one_sum([gf.circle(1.4, 4) for _ in range(100)], [(0, 0)] * 99)
    m = FieldModel(kappa=2.0)
    pts = gf.mesh(g, 0.1)
    assert len(pts) == 1501
    full_cov(g, m, pts[:10])  # the cached vertex covariance is built here
    tracemalloc.start()
    try:
        full_cov(g, m, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.6 * len(pts) ** 2 * 8


# --- Markov checks ------------------------------------------------------------


def test_markov_check_star_center_separates(unit_star):
    m = FieldModel()
    pts_a = [unit_star.point("e0", t) for t in (0.2, 0.45, 0.7)]
    pts_b = [unit_star.point("e1", t) for t in (0.3, 0.55, 0.8)]
    center = [unit_star.point("e0", 1.0)]
    cov = full_cov(unit_star, m, pts_a + pts_b + center)
    value = markov_check(cov, range(3), range(3, 6), [6])
    assert value <= 1e-10
    # dense-inverse oracle agrees
    oracle = np.max(
        np.abs(schur_conditional(cov.matrix, list(range(3)), list(range(3, 6)), [6]))
    )
    assert value == pytest.approx(oracle, abs=1e-12)


def test_markov_check_tadpole_join_separates():
    g = gf.tadpole(2.0, 1.0)
    m = FieldModel(kappa=1.2)
    pendant = g.edges[-1]
    cycle_edge = g.edges[1]
    pts = (
        [g.point(pendant.id, t) for t in (0.4, 0.8)]
        + [g.point(cycle_edge.id, t) for t in (0.1, 0.3)]
        + [g.point(pendant.id, 0.0)]  # join vertex
    )
    cov = full_cov(g, m, pts)
    assert markov_check(cov, [0, 1], [2, 3], [4]) <= 1e-10


def test_markov_check_multi_edge_needs_both_vertices(multi_graph):
    m = FieldModel()
    pts = (
        [multi_graph.point("short", t) for t in (0.3, 0.6)]
        + [multi_graph.point("long", t) for t in (1.2, 2.1)]
        + [multi_graph.point("short", 0.0), multi_graph.point("short", 1.0)]
    )
    cov = full_cov(multi_graph, m, pts)
    assert markov_check(cov, [0, 1], [2, 3], [4, 5]) <= 1e-10


def test_markov_check_without_full_separator_is_positive(unit_star):
    # conditioning on an interior point of a third leg separates nothing
    m = FieldModel()
    pts = [
        unit_star.point("e0", 0.4),
        unit_star.point("e1", 0.4),
        unit_star.point("e2", 0.4),
    ]
    cov = full_cov(unit_star, m, pts)
    assert markov_check(cov, [0], [1], [2]) > 1e-3


def test_markov_check_validates_sets(unit_star):
    cov = full_cov(
        unit_star, FieldModel(), [unit_star.point("e0", t) for t in (0.2, 0.5, 0.8)]
    )
    with pytest.raises(ValidationError):
        markov_check(cov, [0], [0], [1])
    with pytest.raises(ValidationError):
        markov_check(cov, [0], [1], [])


def test_markov_check_rejects_out_of_range_indices(unit_star):
    # -1 would alias index 2 and slip past the disjointness check
    cov = full_cov(
        unit_star, FieldModel(), [unit_star.point(e, 0.3) for e in ("e0", "e1", "e2")]
    )
    for bad in ([-1], [3], [1.0]):
        with pytest.raises(ValidationError):
            markov_check(cov, [0], [2], bad)
    expected = schur_conditional(cov.matrix, [0], [2], [1])[0, 0]
    assert markov_check(cov, [0], [2], [1]) == pytest.approx(abs(expected), rel=1e-12)
    assert markov_check(cov, [0], [2], [1]) == pytest.approx(0.144, abs=5e-4)


def test_markov_check_singular_separator(unit_star):
    p = unit_star.point("e0", 0.5)
    cov = full_cov(
        unit_star, FieldModel(), [unit_star.point("e1", 0.2), unit_star.point("e2", 0.3), p, p]
    )
    with pytest.raises(ConditioningError):
        markov_check(cov, [0], [1], [2, 3])


# --- vertex flux residual ------------------------------------------------------


def _residual_at(g, m, h, vertex, probe):
    pts = gf.mesh(g, h)
    if all(abs(p.t - probe.t) > 1e-12 or p.edge != probe.edge for p in pts):
        pts.append(probe)
    cov = full_cov(g, m, pts)
    return kirchhoff_residual(g, m, cov, vertex, probe)


def test_kirchhoff_residual_second_order_rate(unit_star):
    m = FieldModel()
    probe = unit_star.point("e2", 0.5)
    hs = np.array([1e-2, 5e-3, 2.5e-3])
    res = np.array([_residual_at(unit_star, m, h, 3, probe) for h in hs])
    assert np.all(np.diff(res) < 0.0)
    slope = np.polyfit(np.log(hs), np.log(res), 1)[0]
    assert slope >= 1.7
    assert res[-1] <= 1e-4


def test_kirchhoff_residual_degree_two_vertex():
    g = gf.one_sum([gf.interval(1.0), gf.interval(1.0)], [(1, 0)])
    m = FieldModel(kappa=1.5)
    probe = g.point("p0.e0", 0.25)
    res = _residual_at(g, m, 4e-3, 1, probe)
    assert res <= 1e-4


def test_kirchhoff_residual_weighted_by_conductivity():
    # with per-edge a the natural vertex condition carries the a weights
    g = gf.one_sum([gf.interval(1.0), gf.interval(1.0)], [(1, 0)])
    m = FieldModel(a={"p0.e0": 1.0, "p1.e0": 4.0})
    probe = g.point("p0.e0", 0.25)
    res = _residual_at(g, m, 4e-3, 1, probe)
    assert res <= 1e-4


def test_kirchhoff_residual_probe_at_vertex_rejected(unit_star):
    m = FieldModel()
    pts = gf.mesh(unit_star, 0.1)
    cov = full_cov(unit_star, m, pts)
    with pytest.raises(PointError):
        kirchhoff_residual(unit_star, m, cov, 3, unit_star.point("e0", 1.0))


def test_kirchhoff_residual_needs_fine_mesh(unit_star):
    m = FieldModel()
    pts = gf.mesh(unit_star, 1.0) + [unit_star.point("e2", 0.5)]
    cov = full_cov(unit_star, m, pts)
    with pytest.raises(MeshResolutionError):
        kirchhoff_residual(unit_star, m, cov, 3, unit_star.point("e2", 0.5))


# --- ownership of the cut graph ---------------------------------------------

#: the cut graph's rows and everything that reads them live in ``exact``
_CUT_GRAPH_NAMES = {"_grounded_rows", "_gram", "_DENSE_SAMPLE_MAX",
                    "_layout", "_Layout", "_layout_of", "_piece_values", "_gram_values",
                    "_scaled_form", "_SCALED_MAX"}


def _names(tree):
    """Every identifier, attribute and imported name in a module's AST."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_exact_alone_reads_the_cut_graph():
    src = Path(gf.__file__).parent
    trees = {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(src.glob("*.py"))}
    found = [f"{mod}: {name}" for mod, tree in trees.items() if mod != "exact"
             for name in _names(tree) if name in _CUT_GRAPH_NAMES]
    assert not found
    defined = {t.id for n in trees["exact"].body if isinstance(n, ast.Assign) for t in n.targets}
    defined |= {n.name for n in trees["exact"].body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    assert _CUT_GRAPH_NAMES <= defined
    # the sampler draws from the vertex precision's factor, never from S_V
    [sampler] = [n for n in trees["exact"].body
                 if isinstance(n, ast.FunctionDef) and n.name == "sample"]
    assert "_vertex_cov" not in set(_names(sampler))
    # inference imports one name from sampling, the public dense factor of
    # C_oo + noise I, and reads one private name of exact, its precision route
    inference = list(ast.walk(trees["inference"]))
    assert [a.name for n in inference if isinstance(n, ast.ImportFrom)
            and n.module == "sampling" for a in n.names] == ["safe_cholesky"]
    private = {(n.value.id, n.attr) for n in inference if isinstance(n, ast.Attribute)
               and isinstance(n.value, ast.Name) and n.value.id in trees
               and n.attr.startswith("_")}
    assert private == {("exact", "_precision_loglik")}
    # and it has one route per source, with no fallback: nothing is caught,
    # and no floating-point warning is silenced
    assert not [n for n in inference if isinstance(n, ast.Try)]
    assert "errstate" not in set(_names(trees["inference"]))


def test_the_cut_graph_has_one_numbering_and_one_grounding_map():
    tree = ast.parse(Path(exact.__file__).read_text(), exact.__file__)
    functions = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
    # the grounding map's bases are read where they are built (_layout),
    # where rows are laid out in them and where draws and covariances go
    # back through them, and nowhere else
    assert sorted(f.name for f in functions if "base" in set(_names(f))) == [
        "_grounded_rows", "_layout", "_to_nodes"]
    # one numbering: the layout keeps no relabelling of its coordinates
    [fields] = [[n.target.id for n in c.body if isinstance(n, ast.AnnAssign)]
                for c in tree.body if isinstance(c, ast.ClassDef) and c.name == "_Layout"]
    assert "base" in fields and "label" not in fields
    assert "label" not in set(_names(tree))
    # and B's rows and A's rows are both laid out by _grounded_rows
    [layout] = [f for f in functions if f.name == "_layout"]
    laid_out = {n.targets[0].elts[0].id for n in ast.walk(layout)
                if isinstance(n, ast.Assign) and isinstance(n.value, ast.Call)
                and "_grounded_rows" in set(_names(n.value.func))}
    assert laid_out == {"b_cols", "a_cols"}


def test_metrics_reads_the_cut_graph_through_one_name():
    src = Path(gf.__file__).parent
    trees = {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(src.glob("*.py"))}
    # one pattern step per layout: outside sampling, only exact's layout
    # analyses a pattern
    assert [mod for mod, tree in trees.items() if mod != "sampling"
            and "_spd_pattern" in set(_names(tree))] == ["exact"]
    assert [n.name for n in trees["exact"].body if isinstance(n, ast.FunctionDef)
            and "_spd_pattern" in set(_names(n))] == ["_layout"]
    # and one analysis per layout: a single call, which H and M share
    assert len([n for tree in trees.values() for n in ast.walk(tree) if isinstance(n, ast.Call)
                and "_spd_pattern" in set(_names(n.func))]) == 1
    # the metric takes its Green's function from exact, and nothing private
    # from sampling
    metrics = list(ast.walk(trees["metrics"]))
    private = {(n.module, a.name) for n in metrics if isinstance(n, ast.ImportFrom)
               for a in n.names if a.name.startswith("_")}
    private |= {(n.value.id, n.attr) for n in metrics if isinstance(n, ast.Attribute)
                and isinstance(n.value, ast.Name) and n.attr.startswith("_")}
    assert {name for mod, name in private if mod == "exact"} == {"_conductance_green"}
    assert not {name for mod, name in private if mod == "sampling"}
