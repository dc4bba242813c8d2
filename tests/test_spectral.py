import dataclasses
import gc
import logging
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

import graphfields as gf
from graphfields import (
    Edge,
    FieldModel,
    MetricGraph,
    UnsupportedAlphaError,
    ValidationError,
)
from graphfields.exact import full_cov, kirchhoff_residual, markov_check
from graphfields.graph import CACHE_SIZE, _mesh
from graphfields.kernels import circle_cov
from graphfields.sampling import replicate_normals
from graphfields import spectral
from graphfields.spectral import (
    _coefficients,
    _eigenbasis,
    assemble,
    kl_sample,
    spectral_cov,
)


def test_interval_neumann_spectrum_convergence():
    g = gf.interval(1.0)
    m = FieldModel()
    analytic = np.array([1.0 + (k * np.pi) ** 2 for k in range(5)])
    errs = []
    for h in (8e-3, 4e-3):
        op = assemble(g, m, h, n_modes=5)
        errs.append(np.max(np.abs(op.eigenvalues - analytic) / analytic))
    assert errs[1] < errs[0]
    assert errs[1] <= 1e-3


def test_circle_spectrum_double_multiplicity(circle24):
    m = FieldModel()
    op = assemble(circle24, m, 5e-3, n_modes=5)
    analytic = np.array([1.0, 1 + np.pi**2, 1 + np.pi**2, 1 + 4 * np.pi**2,
                         1 + 4 * np.pi**2])
    np.testing.assert_allclose(op.eigenvalues, analytic, rtol=1e-3)
    assert op.eigenvalues[1] == pytest.approx(op.eigenvalues[2], rel=1e-6)


def test_constant_function_is_ground_mode(unit_star):
    kappa = 1.7
    op = assemble(unit_star, FieldModel(kappa=kappa), 0.02)
    assert op.eigenvalues[0] == pytest.approx(kappa**2, rel=1e-10)
    e0 = op.eigenvectors[:, 0]
    assert np.max(np.abs(e0 - e0[0])) <= 1e-8 * abs(e0[0])


def test_lowest_eigenvalue_dominated_by_min_kappa(fig8):
    kappa = {e.id: [2.0, 0.5, 1.0][j % 3] for j, e in enumerate(fig8.edges)}
    op = assemble(fig8, FieldModel(kappa=kappa), 0.05)
    assert op.eigenvalues[0] >= 0.25 - 1e-8
    assert np.all(np.diff(op.eigenvalues) >= -1e-12)


def test_eigenvectors_mass_orthonormal(unit_star):
    op = assemble(unit_star, FieldModel(), 0.05)
    gram = op.eigenvectors.T @ op.mass @ op.eigenvectors
    assert np.max(np.abs(gram - np.eye(op.n_modes))) <= 1e-10


def test_spectral_cov_circle_approaches_closed_form(circle24):
    from graphfields.metrics import geodesic_distance

    m = FieldModel()
    op = assemble(circle24, m, 0.01)
    cov = spectral_cov(op, 1.0, 1.0)
    worst = 0.0
    for i in range(0, op.n_dof, 7):
        for j in range(0, op.n_dof, 7):
            d = geodesic_distance(circle24, op.node_points[i], op.node_points[j])
            worst = max(worst, abs(cov.matrix[i, j] - circle_cov(d, 1, 1, 2.0)))
    assert worst <= 1e-4


def test_spectral_cov_converges_to_exact(unit_star):
    m = FieldModel()
    errs = []
    for h in (4e-2, 2e-2):
        op = assemble(unit_star, m, h)
        spec = spectral_cov(op, 1.0, 1.0)
        exact = full_cov(unit_star, m, op.node_points)
        errs.append(np.max(np.abs(spec.matrix - exact.matrix)))
    assert errs[1] < errs[0]


def test_spectral_cov_refinement_invariant():
    # three halvings decrease the error monotonically; full spectrum at the
    # finest level sits well inside 1e-3
    g = gf.interval(1.0)
    m = FieldModel()
    errs = []
    for h in (4e-3, 2e-3, 1e-3):
        op = assemble(g, m, h)
        spec = spectral_cov(op, 1.0, 1.0)
        exact = full_cov(g, m, op.node_points)
        errs.append(np.max(np.abs(spec.matrix - exact.matrix)))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 1e-3


def test_spectral_cov_node_subset(unit_star):
    m = FieldModel()
    op = assemble(unit_star, m, 0.1)
    nodes = [0, 3, op.n_dof - 1]
    sub = spectral_cov(op, 1.0, 1.0, nodes=nodes)
    whole = spectral_cov(op, 1.0, 1.0)
    np.testing.assert_allclose(sub.matrix, whole.matrix[np.ix_(nodes, nodes)])
    assert sub.points == tuple(op.node_points[i] for i in nodes)


def test_spectral_cov_rejects_out_of_range_nodes(unit_star):
    # -1 would silently select the last node, 13 raise a bare IndexError
    op = assemble(unit_star, FieldModel(), 0.25)
    assert op.n_dof == 13
    for bad in ([-1], [13], [0, 2.0]):
        with pytest.raises(ValidationError):
            spectral_cov(op, 1.0, 1.0, nodes=bad)
    assert spectral_cov(op, 1.0, 1.0, nodes=[12]).points == (op.node_points[12],)


def test_spectral_cov_truncation_and_tail_report(unit_star):
    op = assemble(unit_star, FieldModel(), 0.1)
    cov = spectral_cov(op, 0.8, 1.0, k=10)
    assert cov.info["truncation"] == 10
    expected_tail = float(op.eigenvalues[9] ** -(0.8 - 0.5))
    assert cov.info["tail_estimate"] == pytest.approx(expected_tail)
    for bad in (op.n_modes + 1, 0, 2.5, True):
        with pytest.raises(ValidationError):
            spectral_cov(op, 1.0, 1.0, k=bad)


def test_spectral_cov_is_psd_by_construction(fig8):
    op = assemble(fig8, FieldModel(), 0.05)
    cov = spectral_cov(op, 0.75, 1.3)
    assert np.linalg.eigvalsh(cov.matrix)[0] >= -1e-12 * np.trace(cov.matrix)


@pytest.mark.parametrize("nodes", [None, list(range(0, 50, 3))])
def test_spectral_cov_symmetric_product(fig8, nodes):
    op = assemble(fig8, FieldModel(kappa=1.5), 0.05)
    mat = spectral_cov(op, 0.75, 1.3, nodes=nodes).matrix
    assert np.array_equal(mat, mat.T)
    vecs = op.eigenvectors if nodes is None else op.eigenvectors[nodes]
    general = (vecs * op.eigenvalues ** -0.75) @ vecs.T / 1.3**2
    assert np.max(np.abs(mat - general)) <= 1e-13 * np.max(np.abs(general))


@pytest.mark.parametrize("alpha", [0.75, 1.0, 2.0])
def test_product_route_scales_its_gather_in_place_with_the_same_bytes(fig8, alpha):
    op = assemble(fig8, FieldModel(kappa=1.5), 0.05)
    op._cov_memo.clear()  # no whole-mesh memo: half the nodes take the product route
    rows = list(range(0, op.n_dof, 2)) + [3, 3]
    k = op.eigenvalues.size
    # the expression the gather scaled in place must match, byte for byte
    basis = op.eigenvectors[rows, :k] * (op.eigenvalues[:k] ** (-alpha / 2.0) / 1.3)
    want = basis @ basis.T
    first = [rows.index(i) for i in rows]
    want = want.take(first, 0).take(first, 1)
    assert spectral_cov(op, alpha, 1.3, nodes=rows).matrix.tobytes() == want.tobytes()
    whole = op.eigenvectors * (op.eigenvalues ** (-alpha / 2.0) / 1.3)
    assert spectral._scaled_basis(op, alpha, 1.3, k).tobytes() == whole.tobytes()
    assert not op.eigenvectors.flags.writeable


def test_variance_nonincreasing_in_alpha_when_spectrum_above_one():
    g = gf.interval(1.0)
    op = assemble(g, FieldModel(kappa=1.2), 0.05)
    assert op.eigenvalues[0] >= 1.0
    mid = op.n_dof // 2
    variances = [
        spectral_cov(op, alpha, 1.0, nodes=[mid]).matrix[0, 0]
        for alpha in (0.8, 1.0, 1.5, 2.0)
    ]
    assert np.all(np.diff(variances) <= 1e-15)


def test_spectral_cov_rejects_small_alpha(unit_star):
    op = assemble(unit_star, FieldModel(), 0.2)
    with pytest.raises(UnsupportedAlphaError):
        spectral_cov(op, 0.5, 1.0)


def test_kl_sample_determinism(unit_star):
    op = assemble(unit_star, FieldModel(), 0.2)
    a = kl_sample(op, 1.0, 1.0, 6, seed=5)
    b = kl_sample(op, 1.0, 1.0, 6, seed=5)
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(kl_sample(op, 1.0, 1.0, 3, seed=5), a[:3])


@pytest.mark.parametrize("tau", [0.0, -1.0, float("nan"), float("inf")])
def test_nonpositive_tau_rejected(unit_star, tau):
    op = assemble(unit_star, FieldModel(), 0.2)
    with pytest.raises(ValidationError):
        spectral_cov(op, 1.0, tau)
    with pytest.raises(ValidationError):
        kl_sample(op, 1.0, tau, 3, seed=5)


def test_kl_sample_rejects_bad_counts(unit_star):
    op = assemble(unit_star, FieldModel(), 0.2)
    for n in (-1, 2.0, True):
        with pytest.raises(ValidationError):
            kl_sample(op, 1.0, 1.0, n, seed=5)
    assert kl_sample(op, 1.0, 1.0, np.int64(2), seed=5).shape == (2, op.n_dof)


@pytest.mark.parametrize("n", [0, 3])
def test_kl_sample_checks_the_seed_as_a_count(unit_star, n):
    op = assemble(unit_star, FieldModel(), 0.2)
    for seed in (-1, 1.5, True, None, "a"):
        with pytest.raises(ValidationError, match="seed"):
            kl_sample(op, 1.0, 1.0, n, seed)
    want = kl_sample(op, 1.0, 1.0, n, 7)
    np.testing.assert_array_equal(kl_sample(op, 1.0, 1.0, n, np.int64(7)), want)


def test_spectral_cov_rejects_infinite_alpha(unit_star):
    op = assemble(unit_star, FieldModel(), 0.2)
    with pytest.raises(UnsupportedAlphaError):
        spectral_cov(op, float("inf"), 1.0)


def test_kl_sample_matches_unscaled_then_divided_form(fig8):
    op = assemble(fig8, FieldModel(kappa=1.5), 0.05)
    xi = replicate_normals(9, 40, op.n_modes)
    ref = xi @ (op.eigenvectors * op.eigenvalues ** -0.375).T
    np.testing.assert_array_equal(kl_sample(op, 0.75, 1.0, 40, seed=9), ref / 1.0)
    draws = kl_sample(op, 0.75, 0.7, 40, seed=9)
    assert np.max(np.abs(draws - ref / 0.7)) <= 1e-14 * np.max(np.abs(ref / 0.7))


def test_kl_sample_prefix_at_scale():
    # the normals of a shorter run are a byte prefix of a longer run's; the
    # draws agree to rounding only, since a product's rounding can depend
    # on its number of rows (and a long run is formed in row blocks)
    op = assemble(gf.figure_eight(1.0, 2.0), FieldModel(kappa=1.5), 0.0025)
    k = op.n_modes
    long_xi = replicate_normals(5, 3000, k)
    long = kl_sample(op, 0.75, 1.0, 3000, seed=5)
    scale = np.max(np.abs(long))
    ref = long_xi @ (op.eigenvectors * op.eigenvalues ** -0.375).T
    assert np.max(np.abs(long - ref)) <= 1e-14 * scale
    for n in (1, 3, 40, 100, 256, 300, 1000):
        np.testing.assert_array_equal(replicate_normals(5, n, k), long_xi[:n])
        short = kl_sample(op, 0.75, 1.0, n, seed=5)
        assert np.max(np.abs(short - long[:n])) <= 1e-13 * scale


def _peak_bytes(call):
    """Peak traced allocation while ``call()`` runs (its result is dropped)."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_assemble_at_a_cached_basis_forms_no_dense_matrix():
    g = gf.figure_eight(1.0, 2.0)
    op = assemble(g, FieldModel(kappa=1.5, alpha=0.75), 0.0025)  # basis cached here
    assert op.n_dof == 1199
    peak = _peak_bytes(lambda: assemble(g, FieldModel(kappa=2.5, alpha=0.75), 0.0025))
    assert peak < op.n_dof**2 * 8 / 8


def test_kl_sample_memory_is_output_basis_and_one_block():
    op = assemble(gf.figure_eight(1.0, 2.0), FieldModel(kappa=1.5), 0.0025)
    n = 3000
    kl_sample(op, 0.75, 1.0, 1, seed=5)
    peak = _peak_bytes(lambda: kl_sample(op, 0.75, 1.0, n, seed=5))
    draws, basis = n * op.n_dof * 8, op.n_dof * op.n_modes * 8
    assert n * op.n_modes * 8 > spectral._KL_BLOCK_BYTES  # more than one block
    assert peak < 1.1 * (draws + basis + spectral._KL_BLOCK_BYTES)


def _coo_pencil(g, m, h):
    """Dense mass and stiffness from one COO build over the element list,
    as the element matrices [[diag, off], [off, diag]] of each element."""
    mesh = _mesh(g, h)
    coeffs, kappa2_min = _coefficients(g, m)
    a, r = (np.repeat(col, mesh.nel) for col in np.array(coeffs).T)
    react = (r + kappa2_min) * mesh.he
    rows = np.concatenate((mesh.i0, mesh.i1, mesh.i0, mesh.i1))
    cols = np.concatenate((mesh.i0, mesh.i1, mesh.i1, mesh.i0))

    def build(diag, off):
        vals = np.concatenate((diag, diag, off, off))
        shape = (mesh.n_dof, mesh.n_dof)
        return scipy.sparse.coo_array((vals, (rows, cols)), shape=shape).toarray()

    return (build(mesh.he / 3.0, mesh.he / 6.0),
            build(a / mesh.he + react / 3.0, -a / mesh.he + react / 6.0))


@pytest.mark.parametrize("per_edge", [False, True])
def test_dense_pencil_is_built_on_first_read(fig8, per_edge):
    m = FieldModel(kappa=1.5)
    if per_edge:
        m = FieldModel(kappa={e.id: 0.5 + 0.3 * j for j, e in enumerate(fig8.edges)},
                       a={e.id: 0.4 + 0.25 * j for j, e in enumerate(fig8.edges)})
    # an empty slot of its own, so the dense mass is not there yet
    op = dataclasses.replace(assemble(fig8, m, 0.01), _cov_memo={})
    dense = op.n_dof**2 * 8
    for name, ref in zip(("mass", "stiffness"), _coo_pencil(fig8, m, 0.01)):
        assert _peak_bytes(lambda: getattr(op, name)) >= dense
        assert _peak_bytes(lambda: getattr(op, name)) < dense / 8
        mat = getattr(op, name)
        assert mat is getattr(op, name)
        assert mat.tobytes() == ref.tobytes()
        with pytest.raises(ValueError):
            mat[0, 0] = 1.0


def test_assemble_builds_no_matrix_and_stiffness_builds_once(fig8, monkeypatch):
    assemble(fig8, FieldModel(kappa=1.5), 0.01)  # the basis is cached here
    calls = []
    build = spectral._p1_matrix
    monkeypatch.setattr(spectral, "_p1_matrix",
                        lambda *args: calls.append(args) or build(*args))
    ops = [assemble(fig8, FieldModel(kappa=kappa, tau=2.0), 0.01)
           for kappa in (0.5, 1.5, 3.0)]
    assert not calls
    stiffness = ops[-1].stiffness
    assert len(calls) == 1
    assert ops[-1].stiffness is stiffness
    assert len(calls) == 1


@pytest.mark.parametrize("n_modes", [None, 7])
@pytest.mark.parametrize("per_edge", [False, True])
def test_eigenvectors_are_c_ordered_and_read_only(fig8, n_modes, per_edge):
    m = FieldModel(kappa={e.id: 0.5 + 0.3 * j for j, e in enumerate(fig8.edges)}
                   if per_edge else 1.5)
    op = assemble(fig8, m, 0.02, n_modes=n_modes)
    vecs = op.eigenvectors
    assert vecs.shape == (op.n_dof, op.n_modes)
    assert vecs.flags.c_contiguous and not vecs.flags.writeable


def test_kl_sample_variance_matches_spectral_cov(unit_star):
    op = assemble(unit_star, FieldModel(), 0.25)
    n = 20000
    draws = kl_sample(op, 1.0, 1.0, n, seed=13)
    emp_var = np.mean(draws**2, axis=0)
    target = np.diag(spectral_cov(op, 1.0, 1.0).matrix)
    se = target * np.sqrt(2.0 / n)
    assert np.max(np.abs(emp_var - target) / se) <= 4.0


def test_fractional_alpha_breaks_markov_property(unit_star):
    m = FieldModel()
    op = assemble(unit_star, m, 0.01)
    idx_a = [op.node_index(unit_star.point("e0", t)) for t in (0.3, 0.4, 0.5)]
    idx_b = [op.node_index(unit_star.point("e1", t)) for t in (0.3, 0.4, 0.5)]
    idx_s = [op.vertex_node(3)]
    nodes = idx_a + idx_b + idx_s
    local = {dof: i for i, dof in enumerate(nodes)}
    markov = spectral_cov(op, 1.0, 1.0, nodes=nodes)
    value_markov = markov_check(
        markov, [local[i] for i in idx_a], [local[i] for i in idx_b],
        [local[i] for i in idx_s],
    )
    assert value_markov <= 1e-10
    fractional = spectral_cov(op, 0.75, 1.0, nodes=nodes)
    value_frac = markov_check(
        fractional, [local[i] for i in idx_a], [local[i] for i in idx_b],
        [local[i] for i in idx_s],
    )
    assert value_frac >= 1e-3


def test_node_index_lookup(unit_star):
    op = assemble(unit_star, FieldModel(), 0.25)
    assert op.node_index(unit_star.point("e0", 0.0)) == 0
    assert op.node_index(unit_star.point("e1", 1.0)) == 3
    with pytest.raises(gf.PointError):
        op.node_index(unit_star.point("e0", 0.1301))
    # the tolerance is a billionth of the edge: on edges of length 1 and 3 a
    # node takes a point 5e-10 L off it and rejects one 2e-9 L off
    g = MetricGraph(2, (Edge("short", 0, 1, 1.0), Edge("long", 0, 1, 3.0)))
    op = assemble(g, FieldModel(), 0.25, n_modes=1)
    for e in g.edges:
        for node in op.nodes_on_edge(e.id)[1:-1]:
            t = op.node_points[node].t
            for sign in (-1.0, 1.0):
                assert op.node_index(g.point(e.id, t + sign * 5e-10 * e.length)) == node
                with pytest.raises(gf.PointError):
                    op.node_index(g.point(e.id, t + sign * 2e-9 * e.length))


_VERTEX_CASES = [
    (gf.star([0.6235347817303132, 1.0]), 0.1),
    (gf.star([3.894581415994375, 1.0]), 0.1),
    (gf.figure_eight(1.0, 2.0), 0.05),
    (gf.tadpole(2.0, 0.7), 0.03),
    (MetricGraph(1, (Edge("loop", 0, 0, 2.0),)), 0.1),
    (MetricGraph(2, (Edge("short", 0, 1, 1.0), Edge("long", 0, 1, 3.0))), 0.1),
]


@pytest.mark.parametrize("g, h", _VERTEX_CASES)
def test_vertex_nodes_sit_on_vertices(g, h):
    op = assemble(g, FieldModel(), h, n_modes=1)
    for v in range(g.vertex_count):
        assert op.node_points[v] == g.vertex_point(v)
        assert g.vertex_of(op.node_points[v]) == v
    for e, nodes in zip(g.edges, op.edge_nodes):
        assert op.node_index(g.point(e.id, 0.0)) == nodes[0] == e.u
        assert op.node_index(g.point(e.id, e.length)) == nodes[-1] == e.v


@pytest.mark.parametrize("g, h", _VERTEX_CASES)
def test_repeated_nodes_get_equal_rows(g, h):
    # every vertex through each of its edge ends, then a few interior nodes,
    # and last every node: the rows of one matrix product can differ in
    # rounding by position alone, and kriging tells a repeated location by
    # its equal rows. ``op`` serves each request from its whole-mesh memo;
    # ``bare`` has an empty slot, so it takes the product over the rows,
    # until the request that covers every node fills its slot
    op = assemble(g, FieldModel(), h)
    whole = spectral_cov(op, 0.8, 1.0).matrix
    bare = dataclasses.replace(op, _cov_memo={})
    ends = [
        op.node_index(g.point(g.edges[j].id, g.edges[j].length * end))
        for v in range(g.vertex_count) for j, end in g.incident(v)
    ]
    requests = [ends + list(range(g.vertex_count, g.vertex_count + extra))
                for extra in range(9)]
    for nodes in requests + [ends + list(range(op.n_dof))]:
        for source in (op, bare):
            mat = spectral_cov(source, 0.8, 1.0, nodes=nodes).matrix
            for i, node in enumerate(nodes):
                assert np.array_equal(mat[i], mat[nodes.index(node)])
            err = np.max(np.abs(mat - whole[np.ix_(nodes, nodes)]))
            assert err <= 1e-14 * np.max(whole)
    assert "cov" in bare._cov_memo


def test_kirchhoff_residual_on_spectral_cov_with_inexact_edge_length():
    # 0.6235347817303132 * 7 / 7 != 0.6235347817303132 in floating point
    g = gf.star([0.6235347817303132, 1.0])
    m = FieldModel()
    op = assemble(g, m, 0.1)
    cov = spectral_cov(op, 1.0, 1.0)
    assert np.isfinite(kirchhoff_residual(g, m, cov, 2, g.point("e1", 0.5)))


def test_node_index_round_trips_every_node():
    g = gf.figure_eight(1.0, 2.0)
    op = assemble(g, FieldModel(), 0.0025, n_modes=1)
    assert op.n_dof == 1199
    assert [op.node_index(p) for p in op.node_points] == list(range(op.n_dof))
    for e in g.edges:
        step = e.length / (len(op.nodes_on_edge(e.id)) - 1)
        off_node = (0.5 * step, e.length - 0.4 * step, -step, e.length + step)
        for t in (*off_node, float("nan")):
            with pytest.raises(gf.PointError):
                op.node_index(gf.PointOnGraph(e.id, t))


def test_assemble_rejects_bad_mesh(unit_star):
    with pytest.raises(ValidationError):
        assemble(unit_star, FieldModel(), -0.1)
    for n_modes in (0, 2.5, True):
        with pytest.raises(ValidationError):
            assemble(unit_star, FieldModel(), 0.5, n_modes=n_modes)


def _direct_cov(op, alpha):
    """Reference: a full generalized eigensolve of the operator's own pencil."""
    lam, vecs = scipy.linalg.eigh(op.stiffness, op.mass)
    return (vecs * lam ** (-alpha)) @ vecs.T


def _relerr(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


@pytest.mark.parametrize("kappa", [1e-3, 1e-2, 1.0, 1e2])
@pytest.mark.parametrize("name", ["unit_star", "fig8"])
def test_shifted_basis_matches_direct_eigensolve(name, kappa, request):
    g = request.getfixturevalue(name)
    op = assemble(g, FieldModel(kappa=kappa), 0.02)
    assert op.eigenvalues[0] == pytest.approx(kappa**2, rel=1e-12, abs=0.0)
    if kappa >= 1.0:
        # below kappa = 1 the direct solve itself loses lambda_0 to rounding
        for alpha in (0.75, 1.0):
            cov = spectral_cov(op, alpha, 1.0).matrix
            assert _relerr(cov, _direct_cov(op, alpha)) <= 1e-9


def test_shifted_basis_per_edge_kappa_and_a(fig8):
    kappa = {e.id: 0.5 + 0.3 * j for j, e in enumerate(fig8.edges)}
    a = {e.id: 0.4 + 0.25 * j for j, e in enumerate(fig8.edges)}
    op = assemble(fig8, FieldModel(kappa=kappa, a=a), 0.02)
    assert op.eigenvalues[0] > 0.25
    for alpha in (0.75, 1.0):
        cov = spectral_cov(op, alpha, 1.0).matrix
        assert _relerr(cov, _direct_cov(op, alpha)) <= 1e-9


def test_partial_spectrum_is_prefix_of_full():
    g = gf.star([1.0, 1.3, 1.7])  # simple spectrum: eigenvectors unique up to sign
    m = FieldModel(kappa=0.8, a=1.5)
    full = assemble(g, m, 0.02)
    part = assemble(g, m, 0.02, n_modes=5)
    assert part.n_modes == 5
    np.testing.assert_allclose(part.eigenvalues, full.eigenvalues[:5], rtol=1e-10)
    signs = np.sign(np.sum(part.eigenvectors * full.eigenvectors[:, :5], axis=0))
    np.testing.assert_allclose(
        part.eigenvectors * signs, full.eigenvectors[:, :5], atol=1e-8
    )


def test_constant_kappa_shares_one_basis(fig8):
    one = assemble(fig8, FieldModel(kappa=1.0, alpha=0.75), 0.02)
    two = assemble(fig8, FieldModel(kappa=2.0, tau=3.0), 0.02)
    assert two.eigenvectors is one.eigenvectors
    assert two.mass is one.mass
    # mu + 1 and mu + 4 are each rounded once
    rounding = 2 * np.spacing(two.eigenvalues[-1])
    np.testing.assert_allclose(
        two.eigenvalues - one.eigenvalues, 3.0, rtol=0, atol=rounding
    )
    scale = np.abs(two.stiffness).max()
    np.testing.assert_allclose(
        two.stiffness - one.stiffness, 3.0 * one.mass, rtol=0, atol=1e-12 * scale
    )


def test_eigenbasis_cache_is_bounded():
    g = gf.interval(1.0)
    for k in range(20):
        assemble(g, FieldModel(), 0.05 + 0.005 * k)
    for cached in (_eigenbasis, _mesh):
        info = cached.cache_info()
        assert info.maxsize == CACHE_SIZE
        assert info.currsize <= CACHE_SIZE


def test_operator_is_immutable(unit_star):
    op = assemble(unit_star, FieldModel(), 0.1)
    other = assemble(unit_star, FieldModel(kappa=2.0), 0.1)
    before = other.eigenvectors.copy()
    for name in ("mass", "stiffness", "eigenvalues", "eigenvectors"):
        arr = getattr(op, name)
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        op.h = 0.5
    np.testing.assert_array_equal(other.eigenvectors, before)


def test_operator_equality_is_identity(fig8):
    # the generated equality compared ndarray fields and raised ValueError
    op = assemble(fig8, FieldModel(kappa=1.5), 0.01)
    again = assemble(fig8, FieldModel(kappa=1.5), 0.01)
    assert again.eigenvectors is op.eigenvectors  # one cached basis
    assert op == op and op != again and not (op == again)
    assert len({op, again, op}) == 2 and hash(op) == hash(op)


def _reference_cov(vecs, lam, alpha, tau, rows=slice(None)):
    """(V[rows] lambda^-alpha) V[rows]' / tau^2, the general product."""
    return (vecs[rows] * lam ** -alpha) @ vecs[rows].T / tau**2


def _routes(caplog):
    return [r.getMessage().split(",")[0] for r in caplog.records
            if r.name == "graphfields.spectral" and "spectral_cov" in r.getMessage()]


def test_memo_gathers_match_the_product(fig8, caplog):
    op = assemble(fig8, FieldModel(kappa=1.5), 0.05)
    op._cov_memo.clear()  # the basis is shared with earlier tests
    lam, vecs = op.eigenvalues, op.eigenvectors
    perm = list(np.random.default_rng(3).permutation(op.n_dof))
    with caplog.at_level(logging.DEBUG, logger="graphfields.spectral"):
        spectral_cov(op, 0.75, 1.3)
        for nodes in (perm, perm[:40], [5, 0, 5, 17]):
            mat = spectral_cov(op, 0.75, 1.3, nodes=nodes).matrix
            assert np.array_equal(mat, mat.T)
            ref = _reference_cov(vecs, lam, 0.75, 1.3, nodes)
            assert np.max(np.abs(mat - ref)) <= 1e-14 * np.max(np.abs(ref))
    assert _routes(caplog) == ["spectral_cov: whole-mesh product"] + [
        "spectral_cov: whole-mesh memo"] * 3


def test_memo_never_serves_another_key(fig8, caplog):
    op = assemble(fig8, FieldModel(kappa=1.5), 0.05)
    op._cov_memo.clear()  # the basis is shared with earlier tests
    other_kappa = assemble(fig8, FieldModel(kappa=2.0), 0.05)
    assert other_kappa.eigenvectors is op.eigenvectors
    assert other_kappa._cov_memo is op._cov_memo
    base = (op, 0.75, 1.3, None)
    variants = [(op, 1.0, 1.3, None), (op, 0.75, 0.7, None),
                (op, 0.75, 1.3, 40), (other_kappa, 0.75, 1.3, None)]
    expected = {}
    for source, alpha, tau, k in [base] + variants:
        kk = source.n_modes if k is None else k
        lam, vecs = source.eigenvalues[:kk], source.eigenvectors[:, :kk]
        expected[id(source), alpha, tau, k] = _reference_cov(vecs, lam, alpha, tau)
    base_ref = expected[id(op), 0.75, 1.3, None]
    subset = [3, 50, 1, 44]
    with caplog.at_level(logging.DEBUG, logger="graphfields.spectral"):
        for source, alpha, tau, k in [base, *variants] + [base] + variants[::-1]:
            ref = expected[id(source), alpha, tau, k]
            if (source, alpha, tau, k) != base:
                assert np.max(np.abs(ref - base_ref)) >= 1e-3 * np.max(base_ref)
            scale = 1e-13 * np.max(np.abs(ref))
            # a subset first, while the slot holds the last request's key
            part = spectral_cov(source, alpha, tau, nodes=subset, k=k).matrix
            assert np.max(np.abs(part - ref[np.ix_(subset, subset)])) <= scale
            whole = spectral_cov(source, alpha, tau, k=k).matrix
            assert np.max(np.abs(whole - ref)) <= scale
            again = spectral_cov(source, alpha, tau, k=k).matrix
            assert np.array_equal(again, whole)
    # every key change misses: the subset takes its own product and the
    # whole-mesh request replaces the slot; only the repeat is a hit
    assert _routes(caplog) == [
        "spectral_cov: product",
        "spectral_cov: whole-mesh product",
        "spectral_cov: whole-mesh memo",
    ] * 10


def test_memo_is_not_written_through_a_result(fig8):
    op = assemble(fig8, FieldModel(kappa=1.5), 0.05)
    first = spectral_cov(op, 0.75, 1.0).matrix
    before = first.copy()
    nodes = [4, 2, 9, 4]
    part = spectral_cov(op, 0.75, 1.0, nodes=nodes).matrix
    part_before = part.copy()
    (_, _, kept) = op._cov_memo["cov"]
    assert not kept.flags.writeable
    for mat in (first, part):
        assert mat.flags.writeable
        mat[...] = np.nan
    np.testing.assert_array_equal(spectral_cov(op, 0.75, 1.0).matrix, before)
    np.testing.assert_array_equal(
        spectral_cov(op, 0.75, 1.0, nodes=nodes).matrix, part_before
    )


def test_replaced_eigenvectors_get_their_own_covariance(fig8):
    # same eigenvalues, so the same memo key: only the eigenvectors differ
    op = assemble(fig8, FieldModel(kappa=1.5), 0.05)
    kappa = {e.id: 0.5 + 0.3 * j for j, e in enumerate(fig8.edges)}
    other = assemble(fig8, FieldModel(kappa=kappa), 0.05).eigenvectors
    assert other.shape == op.eigenvectors.shape
    swapped = dataclasses.replace(op, eigenvectors=other)
    assert swapped._cov_memo is op._cov_memo
    lam = op.eigenvalues
    for source, vecs in ((op, op.eigenvectors), (swapped, other), (op, op.eigenvectors)):
        ref = _reference_cov(vecs, lam, 0.75, 1.0)
        for nodes in (None, list(range(op.n_dof))[::-1]):
            mat = spectral_cov(source, 0.75, 1.0, nodes=nodes).matrix
            rows = slice(None) if nodes is None else np.ix_(nodes, nodes)
            assert np.max(np.abs(mat - ref[rows])) <= 1e-13 * np.max(ref)


def test_memo_holds_one_matrix_per_basis():
    g = gf.interval(1.0)
    memos, kept = {}, []
    for j in range(20):
        op = assemble(g, FieldModel(kappa=0.5 + 0.1 * j), 0.02)
        spectral_cov(op, 0.75, 1.0)
        memos[id(op._cov_memo)] = op._cov_memo
        kept.append(weakref.ref(op._cov_memo["cov"][2]))
    del op
    gc.collect()
    # constant kappa: one basis entry, so one memo for all twenty operators
    assert len(memos) == 1
    for memo in memos.values():
        assert list(memo) == ["cov"]
        _, vecs, mat = memo["cov"]
        assert mat.shape == (vecs.shape[0],) * 2
    assert [ref() is not None for ref in kept] == [False] * 19 + [True]


def test_spectral_layer_logs_its_routes(unit_star, caplog):
    op = assemble(unit_star, FieldModel(), 0.25)
    op._cov_memo.clear()  # the basis is shared with earlier tests
    with caplog.at_level(logging.DEBUG, logger="graphfields.spectral"):
        spectral_cov(op, 0.8, 1.0, nodes=[0, 5])
        spectral_cov(op, 0.8, 1.0)
        spectral_cov(op, 0.8, 1.0, nodes=[5, 0, 5])
        draws = kl_sample(op, 0.8, 1.0, 7, seed=1)
    assert [r.name for r in caplog.records] == ["graphfields.spectral"] * 4
    subset, whole, memo, kl = (r.getMessage() for r in caplog.records)
    assert subset == "spectral_cov: product, 2 rows over 2 of 13 nodes, 13 modes"
    assert whole == "spectral_cov: whole-mesh product, kept, 13 rows over 13 of 13 nodes, 13 modes"
    assert memo == "spectral_cov: whole-mesh memo, 3 rows over 2 of 13 nodes, 13 modes"
    tail = spectral_cov(op, 0.8, 1.0).info["tail_estimate"]
    assert kl == f"kl_sample: {len(draws)} replicates, 13 modes, tail estimate {tail:.3g}"
