"""Tests of the benchmark's references against each other and against
textbook identities; graphfields is not imported.

    python -m pytest bench/test_closed_forms.py -q
"""
import math

import numpy as np
import pytest
from scipy.stats import multivariate_normal

import closed_forms as cf


def neumann_green(kappa, tau, ell, s, t):
    lo, hi = min(s, t), max(s, t)
    return math.cosh(kappa * lo) * math.cosh(kappa * (ell - hi)) / (
        tau**2 * kappa * math.sinh(kappa * ell)
    )


@pytest.mark.parametrize("kappa,tau,ell", [(0.5, 1.0, 2.0), (2.0, 0.7, 0.35), (8.0, 1.3, 1.0)])
def test_endpoint_precision_inverts_neumann_block(kappa, tau, ell):
    block = np.array([
        [neumann_green(kappa, tau, ell, 0, 0), neumann_green(kappa, tau, ell, 0, ell)],
        [neumann_green(kappa, tau, ell, ell, 0), neumann_green(kappa, tau, ell, ell, ell)],
    ])
    prec = cf.neumann_endpoint_precision(kappa, tau, ell)
    np.testing.assert_allclose(prec @ block, np.eye(2), atol=1e-12)


def test_single_edge_is_the_neumann_field():
    kappa, tau, ell = 1.7, 0.9, 1.3
    ts = [0.0, 0.2, 0.65, 1.1, ell]
    cov = cf.markov_cov(2, [(0, 1, ell)], kappa, tau, [(0, t) for t in ts])
    want = [[neumann_green(kappa, tau, ell, s, t) for t in ts] for s in ts]
    np.testing.assert_allclose(cov, want, rtol=1e-12)


@pytest.mark.parametrize("pieces", [1, 4, 7])
def test_cycle_matches_circle_closed_form(pieces):
    """A loop and a subdivided cycle give the circle covariance."""
    kappa, tau, ell = 1.3, 1.1, 2.5
    if pieces == 1:
        edges, nv = [(0, 0, ell)], 1
    else:
        edges, nv = [(k, (k + 1) % pieces, ell / pieces) for k in range(pieces)], pieces
    rng = np.random.default_rng(0)
    pos = np.sort(rng.uniform(0, ell, 12))
    pts = [(min(int(p // (ell / pieces)), pieces - 1), 0.0) for p in pos]
    pts = [(j, float(p - j * ell / pieces)) for (j, _), p in zip(pts, pos)]
    cov = cf.markov_cov(nv, edges, kappa, tau, pts)
    d = cf.cycle_geodesic(pos[:, None], pos[None, :], ell)
    np.testing.assert_allclose(cov, cf.circle_cov(d, kappa, tau, ell), rtol=1e-11)


def test_edge_given_its_ends_is_the_dirichlet_bridge():
    kappa, tau = 1.1, 1.0
    edges = [(0, 1, 0.8), (1, 2, 1.4), (2, 0, 0.9), (1, 3, 0.5)]
    ts = np.array([0.1, 0.4, 1.0, 1.3])
    pts = [(1, 0.0), (1, 1.4)] + [(1, float(t)) for t in ts]
    cov = cf.markov_cov(4, edges, kappa, tau, pts)
    got = cf.conditional_cov(cov, range(2, 6), range(2, 6), [0, 1])
    np.testing.assert_allclose(
        got, cf.dirichlet_bridge(kappa, tau, 1.4, ts[:, None], ts[None, :]), atol=1e-13
    )


def resistor_chain_resistance(blocks, a, b, cells=64):
    """Effective resistance by a grounded Laplacian solve on a resistor network
    that splits every block into ``cells`` unit-conductance-per-length pieces."""
    nodes = {("hub",): 0}

    def node(key):
        return nodes.setdefault(key, len(nodes))

    wires = []
    for i, (kind, ell) in enumerate(blocks):
        h = ell / cells
        chain = [0] + [node((i, k)) for k in range(1, cells)]
        chain.append(0 if kind == "cycle" else node((i, cells)))
        wires += [(p, q, h) for p, q in zip(chain, chain[1:])]

    def at(block, s):
        k = round(s / (blocks[block][1] / cells))
        return 0 if k == 0 or (blocks[block][0] == "cycle" and k == cells) else nodes[(block, k)]

    n = len(nodes)
    lap = np.zeros((n, n))
    for p, q, r in wires:
        lap[p, p] += 1 / r
        lap[q, q] += 1 / r
        lap[p, q] -= 1 / r
        lap[q, p] -= 1 / r
    e = np.zeros(n)
    e[at(*a)] += 1.0
    e[at(*b)] -= 1.0
    return float(e @ np.linalg.pinv(lap) @ e)


def test_bouquet_resistance_matches_resistor_network():
    blocks = [("cycle", 1.6), ("cycle", 0.8), ("path", 1.2)]
    grid = {i: ell / 64 for i, (_, ell) in enumerate(blocks)}
    pairs = [((0, 10), (0, 41)), ((0, 5), (1, 30)), ((1, 7), (2, 64)), ((2, 13), (2, 50)),
             ((0, 0), (1, 33))]
    for (ba, ka), (bb, kb) in pairs:
        a, b = (ba, ka * grid[ba]), (bb, kb * grid[bb])
        assert cf.bouquet_resistance(blocks, a, b) == pytest.approx(
            resistor_chain_resistance(blocks, a, b), rel=1e-10, abs=1e-12
        )


def figure_eight_elements(l1, l2, nel):
    """Linear elements on two loops through hub 0, nel elements per loop."""
    elements, nxt = [], 1
    for ell in (l1, l2):
        nodes = [0, *range(nxt, nxt + nel - 1), 0]
        nxt += nel - 1
        elements += [(nodes[k], nodes[k + 1], ell / nel) for k in range(nel)]
    return nxt, elements


def test_loop_eigenvalues_in_the_fine_spectrum():
    kappa, l1, l2 = 1.5, 1.0, 2.0
    targets = cf.loop_eigenvalues(kappa, (l1, l2), 2)
    errors = []
    for nel in (200, 400):
        n, elements = figure_eight_elements(l1, l2, nel)
        lam, _ = cf.pencil_eigen(*cf.p1_matrices(n, elements, kappa))
        errors.append([float(np.min(np.abs(lam - t))) / t for t in targets])
    assert max(errors[1]) < 1e-4
    for coarse, fine in zip(*errors):
        assert 3.5 < coarse / fine < 4.5


def test_spectral_matrix_at_integer_alpha():
    n, elements = figure_eight_elements(1.0, 2.0, 20)
    mass, stiff = cf.p1_matrices(n, elements, 1.2)
    lam, basis = cf.pencil_eigen(mass, stiff)
    kinv = np.linalg.inv(stiff)
    np.testing.assert_allclose(cf.spectral_matrix(lam, basis, 1.0, 2.0), kinv / 4.0,
                               rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(cf.spectral_matrix(lam, basis, 2.0, 1.0), kinv @ mass @ kinv,
                               rtol=1e-9, atol=1e-12)


def test_kappa_shifts_the_spectrum_only():
    n, elements = figure_eight_elements(1.0, 2.0, 20)
    lam, basis = cf.pencil_eigen(*cf.p1_matrices(n, elements, 1.5))
    np.testing.assert_allclose(
        cf.spectral_matrix(lam + 2.0**2 - 1.5**2, basis, 0.75, 1.0),
        cf.spectral_matrix(*cf.pencil_eigen(*cf.p1_matrices(n, elements, 2.0)), 0.75, 1.0),
        rtol=1e-9, atol=1e-12,
    )


def test_posterior_and_likelihood_against_scipy():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((9, 9))
    cov = a @ a.T + 0.1 * np.eye(9)
    y = rng.standard_normal(6)
    noise = 0.05
    sigma = cov[:6, :6] + noise * np.eye(6)
    assert cf.log_likelihood(cov[:6, :6], y, noise) == pytest.approx(
        multivariate_normal(np.zeros(6), sigma).logpdf(y), rel=1e-12
    )
    mean, pcov = cf.posterior(cov, 6, y, noise)
    # the posterior of the last three is the conditional of the noisy joint
    joint = cov.copy()
    joint[:6, :6] = sigma
    np.testing.assert_allclose(pcov, cf.conditional_cov(joint, range(6, 9), range(6, 9), range(6)),
                               atol=1e-12)
    np.testing.assert_allclose(mean, cov[6:, :6] @ np.linalg.solve(sigma, y), atol=1e-12)


def test_whitened_second_moment_of_exact_draws():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((5, 5))
    cov = a @ a.T + np.eye(5)
    draws = rng.standard_normal((40000, 5)) @ np.linalg.cholesky(cov).T
    assert abs(cf.whitened_second_moment(draws, cov) - 1.0) < 6 * math.sqrt(2 / draws.size)
    assert cf.whitened_second_moment(2 * draws, cov) == pytest.approx(4.0, rel=0.05)
