"""Independent numerical oracles used to freeze expected test values.

Nothing here shares code with the package: the Green's function oracle is a
plain second-order finite-difference solve, derivatives are plain central
differences, and linear algebra goes through dense numpy calls.
"""
import numpy as np


def neumann_green_fd(kappa, a, tau, ell, n):
    """Dense FD Green's matrix of tau^2 (kappa^2 - a d2/dx2), zero-derivative ends.

    Returns (grid, G) with G[i, j] ~ G(grid[i], grid[j]); error is O(h^2).
    The discrete delta at node j weighs 1/cell_mass where boundary cells
    have half mass.
    """
    h = ell / n
    size = n + 1
    A = np.zeros((size, size))
    for i in range(1, size - 1):
        A[i, i - 1] = A[i, i + 1] = -a / h**2
        A[i, i] = 2 * a / h**2 + kappa**2
    # ghost-node Neumann closure at both ends
    A[0, 0] = A[-1, -1] = 2 * a / h**2 + kappa**2
    A[0, 1] = A[-1, -2] = -2 * a / h**2
    A *= tau**2
    mass = np.full(size, h)
    mass[0] = mass[-1] = h / 2
    G = np.linalg.inv(A) / mass[None, :]
    return np.linspace(0.0, ell, size), G


def neumann_green_oracle(kappa, a, tau, ell, s, t, n=1000):
    """Richardson-extrapolated Green's function value at (s, t).

    s and t must be grid points of both the n and 2n grids, i.e. multiples
    of ell / n.
    """
    def at(nn):
        grid, G = neumann_green_fd(kappa, a, tau, ell, nn)
        i = int(round(s / ell * nn))
        j = int(round(t / ell * nn))
        assert abs(grid[i] - s) < 1e-12 and abs(grid[j] - t) < 1e-12
        return G[i, j]

    coarse, fine = at(n), at(2 * n)
    return fine + (fine - coarse) / 3.0


def neumann_four_exp(kappa, a, tau, ell, s, t):
    """Neumann edge covariance as the four-exponential image sum.

    [e^{-kt(M-m)} + e^{-kt(M+m)} + e^{-kt(2L-M-m)} + e^{-kt(2L-M+m)}] /
    (2 tau^2 kappa sqrt(a) (1 - e^{-2 kt L})), kt = kappa / sqrt(a),
    m = min(s, t), M = max(s, t): the cosh-cosh Green's function with every
    exponent made non-positive.
    """
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    kt = kappa / np.sqrt(a)
    m = np.minimum(s, t)
    M = np.maximum(s, t)
    num = (
        np.exp(-kt * (M - m))
        + np.exp(-kt * (M + m))
        + np.exp(-kt * (2.0 * ell - M - m))
        + np.exp(-kt * (2.0 * ell - M + m))
    )
    return num / (2.0 * tau**2 * kappa * np.sqrt(a) * -np.expm1(-2.0 * kt * ell))


def second_derivative(f, x, h=1e-3):
    """Richardson-extrapolated central second difference of a scalar map."""
    def d2(hh):
        return (f(x - hh) - 2.0 * f(x) + f(x + hh)) / hh**2

    return (4.0 * d2(h) - d2(2.0 * h)) / 3.0


def schur_conditional(mat, rows, cols, given):
    """C_AB - C_AS C_SS^{-1} C_SB by dense inversion (the blunt way)."""
    mat = np.asarray(mat, dtype=float)
    css_inv = np.linalg.inv(mat[np.ix_(given, given)])
    return (
        mat[np.ix_(rows, cols)]
        - mat[np.ix_(rows, given)] @ css_inv @ mat[np.ix_(given, cols)]
    )


def bridge_walk_rows(draws, first, edge, step, root_dev, g1, g2, col_u, col_v):
    """The bridge walk and end terms of a Markov sampler, one column at a
    time on (replicate, column) draws, in place.

    Columns ``first`` onwards hold the normals of the interior points,
    sorted by edge; the columns before them hold the vertex values. Point
    k becomes b_k = root_dev[k] z_k, plus step[k] b_{k-1} when point k - 1
    lies on the same edge, and then g1[k] x_u + g2[k] x_v is added, with
    x_u, x_v the columns ``col_u[k]`` and ``col_v[k]``.
    """
    for k in range(len(edge)):
        col = draws[:, first + k]
        col *= root_dev[k]
        if k and edge[k] == edge[k - 1]:
            col += step[k] * draws[:, first + k - 1]
    draws[:, first:] += g1 * draws[:, col_u]
    draws[:, first:] += g2 * draws[:, col_v]


def dense_loglik(cov, y):
    """Gaussian log density via explicit inverse and determinant."""
    cov = np.asarray(cov, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(y)
    quad = float(y @ np.linalg.inv(cov) @ y)
    _, logdet = np.linalg.slogdet(cov)
    return -0.5 * (quad + logdet + n * np.log(2.0 * np.pi))


def dense_posterior(joint, n_obs, y, noise_var):
    """Posterior mean and covariance at the points after the first ``n_obs``
    of the joint covariance, given y at those first points with noise
    variance ``noise_var``, and the log density of y: by explicit inverse
    (the blunt way), with no Cholesky factor."""
    joint = np.asarray(joint, dtype=float)
    obs, pred = slice(0, n_obs), slice(n_obs, None)
    sigma = joint[obs, obs] + noise_var * np.eye(n_obs)
    inv = np.linalg.inv(sigma)
    mean = joint[pred, obs] @ inv @ np.asarray(y, dtype=float)
    cov = joint[pred, pred] - joint[pred, obs] @ inv @ joint[obs, pred]
    return mean, cov, dense_loglik(sigma, y)


def circle_cov_mp(d, kappa, tau, ell, dps=40):
    """Circle Markov covariance cosh(kappa (d - ell/2)) / (2 kappa tau^2
    sinh(kappa ell / 2)) at ``dps`` significant digits, as a float."""
    import mpmath

    with mpmath.workdps(dps):
        k, d, ell = mpmath.mpf(kappa), mpmath.mpf(d), mpmath.mpf(ell)
        val = mpmath.cosh(k * (d - ell / 2)) / (
            2 * k * mpmath.mpf(tau) ** 2 * mpmath.sinh(k * ell / 2)
        )
        return float(val)


def circle_loglik_mp(pos, y, kappa, tau, ell, noise_var, dps=40):
    """Gaussian log density of y at arclengths ``pos`` on a circle of length
    ``ell``, under the circle Markov covariance plus ``noise_var`` I, all
    at ``dps`` significant digits (distances, covariance, Cholesky, solve
    and log), as a float. Arclengths are taken modulo ``ell``, so a point
    just behind 0 may be given exactly as a small negative number."""
    import mpmath

    with mpmath.workdps(dps):
        k, ell = mpmath.mpf(kappa), mpmath.mpf(ell)
        pos = [mpmath.mpf(p) for p in pos]
        scale = 2 * k * mpmath.mpf(tau) ** 2 * mpmath.sinh(k * ell / 2)
        n = len(pos)
        cov = mpmath.matrix(n, n)
        for i in range(n):
            for j in range(n):
                d = mpmath.fmod(abs(pos[i] - pos[j]), ell)
                cov[i, j] = mpmath.cosh(k * (min(d, ell - d) - ell / 2)) / scale
        return gauss_loglik_mp(cov, y, noise_var, dps)


def gauss_loglik_mp(cov, y, noise_var, dps):
    """Gaussian log density of y under the mpmath matrix ``cov`` plus
    ``noise_var`` I, with the Cholesky factor, the solve and the log at
    ``dps`` significant digits, as a float."""
    import mpmath

    with mpmath.workdps(dps):
        n = len(y)
        cov = cov + mpmath.mpf(noise_var) * mpmath.eye(n)
        chol = mpmath.cholesky(cov)
        z = mpmath.lu_solve(chol, mpmath.matrix([mpmath.mpf(v) for v in y]))
        quad = sum(z[i] ** 2 for i in range(n))
        logdet = 2 * sum(mpmath.log(chol[i, i]) for i in range(n))
        return float(-(quad + logdet + n * mpmath.log(2 * mpmath.pi)) / 2)


def cut_graph_cov_mp(vertex_count, edges, points, kappa, tau=1.0, dps=100):
    """Covariance of the unit-exponent field (a = 1) at ``points``, (edge
    index, t) pairs, as an mpmath matrix of ``dps`` significant digits.

    The field at a point has the law of the field at a degree-2 vertex
    inserted there, so the graph is cut at the points' interior arclengths
    and the covariance is the inverse of the cut graph's vertex precision,
    where a piece (a, b) of length d adds tau^2 kappa [[coth x, -csch x],
    [-csch x, coth x]] with x = kappa d. Piece lengths are differences of
    the given doubles taken in mpmath, and nothing is rounded to doubles.
    ``edges`` holds (id, u, v, length).
    """
    import mpmath

    with mpmath.workdps(dps):
        nodes, node, pieces = vertex_count, {}, []
        for k, (_, u, v, ell) in enumerate(edges):
            ts = sorted({t for j, t in points if j == k and 0.0 < t < ell})
            chain = [u, *range(nodes, nodes + len(ts)), v]
            node.update({(k, t): nodes + i for i, t in enumerate(ts)})
            node.update({(k, 0.0): u, (k, ell): v})
            nodes += len(ts)
            pos = [mpmath.mpf(x) for x in (0.0, *ts, ell)]
            pieces += [(chain[i], chain[i + 1], pos[i + 1] - pos[i]) for i in range(len(ts) + 1)]
        scale = mpmath.mpf(tau) ** 2 * mpmath.mpf(kappa)
        prec = mpmath.zeros(nodes, nodes)
        for a, b, d in pieces:
            x = mpmath.mpf(kappa) * d
            diag, off = scale * mpmath.coth(x), -scale * mpmath.csch(x)
            prec[a, a] += diag
            prec[b, b] += diag
            prec[a, b] += off
            prec[b, a] += off
        cov = prec**-1
        idx = [node[p] for p in points]
        return mpmath.matrix([[cov[i, j] for j in idx] for i in idx])


def _edge_sum_inverse_mp(vertex_count, edges, block, extra, dps):
    """Inverse, at ``dps`` digits and returned as floats, of the sum over
    edges (id, u, v, length) of the 2 x 2 ``block(length)`` at rows and
    columns (u, v), plus the diagonal entries ``extra`` {vertex: value}."""
    import mpmath

    with mpmath.workdps(dps):
        mat = mpmath.zeros(vertex_count, vertex_count)
        for _, u, v, length in edges:
            (a, b), (c, d) = block(mpmath.mpf(length))
            mat[u, u] += a
            mat[u, v] += b
            mat[v, u] += c
            mat[v, v] += d
        for vertex, value in extra.items():
            mat[vertex, vertex] += value
        return np.array((mat**-1).tolist(), dtype=float)


def vertex_cov_mp(vertex_count, edges, kappa, tau=1.0, dps=40):
    """Covariance of the unit-exponent field's vertex values (a = 1): the
    inverse of the vertex precision, whose edge (u, v) of length L adds
    tau^2 kappa [[coth x, -csch x], [-csch x, coth x]] with x = kappa L."""
    import mpmath

    def block(length):
        scale = mpmath.mpf(tau) ** 2 * mpmath.mpf(kappa)
        x = mpmath.mpf(kappa) * length
        diag, off = scale * mpmath.coth(x), -scale * mpmath.csch(x)
        return (diag, off), (off, diag)

    return _edge_sum_inverse_mp(vertex_count, edges, block, {}, dps)


def grounded_laplacian_inverse_mp(vertex_count, edges, root, dps=40):
    """Inverse of the Laplacian with conductance 1/length on every edge and
    1 added at ``root``."""
    def block(length):
        return (1 / length, -1 / length), (-1 / length, 1 / length)

    return _edge_sum_inverse_mp(vertex_count, edges, block, {root: 1}, dps)


def subdivided_distances(vertex_count, edges, points):
    """Geodesic and resistance matrices at points, every point made a vertex.

    ``edges`` holds (u, v, length) and ``points`` holds (edge index, t).
    Each edge is cut at its points' interior arclengths, so each point is a
    vertex of the cut graph. Geodesics come from
    ``scipy.sparse.csgraph.shortest_path`` over the pieces (parallel pieces
    keep the shortest; a loop piece never shortens a path). Resistances come
    from the pseudo-inverse of the cut graph's Laplacian with conductance
    1/length: L+_ii + L+_jj - 2 L+_ij.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import shortest_path

    nv = vertex_count
    cut = {}
    pieces = []
    for k, (u, v, ell) in enumerate(edges):
        ts = sorted({t for j, t in points if j == k and 0.0 < t < ell})
        chain = [u]
        for t in ts:
            cut[(k, t)] = nv
            chain.append(nv)
            nv += 1
        chain.append(v)
        pos = [0.0] + ts + [ell]
        pieces += [
            (chain[i], chain[i + 1], pos[i + 1] - pos[i]) for i in range(len(ts) + 1)
        ]

    def vertex(k, t):
        u, v, ell = edges[k]
        return u if t == 0.0 else v if t == ell else cut[(k, t)]

    idx = np.array([vertex(k, t) for k, t in points], dtype=int)
    shortest = {}
    lap = np.zeros((nv, nv))
    for a, b, ell in pieces:
        if a == b:
            continue
        key = (min(a, b), max(a, b))
        shortest[key] = min(shortest.get(key, np.inf), ell)
        lap[a, a] += 1.0 / ell
        lap[b, b] += 1.0 / ell
        lap[a, b] -= 1.0 / ell
        lap[b, a] -= 1.0 / ell
    rows, cols = np.array(list(shortest)).T
    w = csr_matrix((list(shortest.values()), (rows, cols)), shape=(nv, nv))
    geo = shortest_path(w, method="D", directed=False)[np.ix_(idx, idx)]
    lp = np.linalg.pinv(lap, hermitian=True)[np.ix_(idx, idx)]
    res = np.diag(lp)[:, None] + np.diag(lp)[None, :] - 2.0 * lp
    return geo, res


def mesh_rule(edges, h):
    """Mesh of spacing <= h as (edge id, t) pairs, from the rule alone.

    ``edges`` holds (id, u, v, length). Edge e is cut into
    n = max(1, ceil(length / h - 1e-12)) pieces with nodes at
    length * (k / n); nodes are walked in edge order with t ascending, and
    an end vertex is kept only the first time it is reached.
    """
    import math

    seen, out = set(), []
    for eid, u, v, ell in edges:
        n = max(1, math.ceil(ell / h - 1e-12))
        for k in range(n + 1):
            end = u if k == 0 else v if k == n else None
            if end is not None:
                if end in seen:
                    continue
                seen.add(end)
            out.append((eid, ell * (k / n)))
    return out
