import ast
import math
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import graphfields
from graphfields import NotPositiveDefiniteError, ValidationError, sampling
from graphfields.models import _check_indices
from graphfields.sampling import _spd_numeric, _spd_pattern, safe_cholesky


def _spd(n: int, seed: int = 0) -> np.ndarray:
    """A well-conditioned n x n SPD matrix (eigenvalues within about [1, 5])."""
    root = np.random.default_rng(seed).standard_normal((n, n))
    return root @ root.T / max(n, 1) + np.eye(n)


@pytest.mark.parametrize("n", [0, 1, 10, 225, 226, 800])
def test_safe_cholesky_matches_numpy(n):
    mat = _spd(n, n)
    chol, jitter = safe_cholesky(mat)
    assert jitter == 0.0
    assert chol.shape == (n, n)
    assert chol.flags.c_contiguous
    # lower triangular with exact zeros above the diagonal
    assert not np.any(np.triu(chol, 1))
    ref = np.linalg.cholesky(mat)
    if n:
        assert np.max(np.abs(chol - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("n", [10, 300])
def test_safe_cholesky_leaves_its_input_alone(n):
    # rank n - 3: the first attempt fails and a jitter level succeeds
    root = np.random.default_rng(n).standard_normal((n, n - 3))
    mat = root @ root.T
    before = mat.tobytes()
    chol, jitter = safe_cholesky(mat)
    assert mat.tobytes() == before
    rel = jitter / (np.trace(mat) / n)
    assert any(rel == pytest.approx(level) for level in (1e-12, 1e-10, 1e-8))
    assert chol.flags.c_contiguous and not np.any(np.triu(chol, 1))
    np.testing.assert_allclose(chol @ chol.T, mat + jitter * np.eye(n),
                               atol=1e-12 * np.max(np.abs(mat)))
    before = mat.tobytes()
    assert safe_cholesky(_spd(n))[1] == 0.0
    assert mat.tobytes() == before


def test_safe_cholesky_rejects_an_indefinite_matrix():
    mat = _spd(20)
    mat[0, 0] = -1.0
    before = mat.tobytes()
    with pytest.raises(NotPositiveDefiniteError):
        safe_cholesky(mat)
    assert mat.tobytes() == before
    with pytest.raises(np.linalg.LinAlgError):
        safe_cholesky(mat[:, :-1])


def test_potrf_shift_and_failure():
    mat = _spd(30, 3)
    shifted = sampling._potrf(mat, 0.5)
    np.testing.assert_allclose(shifted @ shifted.T, mat + 0.5 * np.eye(30), rtol=1e-14, atol=1e-14)
    assert sampling._potrf(-mat) is None


def _agrees_with_eigvalsh(mat) -> bool:
    """``_min_eigenvalue`` is ``eigvalsh``'s least eigenvalue to 1e-13 of
    the largest in magnitude."""
    vals = np.linalg.eigvalsh(mat)
    return abs(sampling._min_eigenvalue(mat) - vals[0]) <= 1e-13 * np.max(np.abs(vals))


@pytest.mark.parametrize("n", [1, 2, 40, 200, 500])
def test_min_eigenvalue_matches_eigvalsh(n):
    rng = np.random.default_rng(n)
    root = rng.standard_normal((n, n))
    assert _agrees_with_eigvalsh(root + root.T)  # indefinite
    assert _agrees_with_eigvalsh(_spd(n, n))
    assert _agrees_with_eigvalsh(root @ root.T)  # PSD, the least eigenvalue near 0


def test_min_eigenvalue_of_an_indefinite_isotropic_matrix():
    # the geodesic exponential kernel on three parallel unit edges is not
    # PSD at kappa = 0.5: the graph is no 1-sum of trees and cycles
    edges = tuple(graphfields.Edge(k, 0, 1, 1.0) for k in "abc")
    g = graphfields.MetricGraph(2, edges)
    model = graphfields.IsotropicModel("geodesic", graphfields.ExponentialKernel(1.0, 0.5))
    cov = graphfields.iso_cov_matrix(g, model, graphfields.mesh(g, 0.1))
    assert _agrees_with_eigvalsh(cov.matrix)
    assert cov.info["min_eigenvalue"] == sampling._min_eigenvalue(cov.matrix) < -0.05
    assert not cov.is_psd()


def test_min_eigenvalue_reads_the_lower_triangle():
    mat = _spd(40, 7)
    mat[np.triu_indices(40, 1)] += 0.5  # the upper triangle alone moves
    assert _agrees_with_eigvalsh(mat)
    upper = np.linalg.eigvalsh(mat, UPLO="U")[0]
    assert abs(sampling._min_eigenvalue(mat) - upper) > 1e-3
    # a strided view reads the same triangle of the same matrix
    big = np.zeros((80, 80))
    big[::2, ::2] = mat
    assert sampling._min_eigenvalue(big[::2, ::2]) == sampling._min_eigenvalue(mat)


def test_min_eigenvalue_of_nothing_and_lapack_failures(monkeypatch):
    assert sampling._min_eigenvalue(np.zeros((0, 0))) == math.inf

    def failing(info):
        def dsyevr(a, **kwargs):
            return np.zeros(len(a)), np.zeros((0, 0)), 0, np.zeros(0, np.intc), info
        return dsyevr

    monkeypatch.setattr(sampling, "lapack", SimpleNamespace(dsyevr=failing(3)))
    with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
        sampling._min_eigenvalue(_spd(5))
    monkeypatch.setattr(sampling, "lapack", SimpleNamespace(dsyevr=failing(-1)))
    with pytest.raises(ValueError, match="illegal value in argument 1"):
        sampling._min_eigenvalue(_spd(5))


def test_safe_cholesky_asks_for_the_eigenvalue_only_when_the_factor_fails(monkeypatch):
    calls = []
    real = sampling._min_eigenvalue
    monkeypatch.setattr(sampling, "_min_eigenvalue", lambda mat: calls.append(1) or real(mat))
    assert safe_cholesky(_spd(30))[1] == 0.0
    assert calls == []
    root = np.random.default_rng(2).standard_normal((30, 27))
    assert safe_cholesky(root @ root.T)[1] > 0.0  # singular PSD: jittered
    assert calls == [1]
    mat = _spd(30)
    mat[0, 0] = -1.0
    with pytest.raises(NotPositiveDefiniteError, match="not PSD within tolerance"):
        safe_cholesky(mat)
    assert calls == [1, 1]


@pytest.mark.parametrize("rank", [30, 27])
def test_a_shifted_factor_is_the_factor_of_the_formed_matrix(rank):
    # one copy with the shift on its diagonal gives the bytes of the factor
    # of C + shift I formed first, on the jitter path too
    root = np.random.default_rng(rank).standard_normal((30, rank))
    mat = root @ root.T
    for shift in (0.0, 1e-30, 0.25):
        formed = mat.copy()
        formed.flat[::31] += shift
        chol, jitter = safe_cholesky(mat, shift)
        want, want_jitter = safe_cholesky(formed)
        assert chol.tobytes() == want.tobytes() and jitter == want_jitter


@pytest.mark.parametrize("n", [225, 226])
def test_spd_pattern_branches_agree(n, monkeypatch):
    # a tridiagonal SPD matrix given as triplets, repeated pairs adding
    rng = np.random.default_rng(n)
    off = rng.uniform(-1.0, 1.0, n - 1)
    diag = 2.5 + rng.uniform(0.0, 1.0, n)
    idx = np.arange(n)
    rows = np.concatenate([idx, idx, idx[:-1], idx[1:]])
    cols = np.concatenate([idx, idx, idx[1:], idx[:-1]])
    vals = np.concatenate([0.5 * diag, 0.5 * diag, off, off])
    b = rng.standard_normal((n, 3))
    factors = {}
    for limit in (n, n - 1):
        monkeypatch.setattr(sampling, "_DENSE_MAX", limit)
        factors[limit] = _spd_numeric(_spd_pattern(rows, cols, n), vals)
    dense, sparse = factors[n], factors[n - 1]
    assert (dense.method, sparse.method) == ("dense Cholesky", "SuperLU")
    assert dense.logdet == pytest.approx(sparse.logdet, rel=1e-13)
    np.testing.assert_allclose(dense.solve(b), sparse.solve(b), rtol=1e-12)
    np.testing.assert_allclose(dense.solve(b[:, 0]), sparse.solve(b[:, 0]), rtol=1e-12)


def test_check_indices_accepts_arrays_and_lists():
    assert _check_indices(np.array([3, 0, 3]), 4, "nodes") == [3, 0, 3]
    assert _check_indices(np.array([2], dtype=np.uint8), 4, "nodes") == [2]
    assert _check_indices([np.int64(1), 2], 4, "nodes") == [1, 2]
    assert _check_indices(range(3), 4, "nodes") == [0, 1, 2]
    assert _check_indices([], 4, "nodes") == []
    got = _check_indices(np.arange(4), 4, "nodes")
    assert all(type(i) is int for i in got)


@pytest.mark.parametrize(
    "indices, bad",
    [([0, True], True), (np.array([True, False]), np.True_), ([0, np.True_], np.True_),
     ([1, 2.0], 2.0), (np.array([1.0]), np.float64(1.0)), ([0, -1], -1),
     (np.array([2, -3]), np.int64(-3)), ([1, 4, 5], 4), (np.array([4]), np.int64(4))],
)
def test_check_indices_rejects_at_the_first_bad_entry(indices, bad):
    # the text of ``_count``'s error at the first bad entry, as item by item
    want = f"nodes must be an integer in [0, 3], got {bad!r}"
    with pytest.raises(ValidationError, match=f"^{re.escape(want)}$"):
        _check_indices(indices, 4, "nodes")


# Calls that factor or solve with a dense Cholesky factor outside
# ``sampling._potrf`` and LAPACK's own triangular solves.
_FORBIDDEN = {"cholesky", "cho_factor", "cho_solve", "solve_triangular"}

# Sparse factors and solves: ``sampling._spd_pattern`` and ``_spd_numeric``
# are the one kernel.
_SPARSE_FACTORS = {"splu", "spsolve", "factorized", "spilu"}


def _uses(names, skip=()):
    """Every mention of one of ``names`` in the package's modules other
    than ``skip``, called or not: a name, an attribute or a ``from``
    import, as "file:line name"."""
    src = Path(graphfields.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        if path.stem in skip:
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.ImportFrom):
                name = next((a.name for a in node.names if a.name in names), None)
            else:
                continue
            if name in names:
                found.append(f"{path.name}:{node.lineno} {name}")
    return found


def test_no_dense_cholesky_outside_the_kernel():
    assert not _uses(_FORBIDDEN)


def test_no_sparse_factor_outside_the_kernel():
    assert not _uses(_SPARSE_FACTORS, skip={"sampling"})
    # the check sees the kernel's own import and calls
    assert any(f.startswith("sampling.py") for f in _uses(_SPARSE_FACTORS))


def test_one_route_to_a_smallest_eigenvalue():
    # ``sampling._min_eigenvalue`` asks LAPACK for one eigenvalue; no module
    # computes them all to keep one (``exact`` keeps its full ``eigh``,
    # which needs the vectors)
    assert not _uses({"eigvalsh"})
    assert [f.split(":")[0] for f in _uses({"dsyevr"})] == ["sampling.py"]


def test_every_normal_comes_from_replicate_normals():
    # only ``sampling`` makes a generator or draws a normal, so every
    # normal the samplers use passes through ``replicate_normals``
    assert not _uses({"default_rng", "standard_normal"}, skip={"sampling"})
    assert any(f.startswith("sampling.py") for f in _uses({"default_rng"}))
    # the sparse draw is SuperLU's own solve, with no triangular solve
    # that converts its factor on every call
    assert not _uses({"spsolve_triangular"})
