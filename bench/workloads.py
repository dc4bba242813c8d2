"""The benchmark's three workloads.

Each workload builds its inputs from a seed in ``__init__`` (that is the
set-up the benchmark times), exposes one operation per end-to-end metric
through :meth:`Workload.ops`, and checks what the operations returned
against :mod:`closed_forms` in :meth:`Workload.check`, untimed.

The program is called only through module attributes looked up at call
time (``exact.full_cov``, not a name bound at import), so the traced run can
wrap the same functions the program itself looks up.

Sizes are fixed; the seed moves lengths, point positions, data and the
parameter values a fitting loop visits, never the number of edges, mesh
nodes or points, so every seed does the same amount of work.
"""
from __future__ import annotations

import hashlib
import math

import numpy as np

import graphfields as gf
from graphfields import exact, graph, inference, kernels, metrics, spectral

import closed_forms as cf

TAU = 1.0
NOISE_VAR = 0.01


class Spec:
    """The benchmark's own description of a graph.

    ``edges`` are ``(id, u, v, length)``; every graph here is a bouquet of
    cycles and paths glued at one hub, and ``place[id] = (block, offset,
    sign)`` puts arclength t of an edge at distance ``offset + sign * t``
    from the hub along block ``blocks[block]``.
    """

    def __init__(self, n_vertices: int):
        self.n_vertices = n_vertices
        self.edges: list[tuple[str, int, int, float]] = []
        self.blocks: list[tuple[str, float]] = []
        self.place: dict[str, tuple[int, float, float]] = {}

    def add_cycle(self, hub: int, fresh, pieces, ids) -> None:
        """Cycle through ``hub``: edge k runs w_k -> w_k+1 with w_0 = hub."""
        ws = [hub, *fresh, hub]
        block = len(self.blocks)
        self.blocks.append(("cycle", float(sum(pieces))))
        offset = 0.0
        for k, (eid, ell) in enumerate(zip(ids, pieces)):
            self.edges.append((eid, ws[k], ws[k + 1], float(ell)))
            self.place[eid] = (block, offset, 1.0)
            offset += ell

    def add_path(self, eid: str, u: int, v: int, ell: float, hub_at_u: bool) -> None:
        self.place[eid] = (len(self.blocks), 0.0, 1.0) if hub_at_u else (
            len(self.blocks), float(ell), -1.0
        )
        self.blocks.append(("path", float(ell)))
        self.edges.append((eid, u, v, float(ell)))

    # -- views for the references ---------------------------------------

    @property
    def edge_list(self):
        return [(u, v, ell) for _, u, v, ell in self.edges]

    def oracle_points(self, pts):
        index = {e[0]: j for j, e in enumerate(self.edges)}
        return [(index[p.edge], p.t) for p in pts]

    def block_points(self, pts):
        out = []
        for p in pts:
            block, offset, sign = self.place[p.edge]
            out.append((block, offset + sign * p.t))
        return out

    def markov_cov(self, kappa: float, pts) -> np.ndarray:
        return cf.markov_cov(
            self.n_vertices, self.edge_list, kappa, TAU, self.oracle_points(pts)
        )

    def resistance(self, pts) -> np.ndarray:
        return cf.bouquet_resistance_matrix(self.blocks, self.block_points(pts))

    def random_points(self, rng: np.random.Generator, n: int, on=None):
        """n points strictly inside edges, arclength uniform.

        ``on`` fixes the set of edge indices used, each getting at least one
        point: the cost of ``full_cov`` grows with the square of the number
        of distinct edges, which must not move with the seed.
        """
        if on is None:
            edges = rng.integers(len(self.edges), size=n)
        else:
            edges = np.concatenate([on, rng.choice(on, size=n - len(on))])
            rng.shuffle(edges)
        out = []
        for j in edges:
            eid, _, _, ell = self.edges[j]
            out.append(gf.PointOnGraph(eid, float(ell * rng.uniform(0.05, 0.95))))
        return out

    def random_edges(self, rng: np.random.Generator, k: int) -> np.ndarray:
        return rng.choice(len(self.edges), size=k, replace=False)

    def mismatch(self, g) -> str | None:
        """Why the program's graph differs from this description, or None."""
        got = [(e.id, e.u, e.v, e.length) for e in g.edges]
        if g.vertex_count != self.n_vertices or len(got) != len(self.edges):
            return f"{g.vertex_count} vertices / {len(got)} edges"
        for a, b in zip(got, self.edges):
            if a[:3] != b[:3] or abs(a[3] - b[3]) > 1e-14 * b[3]:
                return f"edge {a} differs from {b}"
        return None

    def to_json(self) -> dict:
        return {
            "vertices": self.n_vertices,
            "edges": [{"id": i, "u": u, "v": v, "length": ell} for i, u, v, ell in self.edges],
        }


def circle_spec(ell: float) -> Spec:
    """Mirror of ``circle(ell, 4)``."""
    s = Spec(4)
    s.add_cycle(0, [1, 2, 3], [ell / 4] * 4, [f"e{k}" for k in range(4)])
    return s


def star_spec(lengths) -> Spec:
    """Mirror of ``star(lengths)``: leaves 0..k-1, centre k, edge j leaf -> centre."""
    k = len(lengths)
    s = Spec(k + 1)
    for j, ell in enumerate(lengths):
        s.add_path(f"e{j}", j, k, ell, hub_at_u=False)
    return s


def figure_eight_spec(l1: float, l2: float) -> Spec:
    """Mirror of ``figure_eight(l1, l2)``: the 1-sum renames ids to p<i>.e<k>."""
    s = Spec(7)
    s.add_cycle(0, [1, 2, 3], [l1 / 4] * 4, [f"p0.e{k}" for k in range(4)])
    s.add_cycle(0, [4, 5, 6], [l2 / 4] * 4, [f"p1.e{k}" for k in range(4)])
    return s


def tadpole_spec(cycle: float, tail: float) -> Spec:
    """Mirror of ``tadpole(cycle, tail)``: a 4-piece cycle plus edge 0 -> 4."""
    s = Spec(5)
    s.add_cycle(0, [1, 2, 3], [cycle / 4] * 4, [f"p0.e{k}" for k in range(4)])
    s.add_path("p1.e0", 0, 4, tail, hub_at_u=True)
    return s


def bouquet_spec(rng: np.random.Generator, cycles: int) -> Spec:
    """Hub 0 and ``cycles`` four-edge cycles with edge lengths in [0.301, 0.399].

    Every edge length lies in (0.3, 0.4], so a mesh of spacing 0.1 puts
    exactly three interior nodes on every edge whatever the seed.
    """
    s = Spec(1 + 3 * cycles)
    for i in range(cycles):
        s.add_cycle(
            0,
            [1 + 3 * i, 2 + 3 * i, 3 + 3 * i],
            rng.uniform(0.301, 0.399, 4),
            [f"c{i}.e{k}" for k in range(4)],
        )
    return s


def digest(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def resistance_model(kappa: float) -> kernels.IsotropicModel:
    return kernels.IsotropicModel("resistance", kernels.ExponentialKernel(1.0, kappa))


def relerr(a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300))


class Checks:
    """Collects failed checks as messages."""

    def __init__(self):
        self.failures: list[str] = []
        self.passed = 0

    def expect(self, ok: bool, what: str) -> None:
        if ok:
            self.passed += 1
        else:
            self.failures.append(what)

    def close(self, value: float, limit: float, what: str) -> None:
        self.expect(bool(value <= limit), f"{what}: {value:.3e} > {limit:.1e}")

    def whitened(self, draws: np.ndarray, cov: np.ndarray, what: str) -> None:
        """Whitened draws have unit second moment within 6 standard errors."""
        m2 = cf.whitened_second_moment(draws, cov)
        tol = 6.0 * math.sqrt(2.0 / draws.size)
        self.expect(abs(m2 - 1.0) <= tol, f"{what}: whitened E[z^2] = {m2:.4f}, tol {tol:.4f}")


class Workload:
    """Inputs made from the seed, timed operations and their checks."""

    name = ""
    #: seconds one round of operations takes on the reference machine; a
    #: run does round(seconds / nominal_round_s) rounds, a count fixed
    #: before measuring so that caches and memory do not depend on speed
    nominal_round_s = 1.0
    kappa = 2.0

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.last: dict[str, object] = {}
        self.sample_digests: list[str] = []
        self.fits: list = []

    def ops(self):
        """[(metric name, operation(round index) -> result)] in round order."""
        return [
            ("cov_p50_s", self.op_cov),
            ("sample_p50_s", self.op_sample),
            ("krige_p50_s", self.op_krige),
            ("fit_p50_s", self.op_fit),
            ("iso_p50_s", self.op_iso),
        ]

    def keep(self, metric: str, result) -> None:
        """Hold what the checks need; called outside the timed region."""
        self.last[metric] = result
        if metric == "sample_p50_s":
            self.sample_digests.append(digest(result))
        elif metric == "fit_p50_s":
            self.fits.append(result)

    def fit_kappa(self, r: int, i: int = 0, per_round: int = 1) -> float:
        """A parameter value no earlier call in the process has used."""
        return self.kappa * (1.0 + 1e-3 * (r * per_round + i + 1))

    def check(self) -> Checks:
        c = Checks()
        c.expect(
            len(set(self.sample_digests)) == 1,
            f"same-seed samples differ across {len(self.sample_digests)} rounds",
        )
        try:
            self.check_outputs(c)
        except Exception as exc:  # a malformed output fails the run's checks
            c.failures.append(f"checks stopped: {exc!r}")
        return c

    def check_outputs(self, c: Checks) -> None:
        raise NotImplementedError


class BouquetExact(Workload):
    """1-sum of 100 four-edge cycles (|E| = 400), exact alpha = 1 field.

    Covariance at 250 points on 190 edges, iso at 100 points, samples over
    the 1,501-node mesh (dense Cholesky at n = 1,501), kriging 100 points
    from 200 observations on 160 edges, and the likelihood of the 200
    observations at a new kappa per round.
    """

    name = "bouquet-exact"
    nominal_round_s = 5.5
    cycles = 100
    h = 0.1

    def __init__(self, seed: int):
        super().__init__(seed)
        self.spec = bouquet_spec(self.rng, self.cycles)
        self.g = graph.build_graph(self.spec.to_json())
        self.model = gf.FieldModel(kappa=self.kappa, tau=TAU)
        self.mesh = graph.mesh(self.g, self.h)
        rng, spec = self.rng, self.spec
        self.pts = spec.random_points(rng, 250, on=spec.random_edges(rng, 190))
        self.iso_pts = spec.random_points(rng, 100)
        # predictions sit on observed edges, so both requests touch 160 edges
        on = spec.random_edges(rng, 160)
        self.obs = spec.random_points(rng, 200, on=on)
        self.pred = spec.random_points(rng, 100, on=rng.choice(on, size=100, replace=False))
        self.y = 0.5 * self.rng.standard_normal(len(self.obs))
        self.sample_seed = int(self.rng.integers(2**31))
        exact.vertex_field_cov(self.g, self.model)
        metrics.resistance_structure(self.g)

    def op_cov(self, r):
        return exact.full_cov(self.g, self.model, self.pts)

    def op_sample(self, r):
        return exact.sample(self.g, self.model, self.mesh, 200, self.sample_seed)

    def op_krige(self, r):
        src = inference.exact_cov_source(self.g, self.model)
        return inference.krige(src, self.obs, self.y, NOISE_VAR, self.pred)

    def op_fit(self, r):
        kappa = self.fit_kappa(r)
        m = gf.FieldModel(kappa=kappa, tau=TAU)
        src = inference.exact_cov_source(self.g, m)
        return kappa, inference.loglik(src, self.obs, self.y, NOISE_VAR)

    def op_iso(self, r):
        return kernels.iso_cov_matrix(self.g, resistance_model(self.kappa), self.iso_pts)

    def check_outputs(self, c: Checks) -> None:
        spec, g, kappa = self.spec, self.g, self.kappa
        c.expect(spec.mismatch(g) is None, f"graph differs from spec: {spec.mismatch(g)}")
        c.expect(len(self.mesh) == 1 + 3 * self.cycles + 3 * 4 * self.cycles,
                 f"mesh has {len(self.mesh)} nodes")

        cov = self.last["cov_p50_s"]
        c.close(relerr(cov.matrix, spec.markov_cov(kappa, self.pts)), 1e-10,
                "full_cov vs vertex-precision closed form")

        # geometry independence: one edge given its two vertices is the
        # Dirichlet bridge, whatever the rest of the graph
        eid, u, v, ell = spec.edges[int(self.rng.integers(len(spec.edges)))]
        ts = ell * np.array([0.1, 0.3, 0.5, 0.8])
        pts = [gf.PointOnGraph(eid, 0.0), gf.PointOnGraph(eid, ell)] + [
            gf.PointOnGraph(eid, float(t)) for t in ts
        ]
        mat = exact.full_cov(g, self.model, pts).matrix
        got = cf.conditional_cov(mat, range(2, 6), range(2, 6), [0, 1])
        want = cf.dirichlet_bridge(kappa, TAU, ell, ts[:, None], ts[None, :])
        c.close(relerr(got, want), 1e-9, f"edge {eid} given its vertices vs Dirichlet bridge")

        # two cycles are conditionally independent given the hub
        a = [gf.PointOnGraph(f"c0.e{k}", spec.edges[k][3] / 2) for k in range(4)]
        b = [gf.PointOnGraph(f"c1.e{k}", spec.edges[4 + k][3] / 2) for k in range(4)]
        mat = exact.full_cov(g, self.model, a + b + [gf.PointOnGraph("c0.e0", 0.0)]).matrix
        resid = cf.conditional_cov(mat, range(4), range(4, 8), [8])
        c.close(float(np.max(np.abs(resid)) / np.max(mat)), 1e-12,
                "cycles 0 and 1 given the hub")

        c.whitened(self.last["sample_p50_s"], spec.markov_cov(kappa, self.mesh), "exact samples")

        res = self.last["krige_p50_s"]
        joint = spec.markov_cov(kappa, self.obs + self.pred)
        mean, pcov = cf.posterior(joint, len(self.obs), self.y, NOISE_VAR)
        c.close(relerr(res.mean, mean), 1e-8, "krige mean vs dense posterior")
        c.close(relerr(res.cov, pcov), 1e-8, "krige cov vs dense posterior")
        ll = cf.log_likelihood(joint[: len(self.obs), : len(self.obs)], self.y, NOISE_VAR)
        c.close(abs(res.log_likelihood - ll) / abs(ll), 1e-9, "krige log-likelihood")

        for kap, value in self.fits:
            ll = cf.log_likelihood(spec.markov_cov(kap, self.obs), self.y, NOISE_VAR)
            c.close(abs(value - ll) / abs(ll), 1e-9, f"loglik at kappa {kap:.4f}")

        iso = self.last["iso_p50_s"].matrix
        c.close(relerr(iso, np.exp(-kappa * spec.resistance(self.iso_pts))), 1e-10,
                "iso entries vs exp(-kappa d_R)")


class Fig8Spectral(Workload):
    """Figure-eight (1, 2) at h = 0.0025 (1,199 dof), alpha = 0.75.

    Covariance is a full assembly plus ``spectral_cov`` over every node (as
    the ``spectral-cov`` subcommand does); a fit re-assembles at a new kappa
    and evaluates the likelihood of 800 nodal observations; kriging is two
    requests of 800 observations and 399 predictions; sampling draws 3,000
    Karhunen-Loeve replicates.
    """

    name = "fig8-spectral"
    nominal_round_s = 2.8
    alpha = 0.75
    h = 0.0025
    kappa = 1.5
    lengths = (1.0, 2.0)

    def __init__(self, seed: int):
        super().__init__(seed)
        self.spec = figure_eight_spec(*self.lengths)
        self.g = graph.figure_eight(*self.lengths)
        self.model = gf.FieldModel(kappa=self.kappa, tau=TAU, alpha=self.alpha)
        self.op = spectral.assemble(self.g, self.model, self.h)
        n = self.op.n_dof
        perm = self.rng.permutation(n)
        self.splits = [(perm[:800], perm[800:]), (perm[n - 800:], perm[: n - 800])]
        self.y = 0.5 * self.rng.standard_normal(800)
        self.iso_pts = self.spec.random_points(self.rng, 200)
        self.sample_seed = int(self.rng.integers(2**31))
        metrics.resistance_structure(self.g)

    def source(self, op):
        def cov(pts):
            nodes = [op.node_index(p) for p in pts]
            return spectral.spectral_cov(op, self.alpha, TAU, nodes=nodes).matrix
        return cov

    def nodes(self, idx):
        return [self.op.node_points[i] for i in idx]

    def op_cov(self, r):
        op = spectral.assemble(self.g, self.model, self.h)
        return spectral.spectral_cov(op, self.alpha, TAU)

    def op_sample(self, r):
        return spectral.kl_sample(self.op, self.alpha, TAU, 3000, self.sample_seed)

    def op_krige(self, r):
        src = self.source(self.op)
        return [
            inference.krige(src, self.nodes(o), self.y, NOISE_VAR, self.nodes(p))
            for o, p in self.splits
        ]

    def op_fit(self, r):
        kappa = self.fit_kappa(r)
        m = gf.FieldModel(kappa=kappa, tau=TAU, alpha=self.alpha)
        op = spectral.assemble(self.g, m, self.h)
        obs = self.nodes(self.splits[0][0])
        return kappa, inference.loglik(self.source(op), obs, self.y, NOISE_VAR)

    def op_iso(self, r):
        return kernels.iso_cov_matrix(self.g, resistance_model(self.kappa), self.iso_pts)

    def reference_pencil(self, kappa: float, h: float):
        """Mass and stiffness from the documented node numbering: vertices
        first, then interior nodes edge by edge."""
        nxt = self.spec.n_vertices
        elements, points = [], {}
        for eid, u, v, ell in self.spec.edges:
            nel = max(1, math.ceil(ell / h - 1e-12))
            nodes = [u, *range(nxt, nxt + nel - 1), v]
            nxt += nel - 1
            for k in range(nel):
                elements.append((nodes[k], nodes[k + 1], ell / nel))
            for k, node in enumerate(nodes):
                points.setdefault(node, (eid, ell * k / nel))
        mass, stiff = cf.p1_matrices(nxt, elements, kappa)
        return mass, stiff, [points[i] for i in range(nxt)]

    def check_outputs(self, c: Checks) -> None:
        spec, op, kappa = self.spec, self.op, self.kappa
        c.expect(spec.mismatch(self.g) is None, f"graph differs from spec: {spec.mismatch(self.g)}")
        mass, stiff, node_pts = self.reference_pencil(kappa, self.h)
        c.expect(op.n_dof == len(node_pts) == 1199, f"n_dof {op.n_dof}")
        c.expect(
            [(p.edge, p.t) for p in op.node_points] == node_pts,
            "node points differ from the documented numbering",
        )
        c.close(relerr(op.mass, mass), 1e-13, "mass matrix")
        c.close(relerr(op.stiffness, stiff), 1e-13, "stiffness matrix")

        # M-orthonormal eigenvectors
        vecs = op.eigenvectors
        gram = vecs.T @ op.mass @ vecs
        c.close(float(np.max(np.abs(gram - np.eye(op.n_dof)))), 1e-9, "V' M V = I")

        # loop eigenvalues, converging at second order in h
        targets = cf.loop_eigenvalues(kappa, self.lengths, 2)
        coarse = spectral.assemble(self.g, self.model, 2 * self.h).eigenvalues
        for lam in targets:
            fine_err = float(np.min(np.abs(op.eigenvalues - lam)))
            coarse_err = float(np.min(np.abs(coarse - lam)))
            c.close(fine_err / lam, 1e-4, f"loop eigenvalue {lam:.4f}")
            ratio = coarse_err / fine_err
            c.expect(3.5 <= ratio <= 4.5, f"eigenvalue {lam:.4f}: error ratio h/2h {ratio:.2f}")

        lam, basis = cf.pencil_eigen(mass, stiff)
        ref = cf.spectral_matrix(lam, basis, self.alpha, TAU)
        cov = self.last["cov_p50_s"]
        c.close(relerr(cov.matrix, ref), 1e-8, "alpha = 0.75 covariance vs reference pencil")

        # the fractional field is not Markov: loops are dependent given the hub
        loop1 = list(op.nodes_on_edge("p0.e1")[1:-1])
        loop2 = list(op.nodes_on_edge("p1.e1")[1:-1])
        witness = np.max(np.abs(cf.conditional_cov(cov.matrix, loop1, loop2, [0])))
        c.expect(witness >= 1e-3, f"non-Markov witness {witness:.3e} < 1e-3")

        # alpha = 1 through the spectrum agrees with the exact closed form
        markov = spectral.spectral_cov(op, 1.0, TAU).matrix
        exact_ref = spec.markov_cov(kappa, op.node_points)
        c.close(float(np.max(np.abs(markov - exact_ref))), 1e-4, "spectral alpha = 1 vs closed form")

        c.whitened(self.last["sample_p50_s"], ref, "KL samples")

        for (o, p), res in zip(self.splits, self.last["krige_p50_s"]):
            idx = np.concatenate([o, p])
            mean, pcov = cf.posterior(ref[np.ix_(idx, idx)], len(o), self.y, NOISE_VAR)
            c.close(relerr(res.mean, mean), 1e-7, "krige mean vs dense posterior")
            c.close(relerr(res.cov, pcov), 1e-7, "krige cov vs dense posterior")

        for kap, value in (self.fits[0], self.fits[-1]):
            shifted = lam + kap**2 - kappa**2
            ref_fit = cf.spectral_matrix(shifted, basis, self.alpha, TAU, rows=self.splits[0][0])
            ll = cf.log_likelihood(ref_fit, self.y, NOISE_VAR)
            c.close(abs(value - ll) / abs(ll), 1e-8, f"loglik at kappa {kap:.4f}")

        iso = self.last["iso_p50_s"].matrix
        c.close(relerr(iso, np.exp(-kappa * spec.resistance(self.iso_pts))), 1e-10,
                "iso entries vs exp(-kappa d_R)")


class SmallBatch(Workload):
    """Batches of small requests on the four canonical graphs.

    Per round: 160 covariances of 10-40 points, leave-one-out kriging of 40
    points on each graph (160 requests), a likelihood sweep over 25 new
    kappa values per graph, 20,000 replicates at 10 points, and sixteen
    40-point iso covariances.
    """

    name = "small-batch"
    nominal_round_s = 2.1
    kappa = 1.5
    cov_requests = 40
    loo_points = 40
    sweep = 25

    def __init__(self, seed: int):
        super().__init__(seed)
        u = self.rng.uniform
        self.specs = [
            circle_spec(u(1.5, 2.5)),
            star_spec([u(0.5, 1.5) for _ in range(3)]),
            tadpole_spec(u(1.5, 2.5), u(0.5, 1.5)),
            figure_eight_spec(u(0.8, 1.2), u(1.6, 2.4)),
        ]
        circle_len = self.specs[0].blocks[0][1]
        star_lens = [b[1] for b in self.specs[1].blocks]
        tad = [b[1] for b in self.specs[2].blocks]
        f8 = [b[1] for b in self.specs[3].blocks]
        self.graphs = [
            graph.circle(circle_len, 4),
            graph.star(star_lens),
            graph.tadpole(*tad),
            graph.figure_eight(*f8),
        ]
        self.model = gf.FieldModel(kappa=self.kappa, tau=TAU)
        self.cov_pts = [
            [s.random_points(self.rng, int(n)) for n in self.rng.integers(10, 41, self.cov_requests)]
            for s in self.specs
        ]
        self.loo = [s.random_points(self.rng, self.loo_points) for s in self.specs]
        self.y = [0.5 * self.rng.standard_normal(self.loo_points) for _ in self.specs]
        self.iso_pts = [[s.random_points(self.rng, 40) for _ in range(4)] for s in self.specs]
        self.sample_pts = self.specs[3].random_points(self.rng, 10)
        self.sample_seed = int(self.rng.integers(2**31))
        for g in self.graphs:
            exact.vertex_field_cov(g, self.model)
            metrics.resistance_structure(g)

    def op_cov(self, r):
        return [
            exact.full_cov(g, self.model, pts)
            for g, reqs in zip(self.graphs, self.cov_pts)
            for pts in reqs
        ]

    def op_sample(self, r):
        return exact.sample(self.graphs[3], self.model, self.sample_pts, 20000, self.sample_seed)

    def op_krige(self, r):
        out = []
        for g, pts, y in zip(self.graphs, self.loo, self.y):
            src = inference.exact_cov_source(g, self.model)
            for i in range(len(pts)):
                out.append(inference.krige(
                    src, pts[:i] + pts[i + 1:], np.delete(y, i), NOISE_VAR, [pts[i]]
                ))
        return out

    def op_fit(self, r):
        out = []
        for gi, (g, pts, y) in enumerate(zip(self.graphs, self.loo, self.y)):
            for i in range(self.sweep):
                kappa = self.fit_kappa(r, gi * self.sweep + i, len(self.graphs) * self.sweep)
                src = inference.exact_cov_source(g, gf.FieldModel(kappa=kappa, tau=TAU))
                out.append((gi, kappa, inference.loglik(src, pts, y, NOISE_VAR)))
        return out

    def op_iso(self, r):
        model = resistance_model(self.kappa)
        return [
            kernels.iso_cov_matrix(g, model, pts)
            for g, reqs in zip(self.graphs, self.iso_pts)
            for pts in reqs
        ]

    def check_outputs(self, c: Checks) -> None:
        kappa = self.kappa
        for s, g in zip(self.specs, self.graphs):
            c.expect(s.mismatch(g) is None, f"graph differs from spec: {s.mismatch(g)}")

        covs = iter(self.last["cov_p50_s"])
        for s, reqs in zip(self.specs, self.cov_pts):
            for pts in reqs:
                c.close(relerr(next(covs).matrix, s.markov_cov(kappa, pts)), 1e-10,
                        "full_cov vs vertex-precision closed form")
        ell = self.specs[0].blocks[0][1]
        for pts, cov in zip(self.cov_pts[0], self.last["cov_p50_s"]):
            pos = np.array([b[1] for b in self.specs[0].block_points(pts)])
            d = cf.cycle_geodesic(pos[:, None], pos[None, :], ell)
            c.close(relerr(cov.matrix, cf.circle_cov(d, kappa, TAU, ell)), 1e-10,
                    "circle covariance vs closed form")

        c.whitened(self.last["sample_p50_s"], self.specs[3].markov_cov(kappa, self.sample_pts),
                   "exact samples at 10 points")

        results = iter(self.last["krige_p50_s"])
        for s, pts, y in zip(self.specs, self.loo, self.y):
            full = s.markov_cov(kappa, pts)
            for i in range(len(pts)):
                order = [j for j in range(len(pts)) if j != i] + [i]
                mean, pcov = cf.posterior(full[np.ix_(order, order)], len(pts) - 1,
                                          np.delete(y, i), NOISE_VAR)
                res = next(results)
                c.close(relerr(res.mean, mean), 1e-8, "leave-one-out mean")
                c.close(relerr(res.cov, pcov), 1e-8, "leave-one-out variance")

        for gi, kap, value in self.fits[-1]:
            ll = cf.log_likelihood(self.specs[gi].markov_cov(kap, self.loo[gi]),
                                   self.y[gi], NOISE_VAR)
            c.close(abs(value - ll) / abs(ll), 1e-9, f"loglik at kappa {kap:.4f}")

        isos = iter(self.last["iso_p50_s"])
        for s, reqs in zip(self.specs, self.iso_pts):
            for pts in reqs:
                c.close(relerr(next(isos).matrix, np.exp(-kappa * s.resistance(pts))), 1e-10,
                        "iso entries vs exp(-kappa d_R)")


WORKLOADS = {w.name: w for w in (BouquetExact, Fig8Spectral, SmallBatch)}
