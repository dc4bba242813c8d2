"""Compact metric graphs.

A metric graph is a finite set of vertices joined by edges of positive
length; every edge is identified with the interval [0, length] and points on
the graph are addressed as (edge id, arclength). Graphs are immutable after
construction, so derived structures (adjacency, vertex distance matrices)
are cached against the graph object itself.

Loops (u == v) and multiple edges between the same vertex pair are allowed
here; operations that require Euclidean edges reject them explicitly.

Meshes have one node layout, the cached ``_mesh``: :func:`mesh` walks it,
and the spectral operator numbers its nodes by it and builds its mass
matrix from it once per eigenbasis.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components, dijkstra

from .errors import (
    DanglingEndpointError,
    DisconnectedGraphError,
    GraphValidationError,
    NonPositiveLengthError,
    PointError,
    ValidationError,
)

__all__ = [
    "Edge",
    "PointOnGraph",
    "GraphClass",
    "MetricGraph",
    "build_graph",
    "classify",
    "one_sum",
    "canonical",
    "interval",
    "circle",
    "star",
    "figure_eight",
    "tadpole",
    "mesh",
    "subdivide_edge",
    "vertex_distance_matrix",
]

#: entries kept by each cache keyed on graphs or models; a long-lived
#: process visiting many parameter values must not grow without bound
CACHE_SIZE = 8


def _count(value, name: str, low: int = 0, high: float = math.inf, *,
           error: type = ValidationError) -> int:
    """``value`` as an int in [low, high]; bools and floats are rejected,
    numpy integers accepted. The one check every count goes through (vertex
    indices included, so it lives below ``models``)."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or not low <= value <= high):
        raise error(f"{name} must be an integer in [{low}, {high}], got {value!r}")
    return int(value)


def _scalar(value, name: str, low: float = 0.0, *, strict: bool = True,
            error: type = ValidationError) -> float:
    """``value`` as a finite float above ``low`` (at or above it when not
    ``strict``); bools and strings are rejected, where ``float`` would take
    True or parse "1.5". The one check every scalar parameter goes through
    (edge lengths, arclengths and mesh spacings included, so it lives below
    ``models``)."""
    try:
        if isinstance(value, (bool, np.bool_, str, bytes)):
            raise TypeError
        x = float(value)
    except (TypeError, ValueError):
        raise error(f"{name} must be a number, got {value!r}") from None
    if not (math.isfinite(x) and (x > low if strict else x >= low)):
        op = ">" if strict else ">="
        rule = "positive and finite" if strict and low == 0.0 else f"finite and {op} {low:g}"
        raise error(f"{name} must be {rule}, got {x}")
    return x


def _arclength(t) -> float:
    """An arclength as a float (``_scalar``, PointError). A float passes as
    it is, NaN included, to ``MetricGraph.point``'s range check."""
    return t if isinstance(t, float) else _scalar(t, "arclength", -math.inf, error=PointError)


class Edge(NamedTuple):
    id: str
    u: int
    v: int
    length: float


class PointOnGraph(NamedTuple):
    """A location on the graph: arclength ``t`` in [0, length] along ``edge``."""

    edge: str
    t: float


@dataclass(frozen=True)
class GraphClass:
    """Structural flags of a metric graph (see :func:`classify`)."""

    euclidean_edges: bool
    tree: bool
    euclidean_cycle: bool
    has_loops: bool
    has_multi_edges: bool


@dataclass(frozen=True)
class MetricGraph:
    """Immutable, validated compact metric graph.

    Parameters
    ----------
    vertex_count : int
        Number of vertices, indexed 0 .. vertex_count - 1.
    edges : sequence of Edge
        Edges with unique ids, valid endpoint indices and positive lengths.
        Each length goes through ``_scalar`` and is stored as a Python float
        (a bool, None or a non-number raises ``NonPositiveLengthError``).
        Edge order is preserved and meaningful (meshes, covariance layouts).
    """

    vertex_count: int
    edges: tuple[Edge, ...]
    # derived once, outside equality: edge id -> index, per-edge end vertices
    # and lengths as arrays, per-vertex incident edge ends, and the hash that
    # every cache keyed on the graph would otherwise recompute over all edges
    _index: dict[str, int] = field(init=False, repr=False, compare=False)
    _edge_arrays: tuple[np.ndarray, np.ndarray, np.ndarray] = field(
        init=False, repr=False, compare=False
    )
    _incident: tuple[tuple[tuple[int, int], ...], ...] = field(
        init=False, repr=False, compare=False
    )
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertex_count", _count(
            self.vertex_count, "vertex count", 1, error=GraphValidationError))
        edges = tuple(Edge(*e) for e in self.edges)
        object.__setattr__(self, "edges", tuple(e._replace(length=_scalar(
            e.length, f"edge {e.id!r} length", error=NonPositiveLengthError)) for e in edges))
        if not self.edges:
            raise GraphValidationError("graph needs at least one edge")
        seen: set[str] = set()
        for e in self.edges:
            if e.id in seen:
                raise GraphValidationError(f"duplicate edge id {e.id!r}")
            seen.add(e.id)
            for k in ("u", "v"):
                _count(getattr(e, k), f"edge {e.id!r} end {k!r}", -math.inf,
                       error=GraphValidationError)
            if not (0 <= e.u < self.vertex_count and 0 <= e.v < self.vertex_count):
                raise DanglingEndpointError(
                    f"edge {e.id!r} endpoint outside [0, {self.vertex_count})"
                )
        object.__setattr__(self, "_index", {e.id: j for j, e in enumerate(self.edges)})
        _, u, v, length = zip(*self.edges)
        arrays = (
            np.array(u, dtype=np.intp),
            np.array(v, dtype=np.intp),
            np.array(length, dtype=float),
        )
        for arr in arrays:
            arr.flags.writeable = False
        object.__setattr__(self, "_edge_arrays", arrays)
        ends: list[list[tuple[int, int]]] = [[] for _ in range(self.vertex_count)]
        for j, e in enumerate(self.edges):
            ends[e.u].append((j, 0))
            ends[e.v].append((j, 1))
        object.__setattr__(self, "_incident", tuple(map(tuple, ends)))
        self._check_connected()
        object.__setattr__(self, "_hash", hash((self.vertex_count, self.edges)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # string hashes differ between processes: rebuild, never copy _hash
        return (MetricGraph, (self.vertex_count, self.edges))

    def _check_connected(self) -> None:
        """Every vertex must lie in vertex 0's connected component of
        ``_adjacency`` (an isolated vertex never does: a one-vertex graph
        carries only loops)."""
        labels = connected_components(_adjacency(self), directed=False)[1]
        reached = np.count_nonzero(labels == labels[0])
        if reached != self.vertex_count:
            raise DisconnectedGraphError(
                f"graph is disconnected: reached {reached} of "
                f"{self.vertex_count} vertices"
            )

    # -- basic queries ----------------------------------------------------

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def total_length(self) -> float:
        return float(sum(e.length for e in self.edges))

    def edge_index(self, edge_id: str) -> int:
        try:
            return self._index[edge_id]
        except KeyError:
            raise PointError(f"unknown edge id {edge_id!r}") from None

    def edge(self, edge_id: str) -> Edge:
        return self.edges[self.edge_index(edge_id)]

    def degree(self, v: int) -> int:
        """Vertex degree; a loop contributes 2."""
        return len(self.incident(v))

    def incident(self, v: int) -> tuple[tuple[int, int], ...]:
        """Incident (edge index, end) pairs in edge order; end is 0 for t=0,
        1 for t=length. Empty for an integer outside the graph."""
        v = _count(v, "vertex", -math.inf, error=GraphValidationError)
        return self._incident[v] if 0 <= v < self.vertex_count else ()

    # -- points -----------------------------------------------------------

    def point(self, edge_id: str, t: float) -> PointOnGraph:
        """Validated point; ``t`` is a number (``_arclength``) and may exceed
        [0, length] by a 1e-12 slack only."""
        e = self.edge(edge_id)
        t = _arclength(t)
        slack = 1e-12 * max(1.0, e.length)
        if not (-slack <= t <= e.length + slack):
            raise PointError(
                f"arclength {t} outside [0, {e.length}] on edge {edge_id!r}"
            )
        return PointOnGraph(edge_id, min(max(t, 0.0), e.length))

    def vertex_of(self, p: PointOnGraph) -> int | None:
        """Vertex index if ``p`` sits exactly at an edge endpoint, else None."""
        e = self.edge(p.edge)
        if p.t == 0.0:
            return e.u
        if p.t == e.length:
            return e.v
        return None

    def vertex_point(self, v: int) -> PointOnGraph:
        """Canonical point address of vertex ``v`` (first incident edge end)."""
        v = _count(v, "vertex", 0, self.vertex_count - 1, error=PointError)
        j, end = self._incident[v][0]
        e = self.edges[j]
        return PointOnGraph(e.id, e.length if end else 0.0)

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "vertices": self.vertex_count,
            "edges": [
                {"id": e.id, "u": e.u, "v": e.v, "length": e.length}
                for e in self.edges
            ],
        }

    @staticmethod
    def from_json(doc: Mapping | str) -> "MetricGraph":
        if isinstance(doc, str):
            doc = json.loads(doc)
        return build_graph(doc)


def build_graph(spec: Mapping) -> MetricGraph:
    """Build a validated graph from a JSON-shaped description.

    Expected shape: ``{"vertices": N, "edges": [{"id", "u", "v", "length"}]}``.
    Edge ids default to ``e<position>`` when omitted. ``MetricGraph`` checks
    the vertex count and the vertex indices as counts (a float such as 2.9
    or 0.5 is rejected, never truncated) and the lengths as scalars (a bool
    is rejected).
    """
    try:
        nv = spec["vertices"]
        edges = tuple(
            Edge(str(ed.get("id", f"e{j}")), ed["u"], ed["v"], ed["length"])
            for j, ed in enumerate(spec["edges"])
        )
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise GraphValidationError(f"malformed graph description: {exc}") from None
    return MetricGraph(nv, edges)


# -- points as arrays (shared by the exact field and the metrics) -----------


def _point_arrays(g: MetricGraph, pts: Sequence[PointOnGraph]):
    """Validated points and their per-point arrays (pts, j, t, u, v, L).

    The points pass the checks of ``g.point`` as arrays: a known edge id,
    a float t (``_arclength``), and t within [0, L]. Every other point goes
    through ``g.point`` itself, in order, so the first that fails raises the
    error ``g.point`` raises, and one within the 1e-12 slack of an edge end,
    or with a t of another number type, is rebuilt. j is each point's edge
    index, t its arclength, u and v the edge's start and end vertices and L
    the edge length.
    """
    pts = list(pts)
    n = len(pts)
    j = np.fromiter((g._index.get(p.edge, -1) for p in pts), dtype=np.intp, count=n)
    t = [p.t for p in pts]
    if not all(map(float.__instancecheck__, t)):  # ``g.point`` reads the others below
        t = [x if isinstance(x, float) else np.nan for x in t]
    t = np.array(t, dtype=float)
    u, v, length = g._edge_arrays
    ell = length[j]
    for i in np.flatnonzero(~((j >= 0) & (0.0 <= t) & (t <= ell))):  # NaN fails too
        pts[i] = g.point(pts[i].edge, pts[i].t)
        t[i] = pts[i].t
    return pts, j, t, u[j], v[j], ell


def _same_edge_pairs(j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every ordered pair (r, c) of points on one edge, given edge indices j.

    Points are grouped by a stable sort, and sorted position p pairs with
    each member of its group: sum over edges of count^2 pairs, not n^2.
    Group sizes are ``np.bincount(j)`` in edge order, as the sort takes
    them, and each group starts where the sizes before it end; an unused
    edge's count of 0 repeats nothing.
    """
    order = np.argsort(j, kind="stable")
    count = np.bincount(j)
    first = np.cumsum(count) - count
    size = np.repeat(count, count)
    rows = np.repeat(order, size)
    within = np.arange(rows.size) - np.repeat(np.cumsum(size) - size, size)
    cols = order[np.repeat(np.repeat(first, count), size) + within]
    return rows, cols


def _symmetrize(C: np.ndarray) -> np.ndarray:
    """(C + C') / 2 in place, 32 rows at a time: no second n x n array.

    Row block i..j reads its columns of C below the diagonal before any
    block writes there, then mirrors its finished rows into them, so the
    result is exactly symmetric. A block of the last row alone would only
    rewrite its diagonal entry, so none starts there (nor at all for a
    1 x 1 matrix).
    """
    for i in range(0, C.shape[0] - 1, 32):
        j = i + 32
        C[i:j, i:] = 0.5 * (C[i:j, i:] + C[i:, i:j].T)
        C[j:, i:j] = C[i:j, j:].T
    return C


#: ``_sandwich`` builds Phi dense for tables of at most this order and in
#: CSR above it. A dense Phi skips the ``csr_array`` constructor's format
#: checks (about 25 us per call) but multiplies by every zero of its n x |V|
#: entries. Timed over n = 40-1,500 points (best of 5, single-thread BLAS,
#: shared 2-core Xeon), dense vs CSR: at |V| = 20 it was no slower at any n
#: (11 vs 35 us at 40 points, 2.88 vs 2.94 ms at 1,500); at |V| = 24 and
#: 1,500 points it was 14% slower, at |V| = 32 and 250-1,500 points 15-50%
#: slower, and at |V| = 301 and 40 points 2.9x slower.
_DENSE_PHI_MAX = 20


def _phi(order: int, u, v, w_u, w_v):
    """Phi with row i = w_u[i] e_u[i] + w_v[i] e_v[i] and ``order`` columns.

    Up to ``_DENSE_PHI_MAX`` columns Phi is a dense n x ``order`` array, at
    most as large as the n x n product ``_sandwich`` forms once n exceeds
    the constant; a loop's (u == v) two weights add in its one entry. Above
    it Phi is built in CSR form directly, two entries per row with the
    weights interleaved, so a loop's two weights stay two entries and no
    COO conversion runs.
    """
    n = len(u)
    if order <= _DENSE_PHI_MAX:
        phi = np.zeros((n, order))
        rows = np.arange(n)
        phi[rows, u] = w_u
        phi[rows, v] += w_v
        return phi
    return csr_array(
        (
            np.column_stack((w_u, w_v)).ravel(),
            np.column_stack((u, v)).ravel(),
            np.arange(0, 2 * n + 1, 2),
        ),
        shape=(n, order),
    )


def _sandwich(table: np.ndarray, u, v, w_u, w_v) -> np.ndarray:
    """Phi T Phi' for a symmetric table T and Phi = ``_phi`` of its order,
    dense up to ``_DENSE_PHI_MAX`` table rows and CSR above. The result is
    not symmetrized.
    """
    phi = _phi(table.shape[0], u, v, w_u, w_v)
    return phi @ (phi @ table).T


# -- vertex distances (used by classification and the metrics module) ------


def _adjacency(g: MetricGraph) -> csr_array:
    """The vertices' adjacency, for an undirected ``dijkstra`` and for
    ``MetricGraph``'s connectivity check: each pair of distinct vertices
    joined by an edge, once (lower index first), at the length of its
    shortest edge. Loops are left out: they never shorten a
    vertex-to-vertex path, nor join anything. The pairs are sorted and
    distinct, so the CSR arrays are built directly (row pointers from a
    count of the lower ends), with no COO conversion."""
    u, v, length = g._edge_arrays
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    order = np.lexsort((length, hi, lo))  # each pair's shortest edge first
    lo, hi, length = lo[order], hi[order], length[order]
    keep = lo != hi
    keep[1:] &= (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
    n = g.vertex_count
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(lo[keep], minlength=n), out=indptr[1:])
    return csr_array((length[keep], hi[keep], indptr), shape=(n, n))


@lru_cache(maxsize=CACHE_SIZE)
def vertex_distance_matrix(g: MetricGraph) -> np.ndarray:
    """All-pairs geodesic distances between vertices (read-only array), by
    Dijkstra on ``_adjacency``: parallel edges collapse to their minimum
    length, and loops never shorten a vertex-to-vertex path.
    """
    dist = dijkstra(_adjacency(g), directed=False)
    dist.flags.writeable = False
    return dist


#: ``_edges_are_geodesics`` runs Dijkstra from this many sources at a time
_DIJKSTRA_BLOCK = 256


def _edges_are_geodesics(g: MetricGraph) -> bool:
    """Whether every edge's length is, within 1e-12 relative, the geodesic
    distance between its ends, for a graph with no loop and no multi-edge.

    No path longer than the longest edge decides anything, so Dijkstra runs
    from the edge starts with that limit, a block of sources at a time,
    and never forms the all-pairs table.
    """
    u, v, length = g._edge_arrays
    adjacency = _adjacency(g)
    sources, row = np.unique(u, return_inverse=True)
    limit = length.max()
    for lo in range(0, sources.size, _DIJKSTRA_BLOCK):
        dist = dijkstra(adjacency, directed=False, indices=sources[lo:lo + _DIJKSTRA_BLOCK],
                        limit=limit)
        mine = (row >= lo) & (row < lo + _DIJKSTRA_BLOCK)
        ell = length[mine]
        if np.any(np.abs(dist[row[mine] - lo, v[mine]] - ell) > 1e-12 * np.maximum(1.0, ell)):
            return False
    return True


def classify(g: MetricGraph) -> GraphClass:
    """Compute structural flags.

    ``euclidean_edges`` requires: no loops, no multi-edges, and for every
    edge the geodesic distance between its endpoints equals the edge length
    (distance consistency). ``euclidean_cycle`` additionally requires the
    graph to be a single cycle.
    """
    has_loops = any(e.u == e.v for e in g.edges)
    pairs = [frozenset((e.u, e.v)) for e in g.edges if e.u != e.v]
    loop_vs = [e.u for e in g.edges if e.u == e.v]
    has_multi = len(pairs) != len(set(pairs)) or len(loop_vs) != len(set(loop_vs))
    tree = (not has_loops) and g.edge_count == g.vertex_count - 1

    euclidean = not has_loops and not has_multi and _edges_are_geodesics(g)

    cycle = (
        euclidean
        and g.edge_count == g.vertex_count
        and all(g.degree(v) == 2 for v in range(g.vertex_count))
    )
    return GraphClass(
        euclidean_edges=euclidean,
        tree=tree,
        euclidean_cycle=cycle,
        has_loops=has_loops,
        has_multi_edges=has_multi,
    )


# -- composition ------------------------------------------------------------


def one_sum(
    parts: Sequence[MetricGraph],
    joins: Sequence[tuple[int, int]],
) -> MetricGraph:
    """Glue graphs at single shared vertices (iterated 1-sum).

    ``joins[i] = (w, x)`` identifies vertex ``w`` of the sum of
    ``parts[:i+1]`` with vertex ``x`` of ``parts[i+1]``. Vertex indices of
    the accumulated graph are preserved; each subsequent part's remaining
    vertices are appended in order. Geodesic distances inside every part are
    unchanged, and cross-part distances go through the join points.

    Edge ids are kept when globally unique, otherwise every id is prefixed
    with ``p<part index>.``.
    """
    if not parts:
        raise GraphValidationError("one_sum needs at least one part")
    if len(joins) != len(parts) - 1:
        raise GraphValidationError(
            f"expected {len(parts) - 1} joins for {len(parts)} parts, "
            f"got {len(joins)}"
        )
    all_ids = [e.id for p in parts for e in p.edges]
    rename = len(all_ids) != len(set(all_ids))

    def eid(i: int, e: Edge) -> str:
        return f"p{i}.{e.id}" if rename else e.id

    nv = parts[0].vertex_count
    edges = [Edge(eid(0, e), e.u, e.v, e.length) for e in parts[0].edges]
    for i, part in enumerate(parts[1:], start=1):
        w, x = joins[i - 1]
        w = _count(w, f"join {i - 1}: vertex of the sum", 0, nv - 1, error=GraphValidationError)
        x = _count(x, f"join {i - 1}: vertex of part {i}", 0, part.vertex_count - 1,
                   error=GraphValidationError)
        remap = {}
        nxt = nv
        for v in range(part.vertex_count):
            if v == x:
                remap[v] = w
            else:
                remap[v] = nxt
                nxt += 1
        nv = nxt
        edges.extend(
            Edge(eid(i, e), remap[e.u], remap[e.v], e.length) for e in part.edges
        )
    return MetricGraph(nv, tuple(edges))


# -- canonical generators ----------------------------------------------------


def interval(length: float = 1.0) -> MetricGraph:
    """Single edge between vertices 0 and 1."""
    return MetricGraph(2, (Edge("e0", 0, 1, length),))


def circle(length: float = 1.0, n: int = 4) -> MetricGraph:
    """Cycle of total length ``length`` with ``n`` equally spaced vertices.

    n = 1 gives a loop edge, n = 2 a double edge; n >= 3 gives a graph with
    Euclidean edges (a Euclidean cycle).
    """
    n = _count(n, "circle vertex count", 1, error=GraphValidationError)
    piece = _scalar(length, "circle length", error=NonPositiveLengthError) / n
    edges = tuple(Edge(f"e{j}", j, (j + 1) % n, piece) for j in range(n))
    return MetricGraph(n, edges)


def star(lengths: Iterable[float]) -> MetricGraph:
    """Star with leaves 0..k-1 and center k; edge j runs leaf -> center."""
    ls = list(lengths)
    if not ls:
        raise GraphValidationError("star needs at least one edge")
    k = len(ls)
    edges = tuple(Edge(f"e{j}", j, k, ls[j]) for j in range(k))
    return MetricGraph(k + 1, edges)


def figure_eight(
    length1: float, length2: float, n1: int = 4, n2: int = 4
) -> MetricGraph:
    """1-sum of two subdivided circles sharing one vertex (vertex 0).

    With the default subdivisions both cycles have Euclidean edges, so the
    result is a graph with Euclidean edges whose two cycles have lengths
    ``length1`` and ``length2``.
    """
    return one_sum([circle(length1, n1), circle(length2, n2)], [(0, 0)])


def tadpole(
    cycle_length: float, edge_length: float, n: int = 4
) -> MetricGraph:
    """Subdivided circle with a pendant edge attached at vertex 0."""
    return one_sum([circle(cycle_length, n), interval(edge_length)], [(0, 0)])


_CANONICAL_KINDS = frozenset(
    {"interval", "circle", "star", "figure-eight", "figure_eight", "tadpole"}
)


def canonical(spec: str) -> MetricGraph:
    """Parse a generator spec like ``"star:1,1,1"`` or ``"circle:2,4"``.

    Forms: ``interval:L`` | ``circle:L,N`` | ``star:L1,L2,...`` |
    ``figure-eight:L1,L2[,N1,N2]`` | ``tadpole:Lcycle,Ledge[,N]``.
    """
    kind, _, rest = spec.partition(":")
    kind = kind.strip().lower()
    if kind not in _CANONICAL_KINDS:
        raise GraphValidationError(f"unknown canonical graph kind {kind!r}")
    args = [s for s in rest.split(",") if s.strip()]
    try:
        if kind == "star":
            return star([float(a) for a in args])
        if kind == "interval":
            return interval(float(args[0])) if args else interval()
        if kind == "circle":
            return circle(float(args[0]), int(args[1]) if len(args) > 1 else 4)
        if kind in ("figure-eight", "figure_eight"):
            ns = [int(a) for a in args[2:4]] or [4, 4]
            return figure_eight(float(args[0]), float(args[1]), *ns)
        return tadpole(
            float(args[0]), float(args[1]), int(args[2]) if len(args) > 2 else 4
        )
    except (IndexError, ValueError) as exc:
        raise GraphValidationError(f"bad canonical spec {spec!r}: {exc}") from None


# -- meshing and subdivision -------------------------------------------------


class _Mesh(NamedTuple):
    """Mesh of spacing <= h: per-edge node tuples, the point of every node
    and, over all elements, end nodes (i0, i1), lengths and the element
    count of each edge."""

    edge_nodes: tuple[tuple[int, ...], ...]
    node_points: tuple[PointOnGraph, ...]
    n_dof: int
    i0: np.ndarray
    i1: np.ndarray
    he: np.ndarray
    nel: np.ndarray


@lru_cache(maxsize=CACHE_SIZE)
def _mesh(g: MetricGraph, h: float) -> _Mesh:
    """The one node layout behind :func:`mesh` and the spectral operator.

    Edge e gets nel = ceil(length / h) elements and its node k sits at
    t = length * (k / nel), so the ends land exactly on 0 and length. Nodes
    0 .. vertex_count-1 are the vertices, each at ``g.vertex_point(v)``;
    the interior nodes follow edge by edge. Arrays are read-only. ``h`` is
    a float that :func:`mesh` or ``spectral.assemble`` has checked.
    """
    edge_nodes: list[tuple[int, ...]] = []
    points = [g.vertex_point(v) for v in range(g.vertex_count)]
    n_dof = g.vertex_count
    for e in g.edges:
        nel = max(1, math.ceil(e.length / h - 1e-12))
        edge_nodes.append((e.u, *range(n_dof, n_dof + nel - 1), e.v))
        points.extend(PointOnGraph(e.id, e.length * (k / nel)) for k in range(1, nel))
        n_dof += nel - 1
    nel = np.array([len(nodes) - 1 for nodes in edge_nodes])
    arrays = (
        np.concatenate([nodes[:-1] for nodes in edge_nodes]),
        np.concatenate([nodes[1:] for nodes in edge_nodes]),
        np.repeat(g._edge_arrays[2] / nel, nel),
        nel,
    )
    for arr in arrays:
        arr.flags.writeable = False
    return _Mesh(tuple(edge_nodes), tuple(points), n_dof, *arrays)


def mesh(g: MetricGraph, h: float) -> list[PointOnGraph]:
    """Points covering the graph at spacing <= h, vertices deduplicated.

    Every edge contributes nodes at t = length * (k / ceil(length / h)); an
    endpoint is emitted only the first time its vertex appears (edge order,
    then t ascending), so each vertex shows up exactly once. ``h`` is read
    by ``_scalar`` first: a finite number > 0, never a bool or a string,
    else ``PointError``.
    """
    m = _mesh(g, _scalar(h, "mesh spacing", error=PointError))
    walk = dict.fromkeys(dof for nodes in m.edge_nodes for dof in nodes)
    return [m.node_points[dof] for dof in walk]


def subdivide_edge(g: MetricGraph, edge_id: str, parts: int) -> MetricGraph:
    """Split one edge into ``parts`` pieces with new degree-2 vertices.

    New vertices are appended after the existing ones, so original vertex
    indices are preserved; the pieces are named ``<edge_id>.<k>``.
    """
    parts = _count(parts, "subdivision parts", 2, error=GraphValidationError)
    j = g.edge_index(edge_id)
    old = g.edges[j]
    nv = g.vertex_count
    chain = [old.u] + list(range(nv, nv + parts - 1)) + [old.v]
    pieces = tuple(
        Edge(f"{edge_id}.{k}", chain[k], chain[k + 1], old.length / parts)
        for k in range(parts)
    )
    edges = g.edges[:j] + pieces + g.edges[j + 1 :]
    return MetricGraph(nv + parts - 1, edges)
