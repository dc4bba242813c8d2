"""Batch command line front end.

Subcommands: validate, cov, sample, spectral-cov, resistance, iso-cov,
markov-check, krige, nonexistence-demo. Every run is deterministic given
its inputs and seed; floats are printed with 17 significant digits so
reruns are byte-identical. Exit codes: 0 success, 2 validation error,
3 numerical failure.

Every malformed input exits 2 with one ``error:`` line: parameters and
counts are checked by the library's one helper for each, a graph or
config file that cannot be read or parsed is rejected, and every CSV goes
through ``_read_csv``, which rejects a file with a missing column, a value
that is not a number or no rows. In any CSV the ``edge`` column may be
headed ``edge_id`` instead.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import exact, inference, kernels, metrics, spectral
from .errors import NumericalError, ValidationError
from .graph import MetricGraph, PointOnGraph, build_graph, canonical, classify, mesh
from .models import FieldModel

FMT = "%.17g"


def _fmt(x) -> str:
    return FMT % float(x)


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _write_rows(path: str | None, header, rows) -> None:
    lines = []
    if header:
        lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(c if isinstance(c, str) else _fmt(c) for c in row))
    _write_text(path, "\n".join(lines) + "\n")


def _write_matrix(args, matrix: np.ndarray, points, extra=None) -> None:
    if args.format == "json":
        doc = {
            "points": [[p.edge, p.t] for p in points],
            "matrix": [[float(x) for x in row] for row in matrix],
        }
        if extra:
            doc.update(extra)
        _write_text(args.output, json.dumps(doc, sort_keys=True) + "\n")
    else:
        _write_rows(args.output, None, matrix)


def _load_graph(args) -> MetricGraph:
    if getattr(args, "graph", None):
        with open(args.graph) as fh:
            return build_graph(json.load(fh))
    if getattr(args, "config", None):
        with open(args.config) as fh:
            cfg = json.load(fh)
        if isinstance(cfg, dict) and "graph" in cfg:
            return build_graph(cfg["graph"])
    if getattr(args, "canonical", None):
        return canonical(args.canonical)
    raise ValidationError("no graph given: use --graph, --canonical or --config")


def _parse_field(value: str, name: str):
    try:
        return float(value)
    except ValueError:
        pass
    try:
        table = json.loads(value)
    except json.JSONDecodeError:
        raise ValidationError(f"cannot parse {name}={value!r}") from None
    if not isinstance(table, dict):
        raise ValidationError(f"{name} must be a number or a JSON object")
    return table


def _model(args) -> FieldModel:
    return FieldModel(
        kappa=_parse_field(args.kappa, "kappa"),
        a=_parse_field(args.a, "a"),
        tau=args.tau,
        alpha=args.alpha,
    )


def _read_csv(path: str, text: tuple, numbers: tuple = ("t",)) -> list[tuple]:
    """The one CSV reader: each row as its ``text`` columns, then its
    ``numbers`` columns as floats. A column named "edge" may be headed
    "edge_id". ValidationError for a file with no rows, a missing column or
    a value that is not a number."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh, restval="")  # a short row reads as blanks
        head = reader.fieldnames or []
        cols = [c + "_id" if c == "edge" and c not in head else c
                for c in text + numbers]
        missing = [c for c in cols if c not in head]
        if missing:
            raise ValidationError(f"{path} has no column {', '.join(missing)}")
        rows = []
        for row in reader:
            try:
                rows.append(tuple(row[c] for c in cols[: len(text)])
                            + tuple(float(row[c]) for c in cols[len(text) :]))
            except ValueError:
                raise ValidationError(
                    f"{path}, line {reader.line_num}: "
                    f"not a number in {', '.join(numbers)}"
                ) from None
    if not rows:
        raise ValidationError(f"no rows in {path}")
    return rows


def _read_points(g: MetricGraph, path: str) -> list[PointOnGraph]:
    return [g.point(edge, t) for edge, t in _read_csv(path, ("edge",))]


def _points_or_mesh(g: MetricGraph, args) -> list[PointOnGraph]:
    if args.points:
        return _read_points(g, args.points)
    if args.mesh_h is not None:
        return mesh(g, args.mesh_h)
    raise ValidationError("give either --points or --mesh-h")


# --- subcommands ------------------------------------------------------------


def _cmd_validate(args) -> int:
    g = _load_graph(args)
    flags = classify(g)
    report = {
        "valid": True,
        "vertices": g.vertex_count,
        "edges": g.edge_count,
        "total_length": g.total_length,
        "euclidean_edges": flags.euclidean_edges,
        "tree": flags.tree,
        "euclidean_cycle": flags.euclidean_cycle,
        "has_loops": flags.has_loops,
        "has_multi_edges": flags.has_multi_edges,
    }
    _write_text(args.output, json.dumps(report, sort_keys=True) + "\n")
    return 0


def _cmd_cov(args) -> int:
    g = _load_graph(args)
    pts = _points_or_mesh(g, args)
    cov = exact.full_cov(g, _model(args), pts)
    _write_matrix(args, cov.matrix, cov.points)
    return 0


def _cmd_sample(args) -> int:
    g = _load_graph(args)
    pts = _points_or_mesh(g, args)
    draws = exact.sample(g, _model(args), pts, args.n, args.seed)
    _write_rows(args.output, None, draws)
    return 0


def _cmd_spectral_cov(args) -> int:
    g = _load_graph(args)
    m = _model(args)
    op = spectral.assemble(g, m, args.mesh_h)
    nodes = None
    if args.points:
        nodes = [op.node_index(p) for p in _read_points(g, args.points)]
    cov = spectral.spectral_cov(op, m.alpha, m.tau, nodes=nodes, k=args.k)
    _write_matrix(args, cov.matrix, cov.points, extra={"info": cov.info})
    if args.eigenvalues_out:
        _write_rows(
            args.eigenvalues_out,
            ["k", "lambda"],
            [(str(i), lam) for i, lam in enumerate(op.eigenvalues)],
        )
    if args.nodes_out:
        _write_rows(
            args.nodes_out,
            ["edge", "t"],
            [(p.edge, p.t) for p in cov.points],
        )
    return 0


def _cmd_resistance(args) -> int:
    g = _load_graph(args)
    rows = []
    for edge_p, edge_q, t_p, t_q in _read_csv(
        args.pairs, ("edge_p", "edge_q"), ("t_p", "t_q")
    ):
        p, q = g.point(edge_p, t_p), g.point(edge_q, t_q)
        rows.append((
            p.edge, p.t, q.edge, q.t,
            metrics.geodesic_distance(g, p, q), metrics.resistance_distance(g, p, q),
        ))
    _write_rows(
        args.output, ["edge_p", "t_p", "edge_q", "t_q", "d_geo", "d_res"], rows
    )
    return 0


def _cmd_iso_cov(args) -> int:
    g = _load_graph(args)
    if args.kernel == "exponential":
        kernel = kernels.ExponentialKernel(sigma2=args.sigma2, kappa=args.kappa)
    else:
        if args.ell is None:
            raise ValidationError("circle-markov kernel needs --ell")
        kernel = kernels.CircleMarkovKernel(
            kappa=args.kappa, tau=args.tau, ell=args.ell
        )
    model = kernels.IsotropicModel(metric=args.metric, kernel=kernel)
    pts = _points_or_mesh(g, args)
    cov = kernels.iso_cov_matrix(g, model, pts)
    _write_matrix(
        args, cov.matrix, cov.points,
        extra={"min_eigenvalue": cov.min_eigenvalue()},
    )
    return 0


def _cmd_markov_check(args) -> int:
    g = _load_graph(args)
    m = _model(args)
    sets: dict[str, list[PointOnGraph]] = {"A": [], "B": [], "S": []}
    for name, edge, t in _read_csv(args.sets, ("set", "edge")):
        name = name.strip().upper()
        if name not in sets:
            raise ValidationError(f"set column must be A, B or S, got {name!r}")
        sets[name].append(g.point(edge, t))
    pts = sets["A"] + sets["B"] + sets["S"]
    na, nb = len(sets["A"]), len(sets["B"])
    idx_a = range(na)
    idx_b = range(na, na + nb)
    idx_s = range(na + nb, len(pts))
    if args.spectral:
        op = spectral.assemble(g, m, args.mesh_h)
        nodes = [op.node_index(p) for p in pts]
        cov = spectral.spectral_cov(op, m.alpha, m.tau, nodes=nodes)
    else:
        cov = exact.full_cov(g, m, pts)
    value = exact.markov_check(cov, idx_a, idx_b, idx_s)
    _write_rows(args.output, ["max_conditional_cov"], [(value,)])
    return 0


def _cmd_krige(args) -> int:
    g = _load_graph(args)
    m = _model(args)
    obs = _read_csv(args.obs, ("edge",), ("t", "y"))
    obs_pts = [g.point(edge, t) for edge, t, _ in obs]
    y = [row[2] for row in obs]
    pred = _read_points(g, args.pred)
    result = inference.krige(
        inference.exact_cov_source(g, m), obs_pts, y, args.noise, pred
    )
    rows = [
        (p.edge, p.t, mu, var)
        for p, mu, var in zip(pred, result.mean, result.variance)
    ]
    _write_rows(args.output, ["edge", "t", "mean", "var"], rows)
    return 0


def _cmd_nonexistence(args) -> int:
    if len(args.params) != 2:
        raise ValidationError(f"{args.case} needs exactly two lengths")
    if args.case == "two-cycles":
        h, lhs, rhs = kernels.two_cycles_profile(
            args.params[0], args.params[1], args.kappa, args.tau, grid=args.grid
        )
    else:
        h, lhs, rhs = kernels.cycle_plus_edge_profile(
            args.params[0],
            args.params[1],
            args.kappa1,
            args.kappa2,
            args.sigma,
            args.tau,
            grid=args.grid,
        )
    rows = zip(h, lhs, rhs, np.abs(lhs - rhs))
    _write_rows(args.output, ["h", "lhs", "rhs", "gap"], rows)
    return 0


# --- parser -----------------------------------------------------------------


def _add_graph_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph", help="graph JSON file")
    p.add_argument("--canonical", help="generator spec, e.g. star:1,1,1")
    p.add_argument("--config", help="JSON config; may embed the graph inline")
    p.add_argument("--output", "-o", help="output path (default: stdout)")


def _add_model_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kappa", default="1.0", help="float or JSON {edge: value}")
    p.add_argument("--a", default="1.0", help="float or JSON {edge: value}")
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=1.0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphfields",
        description="Gaussian random fields on compact metric graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a graph and report its class")
    _add_graph_opts(p)
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("cov", help="exact covariance matrix (alpha = 1)")
    _add_graph_opts(p)
    _add_model_opts(p)
    p.add_argument("--points", help="CSV with columns edge,t")
    p.add_argument("--mesh-h", type=float, help="mesh the graph at this spacing")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(fn=_cmd_cov)

    p = sub.add_parser("sample", help="draw exact field samples (alpha = 1)")
    _add_graph_opts(p)
    _add_model_opts(p)
    p.add_argument("--points", help="CSV with columns edge,t")
    p.add_argument("--mesh-h", type=float)
    p.add_argument("--n", type=int, required=True, help="number of replicates")
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("spectral-cov", help="eigenexpansion covariance, any alpha")
    _add_graph_opts(p)
    _add_model_opts(p)
    p.add_argument("--mesh-h", type=float, required=True)
    p.add_argument("--k", type=int, help="eigenpair truncation (default: all)")
    p.add_argument("--points", help="restrict to mesh nodes at these points")
    p.add_argument("--eigenvalues-out", help="write CSV (k, lambda)")
    p.add_argument("--nodes-out", help="write CSV (edge, t) of the node ordering")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(fn=_cmd_spectral_cov)

    p = sub.add_parser("resistance", help="geodesic and resistance distances")
    _add_graph_opts(p)
    p.add_argument("--pairs", required=True,
                   help="CSV with columns edge_p,t_p,edge_q,t_q")
    p.set_defaults(fn=_cmd_resistance)

    p = sub.add_parser("iso-cov", help="kernel-of-metric covariance matrix")
    _add_graph_opts(p)
    p.add_argument("--metric", choices=("geodesic", "resistance"),
                   default="geodesic")
    p.add_argument("--kernel", choices=("exponential", "circle-markov"),
                   default="exponential")
    p.add_argument("--sigma2", type=float, default=1.0)
    p.add_argument("--kappa", type=float, default=1.0)
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--ell", type=float, help="circle length (circle-markov)")
    p.add_argument("--points", help="CSV with columns edge,t")
    p.add_argument("--mesh-h", type=float)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(fn=_cmd_iso_cov)

    p = sub.add_parser("markov-check", help="conditional covariance of A,B given S")
    _add_graph_opts(p)
    _add_model_opts(p)
    p.add_argument("--sets", required=True, help="CSV with columns set,edge,t")
    p.add_argument("--spectral", action="store_true",
                   help="use the spectral covariance (for fractional alpha)")
    p.add_argument("--mesh-h", type=float, default=0.01,
                   help="mesh spacing for --spectral (default: %(default)s)")
    p.set_defaults(fn=_cmd_markov_check)

    p = sub.add_parser("krige", help="posterior mean/variance at prediction points")
    _add_graph_opts(p)
    _add_model_opts(p)
    p.add_argument("--obs", required=True, help="CSV with columns edge,t,y")
    p.add_argument("--pred", required=True, help="CSV with columns edge,t")
    p.add_argument("--noise", type=float, default=0.0)
    p.set_defaults(fn=_cmd_krige)

    p = sub.add_parser(
        "nonexistence-demo",
        help="isotropy/Markov incompatibility gap profiles",
    )
    p.add_argument("case", choices=("two-cycles", "cycle-plus-edge"))
    p.add_argument("params", type=float, nargs="+",
                   help="two-cycles: L1 L2; cycle-plus-edge: L L_edge")
    p.add_argument("--kappa", type=float, default=1.0)
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--kappa1", type=float, default=1.0)
    p.add_argument("--kappa2", type=float, default=1.0)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--grid", type=int, default=10000)
    p.add_argument("--output", "-o")
    p.set_defaults(fn=_cmd_nonexistence)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    # a file that cannot be read or parsed is bad input like any other
    except (ValidationError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
