import csv
import json

import numpy as np
import pytest

import graphfields as gf
from graphfields.cli import main

from oracles import subdivided_distances


@pytest.fixture
def star_json(tmp_path):
    path = tmp_path / "star.json"
    path.write_text(json.dumps(gf.star([1.0, 1.0, 1.0]).to_json()))
    return str(path)


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    return str(path)


def read_csv(path):
    """The rows of a CSV file as dicts, with the file closed."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_validate_star(star_json, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["validate", "--graph", star_json, "-o", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["valid"] and report["tree"]
    assert report["vertices"] == 4


def test_validate_bad_graph_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(
        {"vertices": 2, "edges": [{"u": 0, "v": 1, "length": -1.0}]}
    ))
    assert main(["validate", "--graph", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


def test_missing_graph_exits_2(capsys):
    assert main(["validate"]) == 2


def test_missing_file_exits_2(capsys):
    assert main(["validate", "--graph", "/nonexistent/g.json"]) == 2


def test_config_inline_graph(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"graph": gf.interval(1.0).to_json()}))
    out = tmp_path / "r.json"
    assert main(["validate", "--config", str(cfg), "-o", str(out)]) == 0
    assert json.loads(out.read_text())["edges"] == 1


def test_cov_then_markov_check_pipeline(star_json, tmp_path):
    pts = write_csv(
        tmp_path / "pts.csv", ["edge", "t"],
        [["e0", 0.25], ["e0", 0.5], ["e1", 0.5]],
    )
    out = tmp_path / "cov.csv"
    assert main(["cov", "--graph", star_json, "--points", pts,
                 "-o", str(out)]) == 0
    mat = np.loadtxt(out, delimiter=",")
    assert mat.shape == (3, 3)
    assert np.all(np.linalg.eigvalsh(mat) > 0)

    sets = write_csv(
        tmp_path / "sets.csv", ["set", "edge", "t"],
        [["A", "e0", 0.3], ["A", "e0", 0.6], ["B", "e1", 0.4],
         ["B", "e1", 0.7], ["S", "e0", 1.0]],
    )
    out2 = tmp_path / "mk.csv"
    assert main(["markov-check", "--graph", star_json, "--sets", sets,
                 "-o", str(out2)]) == 0
    lines = out2.read_text().strip().splitlines()
    assert lines[0] == "max_conditional_cov"
    assert float(lines[1]) <= 1e-10


def test_markov_check_singular_exits_3(star_json, tmp_path):
    sets = write_csv(
        tmp_path / "sets.csv", ["set", "edge", "t"],
        [["A", "e0", 0.3], ["B", "e1", 0.4], ["S", "e2", 0.5],
         ["S", "e2", 0.5]],
    )
    assert main(["markov-check", "--graph", star_json, "--sets", sets]) == 3


def test_sample_deterministic_reruns(star_json, tmp_path):
    pts = write_csv(tmp_path / "pts.csv", ["edge", "t"],
                    [["e0", 0.5], ["e1", 0.5]])
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    args = ["sample", "--graph", star_json, "--points", pts,
            "--n", "16", "--seed", "99"]
    assert main(args + ["-o", str(out1)]) == 0
    assert main(args + ["-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert np.loadtxt(out1, delimiter=",").shape == (16, 2)


def test_spectral_cov_outputs(star_json, tmp_path):
    out = tmp_path / "spec.csv"
    eig = tmp_path / "eig.csv"
    nodes = tmp_path / "nodes.csv"
    assert main([
        "spectral-cov", "--graph", star_json, "--alpha", "0.75",
        "--mesh-h", "0.2", "-o", str(out),
        "--eigenvalues-out", str(eig), "--nodes-out", str(nodes),
    ]) == 0
    mat = np.loadtxt(out, delimiter=",")
    with open(nodes) as fh:
        n_nodes = sum(1 for _ in fh) - 1
    assert mat.shape == (n_nodes, n_nodes)
    rows = read_csv(eig)
    assert rows[0]["k"] == "0"
    lam = [float(r["lambda"]) for r in rows]
    assert lam == sorted(lam)
    assert lam[0] == pytest.approx(1.0, abs=1e-6)


def test_spectral_cov_reruns_byte_identical(star_json, tmp_path):
    from graphfields.spectral import _eigenbasis

    outs = []
    for run in range(2):
        out, eig = tmp_path / f"spec{run}.csv", tmp_path / f"eig{run}.csv"
        hits = _eigenbasis.cache_info().hits
        assert main([
            "spectral-cov", "--graph", star_json, "--alpha", "0.75",
            "--kappa", "1.3", "--mesh-h", "0.05", "-o", str(out),
            "--eigenvalues-out", str(eig),
        ]) == 0
        outs.append((out.read_bytes(), eig.read_bytes()))
    # the second run takes its basis from the cache
    assert _eigenbasis.cache_info().hits == hits + 1
    assert outs[0] == outs[1]


def test_spectral_cov_alpha_too_small_exits_2(star_json, tmp_path):
    assert main(["spectral-cov", "--graph", star_json, "--alpha", "0.4",
                 "--mesh-h", "0.2"]) == 2


def test_resistance_csv(tmp_path):
    graph = tmp_path / "circle.json"
    graph.write_text(json.dumps(gf.circle(2.0, 4).to_json()))
    pairs = write_csv(
        tmp_path / "pairs.csv", ["edge_p", "t_p", "edge_q", "t_q"],
        [["e0", 0.0, "e1", 0.0], ["e0", 0.0, "e2", 0.0]],
    )
    out = tmp_path / "res.csv"
    assert main(["resistance", "--graph", str(graph), "--pairs", pairs,
                 "-o", str(out)]) == 0
    rows = read_csv(out)
    assert float(rows[0]["d_geo"]) == pytest.approx(0.5)
    assert float(rows[0]["d_res"]) == pytest.approx(0.375)
    assert float(rows[1]["d_geo"]) == pytest.approx(1.0)
    assert float(rows[1]["d_res"]) == pytest.approx(0.5)


def oracle_rows(g, pts):
    """(geodesic, resistance) at the points from the subdivided-graph oracle."""
    return subdivided_distances(
        g.vertex_count,
        [(e.u, e.v, e.length) for e in g.edges],
        [(g.edge_index(p.edge), p.t) for p in pts],
    )


def test_resistance_figure_eight_matches_oracle(tmp_path):
    g = gf.canonical("figure-eight:1,2")
    rng = np.random.default_rng(61)
    pairs = []
    for _ in range(12):
        p, q = (g.edges[k] for k in rng.integers(g.edge_count, size=2))
        pairs.append([p.id, rng.uniform(0, p.length), q.id, rng.uniform(0, q.length)])
    path = write_csv(tmp_path / "pairs.csv", ["edge_p", "t_p", "edge_q", "t_q"], pairs)
    out = tmp_path / "res.csv"
    assert main(["resistance", "--canonical", "figure-eight:1,2",
                 "--pairs", path, "-o", str(out)]) == 0
    for row, (ep, tp, eq, tq) in zip(read_csv(out), pairs):
        geo, res = oracle_rows(g, [g.point(ep, tp), g.point(eq, tq)])
        assert float(row["d_geo"]) == pytest.approx(geo[0, 1], rel=1e-10)
        assert float(row["d_res"]) == pytest.approx(res[0, 1], rel=1e-10)


@pytest.mark.parametrize("metric", ["geodesic", "resistance"])
def test_iso_cov_reruns_byte_identical_and_match_oracle(tmp_path, metric):
    g = gf.canonical("figure-eight:1,2")
    outs = []
    for run in range(2):
        out = tmp_path / f"iso{run}.json"
        assert main([
            "iso-cov", "--canonical", "figure-eight:1,2", "--metric", metric,
            "--kappa", "0.7", "--mesh-h", "0.1", "--format", "json",
            "-o", str(out),
        ]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    doc = json.loads(outs[0])
    pts = [g.point(e, t) for e, t in doc["points"]]
    geo, res = oracle_rows(g, pts)
    ref = np.exp(-0.7 * (geo if metric == "geodesic" else res))
    np.testing.assert_allclose(doc["matrix"], ref, rtol=1e-10, atol=0)


def test_resistance_on_loop_graph_exits_2(tmp_path):
    graph = tmp_path / "loop.json"
    graph.write_text(json.dumps(
        {"vertices": 1, "edges": [{"id": "l", "u": 0, "v": 0, "length": 1.0}]}
    ))
    pairs = write_csv(tmp_path / "pairs.csv",
                      ["edge_p", "t_p", "edge_q", "t_q"],
                      [["l", 0.1, "l", 0.6]])
    assert main(["resistance", "--graph", str(graph), "--pairs", pairs]) == 2


def test_iso_cov_json_includes_min_eigenvalue(tmp_path):
    out = tmp_path / "iso.json"
    assert main([
        "iso-cov", "--canonical", "circle:2,8", "--metric", "geodesic",
        "--kernel", "circle-markov", "--ell", "2.0", "--mesh-h", "0.25",
        "--format", "json", "-o", str(out),
    ]) == 0
    doc = json.loads(out.read_text())
    assert doc["min_eigenvalue"] > 0
    assert len(doc["matrix"]) == len(doc["points"])


@pytest.mark.parametrize("argv", [
    ["sample", "--mesh-h", "0.5", "--n", "2", "--seed", "1"],
    ["validate"],
])
def test_format_only_on_matrix_subcommands(star_json, argv, capsys):
    # sample matrices are CSV only: --format is rejected, not ignored
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--graph", star_json, "--format", "json"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --format json" in capsys.readouterr().err


def test_krige_noiseless_reproduces_observations(star_json, tmp_path):
    obs = write_csv(tmp_path / "obs.csv", ["edge", "t", "y"],
                    [["e0", 0.3, 1.5], ["e1", 0.8, -0.25]])
    pred = write_csv(tmp_path / "pred.csv", ["edge", "t"],
                     [["e0", 0.3], ["e1", 0.8], ["e2", 0.5]])
    out = tmp_path / "krige.csv"
    assert main(["krige", "--graph", star_json, "--obs", obs,
                 "--pred", pred, "-o", str(out)]) == 0
    rows = read_csv(out)
    assert float(rows[0]["mean"]) == pytest.approx(1.5, abs=1e-9)
    assert float(rows[1]["mean"]) == pytest.approx(-0.25, abs=1e-9)
    assert float(rows[0]["var"]) <= 1e-9
    assert float(rows[2]["var"]) > 0


def test_nonexistence_demo_two_cycles(tmp_path):
    out = tmp_path / "gap.csv"
    assert main(["nonexistence-demo", "two-cycles", "1", "2",
                 "--grid", "101", "-o", str(out)]) == 0
    rows = read_csv(out)
    assert len(rows) == 101
    gaps = [float(r["gap"]) for r in rows]
    assert max(gaps) > 1e-3
    for r in rows[:5]:
        assert float(r["gap"]) == pytest.approx(
            abs(float(r["lhs"]) - float(r["rhs"])), rel=1e-12
        )


def test_nonexistence_demo_equal_lengths_exits_2(capsys):
    assert main(["nonexistence-demo", "two-cycles", "2", "2"]) == 2


def test_nonexistence_demo_cycle_plus_edge(tmp_path):
    out = tmp_path / "gap.csv"
    assert main(["nonexistence-demo", "cycle-plus-edge", "2", "1",
                 "--kappa1", "0.5", "--kappa2", "2.0", "--sigma", "1.5",
                 "--tau", "0.7", "--grid", "64", "-o", str(out)]) == 0
    rows = read_csv(out)
    assert len(rows) == 64
    assert max(float(r["gap"]) for r in rows) > 0


def test_canonical_flag_mirrors_generators(tmp_path):
    out = tmp_path / "report.json"
    assert main(["validate", "--canonical", "figure-eight:1,2",
                 "-o", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["euclidean_edges"] and not report["tree"]


def test_points_accept_edge_id_header(star_json, tmp_path):
    pts = write_csv(tmp_path / "pts.csv", ["edge_id", "t"], [["e0", 0.5]])
    out = tmp_path / "cov.csv"
    assert main(["cov", "--graph", star_json, "--points", pts,
                 "-o", str(out)]) == 0
    assert np.loadtxt(out, delimiter=",").size == 1


def test_float_formatting_17_digits(star_json, tmp_path):
    pts = write_csv(tmp_path / "pts.csv", ["edge", "t"], [["e0", 0.5]])
    out = tmp_path / "cov.csv"
    assert main(["cov", "--graph", star_json, "--points", pts,
                 "-o", str(out)]) == 0
    text = out.read_text().strip()
    # round-trips exactly through repr
    assert float(text) == gf.full_cov(
        gf.star([1.0, 1.0, 1.0]), gf.FieldModel(),
        [gf.PointOnGraph("e0", 0.5)],
    ).matrix[0, 0]
