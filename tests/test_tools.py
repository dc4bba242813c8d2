import ast
import importlib.util
import json
import re
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


code_lines = _load("code_lines")
ab = _load("ab")

#: 9 code lines: the two imports, the two lines of X, both ``def`` lines,
#: the class line and the two ``return`` lines
FIXTURE = '''"""Module docstring,
over two lines."""
import os
# a comment line
import sys  # a trailing comment counts as code

X = (1,
     2)


def f(a):
    """Function docstring."""

    # comment
    return a  # code


class C:
    """Class docstring
    over two lines."""

    def g(self):
        """One line."""
        return "not a docstring"
'''


def test_counts_the_lines_that_hold_code():
    assert code_lines.count(FIXTURE) == 9


@pytest.mark.parametrize("source, want", [
    ("", 0),
    ("# only a comment\n\n", 0),
    ('"""only a docstring"""\n', 0),
    ('x = 1\n"""a string statement after code is code"""\n', 2),
    ('s = """a\nmulti-line\nstring"""\n', 3),
])
def test_counts_edge_cases(source, want):
    assert code_lines.count(source) == want


def test_package_total_is_the_sum_of_its_modules(tmp_path, capsys):
    package = ROOT / "src" / "graphfields"
    counts = code_lines.count_files([package])
    assert set(counts) == {f"graphfields/{p.name}" for p in package.glob("*.py")}
    assert all(n > 0 for n in counts.values())
    code_lines.main([str(package)])
    *rows, total = capsys.readouterr().out.splitlines()
    assert [int(r.split()[-1]) for r in rows] == list(counts.values())
    assert total.split() == ["total", str(sum(counts.values()))]
    (tmp_path / "fixture.py").write_text(FIXTURE)
    assert code_lines.count_files([tmp_path]) == {f"{tmp_path.name}/fixture.py": 9}


def _tree(root):
    """Every file below ``root`` and its bytes."""
    return {f: f.read_bytes() for f in sorted(root.rglob("*")) if f.is_file()}


def test_counts_against_a_git_revision_without_writing(tmp_path, capsys):
    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.com", *args],
                       cwd=tmp_path, check=True, capture_output=True)

    package = tmp_path / "pkg"
    package.mkdir()
    (package / "a.py").write_text(FIXTURE)
    (package / "gone.py").write_text("x = 1\ny = 2\n")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "base")
    (package / "a.py").write_text(FIXTURE + "Z = 3\n")
    (package / "gone.py").unlink()
    (package / "new.py").write_text("import os\n")
    before = _tree(tmp_path)
    assert code_lines.count_files_at("HEAD", [package]) == {"pkg/a.py": 9, "pkg/gone.py": 2}
    code_lines.main(["--base", "HEAD", str(package)])
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["base", "now", "change"]
    assert [r.split() for r in rows] == [["pkg/a.py", "9", "10", "+1"],
                                         ["pkg/gone.py", "2", "0", "-2"],
                                         ["pkg/new.py", "0", "1", "+1"],
                                         ["total", "11", "11", "+0"]]
    # one file, named as given, at the revision and now
    code_lines.main(["--base", "HEAD", str(package / "a.py")])
    *_, total = capsys.readouterr().out.splitlines()
    assert total.split() == ["total", "9", "10", "+1"]
    assert _tree(tmp_path) == before  # nothing written, in .git or outside it


# --- private names cited in the documents ------------------------------------

PACKAGE = ROOT / "src" / "graphfields"


def _definitions():
    """Per module, its top-level names (definitions, assignments and
    imports); and every name the package defines at any depth, fields,
    methods and attributes assigned through ``self`` included."""
    top, anywhere = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        names = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names |= {t.id for t in targets if isinstance(t, ast.Name)}
            elif isinstance(node, ast.ImportFrom):
                names |= {a.asname or a.name for a in node.names}
        top[path.stem] = names
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                anywhere.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                anywhere.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                anywhere.add(node.attr)
    return top, anywhere


def _private_citations(text, quote):
    """(module or None, private name) for each code span ``quote``-quoted in
    ``text`` that is a dotted name with a private part: the part before it
    when that is a single name, and the first private part."""
    for span in re.findall(rf"{quote}([A-Za-z_][\w.]*){quote}", text):
        parts = span.split(".")
        for i, part in enumerate(parts):
            if part.startswith("_") and not part.startswith("__"):
                yield (parts[0] if i == 1 else None), part
                break


def test_every_cited_private_name_exists():
    top, anywhere = _definitions()
    sources = [("README.md", (ROOT / "README.md").read_text(), "`")]
    sources += [(p.name, p.read_text(), "``") for p in sorted(PACKAGE.glob("*.py"))]
    missing, cited = [], 0
    for where, text, quote in sources:
        for module, name in _private_citations(text, quote):
            cited += 1
            known = top[module] if module in top else anywhere
            if name not in known:
                missing.append(f"{where}: {module + '.' if module else ''}{name}")
    assert cited > 100  # the scan reads the citations, not nothing
    assert not missing


# --- paired A/B statistics (tools/ab.py), on synthetic runs ------------------

BASE = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]


def test_ab_pairs_alternate_which_side_runs_first():
    assert [ab.base_first(pair) for pair in range(1, 7)] == [True, False] * 3
    assert ab.seed_list("401-404,9") == [401, 402, 403, 404, 9]


def test_ab_gain_needs_nine_tenths_of_the_pairs_and_a_gap_beyond_the_spread():
    lower = [b - 1.0 for b in BASE]
    s = ab.compare(BASE, lower, "lower", 0.25)
    assert (s["change_wins"], s["base_wins"], s["pairs"]) == (10, 0, 10)
    assert s["base_median"] == 10.05 and s["change_median"] == 9.05
    assert s["relative_change"] == pytest.approx(9.05 / 10.05 - 1)
    q1, q3 = s["base_quartiles"]
    assert (q1, q3) == pytest.approx((9.975, 10.2)) and s["base_quartile_spread"] == q3 - q1
    assert s["verdict"] == "gain"
    # two pairs lost: 8 of 10 is below nine tenths
    assert ab.compare(BASE, lower[:8] + [b + 1 for b in BASE[8:]], "lower", 0.25)["verdict"] \
        == "within bound"
    # 10 of 10 won, but by less than the base's quartile spread
    assert ab.compare(BASE, [b - 0.01 for b in BASE], "lower", 0.25)["verdict"] == "within bound"
    # a metric where higher is better wins by being higher
    s = ab.compare(BASE, [b + 1.0 for b in BASE], "higher", 0.25)
    assert (s["change_wins"], s["verdict"]) == (10, "gain")


def test_ab_ties_count_for_neither_side():
    change = BASE[:2] + [b - 1.0 for b in BASE[2:]]  # two ties, eight wins
    s = ab.compare(BASE, change, "lower", 0.25)
    assert (s["change_wins"], s["base_wins"], s["verdict"]) == (8, 0, "within bound")
    assert ab.compare(BASE, BASE, "lower", 0.25)["change_wins"] == 0


def test_ab_worse_is_beyond_the_bound_and_unresolved_beyond_the_spread():
    assert ab.compare(BASE, [b * 1.2 for b in BASE], "lower", 0.1)["verdict"] == "worse"
    assert ab.compare(BASE, [b * 1.05 for b in BASE], "lower", 0.1)["verdict"] == "within bound"
    assert ab.compare(BASE, [b * 0.8 for b in BASE], "higher", 0.1)["verdict"] == "worse"
    # the base's own runs spread wider than the bound: a small move is unresolved
    wide = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0]
    assert ab.compare(wide, [w * 1.02 for w in wide], "lower", 0.1)["verdict"] == "unresolved"
    # unless every run of the change beats every run of the base
    assert ab.compare(wide, [0.9] * 10, "lower", 0.1)["verdict"] == "within bound"
    with pytest.raises(ValueError):
        ab.compare([1.0], [1.0], "lower", 0.1)


def test_ab_summarizes_every_end_to_end_metric_of_the_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"]]

    def line(scale):
        return {"correct": True, "attempted": 5, "failed": 0,
                "metrics": {n: {"value": scale * (i + 1), "unit": "s"} for i, n in enumerate(names)}}

    runs = [{"base": line(b), "change": line(b * 0.5)} for b in BASE]
    summary = ab.summarize(runs, spec)
    assert list(summary) == names
    assert all(s["verdict"] == "gain" and s["change_wins"] == 10 for s in summary.values())
    assert [s["bound"] for s in summary.values()] == [m["bound"] for m in spec["end_to_end"]]
