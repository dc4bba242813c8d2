import ast
import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

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
