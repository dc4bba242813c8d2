import importlib.util
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
