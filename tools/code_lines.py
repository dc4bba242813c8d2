"""Count the code lines of Python sources.

A code line holds at least one code token: blank lines, comment lines and
the lines of module, class and function docstrings do not count. A token
that spans lines (a multi-line string or bracketed expression) counts every
line it covers. ``tokenize`` finds the tokens and ``ast`` the docstrings.

    python tools/code_lines.py                 # src/graphfields, per module
    python tools/code_lines.py path/to/pkg a.py

Prints one line per file, then the total over all of them.
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

#: tokens that are layout or comment, never code
_NOT_CODE = frozenset({tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                       tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING})


def _docstring_lines(tree: ast.AST) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: str) -> int:
    """The number of code lines in the Python ``source``."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def count_files(paths) -> dict[str, int]:
    """Code lines per ``.py`` file, in path order; a directory stands for
    every ``.py`` file below it, named from the directory's own name."""
    counts = {}
    for path in map(Path, paths):
        if path.is_dir():
            for f in sorted(path.rglob("*.py")):
                counts[str(f.relative_to(path.parent))] = count(f.read_text(encoding="utf-8"))
        else:
            counts[str(path)] = count(path.read_text(encoding="utf-8"))
    return counts


def main(argv=None) -> int:
    paths = (sys.argv[1:] if argv is None else argv) or [Path(__file__).parents[1] / "src" / "graphfields"]
    counts = count_files(paths)
    width = max(map(len, counts), default=0)
    for name, n in counts.items():
        print(f"{name:<{width}}  {n:>6}")
    print(f"{'total':<{width}}  {sum(counts.values()):>6}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
