"""Count the code lines of Python sources.

A code line holds at least one code token: blank lines, comment lines and
the lines of module, class and function docstrings do not count. A token
that spans lines (a multi-line string or bracketed expression) counts every
line it covers. ``tokenize`` finds the tokens and ``ast`` the docstrings.

    python tools/code_lines.py                 # src/graphfields, per module
    python tools/code_lines.py path/to/pkg a.py
    python tools/code_lines.py --base REV      # at the git revision REV too

Prints one line per file, then the total over all of them. With ``--base``
each line gives the file's code lines at REV, in the working tree and the
net change (a file missing on one side counts 0 there). REV is read with
``git ls-tree`` and ``git show``, so nothing is written to the repository.
"""
from __future__ import annotations

import argparse
import ast
import io
import subprocess
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


def _git(where: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=where, check=True, capture_output=True,
                          encoding="utf-8").stdout


def count_files_at(rev: str, paths) -> dict[str, int]:
    """``count_files`` of the same paths at the git revision ``rev``, with
    the same names; a path need not exist in the working tree."""
    counts = {}
    for path in map(Path, paths):
        full = path.resolve()
        top = Path(_git(next(p for p in (full, *full.parents) if p.is_dir()),
                        "rev-parse", "--show-toplevel").strip())
        rel = full.relative_to(top).as_posix()
        for f in sorted(filter(None, _git(top, "ls-tree", "-r", "-z", "--name-only", rev,
                                          "--", rel).split("\0"))):
            if f == rel or f.endswith(".py"):
                name = str(path) if f == rel else str(Path(f).relative_to(Path(rel).parent))
                counts[name] = count(_git(top, "show", f"{rev}:{f}"))
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Count the code lines of Python sources.")
    parser.add_argument("paths", nargs="*",
                        default=[Path(__file__).parents[1] / "src" / "graphfields"])
    parser.add_argument("--base", metavar="REV", help="also count at this git revision")
    args = parser.parse_args(argv)
    counts = count_files(args.paths)
    if args.base is None:
        width = max(map(len, counts), default=0)
        for name, n in counts.items():
            print(f"{name:<{width}}  {n:>6}")
        print(f"{'total':<{width}}  {sum(counts.values()):>6}")
        return 0
    base = count_files_at(args.base, args.paths)
    names = sorted(set(base) | set(counts))
    width = max(map(len, names + ["total"]))
    print(f"{'':<{width}}  {'base':>6}  {'now':>6}  {'change':>6}")
    for name, was, now in [(n, base.get(n, 0), counts.get(n, 0)) for n in names] + [
            ("total", sum(base.values()), sum(counts.values()))]:
        print(f"{name:<{width}}  {was:>6}  {now:>6}  {now - was:>+6}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
