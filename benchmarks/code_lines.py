#!/usr/bin/env python3
"""Count the code lines of each module in one or more directories or files.

A code line is a line that holds at least one token other than a comment,
a newline or an indentation change (``tokenize``), and that is not part of
a docstring (``ast``: a string-constant expression that opens a module,
class or function body).  Blank lines, comment lines and docstring lines do
not count.  For each path, in the order given, it prints the path, then
every module of a directory in name order (a file is one module), then the
path's total.  A path that is neither a file nor a directory is an error
(exit status 2), named before anything is counted.

Usage: python benchmarks/code_lines.py [PATH ...]   (default: src/visclab)
"""

import argparse
import ast
import sys
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    with path.open("rb") as fh:
        tokens = list(tokenize.tokenize(fh.readline))
    lines = set()
    for tok in tokens:
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(path.read_bytes())))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", metavar="PATH",
                        default=[str(Path(__file__).resolve().parent.parent
                                     / "src" / "visclab")])
    args = parser.parse_args(argv)
    paths = [Path(p) for p in args.paths]
    missing = [str(p) for p in paths if not (p.is_file() or p.is_dir())]
    if missing:
        parser.error(f"neither a file nor a directory: {', '.join(missing)}")
    for i, path in enumerate(paths):
        modules = sorted(path.glob("*.py")) if path.is_dir() else [path]
        counts = {p.name: code_lines(p) for p in modules}
        width = max(map(len, counts), default=5)
        print(("\n" if i else "") + f"{path}:")
        for name, n in counts.items():
            print(f"{name:<{width}}  {n:5d}")
        print(f"{'total':<{width}}  {sum(counts.values()):5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
