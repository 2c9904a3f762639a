"""Count the code lines of Python modules: lines that hold a token of code,
leaving out blank lines, comments and docstrings.

A docstring is the string statement that opens a module, class or function
body (found with ast); every other token marks the lines it spans (found
with tokenize).  Prints one line per module and the total:

    python scripts/code_lines.py [PATH ...]     # default: src

With --base REV (any git revision), each line gives the count at REV, the
count in the working tree and the difference; a module missing on one side
counts 0 there:

    python scripts/code_lines.py --base HEAD~1 src
"""

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def _git(*args) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True,
                          text=True).stdout


def counts_now(roots: list) -> dict:
    """{path: code lines} of every .py file under roots in the working tree."""
    files = []
    for root in map(Path, roots):
        files.extend(sorted(root.rglob("*.py")) if root.is_dir() else [root])
    return {path.as_posix(): code_lines(path.read_text()) for path in files}


def counts_at(rev: str, roots: list) -> dict:
    """{path: code lines} of every .py file under roots at git revision rev,
    paths relative to the repository root."""
    prefix = _git("rev-parse", "--show-prefix").strip()
    names = _git("ls-tree", "-r", "--name-only", "--full-tree", rev, "--",
                 *(prefix + root for root in roots)).split("\n")
    return {name[len(prefix):]: code_lines(_git("show", f"{rev}:{name}"))
            for name in names if name.endswith(".py")}


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--base", metavar="REV",
                        help="also count at this git revision and print the difference")
    parser.add_argument("paths", nargs="*", default=["src"])
    args = parser.parse_args(argv)
    now = counts_now(args.paths)
    if args.base is None:
        for path, count in now.items():
            print(f"{count:6d}  {path}")
        print(f"{sum(now.values()):6d}  total")
        return 0
    try:
        base = counts_at(args.base, args.paths)
    except subprocess.CalledProcessError as exc:
        print(f"error: {' '.join(exc.cmd)}: {exc.stderr.strip()}", file=sys.stderr)
        return 2
    print(f"{'base':>6}  {'now':>6}  {'delta':>6}  module (base {args.base})")
    for path in sorted(set(base) | set(now)):
        before, after = base.get(path, 0), now.get(path, 0)
        print(f"{before:6d}  {after:6d}  {after - before:+6d}  {path}")
    before, after = sum(base.values()), sum(now.values())
    print(f"{before:6d}  {after:6d}  {after - before:+6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
