"""Count the code lines of Python modules: lines that hold a token of code,
leaving out blank lines, comments and docstrings.

A docstring is the string statement that opens a module, class or function
body (found with ast); every other token marks the lines it spans (found
with tokenize).  Prints one line per module and the total:

    python scripts/code_lines.py [PATH ...]     # default: src
"""

import ast
import io
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


def main(argv: list) -> int:
    files = []
    for root in map(Path, argv or ["src"]):
        files.extend(sorted(root.rglob("*.py")) if root.is_dir() else [root])
    total = 0
    for path in files:
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
