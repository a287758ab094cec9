"""Count the code lines of each module of ``src/metadice``: the lines that
hold a token of code, so docstrings, comments and blank lines are left out.
A docstring is a string expression standing alone as the first statement of
a module, class or function. Tier-1 collects only ``test_*.py``; run this
file by name: ``python tests/code_lines.py [PACKAGE_DIR]``, which counts
``src/metadice`` unless given another package's directory."""

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "metadice"

#: Tokens that hold no code of their own.
LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING,
}

#: The nodes whose first statement may be a docstring.
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers the docstrings of ``tree`` span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and ast.get_docstring(node, clean=False):
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    """The number of lines of ``text`` that hold a token of code."""
    skip = docstring_lines(ast.parse(text))
    lines = set()
    for token in tokenize.tokenize(io.BytesIO(text.encode()).readline):
        if token.type not in LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - skip)


def main(src: Path = SRC) -> int:
    total = 0
    for path in sorted(src.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.name:16} {count:5}")
    print(f"{'total':16} {total:5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(*map(Path, sys.argv[1:2])))
