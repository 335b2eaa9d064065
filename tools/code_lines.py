"""Count the code lines of Python modules, per module and in total.

A code line holds a token other than a comment, a newline or
indentation, and is not part of a module, class or function docstring.
A string that spans lines counts each line it spans.

    python tools/code_lines.py src/vnhc
"""

import ast
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER, tokenize.ENCODING}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every module, class and function docstring in tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines of the module at path."""
    with tokenize.open(path) as f:
        text = f.read()
    docs = docstring_lines(ast.parse(text, str(path)))
    lines = set()
    for tok in tokenize.generate_tokens(iter(text.splitlines(keepends=True)).__next__):
        if tok.type not in SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: code_lines.py DIRECTORY", file=sys.stderr)
        return 2
    counts = {path.stem: code_lines(path) for path in sorted(Path(argv[0]).glob("*.py"))}
    width = max(map(len, counts), default=0)
    for name, count in counts.items():
        print(f"{name:<{width}} {count:>5,}")
    print(f"{'total':<{width}} {sum(counts.values()):>5,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
