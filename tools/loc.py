"""Line counts of src/qreplica, each module's lines split into code and prose.

    python tools/loc.py

A line is code when a token other than a comment, a newline or indentation
lies on it; comments, docstrings and blank lines are prose. Prints one row
per module and a total. It uses only the standard library.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def split(text: str) -> tuple[int, int, int]:
    """The text's lines, its code lines and its prose lines."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node) is not None:
            code.difference_update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines = len(text.splitlines())
    return lines, len(code), lines - len(code)


def main() -> None:
    print(f"{'module':<28}{'lines':>7}{'code':>7}{'prose':>7}")
    totals = [0, 0, 0]
    for path in sorted((ROOT / "src" / "qreplica").glob("*.py")):
        row = split(path.read_text(encoding="utf-8"))
        totals = [t + r for t, r in zip(totals, row)]
        print(f"{str(path.relative_to(ROOT)):<28}{row[0]:>7}{row[1]:>7}{row[2]:>7}")
    print(f"{'total':<28}{totals[0]:>7}{totals[1]:>7}{totals[2]:>7}")


if __name__ == "__main__":
    main()
