"""Line counts of the latcas sources, and a check for dead private names.

    python tools/src_lines.py

For each module of src/latcas, and in total, prints all lines and code
lines: lines that are not blank, not a comment and not part of a
docstring. It exits 1, naming them, when a module-level private name
(one leading underscore, not a dunder) defined in src/ appears nowhere
else in src/, tests/ or perfbench/: not as a name in code, and not as a
string equal to it (monkeypatch.setattr and the benchmark tracer name
their targets by string). Needs only the standard library.
"""
from __future__ import annotations

import ast
import collections
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "latcas"
SEARCHED = ("src", "tests", "perfbench")


def _docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers of the module, class and function docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                first = node.body[0]
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def counts(path: Path) -> tuple[int, int]:
    """(all lines, code lines) of one module."""
    text = path.read_text()
    lines = text.splitlines()
    docs = _docstring_lines(ast.parse(text))
    code = sum(
        1 for i, line in enumerate(lines, 1) if line.strip() and not line.lstrip().startswith("#") and i not in docs
    )
    return len(lines), code


def _private_names(path: Path) -> list[str]:
    """Module-level names with one leading underscore that the module defines."""
    names = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [n.id for t in node.targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        names += [n for n in targets if n.startswith("_") and not n.startswith("__")]
    return names


def _uses() -> collections.Counter:
    """Occurrences of every name token, and of every string literal, in the searched trees."""
    seen = collections.Counter()
    for tree in SEARCHED:
        for path in sorted((ROOT / tree).rglob("*.py")):
            for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
                if tok.type == tokenize.NAME:
                    seen[tok.string] += 1
                elif tok.type == tokenize.STRING:
                    try:
                        value = ast.literal_eval(tok.string)
                    except (ValueError, SyntaxError):  # an f-string
                        continue
                    if isinstance(value, str):
                        seen[value] += 1
    return seen


def main() -> int:
    total_lines = total_code = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines, code = counts(path)
        total_lines, total_code = total_lines + lines, total_code + code
        print(f"{path.name:<16} {lines:>6,} {code:>6,}")
    print(f"{'total':<16} {total_lines:>6,} {total_code:>6,}")
    seen = _uses()
    dead = [
        f"{path.relative_to(ROOT)}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _private_names(path)
        if seen[name] < 2  # the definition itself is one occurrence
    ]
    for line in dead:
        print(f"unused private name: {line}", file=sys.stderr)
    return 1 if dead else 0


if __name__ == "__main__":
    sys.exit(main())
