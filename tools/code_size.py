"""Count the size of each module of a source tree, one way for every tree.

    python3 tools/code_size.py [SRC]

SRC defaults to the ``src`` directory beside ``tools``; give another checkout's
``src`` to compare two trees. Every ``*.py`` file under SRC gets one row:

- ``total``: physical lines, so code + doc + comment + blank;
- ``code``: lines that hold any token of a statement other than a docstring;
- ``doc``: the other lines of module, class and function docstrings;
- ``comment``: the other lines that hold a ``#`` comment;
- ``blank``: the rest (empty lines, or blank lines inside brackets);
- ``params``: parameters of every ``def`` and ``lambda``, ``self`` and ``cls`` included;
- ``fields``: annotated class-body names of ``@dataclass`` classes;
- ``private``: names starting with ``_`` imported from another module of the package.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

COLUMNS = ("total", "code", "doc", "comment", "blank", "params", "fields", "private")
_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_nodes(tree: ast.Module) -> list[ast.Constant]:
    nodes = [tree, *(n for n in ast.walk(tree) if isinstance(
        n, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)))]
    return [n.body[0].value for n in nodes if ast.get_docstring(n, clean=False) is not None]


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def count(path: Path) -> dict[str, int]:
    """The row of one file: each of COLUMNS."""
    text = path.read_text()
    tree = ast.parse(text)
    doc_spans = {(n.lineno, n.col_offset) for n in _docstring_nodes(tree)}
    code, doc, comment = set(), set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        lines = range(tok.start[0], tok.end[0] + 1)
        if tok.type == tokenize.COMMENT:
            comment.update(lines)
        elif tok.type == tokenize.STRING and tok.start in doc_spans:
            doc.update(lines)
        elif tok.type not in _SKIPPED:
            code.update(lines)
    doc -= code
    comment -= code | doc
    total = len(text.splitlines())
    row = {"total": total, "code": len(code), "doc": len(doc), "comment": len(comment)}
    row["blank"] = total - len(code) - len(doc) - len(comment)
    row["params"] = row["fields"] = row["private"] = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            row["params"] += len(a.posonlyargs) + len(a.args) + len(a.kwonlyargs)
            row["params"] += (a.vararg is not None) + (a.kwarg is not None)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            row["fields"] += sum(isinstance(s, ast.AnnAssign) for s in node.body)
        elif isinstance(node, ast.ImportFrom) and node.level >= 1:
            row["private"] += sum(alias.name.startswith("_") for alias in node.names)
    return row


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    src = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src"
    rows = {str(p.relative_to(src)): count(p) for p in sorted(src.rglob("*.py"))}
    rows["total"] = {c: sum(r[c] for r in rows.values()) for c in COLUMNS}
    width = max(map(len, rows))
    print(f"{'module':<{width}}" + "".join(f"{c:>9}" for c in COLUMNS))
    for name, row in rows.items():
        print(f"{name:<{width}}" + "".join(f"{row[c]:>9}" for c in COLUMNS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
