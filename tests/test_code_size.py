"""tools/code_size.py: each row's line classes add up to the file's physical lines."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("code_size", ROOT / "tools" / "code_size.py")
code_size = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_size)


def test_totals_match_the_files_line_counts(capsys):
    src = ROOT / "src"
    lines = {}
    for path in sorted(src.rglob("*.py")):
        row = code_size.count(path)
        lines[path] = len(path.read_text().splitlines())
        assert row["total"] == lines[path] == sum(
            row[c] for c in ("code", "doc", "comment", "blank")), path.name
        assert min(row.values()) >= 0
    assert code_size.main([str(src)]) == 0
    header, *rows, total = capsys.readouterr().out.splitlines()
    assert header.split() == ["module", *code_size.COLUMNS]
    assert len(rows) == len(lines)
    assert int(total.split()[1]) == sum(lines.values())
