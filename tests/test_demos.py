"""Every narrative walkthrough in demos/, and the README's library tour, runs to completion.

Each runs as its own process against the package in src/, under ``-W error``,
so a library signature change that a demo or the README still calls the old
way, or a stray warning, shows up here. Each demo's stdout must also equal its
pinned copy in tests/data/pinned/ byte for byte (``test_pinned_outputs.py``
says how to rewrite it). The README's command-line examples are parsed, not
run, so a removed or renamed flag shows up too.
"""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
PINNED = ROOT / "tests" / "data" / "pinned"


def run_clean(*args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-W", "error", *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stdout + done.stderr
    return done.stdout


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    out = run_clean(str(demo))
    assert out == (PINNED / f"demo_{demo.stem}.txt").read_text(encoding="utf-8")


def test_readme_library_tour_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (tour,) = re.findall(r"^```python\n(.*?)^```", readme, flags=re.S | re.M)
    run_clean("-c", tour)


def test_readme_command_lines_parse():
    from wva_costlab.cli import _build_parser

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1]
    block = re.search(r"^```bash\n(.*?)^```", section, flags=re.S | re.M).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True) for line in lines]
    commands = [argv for argv in commands if argv[:1] == ["wva-costlab"]]
    parser = _build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])  # an unknown flag exits 1 and fails the test
    assert {argv[1] for argv in commands} == {"curve", "simulate", "qfi", "verify"}
