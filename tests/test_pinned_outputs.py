"""The command line's documented outputs, byte for byte against files in tests/data/pinned/.

Each case runs in-process through ``cli.main`` with ``--out`` (and, for
``simulate``, ``--trials-out``) into a temporary directory, and every file it
writes must equal its pinned copy; the exit code is pinned in the table. The
demos' stdout is pinned beside these files and compared in ``test_demos.py``,
which already runs each demo.

A pinned file changes only with a change that moves a value on purpose. To
rewrite all of them from the current source, run from the repository root:

    PYTHONPATH=src python3 tests/test_pinned_outputs.py
"""

import subprocess
import sys
from pathlib import Path

import pytest

from wva_costlab.cli import main

ROOT = Path(__file__).resolve().parent.parent
PINNED = ROOT / "tests" / "data" / "pinned"

# name -> (argv without --out, extra files it writes, exit code); --out writes <name>
CASES = {
    "qfi_0.5236_-0.5236_0.0349.json": (
        ["qfi", "--theta", "0.5236", "--alpha", "-0.5236", "--g", "0.0349"], (), 0),
    "qfi_0.785_-0.7_0.3.json": (
        ["qfi", "--theta", "0.785", "--alpha", "-0.7", "--g", "0.3"], (), 0),
    "qfi_0.1_0.2_0.5.json": (
        ["qfi", "--theta", "0.1", "--alpha", "0.2", "--g", "0.5"], (), 0),
    "curve_0.5236.csv": (["curve", "--theta", "0.5236"], (), 0),
    "curve_0.5236.json": (["curve", "--theta", "0.5236", "--format", "json"], (), 0),
    "verify.json": (["verify"], (), 0),
    "verify_compat_printed_bound.json": (["verify", "--compat-printed-bound"], (), 3),
    # the README's simulate example
    "simulate_report.json": (
        ["simulate", "--theta", "0.5236", "--alpha", "-0.5236", "--g", "0.0349",
         "--nu", "700", "--reps", "1000", "--seed", "1", "--trials-out", "simulate_trials.csv"],
        ("simulate_trials.csv",), 0),
}


def run_case(name: str, directory: Path) -> list[str]:
    """Run one case with its outputs in ``directory``; return the names of the files it wrote."""
    argv, extra, code = CASES[name]
    argv = [str(directory / arg) if arg in extra else arg for arg in argv]
    assert main([*argv, "--out", str(directory / name)]) == code
    return [name, *extra]


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_its_pinned_file(name, tmp_path):
    for written in run_case(name, tmp_path):
        assert (tmp_path / written).read_bytes() == (PINNED / written).read_bytes(), written


def _record() -> None:
    """Rewrite every pinned file, the demos' stdout included, from the current source."""
    PINNED.mkdir(parents=True, exist_ok=True)
    for name in CASES:
        run_case(name, PINNED)
    for demo in sorted((ROOT / "demos").glob("*.py")):
        out = subprocess.run([sys.executable, "-W", "error", str(demo)], cwd=ROOT,
                             capture_output=True, check=True).stdout
        (PINNED / f"demo_{demo.stem}.txt").write_bytes(out)


if __name__ == "__main__":
    _record()
