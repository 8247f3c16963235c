"""The command line's documented outputs, byte for byte against files in tests/data/pinned/.

Each case runs in-process through ``cli.main`` with ``--out`` (and, for
``simulate``, ``--trials-out``) into a temporary directory, and every file it
writes must equal its pinned copy; the exit code is pinned in the table. The
demos' stdout is pinned beside these files and compared in ``test_demos.py``,
which already runs each demo.

The exact path is pinned over a panel too, by digest: ``exact_panel.sha256``
holds the sha256 of the ``qfi`` payloads of 500 seeded in-domain points, the
two domain corners and a pair whose weak value is undefined, and that of the
(p, F_m) bits of 200 seeded mixed inputs.

A pinned file changes only with a change that moves a value on purpose. To
rewrite all of them from the current source, run from the repository root:

    PYTHONPATH=src python3 tests/test_pinned_outputs.py

It prints the name of each file whose bytes changed, and nothing else.
"""

import contextlib
import hashlib
import io
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wva_costlab import cli
from wva_costlab.cli import main
from wva_costlab.postselect import WvaSetup, fm_exact, postselect_mixed
from wva_costlab.states import METER_PLUS, STANDARD_BASIS, STANDARD_SIGMA, DensityMatrix

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


PANEL_SEED = 2024


def _signed_coupling(rng: np.random.Generator) -> float:
    """A coupling of either sign with |g| log-uniform in [1e-4, 1]."""
    return math.copysign(10.0 ** rng.uniform(-4.0, 0.0), rng.uniform(-1.0, 1.0))


def qfi_panel() -> list[tuple[float, float, float]]:
    """(theta, alpha, g): 500 seeded in-domain points, the domain corners, a null weak value.

    theta covers (0, pi/4], alpha [-pi/2, pi/2] and |g| [1e-4, 1] log-uniformly,
    with either sign. The corners sit at theta = pi/4 with |cos(alpha - theta)|
    just above 1e-2, the benchmark's cutoff, at g = 1e-3; the last pair's
    overlap is under the weak value's floor.
    """
    rng = np.random.default_rng([PANEL_SEED, 0])
    points = []
    for _ in range(500):
        theta = math.pi / 4.0 - rng.uniform(0.0, math.pi / 4.0)
        alpha = rng.uniform(-math.pi / 2.0, math.pi / 2.0)
        points.append((theta, alpha, _signed_coupling(rng)))
    delta = math.asin(1e-2 * 1.00001)
    corners = [(math.pi / 4.0, -math.pi / 4.0 + d, 1e-3) for d in (delta, -delta)]
    return [*points, *corners, (0.5235987755982988, -1.0471975511975977, 1.485e-7)]


def mixed_panel() -> list[tuple[float, float, float, float, float]]:
    """(rx, ry, rz, alpha, g): 200 seeded Bloch vectors of radius at most 0.95, any direction."""
    rng = np.random.default_rng([PANEL_SEED, 1])
    inputs = []
    for _ in range(200):
        r = rng.normal(size=3)
        r *= 0.95 * rng.uniform() ** (1.0 / 3.0) / np.linalg.norm(r)
        alpha = rng.uniform(-math.pi / 2.0, math.pi / 2.0)
        inputs.append((*r.tolist(), alpha, _signed_coupling(rng)))
    return inputs


def panel_digests() -> str:
    """The two lines of ``exact_panel.sha256`` from the current source."""
    parser = cli._build_parser()
    out = io.StringIO()
    qfi = hashlib.sha256()
    original = cli._build_parser
    cli._build_parser = lambda: parser  # parsing setup is most of a call; no payload reads it
    try:
        for theta, alpha, g in qfi_panel():
            with contextlib.redirect_stdout(out):
                code = main(["qfi", "--theta", repr(theta), "--alpha", repr(alpha), "--g", repr(g)])
            assert code == 0, (theta, alpha, g)
            qfi.update(out.getvalue().encode())
            out.seek(0)
            out.truncate()
    finally:
        cli._build_parser = original
    mixed = hashlib.sha256()
    for rx, ry, rz, alpha, g in mixed_panel():
        rho = DensityMatrix([[0.5 * (1.0 + rz), 0.5 * (rx - 1j * ry)],
                             [0.5 * (rx + 1j * ry), 0.5 * (1.0 - rz)]])
        setup = WvaSetup(rho, STANDARD_BASIS.superposition(alpha), METER_PLUS,
                         STANDARD_SIGMA, STANDARD_SIGMA, g)
        p, _ = postselect_mixed(setup)
        mixed.update(f"{p.hex()} {fm_exact(setup).hex()}\n".encode())
    return f"qfi {qfi.hexdigest()}\nmixed {mixed.hexdigest()}\n"


def test_exact_panel_matches_its_pinned_digest():
    assert panel_digests() == (PINNED / "exact_panel.sha256").read_text(encoding="utf-8")


def _record() -> None:
    """Rewrite every pinned file, the demos' stdout included, from the current source.

    Prints the name of each file whose bytes changed, one a line, and nothing else.
    """
    PINNED.mkdir(parents=True, exist_ok=True)
    before = {path.name: path.read_bytes() for path in PINNED.iterdir()}
    for name in CASES:
        run_case(name, PINNED)
    (PINNED / "exact_panel.sha256").write_text(panel_digests(), encoding="utf-8")
    for demo in sorted((ROOT / "demos").glob("*.py")):
        out = subprocess.run([sys.executable, "-W", "error", str(demo)], cwd=ROOT,
                             capture_output=True, check=True).stdout
        (PINNED / f"demo_{demo.stem}.txt").write_bytes(out)
    for path in sorted(PINNED.iterdir()):
        if before.get(path.name) != path.read_bytes():
            print(path.name)


def test_recording_an_unchanged_tree_names_no_file(tmp_path):
    """Rewriting the pinned files of a copy of this tree prints no name."""
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "demos", "tests"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=ignore)
    env = {**os.environ, "PYTHONPATH": str(tmp_path / "src")}
    done = subprocess.run([sys.executable, "tests/test_pinned_outputs.py"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout == ""


if __name__ == "__main__":
    _record()
