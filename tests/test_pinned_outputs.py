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

No pinned value depends on the host's BLAS kernel or numpy's SIMD dispatch,
except the worst value of two ``verify`` suites, each in two fields
(``worst_slack`` and the ``worst_abs_...`` in its detail).
``oracle-agreement``'s comes from LAPACK on random 4x4 matrices, and
``conventional-information``'s from the finite-difference oracles ``qfi_pure``
and ``qfi_mixed`` on 4-dimensional states, which use BLAS and LAPACK ``eigh``.
They are pinned for the kernel OpenBLAS picks on the recording host (SkylakeX,
AVX-512). ``test_pinned_bytes_hold_under_a_second_blas_kernel`` checks every
other byte under a second kernel.
"""

import contextlib
import ctypes
import hashlib
import io
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Optional

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
    """(rx, ry, rz, alpha, g): 200 seeded Bloch vectors of radius at most 0.95, any direction.

    Scaled in Python floats (``math.hypot``), so no input depends on the BLAS kernel.
    """
    rng = np.random.default_rng([PANEL_SEED, 1])
    inputs = []
    for _ in range(200):
        r = rng.normal(size=3).tolist()
        scale = 0.95 * rng.uniform() ** (1.0 / 3.0) / math.hypot(*r)
        alpha = rng.uniform(-math.pi / 2.0, math.pi / 2.0)
        inputs.append((*(x * scale for x in r), alpha, _signed_coupling(rng)))
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


DIGEST = "exact_panel.sha256"


def test_exact_panel_matches_its_pinned_digest():
    assert panel_digests() == (PINNED / DIGEST).read_text(encoding="utf-8")


def write_outputs(directory: Path, names) -> list[str]:
    """Write the named cases, ``DIGEST`` among them, into ``directory``; return what was written."""
    written = []
    for name in names:
        if name == DIGEST:
            (directory / DIGEST).write_text(panel_digests(), encoding="utf-8")
            written.append(DIGEST)
        else:
            written += run_case(name, directory)
    return written


# A second OpenBLAS kernel and the /proc/cpuinfo flag it needs, in order of preference.
SECOND_KERNELS = (("Haswell", "avx2"), ("Sandybridge", "avx"))
# numpy 2's names for its AVX-512 dispatch targets.
NO_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"
# The worst value of the two verify suites whose oracles run BLAS or LAPACK on 4x4
# matrices, in its two fields: pinned for one kernel only.
LAPACK_FIELDS = re.compile(
    r'("name": "(?:oracle-agreement|conventional-information)",\s*"passed": \w+,'
    r'\s*"worst_slack": )[^,]+(,\s*"detail": \{\s*"worst_abs_\w+": )[^,]+'
)


def cpu_flags() -> set[str]:
    """The CPU's feature flags from /proc/cpuinfo; empty where it cannot be read."""
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return set()
    line = next((ln for ln in text.splitlines() if ln.startswith("flags")), ":")
    return set(line.split(":", 1)[1].split())


def second_kernel(flags: set[str]) -> Optional[str]:
    """The first of SECOND_KERNELS that the CPU runs, other than the one OpenBLAS picks for it."""
    own = next((name for name, flag in (("SkylakeX", "avx512f"), *SECOND_KERNELS)
                if flag in flags), None)
    return next((name for name, flag in SECOND_KERNELS if flag in flags and name != own), None)


def blas_core() -> Optional[str]:
    """The kernel that numpy's bundled OpenBLAS runs, or None where it cannot be read."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        # numpy 2 wheels bundle scipy-openblas; numpy 1 wheels an openblas64_ build
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename64_"):
            func = getattr(ctypes.CDLL(str(lib)), symbol, None)
            if func is not None:
                func.argtypes, func.restype = [], ctypes.c_char_p
                return func().decode()
    return None


def _mask_lapack_fields(text: str) -> str:
    masked, count = LAPACK_FIELDS.subn(r"\1<lapack>\2<lapack>", text)
    assert count == 2, "the fields of oracle-agreement and conventional-information"
    return masked


def test_pinned_bytes_hold_under_a_second_blas_kernel(tmp_path):
    """Every pinned case and both panel digests, byte for byte, under a second BLAS kernel.

    One child process runs them under ``OPENBLAS_CORETYPE`` set to a second
    kernel that the CPU supports, and checks that OpenBLAS took it. Only there,
    the four LAPACK_FIELDS in each verify file are left out of the comparison;
    every other byte is compared. On an AVX-512 CPU a second child
    runs the verify cases with numpy's AVX-512 dispatch turned off, and all of
    their bytes are compared. The variables are set in the children only.
    """
    flags = cpu_flags()
    kernel = second_kernel(flags)
    if kernel is None:
        pytest.skip("no second OpenBLAS kernel: Haswell needs avx2 and Sandybridge avx")
    verify = sorted(name for name in CASES if name.startswith("verify"))
    runs = {"kernel": ({"OPENBLAS_CORETYPE": kernel}, [*sorted(CASES), DIGEST])}
    if "avx512f" in flags:
        runs["dispatch"] = ({"NPY_DISABLE_CPU_FEATURES": NO_AVX512}, verify)
    children = {}
    for label, (extra, names) in runs.items():
        (tmp_path / label).mkdir()
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), **extra}
        children[label] = subprocess.Popen(
            [sys.executable, __file__, "--into", str(tmp_path / label), *names],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    outputs = {label: child.communicate(timeout=120) for label, child in children.items()}
    for label, (out, err) in outputs.items():
        assert children[label].returncode == 0, err
        core, *written = out.split()
        print(f"{label} run: {runs[label][0]}, OpenBLAS kernel {core}")
        if label == "kernel" and core != kernel:
            pytest.skip(f"OpenBLAS reports kernel {core}, not {kernel}: the switch is unconfirmed")
        for name in written:
            got, pinned = ((d / name).read_bytes() for d in (tmp_path / label, PINNED))
            if label == "kernel" and name in verify:
                got, pinned = (_mask_lapack_fields(b.decode()) for b in (got, pinned))
            assert got == pinned, (label, name)


def _record() -> None:
    """Rewrite every pinned file, the demos' stdout included, from the current source.

    Prints the name of each file whose bytes changed, one a line, and nothing else.
    """
    PINNED.mkdir(parents=True, exist_ok=True)
    before = {path.name: path.read_bytes() for path in PINNED.iterdir()}
    write_outputs(PINNED, [*CASES, DIGEST])
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
    if sys.argv[1:2] == ["--into"]:  # the cross-kernel test's child: the kernel, then the files
        print(blas_core())
        print(*write_outputs(Path(sys.argv[2]), sys.argv[3:]), sep="\n")
    else:
        _record()
