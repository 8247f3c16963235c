"""Tests of the benchmark itself.

Run from the root of a checkout:  python3 -m pytest -q bench/selftest.py

The file is not named test_*.py, so the package's own test run does not
collect it.
"""

import json
import os
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

import run  # noqa: E402
import tracer as tracer_module  # noqa: E402
import workloads  # noqa: E402


def bench(*args):
    proc = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smallest_run_emits_exactly_the_named_metrics(workload, trace):
    # --seconds 0 runs a single deck per timed phase, the smallest run there is.
    result = bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.END_TO_END if trace == 0 else tracer_module.PER_LAYER
    assert list(result["metrics"]) == list(expected)
    for name, unit in expected.items():
        assert result["metrics"][name]["unit"] == unit
        assert isinstance(result["metrics"][name]["value"], float)


def test_same_seed_gives_same_inputs():
    for name, cls in workloads.WORKLOADS.items():
        first, second = cls(7, ROOT), cls(7, ROOT)
        assert repr(first.deck(4)) == repr(second.deck(4)), name
        assert repr(first.deck(4)) != repr(cls(8, ROOT).deck(4)), name


def test_self_times_of_one_traced_item_add_up_to_its_span():
    workload = workloads.ExactSweep(5, ROOT)
    item = workload.deck(1)[0]
    tracer = tracer_module.Tracer()
    original = workloads.w.postselect
    tracer.install("wva_costlab")
    try:
        tracer.item = 0
        tracer.span("bench.item", workload.run, item)
    finally:
        tracer.uninstall()
    assert workloads.w.postselect is original

    spans = tracer.spans
    root = spans[-1]
    assert root[2] == "bench.item" and root[1] == -1
    own = tracer_module.self_times(spans)
    assert sum(own.values()) == pytest.approx(root[4] - root[3], rel=1e-9, abs=1e-12)
    assert all(value >= 0.0 for value in own.values())

    # The seed's call structure of one qfi point.
    names = [s[2] for s in spans]
    assert names.count("postselect.postselect") == 8
    assert names.count("states.coupling_unitary") == 11
    assert tracer.counters["family_evals"] == 3 * names.count("fisher.qfi_pure")


def test_a_host_phase_that_stretches_a_deck_leaves_its_reference_units_alone():
    ok = workloads.Outcome(True)
    calm = [(0, 0.004, 0.001, ok), (0, 0.006, 0.001, ok), (1, 0.005, 0.001, ok)]
    slow = [(deck, 2.0 * latency, 2.0 * block, o) for deck, latency, block, o in calm]

    def costs(records):
        return [cost for _, cost, _, _ in run.in_reference_units(records)]

    assert costs(slow) == pytest.approx(costs(calm))
    assert costs(calm) == pytest.approx([4.0, 6.0, 5.0])
    assert run.deck_rates(run.in_reference_units(calm)) == pytest.approx([0.2, 0.2])


def test_oracle_matches_the_package_at_a_sampled_point():
    theta, alpha, g = workloads.draw_pure_point(workloads.np.random.default_rng(11))
    p, fm, pfm, _ = workloads.qfi_report(theta, alpha, g)
    p_o, fm_o, pfm_o, _ = workloads.pure_oracle(theta, alpha, g)
    assert p == pytest.approx(p_o, rel=1e-12)
    assert fm == pytest.approx(fm_o, rel=1e-5)
    assert pfm == pytest.approx(pfm_o, rel=1e-5)


def test_without_package_source_the_run_fails_without_a_result(tmp_path):
    bench_copy = tmp_path / "bench"
    bench_copy.mkdir()
    for name in os.listdir(BENCH_DIR):
        if name.endswith(".py"):
            (bench_copy / name).write_bytes(open(os.path.join(BENCH_DIR, name), "rb").read())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "campaign", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
