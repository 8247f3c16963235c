"""The package names the benchmark's tracer and workloads use still exist.

``bench/tracer.py`` rebinds module attributes by name, so a renamed or removed
function would silently drop its layer from the benchmark's per-layer report.
The tracer module imports only the standard library and is loaded by path.
``bench/workloads.py`` imports modules that live only under ``bench/``, so it
is read with ``ast`` instead: every package attribute it reads must exist, and
its campaign items must still construct their configuration positionally.
"""

import ast
import importlib
import importlib.util
import inspect
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACER_PATH = BENCH / "tracer.py"
WORKLOADS = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
# the aliases workloads.py gives the package modules it reads
WORKLOAD_ALIASES = {"w": "wva_costlab", "wexp": "wva_costlab.experiment"}


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module, attr", [target[:2] for target in load_tracer().TARGETS])
def test_traced_target_exists(module, attr):
    assert callable(getattr(importlib.import_module(f"wva_costlab.{module}"), attr))


def test_traced_targets_run_only_on_the_callers_thread(monkeypatch):
    # the tracer keeps one span stack, so a threaded campaign may call no
    # function it wraps from a worker, on the block path, the redo path or the
    # serial path; rebind them as the tracer does
    from wva_costlab import (
        ExperimentConfig, FixedPostselected, FixedPrepared, experiment, run_campaign,
    )

    callers = set()

    def recording(fn):
        def wrapper(*args, **kwargs):
            callers.add(threading.get_ident())
            return fn(*args, **kwargs)
        return wrapper

    modules = [m for name, m in sys.modules.items() if name.startswith("wva_costlab")]
    for module_name, attr, _ in load_tracer().TARGETS:
        original = getattr(importlib.import_module(f"wva_costlab.{module_name}"), attr)
        for module in modules:
            if getattr(module, attr, None) is original:
                monkeypatch.setattr(module, attr, recording(original))
    threads = {"_sample_blocks": set(), "_sample_trial": set()}

    def tracking(name):
        fn = getattr(experiment, name)

        def wrapper(*args):
            threads[name].add(threading.get_ident())
            return fn(*args)
        return wrapper

    for name in threads:
        monkeypatch.setattr(experiment, name, tracking(name))
    monkeypatch.setattr(experiment, "_usable_cpus", lambda: 2)
    theta = math.pi / 6
    campaigns = {
        # blocks: a C08 cell
        "_sample_blocks": (-math.pi / 4, 0.0349, FixedPostselected(700)),
        # blocks whose speculation misses: nu = 2 at p ~ 4e-4 redoes about a quarter
        "_sample_trial": (theta - math.pi / 2 + 0.02, 0.0, FixedPostselected(2)),
    }
    for name, (alpha, g, stopping) in campaigns.items():
        for seen in threads.values():
            seen.clear()
        run_campaign(ExperimentConfig(theta, alpha, g, stopping, 40, 1))
        assert len(threads[name]) == 2
    # the serial path: a fill of 10**5 uniforms does not fit the block buffers
    for seen in threads.values():
        seen.clear()
    run_campaign(ExperimentConfig(theta, -math.pi / 4, 0.0349, FixedPrepared(10**5), 4, 1))
    assert not threads["_sample_blocks"] and len(threads["_sample_trial"]) == 2
    assert callers == {threading.get_ident()}


def test_mle_takes_g_max():
    from wva_costlab import experiment

    assert "g_max" in inspect.signature(experiment.mle_g).parameters


def test_readout_law_is_an_lru_cache():
    from wva_costlab import experiment

    assert hasattr(experiment._readout_probabilities, "cache_info")
    assert hasattr(experiment._readout_probabilities, "__wrapped__")


def test_suite_details_carry_the_counts_the_tracer_sums():
    from wva_costlab import run_suites

    keys = load_tracer()._POINT_KEYS
    counts = {
        r.name: {key: r.detail[key] for key in keys if key in r.detail} for r in run_suites()
    }
    # incoherent-ceiling reports no count: the tracer counts its qfi_mixed calls, one per point
    assert counts == {
        "overlap-identity": {"pairs": 1000}, "tradeoff-bound": {"points": 5040},
        "incoherent-ceiling": {}, "oracle-agreement": {"instances": 100},
        "conventional-information": {"points": 16}, "leading-order": {"points": 166},
        "weighted-ceiling": {"points": 5040},
    }


def _fresh_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(BENCH.parent / "src")}


def test_importing_the_cli_loads_every_traced_module_and_no_numpy():
    # bench/cli_entry.py reads experiment's readout cache and the tracer looks each
    # target module up in sys.modules right after this import; numpy stays unloaded
    modules = sorted({module for module, _, _ in load_tracer().TARGETS})
    code = (
        "import sys\n"
        "import wva_costlab.cli\n"
        f"missing = [m for m in {modules!r} if 'wva_costlab.' + m not in sys.modules]\n"
        "assert not missing, missing\n"
        "assert sys.modules['wva_costlab.experiment']._readout_probabilities.cache_info()\n"
        "assert 'numpy' not in sys.modules\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=_fresh_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_traced_cli_entry_runs_a_qfi_request(tmp_path):
    spans = tmp_path / "spans.json"
    argv = ["qfi", "--theta", "0.5", "--alpha", "-0.7", "--g", "0.01"]
    done = subprocess.run([sys.executable, str(BENCH / "cli_entry.py"), str(spans), *argv],
                          env=_fresh_env(), cwd=BENCH.parent, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["theta"] == 0.5
    names = {span[2] for span in json.loads(spans.read_text())["spans"]}
    assert {"cli.import", "cli.main.qfi", "postselect.fm_exact", "fisher.cfi_discrete"} <= names


def test_workloads_import_the_package_under_the_expected_aliases():
    aliases = {}
    for node in ast.walk(WORKLOADS):
        if isinstance(node, ast.Import):
            aliases.update((a.asname or a.name, a.name) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module == "wva_costlab":
            aliases.update((a.asname or a.name, f"wva_costlab.{a.name}") for a in node.names)
    assert {alias: aliases.get(alias) for alias in WORKLOAD_ALIASES} == WORKLOAD_ALIASES


@pytest.mark.parametrize("alias", sorted(WORKLOAD_ALIASES))
def test_package_names_the_workloads_read_exist(alias):
    module = importlib.import_module(WORKLOAD_ALIASES[alias])
    read = {
        node.attr
        for node in ast.walk(WORKLOADS)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == alias
    }
    assert read
    assert sorted(name for name in read if not hasattr(module, name)) == []


def test_campaign_configs_still_construct_positionally():
    from wva_costlab import ExperimentConfig, FixedPostselected, FixedPrepared

    campaign = next(
        node for node in ast.walk(WORKLOADS)
        if isinstance(node, ast.ClassDef) and node.name == "Campaign"
    )
    calls = [
        node for node in ast.walk(campaign)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "ExperimentConfig"
    ]
    # (theta, alpha, g, stopping, n_reps, seed) in run; (*(theta, alpha, g), stopping, n_reps,
    # seed) in the out-of-domain panel
    shapes = sorted((len(c.args), any(isinstance(a, ast.Starred) for a in c.args), len(c.keywords))
                    for c in calls)
    assert shapes == [(4, True, 0), (6, False, 0)]
    for stopping in (FixedPostselected(700), FixedPrepared(10000)):
        config = ExperimentConfig(math.pi / 6, -math.pi / 4, 0.0698, stopping, 200, 2**63 - 1)
        assert (config.n_reps, config.master_seed) == (200, 2**63 - 1)
    cell = (math.pi / 6, -math.pi / 6, 0.03)
    assert ExperimentConfig(*cell, FixedPostselected(50), 20, 1).theta == cell[0]
