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
import math
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
