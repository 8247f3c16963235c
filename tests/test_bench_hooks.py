"""The package names the benchmark's span tracer wraps still exist.

``bench/tracer.py`` rebinds module attributes by name, so a renamed or removed
function would silently drop its layer from the benchmark's per-layer report.
The tracer module imports only the standard library and is loaded by path.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


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
    counts = {key: r.detail[key] for r in run_suites() for key in keys if key in r.detail}
    assert counts == {"pairs": 1000, "points": 5040, "instances": 100}
