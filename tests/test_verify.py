"""Verification suites: argument errors, the fixed panels, and one loop per criterion."""

import ast
import inspect
from pathlib import Path

import numpy as np
import pytest

from wva_costlab import (
    SUITE_NAMES, ContractViolationError, CostPoint, CostRates, WvaError, leading_costs,
    preparation_coherence, probabilistic_qfi, real_superposition_setup, run_suites,
    tradeoff_slack, verify,
)

ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"


def test_unknown_suite_raises_a_contract_violation():
    with pytest.raises(ContractViolationError) as err:
        run_suites(names=["bogus"])
    assert isinstance(err.value, WvaError)


def test_tradeoff_suite_has_one_panel():
    # C06 checks the 5040 points of that panel
    assert not hasattr(verify, "theta_grid")
    assert list(inspect.signature(run_suites).parameters) == ["names", "printed_form", "seed"]


def test_only_the_seeded_suites_and_the_tradeoff_form_take_an_option():
    suites = {name: getattr(verify, "suite_" + name.replace("-", "_")) for name in SUITE_NAMES}
    options = {name: list(inspect.signature(f).parameters) for name, f in suites.items()}
    assert {name: taken for name, taken in options.items() if taken} == {
        "overlap-identity": ["seed"], "tradeoff-bound": ["printed_form"],
        "oracle-agreement": ["seed"],
    }


def test_incoherent_ceiling_runs_the_union_of_both_panels(monkeypatch):
    # 9 populations x 26 angles x 3 couplings, one SLD oracle call per point
    probes, original = [], verify.qfi_mixed
    monkeypatch.setattr(verify, "qfi_mixed", lambda fam, g: probes.append(g) or original(fam, g))
    suite = verify.suite_incoherent_ceiling()
    assert suite.passed
    assert len(probes) == 9 * 26 * 3
    assert sorted(set(probes)) == [1e-3, 0.0349, 0.1]


def test_located_points_reproduce_the_reported_extremes():
    # each location is where its suite measured the value it reports
    tradeoff = verify.suite_tradeoff_bound()

    def slack_at(at):
        point = CostPoint.scaled(*leading_costs(at["theta"], at["alpha"]), CostRates(1.0, 1.0, 1))
        return tradeoff_slack(point, preparation_coherence(at["theta"]))

    assert slack_at(tradeoff.detail["worst_at"]) == tradeoff.worst_slack
    gap_at = tradeoff.detail["saturation_gap_at"]
    assert gap_at["theta"] - np.pi / 2.0 <= gap_at["alpha"] <= -gap_at["theta"]
    assert abs(slack_at(gap_at)) == tradeoff.detail["saturation_gap"]

    weighted = verify.suite_weighted_ceiling()
    at = weighted.detail["worst_at"]
    setup = real_superposition_setup(at["theta"], at["alpha"], at["g"])
    excess = probabilistic_qfi(setup)[0] - 4.0 * setup.omega
    assert excess == pytest.approx(weighted.detail["worst_excess"], abs=1e-15)


def test_bound_verdict_passes_up_to_its_tolerance_and_orders_its_detail():
    at = {"pair": 3}
    result = verify._bound_verdict("s", "abs_error", 1e-3, 1e-3, at, pairs=5, monotone=True)
    assert result.passed and result.worst_slack == 0.0
    assert list(result.detail) == ["worst_abs_error", "tolerance", "pairs", "monotone", "worst_at"]
    assert not verify._bound_verdict("s", "abs_error", np.nextafter(1e-3, 1.0), 1e-3, at).passed
    assert not verify._bound_verdict("s", "abs_error", 0.0, 1e-3, at, ok=False).passed


def test_acceptance_criteria_c01_to_c07_run_no_loop_of_their_own():
    # each criterion's panel loop lives in one verify suite; comprehensions may read it
    tree = ast.parse(ACCEPTANCE.read_text(encoding="utf-8"))
    prefixes = {f"test_c0{k}_" for k in range(1, 8)}
    criteria = {
        node.name: node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name[:9] in prefixes
    }
    assert len(criteria) == 7
    looping = sorted(
        name
        for name, node in criteria.items()
        if any(isinstance(inner, (ast.For, ast.AsyncFor, ast.While)) for inner in ast.walk(node))
    )
    assert looping == []
