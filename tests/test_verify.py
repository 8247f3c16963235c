"""Verification suites: argument errors and the fixed panels."""

import inspect

import pytest

from wva_costlab import ContractViolationError, WvaError, run_suites, verify


def test_unknown_suite_raises_a_contract_violation():
    with pytest.raises(ContractViolationError) as err:
        run_suites(names=["bogus"])
    assert isinstance(err.value, WvaError)


def test_tradeoff_suite_has_one_panel():
    # C06 checks the 5040 points of that panel
    assert not hasattr(verify, "theta_grid")
    assert list(inspect.signature(run_suites).parameters) == ["names", "printed_form", "seed"]
    assert list(inspect.signature(verify.suite_tradeoff_bound).parameters) == ["printed_form"]
