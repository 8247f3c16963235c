"""Verification suites: argument errors."""

import pytest

from wva_costlab import ContractViolationError, WvaError, run_suites
from wva_costlab.verify import theta_grid


@pytest.mark.parametrize("call", [lambda: run_suites(names=["bogus"]), lambda: theta_grid(0)])
def test_bad_arguments_raise_contract_violations(call):
    with pytest.raises(ContractViolationError) as err:
        call()
    assert isinstance(err.value, WvaError)

