"""Verification suites: argument errors."""

import numpy as np
import pytest

from wva_costlab import ContractViolationError, WvaError, run_suites
from wva_costlab.verify import theta_grid


@pytest.mark.parametrize("call", [lambda: run_suites(names=["bogus"]), lambda: theta_grid(0)])
def test_bad_arguments_raise_contract_violations(call):
    with pytest.raises(ContractViolationError) as err:
        call()
    assert isinstance(err.value, WvaError)



@pytest.mark.parametrize("count", [2.5, "3", 3.0, True])
def test_non_integer_theta_counts_raise_contract_violations(count):
    with pytest.raises(ContractViolationError, match="integer"):
        run_suites(names=["tradeoff-bound"], theta_count=count)


@pytest.mark.parametrize("count", [3, np.int64(3)])
def test_integer_theta_counts_accepted(count):
    (result,) = run_suites(names=["tradeoff-bound"], theta_count=count)
    assert result.passed
    assert list(theta_grid(count)) == list(np.linspace(np.pi / 16.0, np.pi / 4.0, 3))
