"""Every warning raised while a test in this directory runs fails that test.

A stray ``RuntimeWarning`` is a bug here, so the tests run under the ``error``
warning filter. It is set per item, not as ``filterwarnings`` in
``pyproject.toml``, because ``bench/selftest.py`` reads the same pytest
configuration and leaves a file unclosed (a ``ResourceWarning``).
"""

from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent


def pytest_collection_modifyitems(items):
    for item in items:
        if TESTS in Path(item.path).resolve().parents:
            item.add_marker(pytest.mark.filterwarnings("error"))
