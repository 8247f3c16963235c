"""Every warning raised while a test in this directory runs fails that test.

A stray ``RuntimeWarning`` is a bug here, so the tests run under the ``error``
warning filter. It is set per item, not as ``filterwarnings`` in
``pyproject.toml``, because ``bench/selftest.py`` reads the same pytest
configuration and leaves a file unclosed (a ``ResourceWarning``).

Hypothesis reports a failing example through ``hypothesis.extra._patching``,
which it imports while the failed item's report is made, under that item's
filter. Its first import pulls in libcst, which raises a ``DeprecationWarning``
(``mypy_extensions.TypedDict``); as an error, that ended the whole session with
an INTERNALERROR. So it is imported here once, before any test runs, with the
warnings of that one import ignored. Nothing in ``wva_costlab`` runs under it.
"""

import warnings
from pathlib import Path

import pytest

pytest_plugins = ("pytester",)  # for test_conftest.py

with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # without libcst, hypothesis writes no patch and imports nothing
        pass

TESTS = Path(__file__).resolve().parent


def pytest_collection_modifyitems(items):
    for item in items:
        if TESTS in Path(item.path).resolve().parents:
            item.add_marker(pytest.mark.filterwarnings("error"))
