"""The per-item ``error`` warning filter of ``conftest.py`` and hypothesis's failure report."""

from pathlib import Path

CONFTEST = Path(__file__).resolve().parent / "conftest.py"


def test_failing_hypothesis_test_lets_the_next_test_run(pytester):
    # A fresh process, so hypothesis's patch writer is not imported yet.
    pytester.makeconftest(CONFTEST.read_text(encoding="utf-8"))
    pytester.makepyfile(
        """
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 5

        def test_runs_after():
            pass
        """
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
    assert "INTERNALERROR" not in result.stdout.str()
