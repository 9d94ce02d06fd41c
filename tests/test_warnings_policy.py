"""The suite's warnings policy reports a failing property as one failure and keeps going."""

from pathlib import Path

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_property_is_a_failure_and_the_next_test_runs(pytester):
    # The session runs under this repository's pytest settings, warning filters included.
    pytester.makepyprojecttoml(PYPROJECT.read_text(encoding="utf-8"))
    pytester.makepyfile(
        test_probe="""
        from hypothesis import Phase, given, settings, strategies as st

        @settings(derandomize=True, database=None, phases=[Phase.generate])
        @given(st.just(1))
        def test_property_fails(n):
            assert n < 0

        def test_after_the_property():
            pass
        """
    )
    result = pytester.runpytest_inprocess("-p", "no:cacheprovider", "test_probe.py")
    result.assert_outcomes(failed=1, passed=1)
    result.stdout.fnmatch_lines(["FAILED test_probe.py::test_property_fails*"])
    result.stdout.no_fnmatch_line("*INTERNALERROR*")
