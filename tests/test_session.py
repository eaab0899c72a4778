"""The pytest settings in pyproject.toml keep a session whole: a failing
property test reports its falsifying example, and the tests after it run."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).parent.parent / "pyproject.toml"

# A failing hypothesis test, then a passing plain one.
PAIR = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(n):
    assert n < 0


def test_plain_passes():
    pass
'''


def test_a_failing_property_test_does_not_end_the_session(tmp_path):
    """filterwarnings makes every warning an error, and hypothesis's pytest
    plugin warns (mypy_extensions.TypedDict is deprecated) while it reports
    a failure; unless that warning is ignored, pytest stops with an
    INTERNALERROR after the first failing property test."""
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_pair.py").write_text(PAIR)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "1 failed, 1 passed" in run.stdout, run.stdout + run.stderr
    assert "Falsifying example" in run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr
