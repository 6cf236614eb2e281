"""The repository's pytest settings let a failing test report itself."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING_PROPERTY = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_below_five(x):
    assert x < 5
"""


def test_a_failing_hypothesis_test_reports_its_example(tmp_path):
    # every warning is an error, so a warning raised while hypothesis reports
    # the failure would abort the session (exit 3) before the example shows
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "test_property.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, (proc.stdout + proc.stderr)[-3000:]
    assert "Falsifying example" in proc.stdout
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
