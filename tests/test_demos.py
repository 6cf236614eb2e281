"""Every demo script runs to completion from a fresh interpreter.

The demos are subprocess runs of the session (see
``conftest.subprocess_runs``): they run one at a time from when the
session begins, each at one BLAS thread, and each test reads its own
demo's exit code and output.
"""

import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def work_dir(tmp_path_factory, demo: Path) -> Path:
    """The demo's working directory, which is also its TMPDIR."""
    return tmp_path_factory.getbasetemp() / "demos" / demo.stem


def submit_runs(runs, tmp_path_factory) -> None:
    tmp_path_factory.mktemp("demos", numbered=False)
    for demo in DEMOS:
        work = work_dir(tmp_path_factory, demo)
        work.mkdir()
        # TMPDIR keeps any temporary directory a demo makes inside its own directory
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(work),
                   **{var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                           "MKL_NUM_THREADS")})
        runs.submit(demo.name, [sys.executable, str(demo)], timeout=120, cwd=work, env=env)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, subprocess_runs, tmp_path_factory):
    proc = subprocess_runs.result(demo.name)  # a timeout fails this demo's test only
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    # a demo leaves nothing behind, in its working directory or its TMPDIR
    assert list(work_dir(tmp_path_factory, demo).iterdir()) == []
    if demo.name.startswith("05_"):
        assert "-0.00" not in proc.stdout
