"""Every demo script runs to completion from a fresh interpreter.

The demos run two at a time, once for this module, each at one BLAS thread
so that the two share the cores without contention; each test reads its
own demo's exit code and output.
"""

import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(demo: Path, work: Path) -> subprocess.CompletedProcess:
    work.mkdir()
    # TMPDIR keeps the scratch directory demo 07 makes inside its own directory
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(work),
               **{var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                       "MKL_NUM_THREADS")})
    return subprocess.run([sys.executable, str(demo)], cwd=work, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.fixture(scope="module")
def demo_runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("demos")
    # the slowest demos first, so the two workers finish close together
    order = sorted(DEMOS, key=lambda d: d.name[:2] not in ("04", "07"))
    with ThreadPoolExecutor(max_workers=2) as pool:
        return {d.name: pool.submit(run_demo, d, base / d.stem) for d in order}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, demo_runs):
    proc = demo_runs[demo.name].result()  # a timeout fails this demo's test only
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    if demo.name.startswith("05_"):
        assert "-0.00" not in proc.stdout
