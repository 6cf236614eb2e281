import os
import signal
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

# One BLAS thread, set before numpy loads, for the in-process tests and the
# processes they start, as for the session's subprocess runs: the runs share
# the cores with the tests, and a multi-threaded BLAS call stalls whenever
# another process holds a core its threads wait for.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from hypothesis import settings  # noqa: E402

# Same examples on every run, and no per-example deadline: a simulation
# example can take longer than hypothesis' 200 ms default.
settings.register_profile("fleetsim", deadline=None, derandomize=True)
settings.load_profile("fleetsim")


class SubprocessRuns:
    """Commands run one after another on a worker thread, each in a process group
    of its own.

    ``result(key)`` waits for the run submitted as ``key`` and returns its
    ``subprocess.CompletedProcess``, or raises ``subprocess.TimeoutExpired``
    once the run, killed at its timeout, is reaped.  ``close`` kills every
    run still going, with any process it started, and reaps it; a run not
    yet started never starts.
    """

    def __init__(self):
        self._pool = ThreadPoolExecutor(max_workers=1)
        self._lock = threading.Lock()
        self._procs: list[subprocess.Popen] = []
        self._closed = False
        self._runs = {}

    def submit(self, key: str, args: list[str], timeout: float, **popen) -> None:
        self._runs[key] = self._pool.submit(self._run, args, timeout, popen)

    def result(self, key: str) -> subprocess.CompletedProcess:
        return self._runs[key].result()

    def _run(self, args, timeout, popen) -> subprocess.CompletedProcess:
        with self._lock:
            if self._closed:
                raise RuntimeError("the test session ended before this run started")
            proc = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                    text=True, start_new_session=True, **popen)
            self._procs.append(proc)
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            self._kill(proc)
            proc.communicate()
            raise
        return subprocess.CompletedProcess(args, proc.returncode, out, err)

    @staticmethod
    def _kill(proc: subprocess.Popen) -> None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # the group: a run's own workers too
        except ProcessLookupError:
            pass

    def close(self) -> None:
        with self._lock:
            self._closed = True
            running = [proc for proc in self._procs if proc.poll() is None]
        for proc in running:
            self._kill(proc)
        # the worker reaps its process, then returns
        self._pool.shutdown(wait=True, cancel_futures=True)


def _submits_runs(item) -> bool:
    return hasattr(getattr(item, "module", None), "submit_runs")


def pytest_collection_modifyitems(items):
    """The tests of a module with subprocess runs go last, so that the runs,
    started when the session begins, overlap the in-process tests."""
    items.sort(key=_submits_runs)


@pytest.fixture(scope="session", autouse=True)
def subprocess_runs(request, tmp_path_factory):
    """The session's :class:`SubprocessRuns`, started before the first test.

    Each test module that defines ``submit_runs(runs, tmp_path_factory)``
    and has a test in the session submits its commands there; its tests
    read their own runs' exit codes and output.  The runs are killed and
    reaped when the session ends, on every path.
    """
    runs = SubprocessRuns()
    request.addfinalizer(runs.close)
    for module in dict.fromkeys(item.module for item in request.session.items
                                if _submits_runs(item)):
        module.submit_runs(runs, tmp_path_factory)
    return runs
