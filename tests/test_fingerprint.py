"""The tiny CLI pipeline of ``fingerprint.py`` writes the files it recorded, bit for bit,
and so does its set-up when numpy's OpenBLAS starts with two threads."""

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ENV = {"PYTHONPATH": os.pathsep.join([str(HERE.parent / "src"), str(HERE)]),
       "PATH": "/usr/bin:/bin"}
# the pipeline's first three commands, then the record of what they wrote
SET_UP = ("import json, sys; from pathlib import Path; import fingerprint; "
          "base = Path(sys.argv[1]); fingerprint.set_up(base); "
          "print(json.dumps(fingerprint.record(base)))")


def submit_runs(runs, tmp_path_factory) -> None:
    runs.submit("fingerprint",
                [sys.executable, str(HERE / "fingerprint.py"),
                 str(tmp_path_factory.mktemp("fingerprint"))], timeout=600, env=ENV)
    # the command line pins one thread after numpy has loaded OpenBLAS with two
    runs.submit("set-up-two-threads",
                [sys.executable, "-c", SET_UP, str(tmp_path_factory.mktemp("two-threads"))],
                timeout=600, env={**ENV, "OPENBLAS_NUM_THREADS": "2"})


def assert_recorded(got: dict) -> None:
    """``got``'s environment is the recorded one, and each of its files has the
    recorded sha256."""
    recorded = json.loads((HERE / "fingerprint.json").read_text(encoding="utf-8"))
    # the recorded bits hold for one numpy, OpenBLAS core and thread count only
    env = {key: (recorded["env"].get(key), got["env"].get(key))
           for key in recorded["env"].keys() | got["env"].keys()
           if recorded["env"].get(key) != got["env"].get(key)}
    assert not env, f"fingerprint.json was recorded on another environment (recorded, here): {env}"
    moved = sorted(name for name in got["files"]
                   if recorded["files"].get(name) != got["files"][name])
    assert not moved, f"files whose sha256 differs from fingerprint.json: {moved}"


def test_pipeline_writes_the_recorded_files(subprocess_runs):
    proc = subprocess_runs.result("fingerprint")
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    recorded = json.loads((HERE / "fingerprint.json").read_text(encoding="utf-8"))
    assert_recorded(got)
    assert sorted(got["files"]) == sorted(recorded["files"])


def test_two_blas_threads_train_the_recorded_q_network(subprocess_runs):
    proc = subprocess_runs.result("set-up-two-threads")
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert {"out/models/qnet.npz", "out/models/dqn_training_log.csv"} <= got["files"].keys()
    assert_recorded(got)
