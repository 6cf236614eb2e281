"""The tiny CLI pipeline of ``fingerprint.py`` writes the files it recorded, bit for bit."""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def submit_runs(runs, tmp_path_factory) -> None:
    runs.submit("fingerprint",
                [sys.executable, str(HERE / "fingerprint.py"),
                 str(tmp_path_factory.mktemp("fingerprint"))],
                timeout=600, env={"PYTHONPATH": str(HERE.parent / "src"), "PATH": "/usr/bin:/bin"})


def test_pipeline_writes_the_recorded_files(subprocess_runs):
    recorded = json.loads((HERE / "fingerprint.json").read_text(encoding="utf-8"))
    proc = subprocess_runs.result("fingerprint")
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    # the recorded bits hold for one numpy, OpenBLAS core and thread count only
    env = {key: (recorded["env"].get(key), got["env"].get(key))
           for key in recorded["env"].keys() | got["env"].keys()
           if recorded["env"].get(key) != got["env"].get(key)}
    assert not env, f"fingerprint.json was recorded on another environment (recorded, here): {env}"
    moved = sorted(name for name in recorded["files"].keys() | got["files"].keys()
                   if recorded["files"].get(name) != got["files"].get(name))
    assert not moved, f"files whose sha256 differs from fingerprint.json: {moved}"
