"""Behaviour fingerprint: a tiny CLI pipeline and the sha256 of each file it writes.

``python tests/fingerprint.py DIR`` runs ``synth-data``, ``train-models``,
``train-dqn`` and ``simulate`` for each of the four policies, at one BLAS
thread, with every file under ``DIR``.  It prints a JSON record: the
environment stamp (numpy version, OpenBLAS core, BLAS thread count) and
each file's sha256, keyed by its path under ``DIR``.
``--record`` also writes that record to ``tests/fingerprint.json``, which
``test_fingerprint.py`` compares against.  A change of behaviour records
the new hashes in the same change and names each file that moved.
"""

import os

# One BLAS thread, set before numpy loads: the fits' bits depend on it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import sys  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

RECORD = Path(__file__).resolve().parent / "fingerprint.json"

SETTINGS = {"seed": 2, "fine_rows": 10, "fine_cols": 10, "region_block": 1, "vehicles": 30,
            "trips_per_day": 1200, "days": 2, "train_days": 3, "dqn_train_steps": 40,
            "dqn_batch": 8}
POLICIES = ("dqn", "dqn_star", "rhc", "none")  # slowest first


def env_stamp() -> dict:
    """numpy's version, and the core and thread count of its OpenBLAS (None without one)."""
    stamp = {"numpy": np.__version__, "openblas_core": None, "blas_threads": None}
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                core = getattr(lib, f"{prefix}get_corename{suffix}", None)
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                if core is not None and threads is not None:
                    core.restype = ctypes.c_char_p
                    threads.restype = ctypes.c_int
                    stamp.update(openblas_core=core().decode(), blas_threads=threads())
                    return stamp
    return stamp


def _cli(args: list[str]) -> int:
    """``cli.main(args)`` with its stdout sent to stderr, so stdout is the record's."""
    from fleetsim.harness import cli

    with redirect_stdout(sys.stderr):
        return cli.main(args)


def run_pipeline(base: Path) -> dict[str, str]:
    """Run the pipeline under ``base``; the sha256 of each file it wrote.

    The four simulations read the same models and write files of their
    own, so two worker processes run them, the slowest first.
    """
    sets = {**SETTINGS, "data_dir": base / "city", "out_dir": base / "out"}
    args = [arg for key, value in sets.items() for arg in ("--set", f"{key}={value}")]
    for command in ("synth-data", "train-models", "train-dqn"):
        if _cli(args + [command]) != 0:
            raise SystemExit(f"fingerprint: {command} failed")
    with multiprocessing.get_context("spawn").Pool(2) as pool:
        codes = pool.map(_cli, [args + ["--set", f"policy={policy}", "simulate"]
                                for policy in POLICIES], chunksize=1)
    if any(codes):
        raise SystemExit(f"fingerprint: simulate exited {dict(zip(POLICIES, codes))}")
    return {path.relative_to(base).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(base.rglob("*")) if path.is_file()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir", type=Path, help="empty directory for the pipeline's files")
    parser.add_argument("--record", action="store_true",
                        help=f"also write the record to {RECORD.name}")
    opts = parser.parse_args()
    record = {"env": env_stamp(), "files": run_pipeline(opts.dir.resolve())}
    text = json.dumps(record, indent=2) + "\n"
    if opts.record:
        RECORD.write_text(text, encoding="utf-8")
    sys.stdout.write(text)


if __name__ == "__main__":
    main()
