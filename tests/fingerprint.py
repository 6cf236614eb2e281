"""Behaviour fingerprint: a tiny CLI pipeline and the sha256 of each file it writes.

``python tests/fingerprint.py DIR`` runs ``train-models``, ``train-dqn``
and ``simulate`` for each of the four policies, with every file under
``DIR``; the command line pins numpy's OpenBLAS to one thread
whatever ``OPENBLAS_NUM_THREADS`` says.  It prints a JSON record: the
environment stamp of ``blas.pin_one_thread`` (numpy version, OpenBLAS
core, BLAS thread count) and each file's sha256, keyed by its path under
``DIR``.  ``--record`` also writes that record to ``tests/fingerprint.json``,
which ``test_fingerprint.py`` compares against.  A change of behaviour
records the new hashes in the same change and names each file that moved.
"""

import argparse
import hashlib
import json
import multiprocessing
import sys
from contextlib import redirect_stdout
from pathlib import Path

from fleetsim.blas import pin_one_thread

RECORD = Path(__file__).resolve().parent / "fingerprint.json"

SETTINGS = {"seed": 2, "fine_rows": 10, "fine_cols": 10, "region_block": 1, "vehicles": 30,
            "trips_per_day": 1200, "days": 2, "train_days": 3, "dqn_train_steps": 40,
            "dqn_batch": 8}
POLICIES = ("dqn", "dqn_star", "rhc", "none")  # slowest first


def _cli(args: list[str]) -> int:
    """``cli.main(args)`` with its stdout sent to stderr, so stdout is the record's."""
    from fleetsim.harness import cli

    with redirect_stdout(sys.stderr):
        return cli.main(args)


def _args(base: Path) -> list[str]:
    sets = {**SETTINGS, "out_dir": base / "out"}
    return [arg for key, value in sets.items() for arg in ("--set", f"{key}={value}")]


def set_up(base: Path) -> None:
    """Run the pipeline's ``train-models`` and ``train-dqn`` under ``base``."""
    for command in ("train-models", "train-dqn"):
        if _cli(_args(base) + [command]) != 0:
            raise SystemExit(f"fingerprint: {command} failed")


def run_pipeline(base: Path) -> None:
    """Run the whole pipeline under ``base``.

    The four simulations read the same models and write files of their
    own, so two worker processes run them, the slowest first.
    """
    set_up(base)
    with multiprocessing.get_context("spawn").Pool(2) as pool:
        codes = pool.map(_cli, [_args(base) + ["--set", f"policy={policy}", "simulate"]
                                for policy in POLICIES], chunksize=1)
    if any(codes):
        raise SystemExit(f"fingerprint: simulate exited {dict(zip(POLICIES, codes))}")


def record(base: Path) -> dict:
    """The environment stamp, and the sha256 of each file under ``base`` keyed by its path."""
    return {"env": pin_one_thread(),
            "files": {path.relative_to(base).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
                      for path in sorted(base.rglob("*")) if path.is_file()}}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir", type=Path, help="empty directory for the pipeline's files")
    parser.add_argument("--record", action="store_true",
                        help=f"also write the record to {RECORD.name}")
    opts = parser.parse_args()
    base = opts.dir.resolve()
    run_pipeline(base)
    text = json.dumps(record(base), indent=2) + "\n"
    if opts.record:
        RECORD.write_text(text, encoding="utf-8")
    sys.stdout.write(text)


if __name__ == "__main__":
    main()
