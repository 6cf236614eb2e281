"""Run one fleetsim benchmark workload and print its metrics.

    python3 perfbench/run.py --workload day-rhc --seed 1 --seconds 20 --trace 0

Run it from the repository root.  It imports fleetsim from ``src/`` next
to this directory, writes scratch files under ``.bench_out/`` and prints
one line per metric, then, as the last line of standard output, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics and ``--trace 1`` the
per-layer ones, from a run that wraps the program's entry points and
writes the spans to ``.bench_out/``.  The exit code is 0 only when every
correctness check passed.

Seed 9001 is held out: use it to confirm a claim made on other seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from pathlib import Path

# One BLAS thread, set before numpy loads.  The simulator itself is single
# threaded; a second BLAS thread only spins on the batch-of-one Q-network
# calls and makes every call wait whenever a neighbour takes the other core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bootstrap() -> None:
    """Put this checkout's ``src/`` first on the path, or exit 2."""
    src = ROOT / "src"
    if not (src / "fleetsim" / "__init__.py").is_file():
        print(f"perfbench: no fleetsim sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import fleetsim

    if Path(fleetsim.__file__).resolve().parent != src / "fleetsim":
        print(f"perfbench: imported fleetsim from {fleetsim.__file__}, not {src}",
              file=sys.stderr)
        sys.exit(2)


def main(argv=None) -> int:
    bootstrap()
    import bench

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="repeat the evaluation episode as often as fits in this "
                             "many seconds on the reference host, at most 30 times")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    work_dir = ROOT / ".bench_out"
    env = bench.environment(ROOT)
    print("env " + json.dumps(env, sort_keys=True))
    try:
        result = {"correct": True, **bench.run(args.workload, args.seed, args.seconds,
                                                bool(args.trace), work_dir)}
    except bench.GateError as exc:
        print(f"perfbench: correctness check failed: {exc}", file=sys.stderr)
        result = {"correct": False, "attempted": 1, "failed": 1, "errors": [str(exc)],
                  "metrics": {}, "extras": {}}
    except Exception:
        traceback.print_exc()
        result = {"correct": False, "attempted": 1, "failed": 1,
                  "errors": ["the program raised"], "metrics": {}, "extras": {}}

    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']!r} {m['unit']}")
    for name, value in result["extras"].items():
        if name not in result["metrics"]:
            print(f"{args.workload} {name} = {value!r}")
    for err in result["errors"]:
        print(f"{args.workload} error: {err}")
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": env, **result}
    work_dir.mkdir(parents=True, exist_ok=True)
    out = work_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
