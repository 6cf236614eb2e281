"""Command-line entry point.

Subcommands share one flat config file plus ``--set key=value``
overrides.  Exit codes: 0 success, 1 configuration error, 2 data error,
3 runtime error.  Every bad setting, from the file or from ``--set``, exits 1:
an unknown key, a value that does not convert, or one out of its range.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from ..blas import pin_one_thread
from ..neural import CheckpointError
from .config import ConfigError, parse_config

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_RUNTIME = 3

# the summary columns ``report`` prints after policy and seed: (column, format, width)
REPORTED = (("reject_rate", ".4f", 14), ("mean_wait_minutes", ".2f", 12),
            ("idle_cruise_per_accepted", ".2f", 13), ("utilization_min", ".3f", 10))


class SummaryError(ValueError):
    """A summary CSV that ``report`` cannot read: a header other than
    ``experiment.SUMMARY_COLUMNS``, a row of another length, or a printed
    metric that is neither blank nor a number."""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fleetsim",
        description="taxi-fleet dispatch simulator and policy trainer")
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a config key (repeatable)")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("train-models", help="fit the trip-time and demand models and "
                                        "estimate the zone trip-time/destination tables")
    sub.add_parser("train-dqn", help="train the Q-network in the simulator")
    sub.add_parser("simulate", help="run the configured experiment")
    sub.add_parser("report", help="summarize finished runs in out_dir")
    return parser


def _overrides(pairs: list[str]) -> dict:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, _, value = pair.partition("=")
        out[key.strip()] = value.strip()
    return out


def _num(value, spec: str) -> str:
    """Format a metric; a run without one (None, or a blank summary cell) shows "-"."""
    return "-" if value is None or value == "" else format(float(value), spec)


def _cmd_train_models(cfg) -> int:
    from .experiment import model_paths, train_models, training_city

    metrics = train_models(cfg, training_city(cfg)).metrics
    print(f"eta train rmse {metrics['eta_train_rmse']:.3f} min, "
          f"validation {metrics['eta_val_rmse']:.3f} min "
          f"(mean baseline {metrics['eta_mean_baseline_rmse']:.3f})")
    print(f"demand train rmse {metrics['demand_train_rmse']:.4f} per cell, "
          f"validation {metrics['demand_val_rmse']:.4f} "
          f"(historical baseline {metrics['demand_historical_baseline_rmse']:.4f}); "
          "rmse averages over all cells")
    print(f"wrote {model_paths(cfg)['models']}")
    return EXIT_OK


def _cmd_train_dqn(cfg) -> int:
    from .experiment import model_paths, train_dqn

    _, log_rows = train_dqn(cfg)
    # a NaN loss marks a step taken before the replay held one minibatch
    losses = [row[1] for row in log_rows if row[1] == row[1]]
    if losses:
        tenth = max(1, len(losses) // 10)
        print(f"trained {len(log_rows)} steps; mean loss first 10% "
              f"{sum(losses[:tenth]) / tenth:.3f}, final 10% {sum(losses[-tenth:]) / tenth:.3f}")
    elif log_rows:
        print(f"trained {len(log_rows)} steps; no minibatch: the replay never held "
              f"dqn_batch = {cfg.dqn_batch} transitions")
    else:
        print("trained 0 steps")
    print(f"wrote {model_paths(cfg)['qnet']}")
    return EXIT_OK


def _cmd_simulate(cfg) -> int:
    from .experiment import run_experiment

    result = run_experiment(cfg)
    agg = result["aggregate"]
    rate = agg["reject_rate"]
    wait = agg["mean_wait_minutes"]
    print(f"policy={cfg.policy} seed={cfg.seed}: reject rate "
          f"{rate:.4f}, mean wait {_num(wait, '.2f')} min" if rate is not None else
          f"policy={cfg.policy} seed={cfg.seed}: no measured requests")
    print(f"summary: {result['summary_path']}")
    print(f"plot data: {result['plot_path']}")
    return EXIT_OK


def _cmd_report(cfg) -> int:
    import csv

    from .experiment import SUMMARY_COLUMNS

    out = Path(cfg.out_dir)
    files = sorted(out.glob("summary_*.csv"))
    if not files:
        print(f"no summaries found under {out}")
        return EXIT_DATA
    lines = []  # every file is read first: a bad one prints no table
    for path in files:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if tuple(reader.fieldnames or ()) != SUMMARY_COLUMNS:
                raise SummaryError(f"{path}: line 1: the header is not "
                                   f"{','.join(SUMMARY_COLUMNS)}")
            for rec in reader:
                where = f"{path}: line {reader.line_num}"
                if None in rec or None in rec.values():
                    raise SummaryError(f"{where}: the row does not have "
                                       f"{len(SUMMARY_COLUMNS)} cells")
                if rec["day"] != "all":
                    continue
                cells = [f"{rec['policy']:<10}{rec['seed']:>6}"]
                for column, spec, width in REPORTED:
                    try:
                        cells.append(f"{_num(rec[column], spec):>{width}}")
                    except ValueError:
                        raise SummaryError(f"{where}: {column} {rec[column]!r} "
                                           "is not a number") from None
                lines.append("".join(cells))
    print(f"{'policy':<10}{'seed':>6}{'reject_rate':>14}{'mean_wait':>12}"
          f"{'idle_cruise':>13}{'util_min':>10}")
    for line in lines:
        print(line)
    return EXIT_OK


_HANDLERS = {
    "train-models": _cmd_train_models,
    "train-dqn": _cmd_train_dqn,
    "simulate": _cmd_simulate,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    blas = pin_one_thread()  # before any fit: the outputs' bits hold at one thread
    args = _build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING)
    logging.info("numpy %(numpy)s, OpenBLAS core %(openblas_core)s, "
                 "%(blas_threads)s BLAS thread(s)", blas)
    try:
        cfg = parse_config(args.config, _overrides(args.set))
        return _HANDLERS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (CheckpointError, SummaryError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports and exits
        logging.exception("runtime failure")
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
