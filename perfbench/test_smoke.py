"""Smoke test: every workload on a tiny city, traced and untraced.

    python3 -m pytest perfbench -q
"""

import json
import math

import pytest

from run import ROOT, bootstrap

bootstrap()

import bench  # noqa: E402

TINY = bench.Scale(
    overrides=dict(fine_rows=10, fine_cols=10, cell_size_m=600.0, region_block=1,
                   zone_block=5, vehicles=30, trips_per_day=1200.0, train_days=2,
                   eta_epochs=2, demand_epochs=2, dqn_batch=8),
    window_minutes=90, offered_requests=120, dqn_train_steps=12, setups=2,
)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_workload_reports_every_metric(tmp_path, workload, trace):
    result = bench.run(workload, seed=5, seconds=0.0, trace=trace,
                       work_dir=tmp_path, scale=TINY)
    # the gate raises GateError when a check fails
    assert result["failed"] == 0 and result["attempted"] >= 1, result["errors"]
    expected = bench.PER_LAYER if trace else bench.END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    if trace:
        spans = json.loads((tmp_path / f"{workload}-seed5-spans.json").read_text())
        assert spans["workload"] and spans["setup"]
    # the fresh model directories are gone; only the spans file may remain
    assert all(p.is_file() for p in tmp_path.iterdir())


def test_definition_matches_the_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
