"""End to end at pocket scale: synthesize, train, simulate, compare.

A miniature city (10x10 cells, 30 vehicles, one day) keeps this demo in
the tens of seconds.  Nothing runs the chapter-scale comparison yet; the
nearest command-line runs are:

    fleetsim --config city.cfg synth-data
    fleetsim --config city.cfg simulate
    fleetsim --config city.cfg --set policy=rhc simulate
    fleetsim --config city.cfg report

They print other numbers than this script: ``simulate`` reads the city
files that ``synth-data`` wrote, whose trip times are rounded to the
second, while this script simulates the synthesised city in memory.
"""

import dataclasses
import tempfile

from fleetsim.harness.config import ExperimentConfig
from fleetsim.harness import experiment as ex
from fleetsim.harness.synth import synth_city

tmp = tempfile.mkdtemp(prefix="fleetsim-demo-")
cfg = ExperimentConfig(
    seed=21, data_dir=f"{tmp}/city", out_dir=f"{tmp}/runs",
    fine_rows=10, fine_cols=10, cell_size_m=600.0, region_block=1, zone_block=5,
    vehicles=30, days=1, trips_per_day=1200.0, train_days=3,
    eta_epochs=8, demand_epochs=20,
)

print("training models on the synthetic training city ...")
bundle = ex.train_models(cfg, ex.training_city(cfg))
print(f"  eta validation rmse: {bundle.metrics['eta_val_rmse']:.2f} min")
print(f"  demand validation rmse: {bundle.metrics['demand_val_rmse']:.3f} per cell")

city = ex.city_from_synth(synth_city(cfg, cfg.seed, ex.city_days(cfg)))
print(f"evaluation city: {len(city.requests)} requests over {cfg.days} day(s)")

for policy in ("none", "rhc"):
    pcfg = dataclasses.replace(cfg, policy=policy)
    result = ex.run_experiment(pcfg, city=city, bundle=bundle)
    agg = result["aggregate"]
    print(f"{policy:>5}: reject rate {agg['reject_rate']:.3f}, "
          f"mean wait {agg['mean_wait_minutes']:.1f} min, "
          f"idle cruise {agg['idle_cruise_per_accepted']:.1f} min/request")
print(f"summaries under {cfg.out_dir}")
