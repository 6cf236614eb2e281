import subprocess
import sys
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest

from fleetsim.geo import GridSpec, Location, RegionMapError, block_region_map
from fleetsim.harness.config import ConfigError, ExperimentConfig, parse_config, render_config
from fleetsim.harness.ingest import TripDataError, ingest_trips
from fleetsim.harness.synth import build_road_grid, synth_city, write_city
from fleetsim.harness import experiment as ex


def small_cfg(tmp_path, **kw):
    defaults = dict(
        seed=11, data_dir=str(tmp_path / "city"), out_dir=str(tmp_path / "runs"),
        fine_rows=10, fine_cols=10, cell_size_m=600.0, region_block=1,
        zone_block=5, vehicles=30, days=1, trips_per_day=1200.0,
        train_days=2, eta_epochs=4, demand_epochs=5, dqn_train_steps=10,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults).validate()


class TestConfig:
    def test_round_trip(self, tmp_path):
        cfg = small_cfg(tmp_path, policy="rhc")
        text = render_config(cfg)
        back = parse_config(text=text)
        assert back == cfg

    def test_seed_mandatory(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config(text="policy = none\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            parse_config(text="seed = 1\nnot_a_key = 2\n")

    def test_bad_policy_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(text="seed = 1\npolicy = teleport\n")

    def test_overrides_apply(self, tmp_path):
        cfg = parse_config(text="seed = 1\n", overrides={"vehicles": "7"})
        assert cfg.vehicles == 7

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config(text="# hello\n\nseed = 3\n")
        assert cfg.seed == 3


class TestSynth:
    def test_deterministic_given_seed(self, tmp_path):
        cfg = small_cfg(tmp_path)
        a = synth_city(cfg, seed=5, days=1)
        b = synth_city(cfg, seed=5, days=1)
        assert len(a.trips) == len(b.trips)
        assert all(x == y for x, y in zip(a.trips[:50], b.trips[:50]))

    def test_zero_rate_city_has_no_trips(self, tmp_path):
        cfg = small_cfg(tmp_path, trips_per_day=0.0)
        city = synth_city(cfg, seed=5, days=1)
        assert city.trips == []

    def test_counts_track_configured_volume(self, tmp_path):
        # weekday totals should sit near trips_per_day over several days
        cfg = small_cfg(tmp_path, trips_per_day=1500.0)
        city = synth_city(cfg, seed=9, days=7)
        weekday_counts = {}
        for tr in city.trips:
            day = int(tr.pickup_minute // 1440)
            weekday_counts.setdefault(day, 0)
            weekday_counts[day] += 1
        weekdays = [weekday_counts.get(d, 0) for d in range(5)]
        # the activity level swings demand, so allow a wide but honest band
        for count in weekdays:
            assert 700 < count < 3000
        assert 1000 < np.mean(weekdays) < 2200

    def test_files_round_trip_through_ingest(self, tmp_path):
        cfg = small_cfg(tmp_path)
        city = synth_city(cfg, seed=5, days=1)
        info = write_city(city, cfg, cfg.data_dir)
        assert info["n_trips"] == len(city.trips)
        epoch = datetime.fromisoformat(cfg.epoch_date)
        requests, report = ingest_trips(Path(cfg.data_dir) / "trips.csv",
                                        city.grid, epoch)
        assert report.kept == len(city.trips)
        assert report.dropped_bounds == 0
        # sorted by pickup time
        minutes = [r.minute for r in requests]
        assert minutes == sorted(minutes)
        # round trip preserves timing to the written one-second precision
        for r, tr in zip(requests[:30], city.trips[:30]):
            assert r.minute == pytest.approx(tr.pickup_minute, abs=1 / 60 + 1e-9)
            assert r.trip_minutes == pytest.approx(tr.duration_minutes, abs=2 / 60)

    def test_load_city_rejects_partitions_other_than_the_config(self, tmp_path):
        cfg = small_cfg(tmp_path)
        write_city(synth_city(cfg, seed=5, days=1), cfg, cfg.data_dir)
        assert ex.load_city(cfg).regions.region_count == 100
        with pytest.raises(RegionMapError, match="block layout"):
            ex.load_city(small_cfg(tmp_path, region_block=2))
        with pytest.raises(RegionMapError, match="has 4 zones"):
            ex.load_city(small_cfg(tmp_path, zone_block=2))

    def test_road_grid_connected(self, tmp_path):
        cfg = small_cfg(tmp_path)
        grid = GridSpec(rows=4, cols=4, cell_size=500.0, origin=Location(40.0, -74.0))
        graph = build_road_grid(grid)
        from fleetsim.roadgraph import shortest_path

        assert graph.node_count == 16
        p = shortest_path(0, 15, graph)
        assert p is not None


class TestIngest:
    HEADER = ("pickup_datetime,dropoff_datetime,pickup_lat,pickup_lon,"
              "dropoff_lat,dropoff_lon,trip_distance_km\n")

    def grid(self):
        return GridSpec(rows=10, cols=10, cell_size=600.0, origin=Location(40.0, -74.0))

    def test_empty_file(self, tmp_path):
        p = tmp_path / "trips.csv"
        p.write_text(self.HEADER)
        requests, report = ingest_trips(p, self.grid(), datetime(2016, 5, 2))
        assert requests == []
        assert report.total == 0 and report.kept == 0

    def test_out_of_bounds_row_dropped_and_counted(self, tmp_path):
        p = tmp_path / "trips.csv"
        p.write_text(self.HEADER +
                     "2016-05-02 00:10:00,2016-05-02 00:20:00,55.0,-74.0,40.01,-73.99,2.0\n" +
                     "2016-05-02 00:11:00,2016-05-02 00:21:00,40.01,-73.995,40.02,-73.99,2.0\n")
        requests, report = ingest_trips(p, self.grid(), datetime(2016, 5, 2))
        assert report.dropped_bounds == 1
        assert report.kept == 1
        assert requests[0].minute == pytest.approx(11.0)

    def test_non_positive_duration_dropped(self, tmp_path):
        p = tmp_path / "trips.csv"
        p.write_text(self.HEADER +
                     "2016-05-02 00:10:00,2016-05-02 00:10:00,40.01,-73.995,40.02,-73.99,2.0\n")
        _, report = ingest_trips(p, self.grid(), datetime(2016, 5, 2))
        assert report.dropped_duration == 1

    def test_shuffled_input_comes_out_sorted(self, tmp_path):
        rows = [
            "2016-05-02 00:30:00,2016-05-02 00:40:00,40.01,-73.995,40.02,-73.99,2.0",
            "2016-05-02 00:05:00,2016-05-02 00:15:00,40.02,-73.99,40.01,-73.995,2.0",
            "2016-05-02 00:20:00,2016-05-02 00:25:00,40.015,-73.99,40.01,-73.995,1.0",
        ]
        p = tmp_path / "trips.csv"
        p.write_text(self.HEADER + "\n".join(rows) + "\n")
        requests, _ = ingest_trips(p, self.grid(), datetime(2016, 5, 2))
        assert [r.minute for r in requests] == [5.0, 20.0, 30.0]
        assert [r.rid for r in requests] == [0, 1, 2]

    def test_missing_columns_is_data_error(self, tmp_path):
        p = tmp_path / "trips.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(TripDataError):
            ingest_trips(p, self.grid(), datetime(2016, 5, 2))


@pytest.fixture(scope="module")
def mini_world(tmp_path_factory):
    """A tiny city with trained models, shared across harness tests."""
    tmp_path = tmp_path_factory.mktemp("mini")
    cfg = small_cfg(tmp_path)
    tc = ex.training_city(cfg)
    bundle = ex.train_models(cfg, tc)
    from fleetsim.harness.synth import synth_city as synth

    city = ex.city_from_synth(synth(cfg, cfg.seed, cfg.days))
    return cfg, city, bundle


class TestExperiment:
    def test_baseline_run_and_summary(self, mini_world, tmp_path):
        cfg, city, bundle = mini_world
        result = ex.run_experiment(cfg, city=city, bundle=bundle)
        assert Path(result["summary_path"]).exists()
        agg = result["aggregate"]
        assert agg["total_requests"] > 0
        assert 0.0 <= agg["reject_rate"] <= 1.0

    def test_identical_config_bit_identical_outputs(self, mini_world):
        cfg, city, bundle = mini_world
        r1 = ex.run_experiment(cfg, city=city, bundle=bundle)
        bytes1 = Path(r1["summary_path"]).read_bytes()
        plot1 = Path(r1["plot_path"]).read_bytes()
        r2 = ex.run_experiment(cfg, city=city, bundle=bundle)
        assert Path(r2["summary_path"]).read_bytes() == bytes1
        assert Path(r2["plot_path"]).read_bytes() == plot1

    def test_plot_rows_cover_hours_and_metrics(self, mini_world):
        cfg, city, bundle = mini_world
        result = ex.run_experiment(cfg, city=city, bundle=bundle)
        import csv

        with open(result["plot_path"], newline="") as fh:
            rows = list(csv.DictReader(fh))
        hours = {int(r["hour"]) for r in rows}
        metrics = {r["metric"] for r in rows}
        assert metrics == {"reject_rate", "mean_wait_minutes", "idle_cruise_per_accepted"}
        assert len(rows) == cfg.days * len(hours) * 3

    def test_plot_values_match_hourly_reaggregation(self, mini_world):
        cfg, city, bundle = mini_world
        result = ex.run_experiment(cfg, city=city, bundle=bundle)
        report = result["day_reports"][0]
        for bucket in report["hourly"]:
            if bucket["requests"]:
                expect = bucket["rejects"] / bucket["requests"]
                assert bucket["reject_rate"] == pytest.approx(expect)

    def test_rhc_policy_runs(self, mini_world):
        cfg, city, bundle = mini_world
        import dataclasses

        rhc_cfg = dataclasses.replace(cfg, policy="rhc")
        result = ex.run_experiment(rhc_cfg, city=city, bundle=bundle)
        assert result["aggregate"]["total_requests"] > 0

    def test_dqn_smoke_train_and_run(self, mini_world):
        cfg, city, bundle = mini_world
        import dataclasses

        net, log_rows = ex.train_dqn(cfg, city=city, bundle=bundle, steps=10)
        assert len(log_rows) == 10
        dqn_cfg = dataclasses.replace(cfg, policy="dqn")
        result = ex.run_experiment(dqn_cfg, city=city, bundle=bundle, qnet=net)
        assert result["aggregate"]["total_requests"] > 0

    def test_dqn_star_uses_slot_cycle(self, mini_world):
        cfg, city, bundle = mini_world
        from fleetsim.dqn import QNetwork

        net = QNetwork.create(np.random.default_rng(0))
        policy = ex.make_policy(
            __import__("dataclasses").replace(cfg, policy="dqn_star"),
            "dqn_star", city, bundle, qnet=net)
        assert policy.cycle == cfg.rhc_slot_minutes


class TestCli:
    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "fleetsim.harness.cli", *args],
            capture_output=True, text=True,
            env={"PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src"),
                 "PATH": "/usr/bin:/bin"},
        )

    def test_missing_seed_is_config_error(self, tmp_path):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("policy = none\n")
        proc = self.run_cli("--config", str(cfg_file), "simulate")
        assert proc.returncode == 1

    def test_unreadable_trips_is_data_error(self, tmp_path):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(
            "seed = 3\n"
            f"data_dir = {tmp_path / 'nope'}\n"
            f"out_dir = {tmp_path / 'out'}\n"
            "fine_rows = 10\nfine_cols = 10\nregion_block = 1\nzone_block = 5\n"
            "vehicles = 5\ndays = 1\ntrips_per_day = 200.0\ntrain_days = 2\n"
            "eta_epochs = 1\ndemand_epochs = 1\n"
        )
        # synth-data writes the city; corrupt the trips file, then simulate
        proc = self.run_cli("--config", str(cfg_file), "synth-data")
        assert proc.returncode == 0, proc.stderr
        (tmp_path / "nope" / "trips.csv").write_text("broken\n")
        proc = self.run_cli("--config", str(cfg_file), "simulate")
        assert proc.returncode == 2, proc.stderr

    def test_synth_then_simulate_ok(self, tmp_path):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(
            "seed = 3\n"
            f"data_dir = {tmp_path / 'city'}\n"
            f"out_dir = {tmp_path / 'out'}\n"
            "fine_rows = 10\nfine_cols = 10\nregion_block = 1\nzone_block = 5\n"
            "vehicles = 5\ndays = 1\ntrips_per_day = 200.0\ntrain_days = 2\n"
            "eta_epochs = 1\ndemand_epochs = 1\n"
        )
        proc = self.run_cli("--config", str(cfg_file), "synth-data")
        assert proc.returncode == 0, proc.stderr
        proc = self.run_cli("--config", str(cfg_file), "simulate")
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out" / "summary_none_3.csv").exists()
        proc = self.run_cli("--config", str(cfg_file), "report")
        assert proc.returncode == 0, proc.stderr
        assert "none" in proc.stdout
        # a run with no accepted requests leaves its metrics blank
        (tmp_path / "out" / "summary_rhc_3.csv").write_text(
            "policy,seed,day,total_requests,rejects,reject_rate,accepted,"
            "mean_wait_minutes,idle_cruise_per_accepted,utilization_mean,utilization_min\n"
            "rhc,3,all,0,0,,0,,,,\n")
        proc = self.run_cli("--config", str(cfg_file), "report")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1].split() == ["rhc", "3", "-", "-", "-", "-"]

    def test_stale_zone_tables_are_data_error(self, tmp_path):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(
            "seed = 3\n"
            f"data_dir = {tmp_path / 'city'}\n"
            f"out_dir = {tmp_path / 'out'}\n"
            "fine_rows = 10\nfine_cols = 10\nregion_block = 1\nzone_block = 5\n"
            "vehicles = 5\ndays = 1\ntrips_per_day = 200.0\ntrain_days = 2\n"
            "eta_epochs = 1\ndemand_epochs = 1\n"
        )
        proc = self.run_cli("--config", str(cfg_file), "synth-data")
        assert proc.returncode == 0, proc.stderr
        proc = self.run_cli("--config", str(cfg_file), "simulate")
        assert proc.returncode == 0, proc.stderr
        # the cached tables hold 4 zones; 2x2 zone blocks make 25
        proc = self.run_cli("--config", str(cfg_file), "--set", "zone_block=2", "simulate")
        assert proc.returncode == 2, proc.stderr
        assert "entries missing for 25 zones" in proc.stderr

    def test_non_block_regions_are_data_error(self, tmp_path):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(
            "seed = 3\n"
            f"data_dir = {tmp_path / 'city'}\n"
            f"out_dir = {tmp_path / 'out'}\n"
            "fine_rows = 10\nfine_cols = 10\nregion_block = 1\nzone_block = 5\n"
            "vehicles = 5\ndays = 1\ntrips_per_day = 200.0\ntrain_days = 2\n"
            "eta_epochs = 1\ndemand_epochs = 1\n"
        )
        proc = self.run_cli("--config", str(cfg_file), "synth-data")
        assert proc.returncode == 0, proc.stderr
        # region_block = 1 means 100 one-cell regions; write 4 blocks of 5x5
        grid = GridSpec(rows=10, cols=10, cell_size=600.0, origin=Location(0.0, 0.0))
        block_region_map(grid, 5, 5).to_csv(tmp_path / "city" / "regions.csv")
        proc = self.run_cli("--config", str(cfg_file), "simulate")
        assert proc.returncode == 2, proc.stderr
        assert "block layout" in proc.stderr

    def test_simulate_prints_dash_without_accepted_requests(self, monkeypatch, capsys):
        from fleetsim.harness import cli

        all_rejected = {"aggregate": {"reject_rate": 1.0, "mean_wait_minutes": None},
                        "summary_path": "s.csv", "plot_path": "p.csv"}
        monkeypatch.setattr(ex, "run_experiment", lambda cfg: all_rejected)
        assert cli._cmd_simulate(ExperimentConfig(seed=3)) == 0
        assert "reject rate 1.0000, mean wait - min" in capsys.readouterr().out
