import dataclasses
import errno
import gc
import json
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleetsim import demand as demand_mod
from fleetsim import eta as eta_mod
from fleetsim import neural
from fleetsim.clock import Clock
from fleetsim.dqn import Q_SPEC, QNetwork
from fleetsim.eta import ETA_SPEC
from fleetsim.geo import GridSpec, Location, RegionMap
from fleetsim.harness.config import _RULES, ConfigError, ExperimentConfig, parse_config
from fleetsim.harness.ingest import TripDataError, ingest_trips
from fleetsim.harness.synth import build_road_grid, synth_city, write_city
from fleetsim.harness import cli
from fleetsim.harness import experiment as ex
from fleetsim.sim import EpisodeMetrics, Outcomes, RideRequest, Trips, finalize_metrics
from oracles import (demand_slot_counts_reference, demand_slot_series_reference,
                     episode_requests_reference, eta_feature_row,
                     eta_training_arrays_reference, fleet_window_count_reference,
                     render_config, serial_models_reference, synth_city_reference,
                     zone_trip_arrays_reference)


def small_cfg(tmp_path, **kw):
    defaults = dict(
        seed=11, data_dir=str(tmp_path / "city"), out_dir=str(tmp_path / "runs"),
        fine_rows=10, fine_cols=10, cell_size_m=600.0, region_block=1,
        zone_block=5, vehicles=30, days=1, trips_per_day=1200.0,
        train_days=2, eta_epochs=4, demand_epochs=5, dqn_train_steps=10,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults).validate()


# the fields that no range applies to
NON_NUMERIC = {"data_dir", "out_dir", "policy", "epoch_date"}
# per rule of a _RULES row: a field of the row, a value on the rule's edge, one just past it
RULE_EDGES = {
    "at least 1": ("vehicles", "1", "0"),
    "non-negative": ("seed", "0", "-1"),
    "in 0-23": ("day_start_hour", "23", "24"),
    "in -90 to 90": ("origin_lat", "-90", "-90.00000000000001"),
    "in -180 to 180": ("origin_lon", "-180", "-180.00000000000003"),
    "finite and positive": ("dqn_lr", "5e-324", "0"),
    "finite and non-negative": ("match_radius_m", "0", "-5e-324"),
    "in 0 to 1": ("synth_noise", "1", "1.0000000000000002"),
    "in (0, 1]": ("dqn_discount", "1", "1.0000000000000002"),
}
# raw values at the edges of what a field's type converts and its range admits
EDGE_STRINGS = ("", "abc", "1.5", "1e3", "0", "-0", "-1", "nan", "inf", "-inf",
                "1e308", "1e-308")


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

    def test_each_numeric_field_has_one_range_rule(self):
        # a new numeric setting fails here until a _RULES row names it
        named = [name for _, _, names in _RULES for name in names]
        assert len(named) == len(set(named))
        assert not set(named) & NON_NUMERIC
        assert set(named) | NON_NUMERIC == {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert [rule for rule, _, _ in _RULES] == list(RULE_EDGES)

    @pytest.mark.parametrize("rule", list(RULE_EDGES))
    def test_each_range_rule_holds_to_its_edge(self, rule):
        key, edge, past = RULE_EDGES[rule]
        cfg = parse_config(text="seed = 1\n", overrides={key: edge})
        assert getattr(cfg, key) == float(edge)
        with pytest.raises(ConfigError, match=re.escape(f"{key} must be {rule}, got ")):
            parse_config(text="seed = 1\n", overrides={key: past})

    @settings(max_examples=150)
    @given(key=st.sampled_from(sorted(f.name for f in dataclasses.fields(ExperimentConfig))),
           raw=st.sampled_from(EDGE_STRINGS))
    def test_any_field_at_an_edge_string_is_a_config_error_or_valid(self, key, raw):
        # "abc" for an int override used to escape as a bare ValueError
        try:
            cfg = parse_config(text="seed = 1\n", overrides={key: raw})
        except ConfigError:
            return
        assert cfg.validate() is cfg

    @pytest.mark.parametrize("key, value", [
        ("train_days", "0"), ("train_days", "-2"),
        ("trips_per_day", "-1"), ("trips_per_day", "inf"), ("trips_per_day", "nan"),
        ("synth_speed_kmh", "0"), ("synth_speed_kmh", "-21"), ("synth_speed_kmh", "inf"),
        ("synth_speed_kmh", "nan"),
        ("synth_noise", "-0.1"), ("synth_noise", "nan"),
    ])
    def test_workload_values_that_break_synthesis_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            parse_config(text="seed = 1\n", overrides={key: value})

    @pytest.mark.parametrize("key, value", [
        ("region_block", "0"), ("region_block", "-2"), ("zone_block", "0"),
        ("fine_rows", "0"), ("fine_cols", "-1"),
        ("cell_size_m", "0"), ("cell_size_m", "-5"), ("cell_size_m", "inf"),
        ("cell_size_m", "nan"),
        ("match_radius_m", "-1"), ("match_radius_m", "inf"), ("match_radius_m", "nan"),
    ])
    def test_bad_geometry_and_radius_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            parse_config(text="seed = 1\n", overrides={key: value})

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "95", "-90.5", "89.99"])
    def test_origin_lat_off_the_globe_rejected(self, value):
        # 20 rows of 550 m reach about 0.1 degrees north of the origin
        with pytest.raises(ConfigError, match="origin_lat"):
            parse_config(text="seed = 1\n", overrides={"origin_lat": value})

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e308", "500", "-200",
                                       "179.99"])
    def test_origin_lon_off_the_globe_rejected(self, value):
        # 20 columns of 550 m reach about 0.13 degrees east of the origin, so
        # a grid from 179.99 would cross the antimeridian
        with pytest.raises(ConfigError, match="origin_lon"):
            parse_config(text="seed = 1\n", overrides={"origin_lon": value})

    def test_grid_reaching_the_antimeridian_accepted(self):
        assert parse_config(text="seed = 1\norigin_lon = 179.8\n").origin_lon == 179.8

    def test_grid_reaching_a_pole_accepted(self):
        cfg = parse_config(text="seed = 1\norigin_lat = -90\n")
        assert cfg.origin_lat == -90.0
        assert parse_config(text="seed = 1\norigin_lat = 89.9\n").origin_lat == 89.9

    @pytest.mark.parametrize("key", ["dqn_sync_period", "dqn_batch", "dqn_buffer"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_dqn_training_sizes_below_one_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            parse_config(text="seed = 1\n", overrides={key: value})

    def test_minibatch_larger_than_replay_rejected(self):
        # the replay would never hold a minibatch, so no train step would run
        with pytest.raises(ConfigError, match="dqn_batch 16 exceeds dqn_buffer 8"):
            parse_config(text="seed = 1\n", overrides={"dqn_batch": "16", "dqn_buffer": "8"})
        cfg = parse_config(text="seed = 1\n", overrides={"dqn_batch": "8", "dqn_buffer": "8"})
        assert cfg.dqn_batch == cfg.dqn_buffer == 8

    @pytest.mark.parametrize("key, value", [
        ("eta_lr", "0"), ("eta_lr", "-1e-3"), ("eta_lr", "inf"),
        ("demand_lr", "nan"), ("demand_lr", "0"),
        ("dqn_lr", "-1"), ("dqn_lr", "nan"),
        ("rhc_slot_minutes", "0"), ("rhc_slot_minutes", "-15"), ("rhc_horizon", "-1"),
        ("rhc_horizon", "0"),
        ("dqn_discount", "1.5"), ("dqn_discount", "0"), ("dqn_discount", "nan"),
        ("rhc_discount", "-0.5"), ("rhc_discount", "1.01"),
        ("warmup_minutes", "-5"), ("eta_epochs", "-1"), ("demand_epochs", "-2"),
        ("day_start_hour", "30"), ("day_start_hour", "24"), ("day_start_hour", "-1"),
        ("idle_window_minutes", "nan"), ("idle_window_minutes", "-1"),
        ("idle_window_minutes", "inf"),
        ("dqn_decision_interval", "-0.5"), ("dqn_decision_interval", "inf"),
        ("dqn_train_steps", "-1"), ("dqn_eps_ramp", "-3"), ("dqn_alpha_ramp", "-1"),
        ("rhc_reject_penalty", "-20"), ("rhc_reject_penalty", "inf"),
        ("rhc_reject_penalty", "nan"), ("dqn_reject_weight", "nan"),
        ("dqn_reject_weight", "-10"), ("dqn_reject_weight", "inf"),
        ("seed", "-1"), ("train_seed", "-1"),
    ])
    def test_training_and_policy_values_that_fail_late_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            parse_config(text="seed = 1\n", overrides={key: value})

    def test_edge_training_and_policy_values_accepted(self):
        cfg = parse_config(text="seed = 1\nrhc_slot_minutes = 1\nrhc_horizon = 1\n"
                                "dqn_discount = 1\nrhc_discount = 1\nwarmup_minutes = 0\n"
                                "eta_epochs = 0\ndemand_epochs = 0\nday_start_hour = 0\n"
                                "idle_window_minutes = 0\ndqn_decision_interval = 0\n"
                                "eta_lr = 1e-12\n")
        assert (cfg.rhc_slot_minutes, cfg.rhc_horizon, cfg.dqn_discount) == (1, 1, 1.0)
        assert cfg.idle_window_minutes == cfg.dqn_decision_interval == 0.0
        assert parse_config(text="seed = 1\nday_start_hour = 23\n").day_start_hour == 23
        cfg = parse_config(text="seed = 1\ndqn_train_steps = 0\ndqn_eps_ramp = 0\n"
                                "dqn_alpha_ramp = 0\nrhc_reject_penalty = 0\n"
                                "dqn_reject_weight = 0\n")
        assert (cfg.dqn_train_steps, cfg.dqn_eps_ramp, cfg.dqn_alpha_ramp) == (0, 0, 0)
        assert cfg.rhc_reject_penalty == cfg.dqn_reject_weight == 0.0

    @pytest.mark.parametrize("key, value", [("region_block", "3"), ("zone_block", "3"),
                                            ("zone_block", "40")])
    def test_block_that_does_not_divide_the_grid_names_its_field(self, key, value):
        # the default grid is 20x20, and each other block divides it
        with pytest.raises(ConfigError, match=f"^{key} {value}: 20x20 grid not divisible "
                                              f"into {value}x{value} blocks$"):
            parse_config(text="seed = 1\n", overrides={key: value})

    def test_zero_match_radius_and_unit_sizes_accepted(self):
        cfg = parse_config(text="seed = 1\nmatch_radius_m = 0\nregion_block = 1\n"
                                "zone_block = 1\ndqn_sync_period = 1\ndqn_batch = 1\n"
                                "dqn_buffer = 1\n")
        assert cfg.match_radius_m == 0.0 and cfg.region_block == cfg.zone_block == 1

    @pytest.mark.parametrize("date, dow", [("2016-05-02", 0), ("2016-05-05", 3),
                                           ("2016-05-08", 6), ("2017-01-01", 6)])
    def test_epoch_weekday_follows_epoch_date(self, date, dow):
        cfg = parse_config(text="seed = 1\n", overrides={"epoch_date": date})
        assert cfg.epoch_dow == dow
        assert "epoch_dow" not in render_config(cfg)

    def test_epoch_weekday_is_not_a_second_setting(self):
        # a weekday that contradicts epoch_date would give ingested trips
        # another day's clock features
        with pytest.raises(ConfigError, match="epoch_dow"):
            parse_config(overrides={"seed": "1", "epoch_dow": "3"})
        with pytest.raises(ConfigError, match="unknown key 'epoch_dow'"):
            parse_config(text="seed = 1\nepoch_dow = 3\n")

    @pytest.mark.parametrize("value", ["bogus", "2016-02-30", "2016-05-02 03:00", ""])
    def test_unparseable_epoch_date_rejected(self, value):
        with pytest.raises(ConfigError, match="epoch_date"):
            parse_config(text="seed = 1\n", overrides={"epoch_date": value})

    def test_zero_trip_rate_and_noise_accepted(self):
        cfg = parse_config(text="seed = 1\ntrips_per_day = 0\nsynth_noise = 0\n")
        assert cfg.trips_per_day == 0.0 and cfg.synth_noise == 0.0


class TestSynth:
    def test_deterministic_given_seed(self, tmp_path):
        cfg = small_cfg(tmp_path)
        a = synth_city(cfg, seed=5, days=1)
        b = synth_city(cfg, seed=5, days=1)
        assert len(a.trips) > 50
        assert a.trips == b.trips

    @pytest.mark.parametrize("overrides, seed, days", [
        ({}, 777, 3),
        ({"trips_per_day": 6000.0 * 2.5}, 3, 1),
        ({"trips_per_day": 2000.0, "epoch_date": "2016-05-05"}, 5, 7),
        ({"fine_rows": 6, "fine_cols": 11, "region_block": 1, "zone_block": 1,
          "trips_per_day": 2000.0}, 4, 2),
        ({"trips_per_day": 0.0}, 5, 2),
    ])
    def test_trips_equal_per_trip_reference(self, overrides, seed, days):
        # the draw order per trip is part of the output: every model and
        # benchmark outcome depends on it
        cfg = ExperimentConfig(seed=seed, **overrides).validate()
        got = synth_city(cfg, seed=seed, days=days).trips
        want = synth_city_reference(cfg, seed=seed, days=days).trips
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g == w

    def test_trips_retain_at_most_96_bytes_each(self, tmp_path):
        # a city's trips are eight 8-byte columns, with no object per trip
        cfg = tiny_cfg(tmp_path)
        tracemalloc.start()
        try:
            city = synth_city(cfg, cfg.train_seed, cfg.train_days)
            n = len(city.trips)
            gc.collect()
            with_trips = tracemalloc.get_traced_memory()[0]
            city.trips = None
            gc.collect()
            without = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert n > 200
        assert (with_trips - without) / n <= 96

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
            day = int(tr.minute // 1440)
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
        assert sorted(p.name for p in Path(cfg.data_dir).iterdir()) == ["roads.txt", "trips.csv"]
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
            assert r.minute == pytest.approx(tr.minute, abs=1 / 60 + 1e-9)
            assert r.trip_minutes == pytest.approx(tr.trip_minutes, abs=2 / 60)

    def test_load_city_builds_the_config_partitions(self, tmp_path):
        cfg = small_cfg(tmp_path)
        write_city(synth_city(cfg, seed=5, days=1), cfg, cfg.data_dir)
        city = ex.load_city(cfg)
        assert (city.regions.region_count, city.zones.region_count) == (100, 4)
        # the regions and zones are the config's block layouts, which no file
        # can contradict
        city = ex.load_city(small_cfg(tmp_path, region_block=2, zone_block=2))
        assert city.regions == city.zones == RegionMap(city.grid, 2)

    def test_road_grid_connected(self, tmp_path):
        cfg = small_cfg(tmp_path)
        grid = GridSpec(rows=4, cols=4, cell_size=500.0, origin=Location(40.0, -74.0))
        graph = build_road_grid(grid)
        from fleetsim.roadgraph import shortest_path

        assert len(graph.nodes) == 16
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

    ROW = "2016-05-02 00:10:00,2016-05-02 00:20:00,40.01,-73.995,40.02,-73.99,{}\n"

    @pytest.mark.parametrize("distance", ["nan", "inf", "-inf", "-3"])
    def test_bad_distance_is_data_error(self, tmp_path, distance):
        p = tmp_path / "trips.csv"
        p.write_text(self.HEADER + self.ROW.format("0.0") + self.ROW.format(distance))
        with pytest.raises(TripDataError, match="bad row 2: trip_distance_km"):
            ingest_trips(p, self.grid(), datetime(2016, 5, 2))
        p.write_text(self.HEADER + self.ROW.format("0.0"))
        assert ingest_trips(p, self.grid(), datetime(2016, 5, 2))[1].kept == 1

    @pytest.mark.parametrize("pickup, dropoff", [
        ("2016-05-02 00:10:00+00:00", "2016-05-02 00:20:00+00:00"),
        ("2016-05-02 00:10:00", "2016-05-02T00:20:00-04:00"),
    ])
    def test_time_zone_is_data_error(self, tmp_path, pickup, dropoff):
        p = tmp_path / "trips.csv"
        p.write_text(self.HEADER + f"{pickup},{dropoff},40.01,-73.995,40.02,-73.99,2.0\n")
        with pytest.raises(TripDataError, match="bad row 1: timestamps must not carry"):
            ingest_trips(p, self.grid(), datetime(2016, 5, 2))

    def test_missing_columns_is_data_error(self, tmp_path):
        p = tmp_path / "trips.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(TripDataError):
            ingest_trips(p, self.grid(), datetime(2016, 5, 2))

    def test_duration_is_checked_before_bounds_and_nan_is_outside(self, tmp_path):
        rows = [
            "2016-05-02 00:10:00,2016-05-02 00:10:00,55.0,-74.0,40.01,-73.99,2.0",
            "2016-05-02 00:11:00,2016-05-02 00:21:00,nan,-73.995,40.02,-73.99,2.0",
            "2016-05-02 00:12:00,2016-05-02 00:22:00,40.01,-73.995,40.02,inf,2.0",
            "2016-05-02 00:13:00,2016-05-02 00:23:00,40.01,-73.995,40.02,-73.99,2.0",
        ]
        p = tmp_path / "trips.csv"
        p.write_text(self.HEADER + "\n".join(rows) + "\n")
        requests, report = ingest_trips(p, self.grid(), datetime(2016, 5, 2))
        assert (report.total, report.kept, report.dropped_duration,
                report.dropped_bounds) == (4, 1, 1, 2)
        assert requests == [RideRequest(0, 13.0, Location(40.01, -73.995),
                                        Location(40.02, -73.99), 10.0, 2.0)]

    def test_equal_pickup_times_keep_their_file_order(self, tmp_path):
        rows = [f"2016-05-02 00:{m:02d}:00,2016-05-02 00:40:00,40.01,-73.995,40.02,-73.99,{d}"
                for m, d in ((20, 1.0), (10, 2.0), (20, 3.0), (10, 4.0))]
        p = tmp_path / "trips.csv"
        p.write_text(self.HEADER + "\n".join(rows) + "\n")
        requests, _ = ingest_trips(p, self.grid(), datetime(2016, 5, 2))
        assert isinstance(requests, Trips)
        assert requests.distance_km.tolist() == [2.0, 4.0, 1.0, 3.0]
        assert requests.rid.tolist() == [0, 1, 2, 3]


# pickups on slot and day edges, before the series and past its end
EDGE_MINUTES = (-0.5, -30.0, 0.0, 29.999999, 30.0, 1439.5, 1440.0, 2000.0, 2879.999)


@pytest.fixture(scope="module", params=[("2016-05-02", 0), ("2024-01-04", 3)],
                ids=["monday", "thursday"])
def city_rows(request, tmp_path_factory):
    """A 2-day training city, its epoch on a Monday or a Thursday, and its requests
    as a list of rows with copies of its first requests moved to ``EDGE_MINUTES``."""
    epoch_date, epoch_dow = request.param
    cfg = small_cfg(tmp_path_factory.mktemp("rows"), epoch_date=epoch_date)
    assert cfg.epoch_dow == epoch_dow
    city = ex.training_city(cfg)
    edges = [dataclasses.replace(r, minute=m) for r, m in zip(city.requests, EDGE_MINUTES)]
    return cfg, city, list(city.requests) + edges


def given_requests(city, rows):
    """The requests the set-up arrays take, with the rows the oracle reads: the
    city's columns, and the columns of ``rows``."""
    return [(city.requests, list(city.requests)), (Trips.of(rows), rows)]


def assert_same_arrays(got, want):
    assert [(a.dtype, a.shape) for a in got] == [(a.dtype, a.shape) for a in want]
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


WINDOWS = [(0.0, 30.0), (29.999999, 1440.0), (-30.0, 0.0), (240.0, 1680.0),
           (1440.0, 2880.0), (2000.0, 2000.0), (3000.0, 4000.0)]


class TestSetUpArraysEqualTheRowBuilders:
    """The set-up's arrays, read from the :class:`Trips` columns, byte for byte
    equal the per-request builders they replaced (``tests/oracles.py``)."""

    def test_eta_training_arrays(self, city_rows):
        cfg, city, rows = city_rows
        for given, want in given_requests(city, rows):
            assert_same_arrays(ex.eta_training_arrays(given, cfg),
                               eta_training_arrays_reference(want, cfg))

    def test_zone_trip_arrays(self, city_rows):
        cfg, city, rows = city_rows
        for given, want in given_requests(city, rows):
            assert_same_arrays(ex.zone_trip_arrays(given, city.zones, cfg.epoch_dow),
                               zone_trip_arrays_reference(want, city.zones, cfg.epoch_dow))

    def test_demand_slot_series(self, city_rows):
        cfg, city, rows = city_rows
        for given, want in given_requests(city, rows):
            for total in (cfg.train_days * 1440.0, 1000.0, 30.0):
                slots, clocks = ex.demand_slot_series(given, city.grid, total, cfg.epoch_dow)
                want_slots, want_clocks = demand_slot_series_reference(
                    want, city.grid, total, cfg.epoch_dow)
                assert_same_arrays([slots], [want_slots])
                assert clocks == want_clocks

    def test_episode_requests(self, city_rows):
        cfg, city, rows = city_rows
        for given, want in given_requests(city, rows):
            for start, end in WINDOWS + [ex.day_window(cfg, 0)]:
                got = ex.episode_requests(given, start, end)
                ref = episode_requests_reference(want, start, end)
                assert got == ref
                assert_same_arrays([got.rid, got.minute, got.trip_minutes],
                                   [np.array([r.rid for r in ref], dtype=np.int64),
                                    np.array([r.minute for r in ref], dtype=np.float64),
                                    np.array([r.trip_minutes for r in ref], dtype=np.float64)])

    def test_fleet_window_count(self, city_rows):
        cfg, city, rows = city_rows
        for given, want in given_requests(city, rows):
            for start, end in WINDOWS:
                count = fleet_window_count_reference(want, start, end)
                ex._check_fleet_windows(dataclasses.replace(cfg, vehicles=count), given,
                                        [(start, end)])
                with pytest.raises(ConfigError, match=f" has {count} requests, fewer than"):
                    ex._check_fleet_windows(dataclasses.replace(cfg, vehicles=count + 1),
                                            given, [(start, end)])


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
    def test_episode_requests_shift_the_window_and_keep_the_rest(self):
        reqs = [RideRequest(k, minute, Location(40.0, -74.0 + k / 1000), Location(40.01, -74.0),
                            5.0 + k / 3, 1.25 * k + 0.1)
                for k, minute in enumerate([3.0, 10.0, 10.5, 25.0 / 3, 39.999, 40.0])]
        got = ex.episode_requests(Trips.of(reqs), 10.0 / 3, 40.0)
        assert got == [RideRequest(r.rid, r.minute - 10.0 / 3, r.pickup, r.dropoff,
                                   r.trip_minutes, r.distance_km) for r in reqs[1:5]]
        assert ex.episode_requests(Trips.of(reqs), 40.5, 60.0) == []

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
            if bucket["total_requests"]:
                expect = bucket["rejects"] / bucket["total_requests"]
                assert bucket["reject_rate"] == pytest.approx(expect)

    def test_summed_days_give_the_pooled_rates(self):
        days = []
        for requests, rejects, wait, cruise, occupied in [(10, 2, 16.0, 4.0, [30.0, 60.0]),
                                                          (20, 3, 0.1, 0.2, [10.0, 0.0])]:
            m = EpisodeMetrics(total_requests=requests, rejects=rejects,
                               accepted=requests - rejects, wait_sum=wait, cruise_sum=cruise,
                               elapsed_minutes=60, occupied_minutes=np.array(occupied))
            m.hourly[5] = Outcomes(total_requests=requests, rejects=rejects, wait_sum=wait)
            days.append(m)
        days[1].hour(6).total_requests = 4
        total = EpisodeMetrics(occupied_minutes=np.zeros(2))
        for m in days:
            total.add(m)
        report = finalize_metrics(total)
        assert (report["total_requests"], report["rejects"], report["accepted"]) == (30, 5, 25)
        assert report["reject_rate"] == 5 / 30
        assert report["mean_wait_minutes"] == (0.0 + 16.0 + 0.1) / 25
        assert report["idle_cruise_per_accepted"] == (0.0 + 4.0 + 0.2) / 25
        assert report["utilization_mean"] == float((np.array([40.0, 60.0]) / 120).mean())
        assert report["utilization_min"] == 40.0 / 120
        assert [(b["hour"], b["total_requests"], b["rejects"]) for b in report["hourly"]] == \
            [(5, 30, 5), (6, 4, 0)]
        assert days[0].occupied_minutes.tolist() == [30.0, 60.0]

    def test_all_days_row_pools_the_day_rows(self, mini_world):
        cfg, _, bundle = mini_world
        import dataclasses

        cfg = dataclasses.replace(cfg, days=2)
        city = ex.city_from_synth(synth_city(cfg, cfg.seed, cfg.days))
        result = ex.run_experiment(cfg, city=city, bundle=bundle)
        *day_rows, agg = result["rows"]
        assert agg is result["aggregate"] and agg["day"] == "all"
        assert [r["day"] for r in day_rows] == list(range(cfg.days))
        for key in ("total_requests", "rejects", "accepted"):
            assert agg[key] == sum(r[key] for r in day_rows)
        assert agg["reject_rate"] == agg["rejects"] / agg["total_requests"]

    def test_demand_baseline_fit_on_the_network_training_slots(self, tmp_path):
        cfg = small_cfg(tmp_path, demand_epochs=1)
        city = ex.training_city(cfg)
        slots, clocks = ex.demand_slot_series(city.requests, city.grid,
                                              cfg.train_days * 1440.0, cfg.epoch_dow)
        fit = demand_mod.train_demand(slots, clocks, seed=cfg.train_seed,
                                      epochs=cfg.demand_epochs, lr=cfg.demand_lr)
        model, historical, metrics = ex.train_demand_model(lambda: fit)
        n_fit = demand_mod.train_slot_count(slots.shape[0])
        assert 2 < n_fit < slots.shape[0]
        assert historical.tobytes() == \
            demand_mod.historical_average(slots[:n_fit], clocks[:n_fit]).tobytes()
        # the network's training RMSE covers exactly the samples whose
        # inputs and targets lie in those slots
        inputs, targets = demand_mod._samples(slots, clocks)
        k = n_fit - 2
        errs = [(model.predict(x) - y) ** 2 for x, y in zip(inputs, targets)]
        assert float(np.sqrt(np.mean(errs[:k]))) == metrics["demand_train_rmse"]
        assert float(np.sqrt(np.mean(errs[k:]))) == metrics["demand_val_rmse"]

    def test_demand_slot_series_counts_each_pickup_once(self, tmp_path):
        cfg = small_cfg(tmp_path)
        city = ex.training_city(cfg)
        # pickups on slot edges, before the series and past the shorter one's end
        edges = [dataclasses.replace(r, minute=m) for r, m in
                 zip(city.requests, (-0.5, -30.0, 0.0, 29.999999, 30.0, 1439.5, 2000.0))]
        requests = list(city.requests) + edges
        for total in (cfg.train_days * 1440.0, 1000.0):
            slots, clocks = ex.demand_slot_series(Trips.of(requests), city.grid, total,
                                                  cfg.epoch_dow)
            want = demand_slot_counts_reference(requests, city.grid, total)
            assert slots.tobytes() == want.tobytes()
            assert [c.minutes for c in clocks] == [30.0 * k for k in range(len(want))]

    def test_eta_training_arrays_stack_the_scalar_rows(self, tmp_path):
        # a 2-day city whose epoch falls on a Thursday, so the rows' clocks
        # also carry the epoch's weekday
        cfg = small_cfg(tmp_path, epoch_date="2024-01-04")
        assert cfg.epoch_dow == 3
        requests = ex.city_from_synth(synth_city(cfg, cfg.seed, days=2)).requests
        feats, minutes = ex.eta_training_arrays(requests, cfg)
        rows = [eta_feature_row(r.pickup, r.dropoff, Clock(r.minute, cfg.epoch_dow),
                                r.distance_km) for r in requests]
        assert feats.shape == (len(requests), eta_mod.FEATURE_COUNT)
        assert feats.tobytes() == np.array(rows).tobytes()
        assert minutes.tobytes() == np.array([r.trip_minutes for r in requests]).tobytes()

    def test_metrics_score_both_baselines_on_their_fits_splits(self, tmp_path):
        cfg = small_cfg(tmp_path, eta_epochs=1, demand_epochs=1)
        city = ex.training_city(cfg)
        ex.train_models(cfg, city)
        metrics = json.loads(ex.model_paths(cfg)["metrics"].read_bytes())
        # the ETA baseline predicts the mean trip of the shuffled training split
        _, minutes = ex.eta_training_arrays(city.requests, cfg)
        tr_idx, va_idx = eta_mod.split_indices(len(minutes), cfg.train_seed)
        mean = np.mean(minutes[tr_idx])
        assert metrics["eta_mean_baseline_rmse"] == \
            float(np.sqrt(np.mean((minutes[va_idx] - mean) ** 2)))
        # the demand baseline is the history of the leading training slots,
        # scored on the slots after them
        slots, clocks = ex.demand_slot_series(city.requests, city.grid,
                                              cfg.train_days * 1440.0, cfg.epoch_dow)
        n_fit = demand_mod.train_slot_count(len(slots))
        history = demand_mod.historical_average(slots[:n_fit], clocks[:n_fit])
        errs = [(history[c.dow_index, c.hour_index] - slot) ** 2
                for slot, c in zip(slots[n_fit:], clocks[n_fit:])]
        assert metrics["demand_historical_baseline_rmse"] == float(np.sqrt(np.mean(errs)))

    @pytest.mark.parametrize("trips_per_day, dead", [(200, True), (2000, False)])
    def test_a_dead_demand_fit_is_logged(self, tmp_path, caplog, trips_per_day, dead):
        cfg = tiny_cfg(tmp_path, "--set", f"trips_per_day={trips_per_day}")
        city = ex.training_city(cfg)
        slots, clocks = ex.demand_slot_series(city.requests, city.grid,
                                              cfg.train_days * 1440.0, cfg.epoch_dow)
        with caplog.at_level("WARNING", logger="fleetsim.demand"):
            model, _, _ = demand_mod.train_demand(slots, clocks, seed=cfg.train_seed,
                                                  epochs=cfg.demand_epochs, lr=cfg.demand_lr)
        inputs, _ = demand_mod._samples(slots, clocks)
        inputs = inputs[:demand_mod.train_slot_count(len(slots)) - 2]
        lit = (inputs[..., 0] > 0) | (inputs[..., 1] > 0)
        predicted = np.stack([model.predict(x) for x in inputs])[lit]
        assert lit.any() and (predicted == 0).all() == dead
        warned = [r.getMessage() for r in caplog.records]
        if dead:
            assert len(warned) == 1
            assert f"all {lit.sum()} lit cells" in warned[0], warned
            assert f"lr {cfg.demand_lr:g}" in warned[0], warned
        else:
            assert warned == []

    def test_models_reload_with_equal_bytes(self, mini_world):
        cfg, _, bundle = mini_world
        back = ex.load_models(cfg)
        assert back.historical.shape == (7, 24, cfg.fine_rows, cfg.fine_cols)
        assert back.metrics == bundle.metrics

        def arrays(b):
            eta = b.eta_model
            return {"eta_params": eta.params, "eta_stats": [eta.mean, eta.std],
                    "eta_y": [np.float64(eta.y_mean), np.float64(eta.y_std)],
                    "demand_params": b.demand_model.params,
                    "tables": [b.historical, b.trip_times, b.destinations]}

        saved, loaded = arrays(bundle), arrays(back)
        for name in saved:
            assert [(a.dtype, a.shape, a.tobytes()) for a in loaded[name]] == \
                [(a.dtype, a.shape, a.tobytes()) for a in saved[name]], name
        assert type(back.eta_model.y_mean) is type(back.eta_model.y_std) is float

    def test_q_network_reloads_with_equal_bytes(self, mini_world, tmp_path):
        trained, city, bundle = mini_world
        cfg = dataclasses.replace(trained, out_dir=str(tmp_path), dqn_batch=4)
        net, log_rows = ex.train_dqn(cfg, city=city, bundle=bundle, steps=20)
        path = ex.model_paths(cfg)["qnet"]
        back = ex.load_qnet(path)
        assert [p.tobytes() for p in back.params] == [p.tobytes() for p in net.params]
        _, counts = neural.read_model_file(path, {"qnet": Q_SPEC},
                                           {"steps": (), "minibatches": ()})
        trained_rows = sum(1 for row in log_rows if np.isfinite(row[1]))
        assert 0 < trained_rows < len(log_rows) == 20
        assert (counts["steps"], counts["minibatches"]) == (20, trained_rows)

    def test_every_hour_of_every_day_has_requests(self, mini_world, tmp_path):
        # the synthesised city runs on past midnight to the end of the last window
        trained, _, bundle = mini_world
        cfg = dataclasses.replace(trained, days=2, out_dir=str(tmp_path))
        result = ex.run_experiment(cfg, bundle=bundle)
        for report in result["day_reports"]:
            assert [b["hour"] for b in report["hourly"] if b["total_requests"]] == list(range(24))

    def test_rhc_policy_runs(self, mini_world):
        cfg, city, bundle = mini_world
        import dataclasses

        rhc_cfg = dataclasses.replace(cfg, policy="rhc")
        result = ex.run_experiment(rhc_cfg, city=city, bundle=bundle)
        assert result["aggregate"]["total_requests"] > 0

    def test_a_view_is_a_snapshot(self, mini_world):
        """A policy that writes over every array of its view after dispatching
        changes nothing in the simulation: the episode's outcomes and every
        fleet column equal those of the run that leaves its views alone."""
        cfg, city, bundle = mini_world

        class Scribbler:
            def __init__(self, policy):
                self.policy, self.cycle, self.arrays = policy, policy.cycle, 0

            def dispatch(self, view):
                orders = self.policy.dispatch(view)
                for f in dataclasses.fields(view):
                    value = getattr(view, f.name)
                    if isinstance(value, np.ndarray):
                        value[...] = np.nan if value.dtype.kind == "f" else -1
                        self.arrays += 1
                return orders

        runs = []
        for wrap in (lambda policy: policy, Scribbler):
            policy = wrap(ex.make_policy(cfg, "rhc", city, bundle))
            start, _ = ex.day_window(cfg, 0)
            sim = ex.make_simulation(cfg, city, bundle,
                                     ex.episode_requests(city.requests, start, start + 600),
                                     policy, start)
            metrics = sim.run(600)
            runs.append((finalize_metrics(metrics), metrics.occupied_minutes.tobytes(),
                         {name: value.tobytes() for name, value in vars(sim).items()
                          if isinstance(value, np.ndarray)}))
        assert policy.arrays > 0 and sim._dispatch_minutes.any()  # it wrote, and rhc moved
        assert runs[1] == runs[0]

    def test_dqn_smoke_train_and_run(self, mini_world):
        cfg, city, bundle = mini_world
        import dataclasses

        net, log_rows = ex.train_dqn(cfg, city=city, bundle=bundle, steps=10)
        assert len(log_rows) == 10
        assert cfg.dqn_train_steps > 0
        _, no_rows = ex.train_dqn(cfg, city=city, bundle=bundle, steps=0)
        assert no_rows == []
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


def run_cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "fleetsim.harness.cli", *args],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src"),
             "PATH": "/usr/bin:/bin", **(env or {})},
    )


TINY_CLI = ("--set", "seed=3", "--set", "fine_rows=10", "--set", "fine_cols=10",
            "--set", "region_block=1", "--set", "zone_block=5", "--set", "vehicles=5",
            "--set", "days=1", "--set", "trips_per_day=200", "--set", "train_days=2",
            "--set", "eta_epochs=1", "--set", "demand_epochs=1")


def dirs(base):
    return ("--set", f"data_dir={base / 'city'}", "--set", f"out_dir={base / 'out'}")


def tiny_cfg(base, *sets):
    """The config the CLI reads from ``TINY_CLI``, ``dirs(base)`` and ``sets``."""
    args = (*TINY_CLI, *dirs(base), *sets)
    return parse_config(overrides=dict(arg.split("=", 1) for arg in args[1::2]))


@pytest.fixture(scope="module")
def written_city(tmp_path_factory):
    """A tiny city on disk under ``city`` and its trained models under ``out``."""
    base = tmp_path_factory.mktemp("written")
    for command in ("synth-data", "simulate"):
        proc = run_cli(*TINY_CLI, *dirs(base), command)
        assert proc.returncode == 0, proc.stderr
    return base


def partition_csv(assignment) -> str:
    """A ``row,col,region_id`` partition file of a cell-to-region array."""
    return "row,col,region_id\n" + "".join(f"{r},{c},{k}\n"
                                            for (r, c), k in np.ndenumerate(assignment))


def trip_row(distance="2.0", pickup="2016-05-02 00:10:00", dropoff="2016-05-02 00:20:00"):
    return f"{pickup},{dropoff},40.01,-73.995,40.02,-73.99,{distance}\n".encode()


# (file, edit of its bytes, what stderr names): each makes ``simulate`` fail on bad data
BAD_INPUTS = {
    "trip-distance-nan": ("city/trips.csv", lambda b: b + trip_row("nan"),
                          "trip_distance_km nan"),
    "trip-distance-inf": ("city/trips.csv", lambda b: b + trip_row("inf"),
                          "trip_distance_km inf"),
    "trip-distance-negative": ("city/trips.csv", lambda b: b + trip_row("-3"),
                               "trip_distance_km -3.0"),
    "trip-time-zone": ("city/trips.csv",
                       lambda b: b + trip_row(pickup="2016-05-02 00:10:00+00:00",
                                              dropoff="2016-05-02 00:20:00+00:00"),
                       "time zone"),
    "road-length-nan": ("city/roads.txt", lambda b: b + b"0,1,nan\n",
                        "roads.txt: edge 0->1 has length nan"),
    "road-length-inf": ("city/roads.txt", lambda b: b + b"0,1,inf\n",
                        "roads.txt: edge 0->1 has length inf"),
    "road-no-nodes": ("city/roads.txt", lambda b: b"#nodes\n#edges\n", "roads.txt: no nodes"),
    "road-off-grid": ("city/roads.txt", lambda b: b"#nodes\n0,10.0,10.0\n#edges\n",
                      "roads.txt: node 0 at (10.0, 10.0) lies outside the grid"),
    # one node tens of kilometres off the grid, beside the 100 on it
    "road-node-off-grid": ("city/roads.txt",
                           lambda b: b.replace(b"#edges\n", b"100,40.5,-73.0\n#edges\n"),
                           "roads.txt: node 100 at (40.5, -73.0) lies outside the grid"),
    # node 0 is on line 2 and node 1 on line 3, the 100 nodes end on line 101
    "road-node-repeated": ("city/roads.txt",
                           lambda b: b.replace(b"#edges\n", b"1,40.5,-73.0\n#edges\n"),
                           "roads.txt: line 102: node 1 is already given on line 3"),
}


def write_qnet(path) -> None:
    """A ``qnet.npz`` of an untrained network that counts one trained minibatch."""
    params = QNetwork.create(np.random.default_rng(0)).params
    neural.write_model_file(path, {"qnet": (Q_SPEC, params)}, {"steps": 1, "minibatches": 1})


def rewrite(change):
    """A damage of a model file that applies ``change`` to its dict of arrays."""
    def damage(path):
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
        change(arrays)
        np.savez(path, **arrays)
    return damage


def put(**arrays):
    """A damage that stores ``arrays`` in place of the model file's arrays of their names."""
    return rewrite(lambda stored: stored.update(arrays))


def set_entry(name, index, value):
    """A damage that sets entry ``index`` of the model file's array ``name`` to ``value``."""
    return rewrite(lambda stored: stored[name].__setitem__(index, value))


def truncate(path):
    path.write_bytes(path.read_bytes()[:path.stat().st_size // 2])


def the_other_file(path):
    """A damage that writes the other model file's bytes at ``path``."""
    other = {"models.npz": "qnet.npz", "qnet.npz": "models.npz"}[path.name]
    path.write_bytes((path.parent / other).read_bytes())


# per damage, (damage, model file, what stderr says after the file's path):
# each makes ``simulate --set policy=dqn`` exit 2
BAD_MODEL_FILES = {
    "truncated": [(truncate, "models.npz", "unreadable"),
                  (truncate, "qnet.npz", "unreadable")],
    "array-missing": [(rewrite(lambda a: a.pop("eta_y_std")), "models.npz",
                       "no array eta_y_std"),
                      (rewrite(lambda a: a.pop("minibatches")), "qnet.npz",
                       "no array minibatches")],
    "param-shape": [(put(demand_1=np.zeros(1)), "models.npz",
                     "demand_1 is float64 (1,), not float64 (16,)"),
                    (put(qnet_3=np.zeros(1)), "qnet.npz", "qnet_3 is float64 (1,), not float64")],
    "nan-weight": [(set_entry("eta_0", (0, 0), np.nan), "models.npz", "eta_0 is not finite"),
                   (set_entry("qnet_0", (0, 0, 0, 0), np.nan), "qnet.npz",
                    "qnet_0 is not finite")],
    "layer-spec": [(put(demand_spec=np.array(repr(ETA_SPEC))), "models.npz",
                    "demand_spec holds other layers"),
                   (put(qnet_spec=np.array(repr(Q_SPEC[:-1]))), "qnet.npz",
                    "qnet_spec holds other layers")],
    "history-grid": [(put(historical=np.zeros((7, 24, 5, 5))), "models.npz",
                      "historical is float64 (7, 24, 5, 5), not float64 (7, 24, 10, 10)")],
    "zone-count": [(put(minutes=np.full((7, 24, 25, 25), 5.0),
                        prob=np.full((7, 24, 25, 25), 0.04)), "models.npz",
                    "minutes is float64 (7, 24, 25, 25), not float64 (7, 24, 4, 4)")],
    "row-sum": [(set_entry("prob", (3, 4, 1, 0), 2.0), "models.npz",
                 "prob row (dow, hour, origin) = (3, 4, 1) does not sum to 1")],
    "negative-minute": [(set_entry("minutes", (0, 0, 0, 0), -1.0), "models.npz",
                         "minutes must be non-negative")],
    "other-file": [(the_other_file, "models.npz", "no array eta_spec"),
                   (the_other_file, "qnet.npz", "no array qnet_spec")],
}
MODEL_FILE_CASES = [(case, *bad) for case, bads in BAD_MODEL_FILES.items() for bad in bads]


class TestCli:
    run_cli = staticmethod(run_cli)

    @pytest.mark.parametrize("case, damage, name, message", MODEL_FILE_CASES,
                             ids=[f"{c[0]}-{c[2].split('.')[0]}" for c in MODEL_FILE_CASES])
    def test_damaged_model_file_is_data_error(self, written_city, tmp_path, capsys,
                                              case, damage, name, message):
        for sub in ("city", "out"):
            shutil.copytree(written_city / sub, tmp_path / sub)
        models = tmp_path / "out" / "models"
        write_qnet(models / "qnet.npz")
        path = models / name
        damage(path)
        code = cli.main([*TINY_CLI, *dirs(tmp_path), "--set", "policy=dqn", "simulate"])
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith(f"data error: {path}: {message}"), err

    @pytest.mark.parametrize("command", ["simulate", "train-models"])
    @pytest.mark.parametrize("damage", ["truncated", "list"])
    def test_broken_metrics_is_data_error(self, written_city, tmp_path, capsys, command,
                                          damage):
        # simulate reads the metrics record and must fail before it runs;
        # train-models writes a fresh record in place of the broken one
        for sub in ("city", "out"):
            shutil.copytree(written_city / sub, tmp_path / sub)
        models = tmp_path / "out" / "models"
        path = models / "metrics.json"
        path.write_bytes(path.read_bytes()[:40] if damage == "truncated" else b"[1, 2]")
        saved = {p.name: p.read_bytes() for p in models.iterdir()}
        # another training city, so that a model trained anyway would differ
        code = cli.main([*TINY_CLI, *dirs(tmp_path), "--set", "train_seed=5", command])
        err = capsys.readouterr().err
        if command == "simulate":
            assert code == 2, err
            assert err.startswith(f"data error: {path}: "), err
            assert {p.name: p.read_bytes() for p in models.iterdir()} == saved
        else:
            assert code == 0, err
            assert list(json.loads(path.read_bytes())) == [
                "eta_train_rmse", "eta_val_rmse", "eta_mean_baseline_rmse",
                "demand_train_rmse", "demand_val_rmse", "demand_historical_baseline_rmse"]

    def test_dqn_training_past_the_training_city_is_config_error(self, tmp_path):
        # 23:00 plus 60 warmup minutes plus one step ends at minute 1441 of a
        # one-day training city
        proc = self.run_cli(*TINY_CLI, *dirs(tmp_path), "--set", "train_days=1",
                            "--set", "day_start_hour=23", "--set", "warmup_minutes=60",
                            "--set", "dqn_train_steps=1", "train-dqn")
        assert proc.returncode == 1, proc.stderr
        assert "minute 1441" in proc.stderr and "train_days = 1" in proc.stderr
        assert list(tmp_path.iterdir()) == []

    def test_train_models_writes_the_files_of_the_serial_fits(self, tmp_path):
        """Every file of train_models, whose demand fit runs in a worker, is the
        in-process fits' byte for byte, and no worker outlives it."""
        # at TINY_CLI's 200 trips a day the demand fit stops changing after its
        # first epoch (see test_a_dead_demand_fit_is_logged)
        alive = ("--set", "trips_per_day=2000", "--set", "demand_epochs=2")
        serial = tiny_cfg(tmp_path / "serial", *alive)
        serial_models_reference(serial, ex.training_city(serial))
        cfg = tiny_cfg(tmp_path / "whole", *alive)
        # train_models starts a fresh record over a stale, unreadable one
        ex.model_paths(cfg)["metrics"].parent.mkdir(parents=True)
        ex.model_paths(cfg)["metrics"].write_text('{"stale": ')
        ex.train_models(cfg, ex.training_city(cfg))
        assert multiprocessing.active_children() == []
        whole, split = ex.model_paths(cfg), ex.model_paths(serial)
        for name in ("models", "metrics"):
            assert whole[name].read_bytes() == split[name].read_bytes(), name
        assert list(json.loads(split["metrics"].read_bytes()))[0] == "eta_train_rmse"

    def test_a_fresh_train_dqn_synthesises_its_training_city_once(self, tmp_path,
                                                                  monkeypatch):
        calls = []

        def spy(cfg, seed, days):
            calls.append((seed, days))
            return synth_city(cfg, seed, days)

        monkeypatch.setattr(ex, "synth_city", spy)
        cfg = tiny_cfg(tmp_path, "--set", "dqn_train_steps=1")
        ex.train_dqn(cfg)
        assert calls == [(cfg.train_seed, cfg.train_days)]
        assert all(p.exists() for p in ex.model_paths(cfg).values())

    def test_dqn_without_a_q_network_trains_no_model(self, tmp_path, capsys):
        assert cli.main([*TINY_CLI, *dirs(tmp_path), "--set", "policy=dqn", "simulate"]) == 1
        err = capsys.readouterr().err
        assert "config error: no trained Q-network found" in err, err
        assert list(tmp_path.iterdir()) == []

    def test_a_failed_demand_fit_raises_its_error_and_leaves_no_process(self, tmp_path,
                                                                       monkeypatch):
        def fail(*args, **kwargs):
            raise ValueError(f"no fit in process {os.getpid()}")

        # the forked worker inherits the patch
        monkeypatch.setattr(demand_mod, "train_demand", fail)
        cfg = tiny_cfg(tmp_path)
        with pytest.raises(ValueError) as raised:
            ex.train_models(cfg, ex.training_city(cfg))
        assert multiprocessing.active_children() == []
        worker = re.fullmatch(r"no fit in process (\d+)", str(raised.value))
        assert worker and int(worker[1]) != os.getpid()
        # no model file is written, so the next run fits all the models
        paths = ex.model_paths(cfg)
        assert not paths["models"].parent.exists()
        monkeypatch.undo()
        ex.ensure_models(cfg)
        assert paths["models"].exists() and paths["metrics"].exists()

    def test_a_failure_beside_the_demand_fit_leaves_no_process(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise ValueError("no ETA fit")

        monkeypatch.setattr(ex, "train_eta_model", fail)
        cfg = tiny_cfg(tmp_path)
        with pytest.raises(ValueError, match="^no ETA fit$"):
            ex.train_models(cfg, ex.training_city(cfg))
        assert multiprocessing.active_children() == []

    def test_a_worker_that_cannot_start_is_runtime_error(self, tmp_path, monkeypatch, capsys):
        def no_fork():
            raise OSError(errno.EAGAIN, "no process for the demand fit")

        monkeypatch.setattr(os, "fork", no_fork)
        assert cli.main([*TINY_CLI, *dirs(tmp_path), "simulate"]) == 3
        err = capsys.readouterr().err
        assert "runtime error: cannot start a worker process: " in err, err
        assert "no process for the demand fit" in err, err

    def test_synth_data_covers_every_hour_of_every_day(self, tmp_path):
        cfg = tiny_cfg(tmp_path, "--set", "days=2", "--set", "trips_per_day=1200")
        assert cli.main([*TINY_CLI, *dirs(tmp_path), "--set", "days=2",
                         "--set", "trips_per_day=1200", "synth-data"]) == 0
        requests = ex.load_city(cfg).requests
        for day in range(cfg.days):
            reqs = ex.episode_requests(requests, *ex.day_window(cfg, day))
            assert {int(r.minute // 60) for r in reqs} == set(range(24)), day

    @pytest.mark.parametrize("name", sorted(BAD_INPUTS))
    def test_bad_input_is_data_error(self, written_city, tmp_path, name):
        for sub in ("city", "out"):
            shutil.copytree(written_city / sub, tmp_path / sub)
        relpath, edit, message = BAD_INPUTS[name]
        path = tmp_path / relpath
        edited = edit(path.read_bytes())
        assert edited != path.read_bytes()
        path.write_bytes(edited)
        proc = self.run_cli(*TINY_CLI, *dirs(tmp_path), "simulate")
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("data error: ") and message in proc.stderr, proc.stderr

    def test_bad_city_file_fails_before_set_up(self, written_city, tmp_path, capsys):
        # a roads.txt without nodes used to load, and the run failed with exit 3
        # at its first nearest-node lookup, after the models were trained
        shutil.copytree(written_city / "city", tmp_path / "city")
        roads = tmp_path / "city" / "roads.txt"
        roads.write_text("")
        code = cli.main([*TINY_CLI, *dirs(tmp_path), "simulate"])
        err = capsys.readouterr().err
        assert code == 2, err
        assert err == f"data error: {roads}: no nodes\n"
        assert not (tmp_path / "out" / "models").exists()

    def test_short_trips_file_is_data_error_before_set_up(self, written_city, tmp_path,
                                                          capsys):
        # a day window with fewer requests than vehicles used to exit 1,
        # telling the user to raise trips_per_day, which a directory ignores
        shutil.copytree(written_city / "city", tmp_path / "city")
        trips = tmp_path / "city" / "trips.csv"
        trips.write_text(trips.read_text().splitlines()[0] + "\n")
        code = cli.main([*TINY_CLI, *dirs(tmp_path), "simulate"])
        err = capsys.readouterr().err
        assert code == 2, err
        assert err == (f"data error: {trips}: day 0 (minutes 240 to 1680) has 0 requests, "
                       "fewer than the 5 vehicles placed at their pickups\n")
        assert not (tmp_path / "out" / "models").exists()

    @pytest.mark.parametrize("key, value", [("vehicles", "abc"), ("seed", "1.5"),
                                            ("dqn_batch", "1e3")])
    def test_bad_set_value_is_config_error(self, tmp_path, capsys, key, value):
        # a --set value that did not convert exited 3 with a traceback, where
        # the same value in a config file exited 1
        code = cli.main([*TINY_CLI, *dirs(tmp_path), "--set", f"{key}={value}", "simulate"])
        err = capsys.readouterr().err
        assert code == 1, err
        assert err.startswith(f"config error: --set: bad value for {key}: "), err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("key", ["seed", "train_seed"])
    def test_negative_seed_is_config_error_before_any_file(self, tmp_path, capsys, key):
        # no rule covered the seeds: the run made its output directory, then
        # exited 3 when the random generator refused the seed
        code = cli.main([*TINY_CLI, *dirs(tmp_path), "--set", f"{key}=-1", "simulate"])
        err = capsys.readouterr().err
        assert code == 1, err
        assert err == f"config error: {key} must be non-negative, got -1\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value, message", [
        ("1e308", "origin_lon must be in -180 to 180, got 1e+308"),
        ("500", "origin_lon must be in -180 to 180, got 500.0"),
        ("-200", "origin_lon must be in -180 to 180, got -200.0"),
        ("179.99", "origin_lon 179.99 puts the grid between longitudes 179.99 and 180.05"),
    ])
    def test_longitude_off_the_globe_is_config_error(self, tmp_path, capsys, value,
                                                     message):
        # 1e308 exited 2 on road edges of length 0, and 500 and -200 ran
        code = cli.main([*TINY_CLI, *dirs(tmp_path), "--set", f"origin_lon={value}",
                         "simulate"])
        err = capsys.readouterr().err
        assert code == 1, err
        assert err.startswith(f"config error: {message}"), err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.filterwarnings("error")
    def test_trip_time_that_is_not_finite_is_config_error(self, tmp_path, capsys):
        # a noise of 1e300 overflowed the trip times to inf, which the ETA fit
        # refused as a runtime error (exit 3); the least positive speed
        # overflows them too, and raises the config error alone, with no
        # numpy warning before it
        code = cli.main([*TINY_CLI, *dirs(tmp_path), "--set", "synth_speed_kmh=5e-324",
                         "simulate"])
        err = capsys.readouterr().err
        assert code == 1, err
        assert err == ("config error: a synthesised trip time is inf minutes: lower "
                       "synth_noise (0.12) or raise synth_speed_kmh (5e-324)\n"), err
        assert not (tmp_path / "out" / "models").exists()

    def test_noise_above_one_is_config_error_before_any_file(self, tmp_path, capsys):
        # a noise of 50 ran to exit 0 with a mean wait of 1.5e54 minutes
        code = cli.main([*TINY_CLI, *dirs(tmp_path), "--set", "synth_noise=50", "simulate"])
        err = capsys.readouterr().err
        assert code == 1, err
        assert err == "config error: synth_noise must be in 0 to 1, got 50.0\n"
        assert list(tmp_path.iterdir()) == []

    def test_negative_speed_is_config_error(self, tmp_path):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(f"seed = 3\ndata_dir = {tmp_path / 'city'}\n"
                            "synth_speed_kmh = -21\n")
        proc = self.run_cli("--config", str(cfg_file), "synth-data")
        assert proc.returncode == 1, proc.stderr
        assert "synth_speed_kmh" in proc.stderr
        assert not (tmp_path / "city").exists()

    def test_zero_region_block_is_config_error(self, tmp_path):
        proc = self.run_cli("--set", "seed=1", "--set", f"data_dir={tmp_path / 'city'}",
                            "--set", "region_block=0", "synth-data")
        assert proc.returncode == 1, proc.stderr
        assert "region_block" in proc.stderr
        assert not (tmp_path / "city").exists()

    def test_zero_eta_lr_is_config_error_before_synthesis(self, tmp_path):
        proc = self.run_cli("--set", "seed=1", "--set", f"data_dir={tmp_path / 'city'}",
                            "--set", f"out_dir={tmp_path / 'runs'}",
                            "--set", "eta_lr=0", "train-models")
        assert proc.returncode == 1, proc.stderr
        assert "eta_lr" in proc.stderr
        assert list(tmp_path.iterdir()) == []

    def test_negative_train_steps_is_config_error_before_synthesis(self, tmp_path):
        proc = self.run_cli("--set", "seed=1", "--set", f"data_dir={tmp_path / 'city'}",
                            "--set", f"out_dir={tmp_path / 'runs'}",
                            "--set", "dqn_train_steps=-1", "train-dqn")
        assert proc.returncode == 1, proc.stderr
        assert "dqn_train_steps" in proc.stderr
        assert list(tmp_path.iterdir()) == []

    def test_nan_origin_is_config_error(self, tmp_path):
        proc = self.run_cli("--set", "seed=1", "--set", f"data_dir={tmp_path / 'city'}",
                            "--set", "origin_lat=nan", "synth-data")
        assert proc.returncode == 1, proc.stderr
        assert "origin_lat" in proc.stderr
        assert not (tmp_path / "city").exists()

    def test_bogus_epoch_date_is_config_error(self, tmp_path):
        proc = self.run_cli("--set", "seed=1", "--set", f"data_dir={tmp_path / 'city'}",
                            "--set", "epoch_date=bogus", "synth-data")
        assert proc.returncode == 1, proc.stderr
        assert "epoch_date" in proc.stderr
        assert not (tmp_path / "city").exists()

    def test_synth_data_files_independent_of_hash_seed(self, tmp_path):
        files = ("roads.txt", "trips.csv")
        written = []
        for hash_seed in ("0", "12345"):
            city = tmp_path / f"city_{hash_seed}"
            proc = self.run_cli("--set", "seed=3", "--set", f"data_dir={city}",
                                "--set", "fine_rows=10", "--set", "fine_cols=10",
                                "--set", "region_block=1", "--set", "days=1",
                                "--set", "trips_per_day=300", "synth-data",
                                env={"PYTHONHASHSEED": hash_seed})
            assert proc.returncode == 0, proc.stderr
            assert sorted(p.name for p in city.iterdir()) == list(files)
            written.append([(city / name).read_bytes() for name in files])
        assert written[0] == written[1]
        assert written[0][1].count(b"\n") > 100

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

    def test_train_model_commands_print_rmse(self, tmp_path):
        proc = self.run_cli("--set", "seed=3", "--set", f"data_dir={tmp_path / 'city'}",
                            "--set", f"out_dir={tmp_path / 'out'}",
                            "--set", "fine_rows=10", "--set", "fine_cols=10",
                            "--set", "trips_per_day=200", "--set", "train_days=2",
                            "--set", "eta_epochs=1", "--set", "demand_epochs=1",
                            "train-models")
        assert proc.returncode == 0, proc.stderr
        eta, demand, tables = proc.stdout.splitlines()
        assert eta.startswith("eta train rmse ") and " min (mean baseline " in eta, eta
        assert demand.startswith("demand train rmse ") and "(historical baseline " in demand
        assert tables == f"wrote {tmp_path / 'out' / 'models' / 'models.npz'}"

    @pytest.mark.parametrize("steps, first", [
        (0, "trained 0 steps"),
        (3, "trained 3 steps; no minibatch: the replay never held dqn_batch = 8 transitions"),
    ])
    def test_train_dqn_without_a_minibatch_says_so(self, tmp_path, capsys, steps, first):
        code = cli.main([*TINY_CLI, *dirs(tmp_path), "--set", f"dqn_train_steps={steps}",
                         "--set", "dqn_batch=8", "train-dqn"])
        out, err = capsys.readouterr()
        assert code == 0, err
        qnet = tmp_path / "out" / "models" / "qnet.npz"
        assert out.splitlines() == [first, f"wrote {qnet}"]
        # the untrained net is saved, and refused where it is loaded
        code = cli.main([*TINY_CLI, *dirs(tmp_path), "--set", "policy=dqn", "simulate"])
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith(f"data error: {qnet}: minibatches is 0") and "dqn_batch" in err
        assert list((tmp_path / "out").glob("summary_*")) == []

    SUMMARY_HEADER = ",".join(ex.SUMMARY_COLUMNS)

    @pytest.mark.parametrize("text, message", [
        (",".join(c for c in ex.SUMMARY_COLUMNS if c != "day") + "\nnone,3,10,1\n",
         f"line 1: the header is not {SUMMARY_HEADER}"),
        (f"{SUMMARY_HEADER}\nnone,3,all,10,1,abc,9,1.0,2.0,0.5,0.4\n",
         "line 2: reject_rate 'abc' is not a number"),
        (f"{SUMMARY_HEADER}\nnone,3,0,10,1,0.1,9,1.0,2.0,0.5,0.4\nnone,3,all,10,1\n",
         "line 3: the row does not have 11 cells"),
    ], ids=["no-day-column", "metric-not-a-number", "short-row"])
    def test_malformed_summary_is_data_error(self, tmp_path, capsys, text, message):
        # a readable summary sorts first: the report prints nothing of it
        (tmp_path / "summary_a_3.csv").write_text(
            f"{self.SUMMARY_HEADER}\nnone,3,all,10,1,0.1,9,1.0,2.0,0.5,0.4\n")
        path = tmp_path / "summary_b_3.csv"
        path.write_text(text)
        assert cli.main(["--set", "seed=3", "--set", f"out_dir={tmp_path}", "report"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"data error: {path}: {message}\n"

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
        assert "not float64 (7, 24, 25, 25)" in proc.stderr

    @pytest.mark.parametrize("regions", ["non-block", "malformed"])
    def test_regions_csv_is_ignored(self, written_city, tmp_path, regions):
        # region_block = 1 means 100 one-cell regions; a file of 4 blocks of
        # 5x5, or one that does not parse, changes no byte of the run
        for sub in ("city", "out"):
            shutil.copytree(written_city / sub, tmp_path / sub)
        path = tmp_path / "city" / "regions.csv"
        if regions == "non-block":
            # TINY_CLI's zones, 5x5 blocks
            path.write_text(partition_csv(tiny_cfg(tmp_path).layout()[2].assignment))
        else:
            path.write_text("row,col,region_id\n0,0,x\n")
        summary = tmp_path / "out" / "summary_none_3.csv"
        summary.unlink()
        proc = self.run_cli(*TINY_CLI, *dirs(tmp_path), "simulate")
        assert proc.returncode == 0, proc.stderr
        assert summary.read_bytes() == (written_city / "out" / "summary_none_3.csv").read_bytes()

    @pytest.mark.parametrize("zones", ["swapped", "malformed"])
    def test_zones_csv_is_ignored(self, written_city, tmp_path, zones):
        # zone_block = 5 makes the 4 zones of 5x5 blocks on which the zone
        # tables are estimated; a file that swaps zones 0 and 3 used to run
        # RHC on the wrong table rows, and one that does not parse exited 2
        runs = {}
        for case in ("without", zones):
            base = tmp_path / case
            for sub in ("city", "out"):
                shutil.copytree(written_city / sub, base / sub)
            path = base / "city" / "zones.csv"
            if case == "swapped":
                blocks = tiny_cfg(base).layout()[2].assignment
                path.write_text(partition_csv(np.choose(blocks, [3, 1, 2, 0])))
            elif case == "malformed":
                path.write_text("row,col,region_id\n0,0,x\n")
            proc = self.run_cli(*TINY_CLI, *dirs(base), "--set", "policy=rhc", "simulate")
            assert proc.returncode == 0, proc.stderr
            runs[case] = (base / "out" / "summary_rhc_3.csv").read_bytes()
        assert runs[zones] == runs["without"]

    def test_fewer_requests_than_vehicles_is_config_error(self, tmp_path):
        proc = self.run_cli("--set", "seed=3", *dirs(tmp_path), "--set", "fine_rows=10",
                            "--set", "fine_cols=10", "--set", "region_block=1",
                            "--set", "vehicles=50", "--set", "days=1",
                            "--set", "trips_per_day=30", "--set", "train_days=2",
                            "--set", "eta_epochs=1", "--set", "demand_epochs=1", "simulate")
        assert proc.returncode == 1, proc.stderr
        assert "config error: the window from minute 240 has " in proc.stderr, proc.stderr
        assert "requests, fewer than the 50 vehicles" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert list((tmp_path / "out").glob("summary_*")) == []
        assert not (tmp_path / "out" / "models").exists()

    def test_training_city_smaller_than_the_fleet_is_config_error(self, tmp_path):
        proc = self.run_cli(*TINY_CLI, *dirs(tmp_path), "--set", "vehicles=500",
                            "--set", "dqn_train_steps=1", "train-dqn")
        assert proc.returncode == 1, proc.stderr
        assert "fewer than the 500 vehicles" in proc.stderr
        assert not (tmp_path / "out" / "models" / "qnet.npz").exists()
        assert not (tmp_path / "out" / "models").exists()

    def test_simulate_prints_dash_without_accepted_requests(self, monkeypatch, capsys):
        from fleetsim.harness import cli

        all_rejected = {"aggregate": {"reject_rate": 1.0, "mean_wait_minutes": None},
                        "summary_path": "s.csv", "plot_path": "p.csv"}
        monkeypatch.setattr(ex, "run_experiment", lambda cfg: all_rejected)
        assert cli._cmd_simulate(ExperimentConfig(seed=3)) == 0
        assert "reject rate 1.0000, mean wait - min" in capsys.readouterr().out
