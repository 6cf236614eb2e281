import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleetsim import neural
from fleetsim.clock import Clock, periodic_features
from fleetsim.eta import (
    ETA_SPEC,
    FEATURE_COUNT,
    PREDICT_BLOCK,
    EtaModel,
    eta_features,
    split_indices,
    train_eta,
)
from fleetsim.geo import Location
from oracles import CFG, eta_feature_row, eta_single_row_reference


ORIGIN = Location(40.0, -74.0)
DEST = Location(40.05, -74.05)


def feature_vector(origin, dest, clock, distance_km):
    return np.array(eta_feature_row(origin, dest, clock, distance_km))


class TestFeatures:
    def test_monday_midnight_zero_angles(self):
        f = feature_vector(ORIGIN, DEST, Clock(0.0, epoch_dow=0), 3.0)
        assert f[0] == pytest.approx(0.0)  # sin dow
        assert f[1] == pytest.approx(1.0)  # cos dow
        assert f[2] == pytest.approx(0.0)  # sin hour
        assert f[3] == pytest.approx(1.0)  # cos hour

    def test_hour_six_is_quarter_turn(self):
        f = feature_vector(ORIGIN, DEST, Clock(6 * 60.0), 3.0)
        assert f[2] == pytest.approx(1.0)
        assert f[3] == pytest.approx(0.0, abs=1e-12)

    def test_half_week_advances_dow_angle_by_pi(self):
        c0 = Clock(0.0)
        c1 = Clock(3.5 * 1440.0)
        f0 = feature_vector(ORIGIN, DEST, c0, 1.0)
        f1 = feature_vector(ORIGIN, DEST, c1, 1.0)
        a0 = math.atan2(f0[0], f0[1])
        a1 = math.atan2(f1[0], f1[1])
        assert abs(abs(a1 - a0) - math.pi) < 1e-9

    def test_trig_pairs_on_unit_circle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            c = Clock(float(rng.uniform(0, 7 * 1440)))
            f = feature_vector(ORIGIN, DEST, c, 2.0)
            assert f[0] ** 2 + f[1] ** 2 == pytest.approx(1.0, abs=1e-9)
            assert f[2] ** 2 + f[3] ** 2 == pytest.approx(1.0, abs=1e-9)

    def test_batched_rows_equal_the_row_builder(self):
        rng = np.random.default_rng(4)
        clock = Clock(float(rng.uniform(0, 7 * 1440)), epoch_dow=3)
        trips = rng.uniform([40.0, -74.0, 40.0, -74.0, 0.0], [40.1, -73.9, 40.1, -73.9, 9.0],
                            size=(7, 5))
        feats = eta_features(periodic_features(clock), *trips.T)
        rows = [eta_feature_row(Location(a, b), Location(c, d), clock, km)
                for a, b, c, d, km in trips.tolist()]
        assert feats.tobytes() == np.array(rows).tobytes()

    def test_a_clock_per_row_equals_the_row_builder(self):
        rng = np.random.default_rng(5)
        clocks = [Clock(float(m), epoch_dow=2) for m in rng.uniform(0, 7 * 1440, size=9)]
        trips = rng.uniform([40.0, -74.0, 40.0, -74.0, 0.0], [40.1, -73.9, 40.1, -73.9, 9.0],
                            size=(9, 5))
        feats = eta_features(np.array([periodic_features(c) for c in clocks]), *trips.T)
        rows = [eta_feature_row(Location(a, b), Location(c, d), clock, km)
                for clock, (a, b, c, d, km) in zip(clocks, trips.tolist())]
        assert feats.tobytes() == np.array(rows).tobytes()

    def test_coordinates_and_distance_passed_through(self):
        f = feature_vector(ORIGIN, DEST, Clock(0.0), 7.5)
        assert tuple(f[4:8]) == (ORIGIN.lat, ORIGIN.lon, DEST.lat, DEST.lon)
        assert f[8] == 7.5


def synthetic_trips(rng, n=2000, slope=3.0, intercept=4.0, noise=0.0):
    feats = np.zeros((n, 9))
    clocks = rng.uniform(0, 7 * 1440, size=n)
    dists = rng.uniform(0.5, 12.0, size=n)
    for i in range(n):
        origin = Location(40.0 + rng.uniform(0, 0.1), -74.0 + rng.uniform(0, 0.1))
        dest = Location(40.0 + rng.uniform(0, 0.1), -74.0 + rng.uniform(0, 0.1))
        feats[i] = feature_vector(origin, dest, Clock(clocks[i]), dists[i])
    minutes = slope * dists + intercept + rng.normal(0, noise, size=n)
    return feats, np.maximum(minutes, 0.1)


class TestTraining:
    def test_constant_target_fits_to_near_zero(self):
        rng = np.random.default_rng(1)
        feats, _ = synthetic_trips(rng, n=600)
        minutes = np.full(600, 9.0)
        _, metrics = train_eta(feats, minutes, seed=5, epochs=40, lr=CFG.eta_lr)
        assert metrics["eta_train_rmse"] < 1e-2
        assert metrics["eta_val_rmse"] < 1e-2

    def test_linear_synthetic_beats_ten_percent_of_std(self):
        rng = np.random.default_rng(2)
        feats, minutes = synthetic_trips(rng, n=3000, noise=0.0)
        _, metrics = train_eta(feats, minutes, seed=9, epochs=40, lr=CFG.eta_lr)
        assert metrics["eta_val_rmse"] < 0.1 * np.std(minutes)

    def test_seeded_training_reproducible(self):
        rng = np.random.default_rng(3)
        feats, minutes = synthetic_trips(rng, n=500, noise=1.0)
        m1, metrics1 = train_eta(feats, minutes, seed=11, epochs=10, lr=CFG.eta_lr)
        m2, metrics2 = train_eta(feats, minutes, seed=11, epochs=10, lr=CFG.eta_lr)
        assert metrics1 == metrics2
        for a, b in zip(m1.params, m2.params):
            np.testing.assert_array_equal(a, b)

    def test_beats_mean_predictor(self):
        rng = np.random.default_rng(4)
        feats, minutes = synthetic_trips(rng, n=2500, noise=0.5)
        _, metrics = train_eta(feats, minutes, seed=13, epochs=40, lr=CFG.eta_lr)
        train_idx, val_idx = split_indices(len(minutes), 13)
        baseline = np.sqrt(np.mean((minutes[val_idx] - np.mean(minutes[train_idx])) ** 2))
        assert metrics["eta_mean_baseline_rmse"] == baseline
        assert metrics["eta_val_rmse"] < baseline

    def test_split_keeps_and_holds_out_at_least_one(self):
        for n in range(2, 60):
            train_idx, val_idx = split_indices(n, n)
            assert train_idx.size >= 1 and val_idx.size >= 1
            assert sorted(np.concatenate([train_idx, val_idx]).tolist()) == list(range(n))

    @pytest.mark.parametrize("where, value", [("feature", np.nan), ("feature", np.inf),
                                              ("target", np.nan), ("target", -np.inf)])
    def test_non_finite_input_rejected(self, where, value):
        # one nan distance used to train a model whose every prediction is 0.0
        feats, minutes = synthetic_trips(np.random.default_rng(5), n=50)
        (feats[7] if where == "feature" else minutes[7:8])[-1] = value
        with pytest.raises(ValueError, match="must be finite"):
            train_eta(feats, minutes, seed=0, epochs=1, lr=CFG.eta_lr)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    def test_diverged_fit_rejected(self):
        # an overflowing fit must not reach the simulator, which would time trips 0.0 or nan
        feats, minutes = synthetic_trips(np.random.default_rng(5), n=50)
        with pytest.raises(ValueError, match="^the ETA fit diverged to non-finite weights"):
            train_eta(feats, minutes, seed=0, epochs=2, lr=1e150)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train_eta(np.zeros((1, 9)), np.zeros(1), seed=0, epochs=30, lr=CFG.eta_lr)


class TestPredict:
    def test_one_row_predict_agrees_with_batch(self):
        # the simulator times a phase's moves in one batch, and
        # eta_val_rmse is scored on the whole split: each row gets the
        # bytes of its one-row batch, clamped rows included
        rng = np.random.default_rng(8)
        feats, minutes = synthetic_trips(rng, n=500, noise=1.0)
        model, _ = train_eta(feats, minutes, seed=2, epochs=5, lr=CFG.eta_lr)
        shift = float(np.median(model.predict(feats)))
        shifted = EtaModel(model.params, model.mean, model.std,
                           model.y_mean - shift, model.y_std)
        for m in (model, shifted):
            batch = m.predict(feats)
            single = np.array([m.predict(f[None])[0] for f in feats])
            assert batch.tobytes() == single.tobytes()
        assert 0 < int((batch == 0.0).sum()) < len(feats)

    def test_checkpoint_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        feats, minutes = synthetic_trips(rng, n=200, noise=0.5)
        model, _ = train_eta(feats, minutes, seed=1, epochs=3, lr=CFG.eta_lr)
        p = tmp_path / "models.npz"
        neural.write_model_file(
            p, {"eta": (ETA_SPEC, model.params)},
            {"eta_mean": model.mean, "eta_std": model.std,
             "eta_y_mean": model.y_mean, "eta_y_std": model.y_std})
        nets, a = neural.read_model_file(
            p, {"eta": ETA_SPEC}, {"eta_mean": (FEATURE_COUNT,), "eta_std": (FEATURE_COUNT,),
                                   "eta_y_mean": (), "eta_y_std": ()})
        back = EtaModel(nets["eta"], a["eta_mean"], a["eta_std"],
                        float(a["eta_y_mean"]), float(a["eta_y_std"]))
        assert back.predict(feats).tobytes() == model.predict(feats).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 64))
    def test_a_row_does_not_depend_on_its_batch(self, seed, n):
        rng = np.random.default_rng(seed)
        params = [p + rng.normal(scale=0.2, size=p.shape)
                  for p in neural.init_params(ETA_SPEC, rng)]
        model = EtaModel(params, rng.normal(size=9), rng.uniform(0.1, 3.0, size=9),
                         float(rng.uniform(-2.0, 20.0)), float(rng.uniform(0.1, 8.0)))
        rows = rng.normal(scale=3.0, size=(n, 9))
        batch = model.predict(rows)
        assert batch.shape == (n,)
        for i in range(n):
            assert batch[i].tobytes() == model.predict(rows[i:i + 1])[0].tobytes()

    def test_rows_across_block_boundaries_keep_their_one_row_bytes(self):
        # a batch longer than a block, as when the fit scores its training
        # split, runs in blocks; each row still gets its one-row bytes
        rng = np.random.default_rng(31)
        params = neural.init_params(ETA_SPEC, rng)
        params[-1] = rng.normal(size=1)
        model = EtaModel(params, rng.normal(size=9), rng.uniform(0.1, 3.0, size=9), 4.0, 2.5)
        n = 2 * PREDICT_BLOCK + 3
        rows = rng.normal(scale=3.0, size=(n, 9))
        single = np.concatenate([model.predict(rows[i:i + 1]) for i in range(n)])
        assert 0 < int((single == 0.0).sum()) < n
        for lo in (0, PREDICT_BLOCK - 2, PREDICT_BLOCK, n - 1, n):
            got = model.predict(rows[lo:])
            assert got.shape == (n - lo,)
            assert got.tobytes() == single[lo:].tobytes()

    @pytest.mark.parametrize("shape", [(9,), (4, 8), (4, 10), (4, 1, 9), (1, 9, 1)])
    def test_other_shapes_raise(self, shape):
        model = EtaModel(neural.init_params(ETA_SPEC, np.random.default_rng(0)),
                         mean=np.zeros(9), std=np.ones(9))
        with pytest.raises(ValueError, match=r"expected \(n, 9\) features"):
            model.predict(np.zeros(shape))

    def test_negative_raw_output_clamps_to_zero(self):
        params = neural.init_params(ETA_SPEC, np.random.default_rng(0))
        params[-1] = np.array([-5.0])  # final bias forces negative output
        params[-2] = np.zeros_like(params[-2])
        model = EtaModel(params, mean=np.zeros(9), std=np.ones(9))
        assert model.predict(np.zeros((1, 9)))[0] == 0.0

    def test_identical_features_identical_prediction(self):
        rng = np.random.default_rng(5)
        feats, minutes = synthetic_trips(rng, n=300, noise=1.0)
        model, _ = train_eta(feats, minutes, seed=3, epochs=5, lr=CFG.eta_lr)
        f = feats[17:18]
        assert model.predict(f)[0] == model.predict(f.copy())[0]

    def test_prediction_matches_engine_forward(self):
        rng = np.random.default_rng(6)
        feats, minutes = synthetic_trips(rng, n=300, noise=1.0)
        model, _ = train_eta(feats, minutes, seed=3, epochs=5, lr=CFG.eta_lr)
        f = feats[42:43]
        z = (f - model.mean) / model.std
        raw = neural.forward(ETA_SPEC, model.params, z)[0]
        assert model.predict(f)[0] == max(0.0, raw * model.y_std + model.y_mean)

    def test_one_row_batch_equals_single_row_reference(self):
        # the one-row batch the simulator runs gives the bytes of the
        # single-row formula it replaced, clamped rows included
        rng = np.random.default_rng(23)
        clamped = 0
        for _ in range(40):
            params = neural.init_params(ETA_SPEC, rng)
            params[-1] = rng.normal(size=1)
            model = EtaModel(params, rng.normal(size=9), rng.uniform(0.1, 3.0, size=9),
                             float(rng.uniform(-2.0, 20.0)), float(rng.uniform(0.1, 8.0)))
            for row in rng.normal(scale=3.0, size=(25, 9)):
                got = model.predict(row[None])[0]
                want = eta_single_row_reference(model, row)
                assert np.float64(got).tobytes() == np.float64(want).tobytes()
                clamped += want == 0.0
        assert 0 < clamped < 1000
