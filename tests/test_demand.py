import numpy as np
import pytest

from fleetsim import neural
from fleetsim.clock import Clock
from fleetsim.demand import (
    DEMAND_SPEC,
    DemandModel,
    build_demand_input,
    historical_average,
    train_demand,
)
from oracles import CFG, historical_average_reference


def slot_clocks(n, minutes_per_slot=30.0, start=0.0):
    return [Clock(start + i * minutes_per_slot) for i in range(n)]


def periodic_series(rng, n_slots, h=8, w=8, noise=True):
    """Daily-periodic Poisson demand concentrated in two cells."""
    slots = np.zeros((n_slots, h, w))
    base = np.zeros((h, w))
    base[2, 2] = 4.0
    base[5, 6] = 2.0
    base[1, 6] = 1.0
    for i in range(n_slots):
        hour = (i * 30.0 / 60.0) % 24.0
        level = 1.0 + 0.8 * np.sin(2 * np.pi * hour / 24.0)
        lam = base * level
        slots[i] = rng.poisson(lam) if noise else lam
    return slots


class TestBuildInput:
    def test_zero_heats_give_zero_planes(self):
        planes = build_demand_input(np.zeros((4, 4)), np.zeros((4, 4)), Clock(0.0))
        assert planes.shape == (4, 4, 6)
        np.testing.assert_array_equal(planes[..., 0], 0.0)
        np.testing.assert_array_equal(planes[..., 1], 0.0)

    def test_monday_midnight_trig_planes(self):
        planes = build_demand_input(np.ones((3, 3)), np.ones((3, 3)), Clock(0.0))
        np.testing.assert_allclose(planes[..., 2], 0.0, atol=1e-12)
        np.testing.assert_allclose(planes[..., 3], 1.0)
        np.testing.assert_allclose(planes[..., 4], 0.0, atol=1e-12)
        np.testing.assert_allclose(planes[..., 5], 1.0)

    def test_plane_count_is_six_for_any_grid(self):
        for shape in [(2, 2), (5, 9), (12, 3)]:
            planes = build_demand_input(np.ones(shape), np.ones(shape), Clock(77.0))
            assert planes.shape == shape + (6,)

    def test_mismatched_heats_rejected(self):
        with pytest.raises(ValueError):
            build_demand_input(np.zeros((3, 3)), np.zeros((4, 4)), Clock(0.0))


class TestTraining:
    def test_time_invariant_pattern_fits(self):
        rng = np.random.default_rng(0)
        pattern = np.zeros((8, 8))
        pattern[3, 3] = 3.0
        pattern[6, 1] = 1.0
        slots = np.tile(pattern, (40, 1, 1))
        _, _, metrics = train_demand(slots, slot_clocks(40), seed=1, epochs=120,
                                     lr=CFG.demand_lr)
        assert metrics["demand_val_rmse"] < 0.05

    def test_beats_last_value_persistence_on_periodic_demand(self):
        rng = np.random.default_rng(1)
        slots = periodic_series(rng, 48 * 3)
        _, _, metrics = train_demand(slots, slot_clocks(48 * 3), seed=2, epochs=60,
                                     lr=CFG.demand_lr)
        # persistence predicts slot i as slot i-1 on the same validation span
        n = slots.shape[0] - 2
        n_train = int(round(n * 0.7))
        errs = [
            (slots[i - 1] - slots[i]) ** 2
            for i in range(2 + n_train, slots.shape[0])
        ]
        persistence_rmse = float(np.sqrt(np.mean(errs)))
        assert metrics["demand_val_rmse"] < persistence_rmse

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(2)
        slots = periodic_series(rng, 60)
        m1, h1, metrics1 = train_demand(slots, slot_clocks(60), seed=3, epochs=5,
                                        lr=CFG.demand_lr)
        m2, h2, metrics2 = train_demand(slots, slot_clocks(60), seed=3, epochs=5,
                                        lr=CFG.demand_lr)
        assert metrics1 == metrics2
        assert h1.tobytes() == h2.tobytes()
        for a, b in zip(m1.params, m2.params):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    def test_diverged_fit_rejected(self):
        # the first RMSProp step of a learning rate this large overflows
        slots = periodic_series(np.random.default_rng(2), 12)
        with pytest.raises(ValueError, match="^the demand fit diverged to non-finite weights"):
            train_demand(slots, slot_clocks(12), seed=3, epochs=1, lr=1e308)

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            train_demand(np.zeros((3, 4, 4)), slot_clocks(3), seed=0, epochs=150, lr=CFG.demand_lr)


class TestPredict:
    def make_model(self, seed=4):
        return DemandModel(neural.init_params(DEMAND_SPEC, np.random.default_rng(seed)))

    def test_all_zero_recent_demand_predicts_zero(self):
        model = self.make_model()
        planes = build_demand_input(np.zeros((6, 6)), np.zeros((6, 6)), Clock(300.0))
        np.testing.assert_array_equal(model.predict(planes), np.zeros((6, 6)))

    def test_masked_cell_with_nonzero_raw_output_is_zeroed(self):
        model = self.make_model()
        h1 = np.zeros((6, 6))
        h1[0, 0] = 2.0
        planes = build_demand_input(h1, np.zeros((6, 6)), Clock(300.0))
        raw = neural.forward(DEMAND_SPEC, model.params, planes[None])[0, ..., 0]
        out = model.predict(planes)
        dark = (h1 == 0)
        assert (out[dark] == 0.0).all()
        # at least some dark cell had nonzero raw output for this init
        assert (raw[dark] != 0.0).any()

    def test_unmasked_cells_equal_raw_forward(self):
        model = self.make_model()
        rng = np.random.default_rng(5)
        h1 = rng.poisson(1.0, size=(6, 6)).astype(float)
        h2 = rng.poisson(1.0, size=(6, 6)).astype(float)
        planes = build_demand_input(h1, h2, Clock(120.0))
        raw = neural.forward(DEMAND_SPEC, model.params, planes[None])[0, ..., 0]
        out = model.predict(planes)
        lit = (h1 > 0) | (h2 > 0)
        np.testing.assert_array_equal(out[lit], raw[lit])

    def test_outputs_nonnegative(self):
        model = self.make_model()
        rng = np.random.default_rng(6)
        for _ in range(5):
            h1 = rng.poisson(2.0, size=(5, 5)).astype(float)
            h2 = rng.poisson(2.0, size=(5, 5)).astype(float)
            planes = build_demand_input(h1, h2, Clock(float(rng.uniform(0, 10000))))
            assert (model.predict(planes) >= 0.0).all()

    def test_checkpoint_round_trip(self, tmp_path):
        model = self.make_model()
        p = tmp_path / "models.npz"
        neural.write_model_file(p, {"demand": (DEMAND_SPEC, model.params)}, {})
        nets, _ = neural.read_model_file(p, {"demand": DEMAND_SPEC}, {})
        back = DemandModel(nets["demand"])
        for a, b in zip(model.params, back.params):
            np.testing.assert_array_equal(a, b)
        planes = build_demand_input(np.ones((6, 6)), np.zeros((6, 6)), Clock(300.0))
        assert back.predict(planes).tobytes() == model.predict(planes).tobytes()


class TestHistoricalAverage:
    @staticmethod
    def at(table, clock):
        return table[clock.dow_index, clock.hour_index]

    def test_bucket_means(self):
        slots = np.stack([np.full((2, 2), 2.0), np.full((2, 2), 4.0),
                          np.full((2, 2), 6.0)])
        # two slots in hour 0, one in hour 1
        clocks = [Clock(0.0), Clock(30.0), Clock(60.0)]
        table = historical_average(slots, clocks)
        assert table.shape == (7, 24, 2, 2) and table.dtype == np.float64
        np.testing.assert_allclose(self.at(table, Clock(0.0)), 3.0)
        np.testing.assert_allclose(self.at(table, Clock(75.0)), 6.0)

    def test_unseen_bucket_falls_back_to_global_mean(self):
        slots = np.stack([np.full((2, 2), 2.0), np.full((2, 2), 4.0)])
        table = historical_average(slots, [Clock(0.0), Clock(30.0)])
        np.testing.assert_allclose(self.at(table, Clock(5 * 1440.0)), 3.0)

    def test_empty_predicts_zero(self):
        table = historical_average(np.zeros((0, 3, 3)), [])
        np.testing.assert_array_equal(table, np.zeros((7, 24, 3, 3)))

    @pytest.mark.parametrize("seed", range(12))
    def test_equals_slot_by_slot_reference(self, seed):
        # real-valued slots of either sign, some buckets hit many times in
        # shuffled order and most never, so both branches and the summation
        # order show in the bytes
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60)) if seed else 0
        shape = (int(rng.integers(1, 6)), int(rng.integers(1, 6)))
        slots = rng.normal(0.0, rng.choice([1e-3, 1.0, 1e6]), (n,) + shape)
        slots[rng.random(slots.shape) < 0.2] = 0.0
        slots[rng.random(slots.shape) < 0.05] = -0.0
        minutes = np.where(rng.random(n) < 0.6,
                           rng.choice([0.0, 30.0, 95.0, 1440.0 * 3 + 600.0], n),
                           rng.uniform(0, 20000, n))
        clocks = [Clock(float(m), int(rng.integers(0, 7))) for m in minutes]
        table = historical_average(slots, clocks)
        assert table.tobytes() == historical_average_reference(slots, clocks, shape).tobytes()
