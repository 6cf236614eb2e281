import copy
from dataclasses import dataclass

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from oracles import (CFG, aux_planes_reference, avg_pool, avg_pool_reference,
                     crop_pad_center, explore_action_reference, full_window_reference,
                     legal_action_mask, legal_window_reference, masked_q, pooled_reference,
                     q_main_planes_51, train_step_reference)

from fleetsim import neural
from fleetsim.dqn import (
    ACTION_RADIUS,
    FeatureCanvas,
    Q_SPEC,
    QInput,
    QNetwork,
    ReplayBuffer,
    STAY_CELL,
    Training,
    Transition,
    VehicleContext,
    action_offset,
    build_feature_planes,
    explore_action,
    greedy_action,
    reward_dqn,
    sync_target,
    train_step,
)
from fleetsim.dqn import _canvas_geometry, _input_block, _legal_rect, _pooled, _region_aux


def make_ctx(region=(5, 5), shape=(10, 10), rng=None, minute=0.0):
    rng = rng or np.random.default_rng(0)
    from fleetsim.clock import Clock, periodic_features

    return VehicleContext(
        demand=rng.uniform(0, 3, size=shape),
        supply=rng.uniform(0, 2, size=(3,) + shape),
        idle=rng.uniform(0, 2, size=shape),
        region=region,
        clock=periodic_features(Clock(minute)),
    )


@dataclass(frozen=True, kw_only=True)
class PinnedTraining(Training):
    """A :class:`Training` whose epsilon, and whose alpha, holds one value at
    every step where it is pinned, and follows the program's ramp where not."""

    pinned_epsilon: float | None = None
    pinned_alpha: float | None = None

    def epsilon(self, step: int) -> float:
        return super().epsilon(step) if self.pinned_epsilon is None else self.pinned_epsilon

    def alpha(self, step: int) -> float:
        return super().alpha(step) if self.pinned_alpha is None else self.pinned_alpha


def make_training(seed, **kw):
    """A :class:`PinnedTraining` with the configured settings and ramps of one step."""
    return PinnedTraining(**{**dict(reject_weight=CFG.dqn_reject_weight,
                                    discount=CFG.dqn_discount, seed=seed, lr=CFG.dqn_lr,
                                    batch_size=CFG.dqn_batch, buffer_capacity=CFG.dqn_buffer,
                                    eps_ramp=1, alpha_ramp=1,
                                    sync_period=CFG.dqn_sync_period), **kw})


def legal_window_51(ctx):
    """The legal window cut from :func:`q_main_planes_51` and the reference aux planes."""
    return legal_window_reference(
        q_main_planes_51(ctx.demand, ctx.supply, ctx.idle, ctx.region),
        aux_planes_reference(ctx), legal_action_mask(ctx.region, ctx.demand.shape))


class TestFeaturePlanes:
    def test_plane_counts_and_shapes(self):
        # region (5, 5) of a 10x10 grid: the legal moves are action rows
        # and columns 2..11
        qin = build_feature_planes(make_ctx())
        assert qin.origin == (2, 2)
        assert qin.main.shape == (18, 18, 15)
        assert qin.aux.shape == (10, 10, 11)
        field = build_feature_planes(make_ctx(), (4, 9))
        assert field.origin == (4, 9)
        assert field.main.shape == (9, 9, 15)
        assert field.aux.shape == (1, 1, 11)

    def test_corner_vehicle_masks_off_grid_moves(self):
        qin = build_feature_planes(make_ctx(region=(0, 0)))
        # moves north or west of the corner are illegal, so the legal
        # window starts at the stay cell and holds legal cells only
        assert qin.origin == STAY_CELL
        assert qin.aux.shape[:2] == (8, 8)
        assert (qin.aux[..., 10] == 1.0).all()
        legal = _region_aux((0, 0), (10, 10))[..., 10]
        assert legal[ACTION_RADIUS - 1, ACTION_RADIUS] == 0.0
        assert legal[ACTION_RADIUS, ACTION_RADIUS - 1] == 0.0
        assert legal[ACTION_RADIUS, ACTION_RADIUS] == 1.0
        assert legal[ACTION_RADIUS + 1, ACTION_RADIUS + 1] == 1.0

    def test_move_coordinate_center_is_own_position(self):
        ctx = make_ctx(region=(3, 7), shape=(10, 10))
        qin = build_feature_planes(ctx)
        stay = qin.field(STAY_CELL).aux[0, 0]
        assert stay[7] == pytest.approx(3 / 9)
        assert stay[8] == pytest.approx(7 / 9)
        np.testing.assert_allclose(qin.aux[..., 5], 3 / 9)
        np.testing.assert_allclose(qin.aux[..., 6], 7 / 9)

    def test_position_plane_one_hot_center(self):
        qin = build_feature_planes(make_ctx())
        pos = qin.aux[..., 4]
        assert qin.field(STAY_CELL).aux[0, 0, 4] == 1.0
        assert pos.sum() == 1.0

    def test_distance_plane_normalized(self):
        # the middle of a 15x15 grid: every move is legal
        qin = build_feature_planes(make_ctx(region=(7, 7), shape=(15, 15)))
        d = qin.aux[..., 9]
        assert qin.origin == (0, 0)
        assert d[ACTION_RADIUS, ACTION_RADIUS] == 0.0
        assert d[0, 0] == pytest.approx(1.0)
        assert d[0, ACTION_RADIUS] == pytest.approx(7 / (7 * np.sqrt(2)))

    def test_pooled_plane_matches_brute_force_window_mean(self):
        # the middle of a 20x20 grid: the legal window is the whole 23x23 window
        rng = np.random.default_rng(1)
        ctx = make_ctx(region=(10, 10), shape=(20, 20), rng=rng)
        qin = build_feature_planes(ctx)
        assert qin.origin == (0, 0)
        big = crop_pad_center(ctx.demand, ctx.region, 51, 51)
        # main[5] is the 15x15-pooled demand plane cropped to 23x23; check
        # a few positions against a direct window sum over the crop
        for out_r, out_c in [(11, 11), (0, 0), (22, 13)]:
            src_r = out_r + 14  # crop offset (51-23)/2
            src_c = out_c + 14
            acc = 0.0
            for dr in range(-7, 8):
                for dc in range(-7, 8):
                    rr, cc = src_r + dr, src_c + dc
                    if 0 <= rr < 51 and 0 <= cc < 51:
                        acc += big[rr, cc]
            assert qin.main[out_r, out_c, 5] == pytest.approx(acc / 225, abs=1e-12)

    def test_main_planes_equal_51_window_reference_on_every_region(self):
        rng = np.random.default_rng(12)
        for r in range(10):
            for c in range(10):
                ctx = make_ctx(region=(r, c), rng=rng)
                np.testing.assert_array_equal(build_feature_planes(ctx).main,
                                              legal_window_51(ctx).main)

    @pytest.mark.parametrize("shape", [(1, 1), (2, 3), (7, 12), (26, 26)])
    def test_main_planes_equal_51_window_reference_on_grid_shapes(self, shape):
        rng = np.random.default_rng(13)
        for _ in range(12):
            region = (int(rng.integers(shape[0])), int(rng.integers(shape[1])))
            ctx = make_ctx(region=region, shape=shape, rng=rng,
                           minute=float(rng.uniform(0, 9000)))
            np.testing.assert_array_equal(build_feature_planes(ctx).main,
                                          legal_window_51(ctx).main)
        for region in [(0, 0), (shape[0] - 1, shape[1] - 1)]:
            ctx = make_ctx(region=region, shape=shape, rng=rng)
            np.testing.assert_array_equal(build_feature_planes(ctx).main,
                                          legal_window_51(ctx).main)

    def test_wide_grid_30_pool_covers_the_whole_window(self):
        # on a grid wider than 26 regions the 30-cell window at crop offset
        # +11 reaches region offset +26, and that row and column count
        rng = np.random.default_rng(14)
        ctx = make_ctx(region=(3, 4), shape=(40, 33), rng=rng)
        qin = build_feature_planes(ctx)
        r0, c0 = qin.origin
        for out_r, out_c in [(22, 22), (r0, c0), (11, 11), (22, 5)]:
            r, c = 3 + out_r - 11, 4 + out_c - 11
            rows = slice(max(0, r - 14), r + 16)
            cols = slice(max(0, c - 14), c + 16)
            expect = ctx.demand[rows, cols].sum() / 900
            assert qin.main[out_r - r0, out_c - c0, 10] == pytest.approx(expect, abs=1e-12)

    def test_demand_crop_is_vehicle_centered(self):
        ctx = make_ctx(region=(2, 9))
        field = build_feature_planes(ctx).field(STAY_CELL)
        assert field.main[4, 4, 0] == ctx.demand[2, 9]

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            QInput(np.zeros((23, 23, 14)), np.zeros((15, 15, 11)), (0, 0))
        with pytest.raises(ValueError):
            QInput(np.zeros((18, 18, 15)), np.zeros((10, 11, 11)), (2, 2))
        with pytest.raises(ValueError):
            QInput(np.zeros((8, 9, 15)), np.zeros((0, 1, 11)), (2, 2))


def same_bytes(a, b):
    """Whether two float64 arrays have one shape and equal bytes, compared as integers."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestLegalWindowAndFields:
    """The program's inputs against slices of the reference window, byte for byte."""

    @staticmethod
    def built_field_regions(shape):
        """Where every legal cell's field is also built on its own: every region of
        the 10x10 and 7x13 grids, and the corners, edge midpoints and middle of
        the 20x20 grid, whose 59,536 legal cells would take about 9 s to build."""
        if shape != (20, 20):
            return set(np.ndindex(shape))
        rows, cols = (0, shape[0] // 2, shape[0] - 1), (0, shape[1] // 2, shape[1] - 1)
        return {(r, c) for r in rows for c in cols}

    @pytest.mark.parametrize("shape", [(10, 10), (7, 13), (20, 20)])
    def test_every_region_and_legal_cell(self, shape):
        rng = np.random.default_rng(sum(shape))
        demand, idle = (rng.uniform(0.0, 4.0, shape) * rng.random() for _ in range(2))
        supply = rng.uniform(0.0, 3.0, (3,) + shape) * rng.random()
        demand[rng.random(shape) < 0.1] = -0.0
        clock = (0.25, -0.5, 0.75, 1.0)
        canvas = FeatureCanvas(demand, supply, idle)
        built = self.built_field_regions(shape)
        for region in np.ndindex(shape):
            ctx = VehicleContext(demand, supply, idle, region, clock)
            main, aux = full_window_reference(ctx)
            legal = legal_action_mask(region, shape)
            want = legal_window_reference(main, aux, legal)
            window = build_feature_planes(ctx)
            for got in (window, canvas.q_input(region, clock)):
                assert got.origin == want.origin
                assert got.main.tobytes() == want.main.tobytes()
                assert got.aux.tobytes() == want.aux.tobytes()
            rows, cols = np.nonzero(legal)
            cells = list(zip(rows.tolist(), cols.tolist()))
            # (n, 9, 9, 15) and (n, 1, 1, 11) slices of the reference window
            want_main = sliding_window_view(main, (9, 9), (0, 1)).transpose(0, 1, 3, 4, 2)
            want_main = want_main[rows, cols]
            want_aux = aux[rows, cols][:, None, None]
            # the target's field, cut from the window, and the current
            # state's, built on its own
            field_sets = [[window.field(cell) for cell in cells]]
            if region in built:
                field_sets.append([build_feature_planes(ctx, cell) for cell in cells])
            for fields in field_sets:
                assert [f.origin for f in fields] == cells
                assert same_bytes(np.stack([f.main for f in fields]), want_main)
                assert same_bytes(np.stack([f.aux for f in fields]), want_aux)

    def test_legal_rect_is_the_legal_mask(self):
        for shape in [(1, 1), (3, 2), (10, 10), (7, 13), (20, 20)]:
            for region in np.ndindex(shape):
                r0, r1, c0, c1 = _legal_rect(region, shape)
                rect = np.zeros((15, 15), dtype=bool)
                rect[r0:r1, c0:c1] = True
                assert np.array_equal(rect, legal_action_mask(region, shape))


def random_maps(rng, n, shape):
    """Integer counts or, half the time, non-integer maps with a few -0.0 cells."""
    if rng.random() < 0.5:
        return rng.integers(0, 6, size=(n,) + shape).astype(float)
    maps = rng.uniform(-1.0, 4.0, size=(n,) + shape) * rng.random()
    maps[rng.random(maps.shape) < 0.1] = -0.0
    return maps


def canvas_pad(shape):
    return max(11, -(-(30 - min(shape)) // 2))


class TestPooling:
    """The shared-integral-image pools against pooling one size per call."""

    def test_pooled_equals_reference_bytes(self):
        rng = np.random.default_rng(31)
        shapes = [(1, 1), (10, 10), (4, 7), (26, 26), (27, 40), (45, 3)]
        shapes += [(int(rng.integers(1, 50)), int(rng.integers(1, 50))) for _ in range(30)]
        for shape in shapes:
            pad = canvas_pad(shape)
            assert _canvas_geometry(shape)[0] == pad
            padded = (shape[0] + 2 * pad, shape[1] + 2 * pad)
            for n in (3, 5):
                maps = random_maps(rng, n, shape)
                got = _pooled(maps, slice(0, None), slice(0, None))
                want = pooled_reference(maps, pad)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()
                # a block of the canvas pools to the whole canvas's bytes there
                r0, r1 = sorted(int(v) for v in rng.integers(0, padded[0] + 1, 2))
                c0, c1 = sorted(int(v) for v in rng.integers(0, padded[1] + 1, 2))
                rows, cols = slice(r0, r1), slice(c0, c1)
                assert _pooled(maps, rows, cols).tobytes() == want[rows, cols].tobytes()

    def test_avg_pool_equals_reference_bytes(self):
        rng = np.random.default_rng(32)
        for _ in range(40):
            k = int(rng.integers(1, 9))
            shape = (int(rng.integers(1, 3)), int(rng.integers(k, 40)), int(rng.integers(k, 40)))
            x = random_maps(rng, shape[0], shape[1:])
            assert avg_pool(x, k).tobytes() == avg_pool_reference(x, k).tobytes()

    def test_set_supply_equals_a_fresh_canvas(self):
        rng = np.random.default_rng(34)
        clock = (0.0, 1.0, 0.0, 1.0)  # Monday midnight
        for shape in [(1, 1), (10, 10), (4, 7), (33, 27)]:
            demand, idle = random_maps(rng, 1, shape)[0], random_maps(rng, 1, shape)[0]
            canvas = FeatureCanvas(demand, random_maps(rng, 3, shape), idle)
            for _ in range(3):
                supply = random_maps(rng, 3, shape)
                canvas.set_supply(supply)
                fresh = FeatureCanvas(demand, supply, idle)
                assert canvas.supply is supply
                assert canvas.planes.tobytes() == fresh.planes.tobytes()
                region = (int(rng.integers(shape[0])), int(rng.integers(shape[1])))
                assert (canvas.q_input(region, clock).main.tobytes()
                        == fresh.q_input(region, clock).main.tobytes())
                # a canvas of one input's block replaces its supply the same way
                rows, cols = _input_block(region, shape, _legal_rect(region, shape))
                block = FeatureCanvas(demand, random_maps(rng, 3, shape), idle, rows, cols)
                block.set_supply(supply)
                assert block.planes.tobytes() == fresh.planes[rows, cols].tobytes()
                assert (block.q_input(region, clock).main.tobytes()
                        == fresh.q_input(region, clock).main.tobytes())


def whole_window_ctx(rng=None):
    """A vehicle in the middle of a 15x15 region grid: every move is legal, so its
    legal window is the whole 23x23 window."""
    return make_ctx(region=(7, 7), shape=(15, 15), rng=rng)


class TestQNetwork:
    def test_zero_weight_network_outputs_zero_map(self):
        net = QNetwork.create(np.random.default_rng(0))
        for p in net.params:
            p[:] = 0.0
        ctx = make_ctx()
        qmap = net.q_map(build_feature_planes(ctx))
        legal = legal_action_mask(ctx.region, ctx.demand.shape)
        np.testing.assert_array_equal(qmap, masked_q(np.zeros((15, 15)), legal))

    def test_map_equals_engine_forward(self):
        net = QNetwork.create(np.random.default_rng(1))
        ctx = whole_window_ctx()
        main, aux = full_window_reference(ctx)
        direct = neural.forward(Q_SPEC, net.params, main[None], aux=aux[None])
        np.testing.assert_array_equal(net.q_map(build_feature_planes(ctx)), direct[0, ..., 0])

    def test_legal_window_matches_masked_full_map(self):
        # 520 contexts on varied grids, each grid's four corners and four
        # edge midpoints among them
        rng = np.random.default_rng(15)
        net = QNetwork.create(rng)
        cases = []
        for shape in [(1, 1), (3, 2), (10, 10), (15, 15), (6, 20)]:
            last_r, last_c = shape[0] - 1, shape[1] - 1
            cases += [(shape, (r, c)) for r in (0, last_r // 2, last_r)
                      for c in (0, last_c // 2, last_c)]
        while len(cases) < 520:
            shape = (int(rng.integers(1, 21)), int(rng.integers(1, 21)))
            cases.append((shape, (int(rng.integers(shape[0])),
                                  int(rng.integers(shape[1])))))
        for shape, region in cases:
            ctx = make_ctx(region=region, shape=shape, rng=rng)
            legal = legal_action_mask(region, shape)
            windowed = net.q_map(build_feature_planes(ctx))
            main, aux = full_window_reference(ctx)
            full = masked_q(neural.forward(Q_SPEC, net.params, main[None],
                                           aux=aux[None])[0, ..., 0], legal)
            assert np.isneginf(windowed[~legal]).all()
            np.testing.assert_allclose(windowed[legal], full[legal], rtol=0, atol=1e-12)
            assert np.argmax(windowed) == np.argmax(full)

    def test_legal_window_without_legal_cell_raises(self):
        with pytest.raises(ValueError):
            QInput(np.zeros((8, 8, 15)), np.zeros((0, 0, 11)), STAY_CELL)

    def test_checkpoint_round_trip(self, tmp_path):
        net = QNetwork.create(np.random.default_rng(2))
        net.save(tmp_path / "q.json", extra={"step": 7})
        back, extra = QNetwork.load(tmp_path / "q.json")
        for a, b in zip(net.params, back.params):
            np.testing.assert_array_equal(a, b)
        assert extra == {"step": 7}


class TestSelectAction:
    """``DqnPolicy.dispatch`` acts as ``explore_action(...) or greedy_action(q_map)``."""

    def test_greedy_takes_argmax(self):
        qmap = np.full((15, 15), -1.0)
        qmap[3, 9] = 2.0
        assert greedy_action(qmap) == (3, 9)
        assert explore_action((0, 15, 0, 15), 0.0, np.random.default_rng(0)) is None

    def test_greedy_tie_breaks_lowest_row_major(self):
        qmap = np.zeros((15, 15))
        assert greedy_action(qmap) == (0, 0)

    def test_single_legal_cell_wins_at_any_epsilon(self):
        qmap = np.full((15, 15), -np.inf)
        qmap[8, 2] = -3.0
        rect = (8, 9, 2, 3)
        for eps in (0.0, 0.5, 1.0):
            rng = np.random.default_rng(1)
            assert (explore_action(rect, eps, rng) or greedy_action(qmap)) == (8, 2)

    def test_never_selects_illegal(self):
        rng = np.random.default_rng(2)
        legal = legal_action_mask((0, 0), (10, 10))
        rect = _legal_rect((0, 0), (10, 10))
        for _ in range(200):
            qmap = masked_q(rng.normal(size=(15, 15)), legal)
            cell = explore_action(rect, float(rng.random()), rng) or greedy_action(qmap)
            assert legal[cell]

    def test_uniform_exploration_frequencies(self):
        legal = legal_action_mask((5, 5), (10, 10))
        rect = _legal_rect((5, 5), (10, 10))
        rng = np.random.default_rng(3)
        counts = np.zeros((15, 15))
        draws = 10_000
        for _ in range(draws):
            counts[explore_action(rect, 1.0, rng)] += 1
        n_legal = int(legal.sum())
        expected = draws / n_legal
        chi2 = float(((counts[legal] - expected) ** 2 / expected).sum())
        # dof = n_legal - 1 = 99; a healthy uniform sampler sits near 99
        assert chi2 < 160.0
        assert counts[~legal].sum() == 0

    @pytest.mark.parametrize("shape", [(10, 10), (7, 13), (20, 20)])
    def test_rectangle_draw_equals_mask_draw(self, shape):
        # every region at each epsilon, from one stream: the same cell or
        # None, and the same draws
        rng, ref_rng = np.random.default_rng(17), np.random.default_rng(17)
        for region in np.ndindex(shape):
            rect, legal = _legal_rect(region, shape), legal_action_mask(region, shape)
            for eps in (0.0, 0.3, 1.0):
                got = explore_action(rect, eps, rng)
                assert got == explore_action_reference(legal, eps, ref_rng)
                assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_no_legal_cell_raises(self):
        with pytest.raises(ValueError):
            explore_action((0, 0, 0, 0), 1.0, np.random.default_rng(0))


class TestRewardAndSchedules:
    def test_zero_window(self):
        assert reward_dqn(0, 0, 10.0) == 0.0

    def test_hand_value(self):
        assert reward_dqn(1, 3.0, 10.0) == pytest.approx(7.0)

    def test_doubling_weight_scales_pickup_term_only(self):
        base = reward_dqn(2, 5.0, 10.0)
        doubled = reward_dqn(2, 5.0, 20.0)
        assert doubled - base == pytest.approx(10.0 * 2)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            reward_dqn(-1, 0, 10.0)

    def test_epsilon_schedule_endpoints_and_midpoint(self):
        s = make_training(0, eps_ramp=5000, alpha_ramp=5000)
        assert s.epsilon(0) == pytest.approx(1.0)
        assert s.epsilon(2500) == pytest.approx(0.525)
        assert s.epsilon(5000) == pytest.approx(0.05)
        assert s.epsilon(20_000) == pytest.approx(0.05)

    def test_alpha_schedule_endpoints_and_midpoint(self):
        s = make_training(0, eps_ramp=5000, alpha_ramp=5000)
        assert s.alpha(0) == pytest.approx(0.3)
        assert s.alpha(2500) == pytest.approx(0.65)
        assert s.alpha(5000) == pytest.approx(1.0)
        assert s.alpha(9999) == pytest.approx(1.0)


class TestReplayBuffer:
    def test_capacity_evicts_oldest(self):
        buf = ReplayBuffer(capacity=3)
        ctx = make_ctx()
        for i in range(5):
            buf.push(Transition(ctx, (0, 0), float(i), ctx, 0))
        assert len(buf) == 3
        rewards = sorted(t.reward for t in buf._items)
        assert rewards == [2.0, 3.0, 4.0]

    def test_sample_without_replacement(self):
        buf = ReplayBuffer(capacity=10)
        ctx = make_ctx()
        for i in range(10):
            buf.push(Transition(ctx, (0, 0), float(i), ctx, 0))
        batch = buf.sample(np.random.default_rng(0), 10)
        assert sorted(t.reward for t in batch) == [float(i) for i in range(10)]


def crafted_qnet(base: float, dist_coef: float) -> QNetwork:
    """Network whose output map is base + dist_coef * normalized distance.

    All main-branch weights are zero; the aux branch routes the distance
    plane through the rectified 1x1 stack, and the linear output layer
    applies the signed coefficient.
    """
    net = QNetwork.create(np.random.default_rng(0))
    for p in net.params:
        p[:] = 0.0
    # params order: conv1 w/b, conv2 w/b, conv3 w/b, branch w/b, merge w/b, out w/b
    w_branch = net.params[6]
    w_branch[0, 0, 0, 9] = 1.0          # branch channel 0 <- distance plane
    w_merge = net.params[8]
    w_merge[0, 0, 0, 64] = 1.0          # merge channel 0 <- branch channel 0
    w_out = net.params[10]
    w_out[0, 0, 0, 0] = dist_coef
    net.params[11][0] = base
    return net


def sample_qnet(kind: str, seed: int = 21) -> QNetwork:
    """A ``"move"`` (farthest legal region), ``"stay"`` or ``"random"`` Q-network."""
    if kind == "random":
        return QNetwork.create(np.random.default_rng(seed))
    return crafted_qnet(base=0.0, dist_coef={"move": 5.0, "stay": -5.0}[kind])


def interior_ctx():
    """Vehicle centered in a 15x15 region grid: every action is legal."""
    shape = (15, 15)
    return VehicleContext(
        demand=np.zeros(shape), supply=np.zeros((3,) + shape),
        idle=np.zeros(shape), region=(7, 7),
        clock=(0.0, 1.0, 0.0, 1.0),
    )


class TestTrainStep:
    def full_buffer(self, transition, n=64):
        buf = ReplayBuffer(capacity=10_000)
        for _ in range(n):
            buf.push(transition)
        return buf

    def test_underfull_buffer_is_signalled_noop(self):
        online = QNetwork.create(np.random.default_rng(0))
        target = online.copy()
        buf = ReplayBuffer(CFG.dqn_buffer)
        buf.push(Transition(interior_ctx(), STAY_CELL, 0.0, interior_ctx(), 0))
        assert train_step(online, target, buf, neural.RmsProp(lr=1e-4), 0.98,
                          np.random.default_rng(0), CFG.dqn_batch) is None

    def test_double_q_hand_target_value(self):
        # online argmax over the next state lands on the distance-max cell
        # (0, 0); the target net values that cell at 50 although its own
        # maximum (51, at the center) differs, proving the online net
        # selects and the target net evaluates
        online = crafted_qnet(base=0.0, dist_coef=10.0)
        target = crafted_qnet(base=51.0, dist_coef=-1.0)
        tr = Transition(interior_ctx(), STAY_CELL, 7.0, interior_ctx(), 2)
        buf = self.full_buffer(tr)
        opt = neural.RmsProp(lr=1e-12)
        loss, mean_max_q = train_step(online, target, buf, opt, 0.98,
                                      np.random.default_rng(0), CFG.dqn_batch)
        y = 7.0 + 0.98 ** 3 * 50.0
        # picked Q(phi, stay) = 0 for the crafted online net
        assert loss == pytest.approx(y ** 2, abs=1e-9)
        assert mean_max_q == pytest.approx(10.0)

    def test_tau_zero_reduces_to_single_step_discount(self):
        online = crafted_qnet(base=0.0, dist_coef=10.0)
        target = crafted_qnet(base=51.0, dist_coef=-1.0)
        tr = Transition(interior_ctx(), STAY_CELL, 7.0, interior_ctx(), 0)
        buf = self.full_buffer(tr)
        loss, _ = train_step(online, target, buf, neural.RmsProp(lr=1e-12), 0.98,
                             np.random.default_rng(0), CFG.dqn_batch)
        y = 7.0 + 0.98 * 50.0
        assert loss == pytest.approx(y ** 2, abs=1e-9)

    def test_zero_error_transitions_leave_parameters_unchanged(self):
        online = QNetwork.create(np.random.default_rng(1))
        for p in online.params:
            p[:] = 0.0
        target = online.copy()
        tr = Transition(interior_ctx(), STAY_CELL, 0.0, interior_ctx(), 0)
        buf = self.full_buffer(tr)
        before = [p.copy() for p in online.params]
        loss, _ = train_step(online, target, buf, neural.RmsProp(lr=1e-3), 0.98,
                             np.random.default_rng(0), CFG.dqn_batch)
        assert loss == 0.0
        for a, b in zip(before, online.params):
            np.testing.assert_array_equal(a, b)

    def test_gradient_reaches_only_taken_action(self):
        online = QNetwork.create(np.random.default_rng(3))
        target = online.copy()
        tr = Transition(interior_ctx(), (2, 11), 5.0, interior_ctx(), 1)
        buf = self.full_buffer(tr)
        main, aux = full_window_reference(tr.ctx)
        out, caches = neural.forward_cached(Q_SPEC, online.params, main[None], aux[None])
        d_probe = np.zeros_like(out)
        d_probe[0, 2, 11, 0] = 1.0
        grads = neural.backward_from_grad(Q_SPEC, online.params, caches, d_probe)
        # the output layer's weight gradient is the merge activation at the
        # taken cell only; a second probe elsewhere must differ
        assert any(np.abs(g).sum() > 0 for g in grads)

    def test_training_reduces_loss_on_fixed_target(self):
        rng = np.random.default_rng(4)
        online = QNetwork.create(rng)
        target = QNetwork.create(np.random.default_rng(5))
        ctxs = [make_ctx(region=(int(rng.integers(0, 10)), int(rng.integers(0, 10))),
                         rng=rng) for _ in range(80)]
        buf = ReplayBuffer(CFG.dqn_buffer)
        for i, ctx in enumerate(ctxs):
            nxt = ctxs[(i + 1) % len(ctxs)]
            legal = legal_action_mask(ctx.region, ctx.demand.shape)
            cells = np.argwhere(legal)
            cell = tuple(cells[int(rng.integers(len(cells)))])
            buf.push(Transition(ctx, cell, float(rng.uniform(-1, 9)), nxt,
                                int(rng.integers(0, 4))))
        opt = neural.RmsProp(lr=1e-3)
        first = None
        last = None
        for step in range(30):
            loss, _ = train_step(online, target, buf, opt, 0.98,
                                 np.random.default_rng(step), CFG.dqn_batch)
            if first is None:
                first = loss
            last = loss
        assert last < first


class TestTrainStepMatchesReference:
    """``train_step`` against the old full-map step in ``oracles``, step by step."""

    @staticmethod
    def random_buffer(rng, shape, n):
        ctxs = []
        for _ in range(n):
            region = (int(rng.integers(shape[0])), int(rng.integers(shape[1])))
            ctx = make_ctx(region=region, shape=shape, rng=rng,
                           minute=float(rng.uniform(0, 9000)))
            ctxs.append(ctx)
        buf = ReplayBuffer(capacity=n)
        for ctx in ctxs:
            cells = np.argwhere(legal_action_mask(ctx.region, shape))
            action = tuple(int(v) for v in cells[rng.integers(len(cells))])
            nxt = ctxs[int(rng.integers(n))]
            buf.push(Transition(ctx, action, float(rng.uniform(-5, 20)), nxt,
                                int(rng.integers(0, 20))))
        return buf

    @pytest.mark.parametrize("shape, batch, steps", [((10, 10), 16, 50), ((4, 7), 64, 6)])
    def test_loss_and_weights_bit_identical(self, shape, batch, steps):
        rng = np.random.default_rng(61)
        buf = self.random_buffer(rng, shape, 120)
        online = QNetwork.create(np.random.default_rng(62))
        target = QNetwork.create(np.random.default_rng(63))
        opt = neural.RmsProp(lr=1e-3)
        ref_online, ref_target, ref_opt = online.copy(), target.copy(), copy.deepcopy(opt)
        rng_a, rng_b = np.random.default_rng(64), np.random.default_rng(64)
        for step in range(1, steps + 1):
            loss, mean_max_q = train_step(online, target, buf, opt, 0.98, rng_a, batch)
            ref_loss, ref_max_q = train_step_reference(ref_online, ref_target, buf, ref_opt,
                                                       0.98, rng_b, batch)
            assert loss == ref_loss
            assert mean_max_q == pytest.approx(ref_max_q, rel=1e-12, abs=0.0)
            for a, b in zip(online.params, ref_online.params):
                assert a.tobytes() == b.tobytes()
            for a, b in zip(opt.state, ref_opt.state):
                assert a.tobytes() == b.tobytes()
            sync_target(online, target, step, 10)
            sync_target(ref_online, ref_target, step, 10)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state


class TestSyncTarget:
    def test_period_one_copies_every_step(self):
        online = QNetwork.create(np.random.default_rng(0))
        target = QNetwork.create(np.random.default_rng(1))
        assert sync_target(online, target, step=3, period=1)
        for a, b in zip(online.params, target.params):
            np.testing.assert_array_equal(a, b)

    def test_off_period_step_does_not_copy(self):
        online = QNetwork.create(np.random.default_rng(0))
        target = QNetwork.create(np.random.default_rng(1))
        assert not sync_target(online, target, step=150, period=100)

    def test_outputs_bit_identical_after_copy(self):
        online = QNetwork.create(np.random.default_rng(2))
        target = QNetwork.create(np.random.default_rng(3))
        sync_target(online, target, step=300, period=150)
        qin = build_feature_planes(whole_window_ctx())
        np.testing.assert_array_equal(online.q_map(qin), target.q_map(qin))


def test_action_offset_center_is_stay():
    assert action_offset(STAY_CELL) == (0, 0)
    assert action_offset((0, 0)) == (-7, -7)
    assert action_offset((14, 14)) == (7, 7)


class TestAuxPlanes:
    SHAPES = [(1, 1), (2, 3), (10, 10)]

    def test_per_context_builder_matches_reference(self):
        for shape in self.SHAPES:
            for r in range(shape[0]):
                for c in range(shape[1]):
                    ctx = make_ctx(region=(r, c), shape=shape, minute=611.0)
                    r0, r1, c0, c1 = _legal_rect((r, c), shape)
                    assert np.array_equal(build_feature_planes(ctx).aux,
                                          aux_planes_reference(ctx)[r0:r1, c0:c1])

    def test_dispatch_buffer_matches_reference_on_every_region(self):
        # DqnPolicy.dispatch copies each region's cached planes and writes
        # the clock into the copy: the cache keeps its clock planes zero
        for shape in self.SHAPES:
            regions = [(r, c) for r in range(shape[0]) for c in range(shape[1])]
            for minute, region in enumerate(regions + regions[::-1]):
                ctx = make_ctx(region=region, shape=shape, minute=2345.0 + 97 * minute)
                cached = _region_aux(region, shape)
                legal = cached[..., 10] == 1.0
                aux = cached.copy()
                aux[..., :4] = ctx.clock
                assert np.array_equal(aux, aux_planes_reference(ctx))
                assert not cached[..., :4].any()
                assert np.array_equal(legal, legal_action_mask(region, shape))

    def test_static_planes_are_read_only(self):
        aux = _region_aux((0, 0), (2, 3))
        with pytest.raises(ValueError):
            aux[0, 0] = 1
