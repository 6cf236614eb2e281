import numpy as np
import pytest
from oracles import crop_pad_center, q_main_planes_51

from fleetsim import neural
from fleetsim.dqn import (
    ACTION_RADIUS,
    ACTION_SIZE,
    Q_SPEC,
    QInput,
    QNetwork,
    ReplayBuffer,
    Schedules,
    STAY_CELL,
    Transition,
    VehicleContext,
    action_offset,
    assemble_batch,
    build_feature_planes,
    legal_action_mask,
    masked_q,
    reward_dqn,
    select_action,
    sync_target,
    train_step,
)


def make_ctx(region=(5, 5), shape=(10, 10), rng=None, minute=0.0):
    rng = rng or np.random.default_rng(0)
    from fleetsim.clock import Clock, periodic_features

    sd, cd, sh, ch = periodic_features(Clock(minute))
    return VehicleContext(
        demand=rng.uniform(0, 3, size=shape),
        supply=rng.uniform(0, 2, size=(3,) + shape),
        idle=rng.uniform(0, 2, size=shape),
        region=region,
        sin_dow=sd, cos_dow=cd, sin_hour=sh, cos_hour=ch,
    )


class TestFeaturePlanes:
    def test_plane_counts_and_shapes(self):
        qin = build_feature_planes(make_ctx())
        assert qin.main.shape == (23, 23, 15)
        assert qin.aux.shape == (15, 15, 11)

    def test_corner_vehicle_masks_off_grid_moves(self):
        qin = build_feature_planes(make_ctx(region=(0, 0)))
        legal = qin.aux[..., 10]
        # moves north or west of the corner are illegal
        assert legal[ACTION_RADIUS - 1, ACTION_RADIUS] == 0.0
        assert legal[ACTION_RADIUS, ACTION_RADIUS - 1] == 0.0
        assert legal[ACTION_RADIUS, ACTION_RADIUS] == 1.0
        assert legal[ACTION_RADIUS + 1, ACTION_RADIUS + 1] == 1.0

    def test_move_coordinate_center_is_own_position(self):
        ctx = make_ctx(region=(3, 7), shape=(10, 10))
        qin = build_feature_planes(ctx)
        assert qin.aux[ACTION_RADIUS, ACTION_RADIUS, 7] == pytest.approx(3 / 9)
        assert qin.aux[ACTION_RADIUS, ACTION_RADIUS, 8] == pytest.approx(7 / 9)
        np.testing.assert_allclose(qin.aux[..., 5], 3 / 9)
        np.testing.assert_allclose(qin.aux[..., 6], 7 / 9)

    def test_position_plane_one_hot_center(self):
        qin = build_feature_planes(make_ctx())
        pos = qin.aux[..., 4]
        assert pos[ACTION_RADIUS, ACTION_RADIUS] == 1.0
        assert pos.sum() == 1.0

    def test_distance_plane_normalized(self):
        qin = build_feature_planes(make_ctx())
        d = qin.aux[..., 9]
        assert d[ACTION_RADIUS, ACTION_RADIUS] == 0.0
        assert d[0, 0] == pytest.approx(1.0)
        assert d[0, ACTION_RADIUS] == pytest.approx(7 / (7 * np.sqrt(2)))

    def test_pooled_plane_matches_brute_force_window_mean(self):
        rng = np.random.default_rng(1)
        ctx = make_ctx(region=(4, 6), rng=rng)
        qin = build_feature_planes(ctx)
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
                np.testing.assert_array_equal(
                    build_feature_planes(ctx).main,
                    q_main_planes_51(ctx.demand, ctx.supply, ctx.idle, ctx.region))

    @pytest.mark.parametrize("shape", [(1, 1), (2, 3), (7, 12), (26, 26)])
    def test_main_planes_equal_51_window_reference_on_grid_shapes(self, shape):
        rng = np.random.default_rng(13)
        for _ in range(12):
            region = (int(rng.integers(shape[0])), int(rng.integers(shape[1])))
            ctx = make_ctx(region=region, shape=shape, rng=rng,
                           minute=float(rng.uniform(0, 9000)))
            np.testing.assert_array_equal(
                build_feature_planes(ctx).main,
                q_main_planes_51(ctx.demand, ctx.supply, ctx.idle, ctx.region))
        for region in [(0, 0), (shape[0] - 1, shape[1] - 1)]:
            ctx = make_ctx(region=region, shape=shape, rng=rng)
            np.testing.assert_array_equal(
                build_feature_planes(ctx).main,
                q_main_planes_51(ctx.demand, ctx.supply, ctx.idle, ctx.region))

    def test_wide_grid_30_pool_covers_the_whole_window(self):
        # on a grid wider than 26 regions the 30-cell window at crop offset
        # +11 reaches region offset +26, and that row and column count
        rng = np.random.default_rng(14)
        ctx = make_ctx(region=(3, 4), shape=(40, 33), rng=rng)
        qin = build_feature_planes(ctx)
        for out_r, out_c in [(22, 22), (0, 0), (11, 11), (22, 5)]:
            r, c = 3 + out_r - 11, 4 + out_c - 11
            rows = slice(max(0, r - 14), r + 16)
            cols = slice(max(0, c - 14), c + 16)
            expect = ctx.demand[rows, cols].sum() / 900
            assert qin.main[out_r, out_c, 10] == pytest.approx(expect, abs=1e-12)

    def test_demand_crop_is_vehicle_centered(self):
        ctx = make_ctx(region=(2, 9))
        qin = build_feature_planes(ctx)
        assert qin.main[11, 11, 0] == ctx.demand[2, 9]

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            QInput(np.zeros((23, 23, 14)), np.zeros((15, 15, 11)))


class TestQNetwork:
    def test_zero_weight_network_outputs_zero_map(self):
        net = QNetwork.create(np.random.default_rng(0))
        for p in net.net.params:
            p[:] = 0.0
        qmap = net.q_map(build_feature_planes(make_ctx()))
        np.testing.assert_array_equal(qmap, np.zeros((15, 15)))

    def test_map_equals_engine_forward(self):
        net = QNetwork.create(np.random.default_rng(1))
        qin = build_feature_planes(make_ctx())
        direct = neural.forward(Q_SPEC, net.net.params, qin.main, aux=qin.aux)
        np.testing.assert_array_equal(net.q_map(qin), direct[..., 0])

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
            qin = build_feature_planes(make_ctx(region=region, shape=shape, rng=rng))
            legal = legal_action_mask(region, shape)
            windowed = net.q_map(qin, legal)
            full = masked_q(net.q_map(qin), legal)
            assert np.isneginf(windowed[~legal]).all()
            np.testing.assert_allclose(windowed[legal], full[legal], rtol=0, atol=1e-12)
            assert np.argmax(windowed) == np.argmax(full)

    def test_batch_maps_match_one_forward_call(self):
        # 21 full inputs: two full chunks and a short one; and a
        # batch of receptive-field crops, which goes in one call
        rng = np.random.default_rng(4)
        net = QNetwork.create(rng)
        mains, auxs = assemble_batch([make_ctx(rng=rng, minute=float(m)) for m in range(21)])
        whole = neural.forward(Q_SPEC, net.net.params, mains, aux=auxs)[..., 0]
        batch = net.q_map_batch(mains, auxs)
        assert batch.shape == (21, ACTION_SIZE, ACTION_SIZE)
        np.testing.assert_allclose(batch, whole, rtol=0, atol=1e-12)
        crops, crop_auxs = mains[:, 3:12, 4:13], auxs[:, 3:4, 4:5]
        np.testing.assert_array_equal(
            net.q_map_batch(crops, crop_auxs),
            neural.forward(Q_SPEC, net.net.params, crops, aux=crop_auxs)[..., 0])

    def test_legal_window_without_legal_cell_raises(self):
        net = QNetwork.create(np.random.default_rng(0))
        with pytest.raises(ValueError):
            net.q_map(build_feature_planes(make_ctx()), np.zeros((15, 15), dtype=bool))

    def test_checkpoint_round_trip(self, tmp_path):
        net = QNetwork.create(np.random.default_rng(2))
        net.save(tmp_path / "q.json", extra={"step": 7})
        back, _, extra = QNetwork.load(tmp_path / "q.json")
        for a, b in zip(net.net.params, back.net.params):
            np.testing.assert_array_equal(a, b)
        assert extra == {"step": 7}


class TestSelectAction:
    def test_greedy_takes_argmax(self):
        qmap = np.full((15, 15), -1.0)
        qmap[3, 9] = 2.0
        assert select_action(qmap, 0.0, np.random.default_rng(0)) == (3, 9)

    def test_greedy_tie_breaks_lowest_row_major(self):
        qmap = np.zeros((15, 15))
        assert select_action(qmap, 0.0, np.random.default_rng(0)) == (0, 0)

    def test_single_legal_cell_wins_at_any_epsilon(self):
        qmap = np.full((15, 15), -np.inf)
        qmap[8, 2] = -3.0
        for eps in (0.0, 0.5, 1.0):
            assert select_action(qmap, eps, np.random.default_rng(1)) == (8, 2)

    def test_never_selects_illegal(self):
        rng = np.random.default_rng(2)
        legal = legal_action_mask((0, 0), (10, 10))
        for _ in range(200):
            qmap = masked_q(rng.normal(size=(15, 15)), legal)
            cell = select_action(qmap, float(rng.random()), rng)
            assert legal[cell]

    def test_uniform_exploration_frequencies(self):
        legal = legal_action_mask((5, 5), (10, 10))
        qmap = masked_q(np.zeros((15, 15)), legal)
        rng = np.random.default_rng(3)
        counts = np.zeros((15, 15))
        draws = 10_000
        for _ in range(draws):
            counts[select_action(qmap, 1.0, rng)] += 1
        n_legal = int(legal.sum())
        expected = draws / n_legal
        chi2 = float(((counts[legal] - expected) ** 2 / expected).sum())
        # dof = n_legal - 1 = 99; a healthy uniform sampler sits near 99
        assert chi2 < 160.0
        assert counts[~legal].sum() == 0

    def test_no_legal_cell_raises(self):
        with pytest.raises(ValueError):
            select_action(np.full((15, 15), -np.inf), 0.5, np.random.default_rng(0))


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
        s = Schedules()
        assert s.epsilon(0) == pytest.approx(1.0)
        assert s.epsilon(2500) == pytest.approx(0.525)
        assert s.epsilon(5000) == pytest.approx(0.05)
        assert s.epsilon(20_000) == pytest.approx(0.05)

    def test_alpha_schedule_endpoints_and_midpoint(self):
        s = Schedules()
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
    for p in net.net.params:
        p[:] = 0.0
    # params order: conv1 w/b, conv2 w/b, conv3 w/b, branch w/b, merge w/b, out w/b
    w_branch = net.net.params[6]
    w_branch[0, 0, 0, 9] = 1.0          # branch channel 0 <- distance plane
    w_merge = net.net.params[8]
    w_merge[0, 0, 0, 64] = 1.0          # merge channel 0 <- branch channel 0
    w_out = net.net.params[10]
    w_out[0, 0, 0, 0] = dist_coef
    net.net.params[11][0] = base
    return net


def interior_ctx():
    """Vehicle centered in a 15x15 region grid: every action is legal."""
    shape = (15, 15)
    return VehicleContext(
        demand=np.zeros(shape), supply=np.zeros((3,) + shape),
        idle=np.zeros(shape), region=(7, 7),
        sin_dow=0.0, cos_dow=1.0, sin_hour=0.0, cos_hour=1.0,
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
        buf = ReplayBuffer()
        buf.push(Transition(interior_ctx(), STAY_CELL, 0.0, interior_ctx(), 0))
        assert train_step(online, target, buf, neural.RmsProp(), 0.98,
                          np.random.default_rng(0)) is None

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
                                      np.random.default_rng(0))
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
                             np.random.default_rng(0))
        y = 7.0 + 0.98 * 50.0
        assert loss == pytest.approx(y ** 2, abs=1e-9)

    def test_zero_error_transitions_leave_parameters_unchanged(self):
        online = QNetwork.create(np.random.default_rng(1))
        for p in online.net.params:
            p[:] = 0.0
        target = online.copy()
        tr = Transition(interior_ctx(), STAY_CELL, 0.0, interior_ctx(), 0)
        buf = self.full_buffer(tr)
        before = [p.copy() for p in online.net.params]
        loss, _ = train_step(online, target, buf, neural.RmsProp(lr=1e-3), 0.98,
                             np.random.default_rng(0))
        assert loss == 0.0
        for a, b in zip(before, online.net.params):
            np.testing.assert_array_equal(a, b)

    def test_gradient_reaches_only_taken_action(self):
        online = QNetwork.create(np.random.default_rng(3))
        target = online.copy()
        tr = Transition(interior_ctx(), (2, 11), 5.0, interior_ctx(), 1)
        buf = self.full_buffer(tr)
        mains, auxs = assemble_batch([tr.ctx])
        out, caches = neural.forward_cached(Q_SPEC, online.net.params, mains, auxs)
        d_probe = np.zeros_like(out)
        d_probe[0, 2, 11, 0] = 1.0
        grads = neural.backward_from_grad(Q_SPEC, online.net.params, caches, d_probe)
        # the output layer's weight gradient is the merge activation at the
        # taken cell only; a second probe elsewhere must differ
        assert any(np.abs(g).sum() > 0 for g in grads)

    def test_training_reduces_loss_on_fixed_target(self):
        rng = np.random.default_rng(4)
        online = QNetwork.create(rng)
        target = QNetwork.create(np.random.default_rng(5))
        ctxs = [make_ctx(region=(int(rng.integers(0, 10)), int(rng.integers(0, 10))),
                         rng=rng) for _ in range(80)]
        buf = ReplayBuffer()
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
                                 np.random.default_rng(step))
            if first is None:
                first = loss
            last = loss
        assert last < first


class TestSyncTarget:
    def test_period_one_copies_every_step(self):
        online = QNetwork.create(np.random.default_rng(0))
        target = QNetwork.create(np.random.default_rng(1))
        assert sync_target(online, target, step=3, period=1)
        for a, b in zip(online.net.params, target.net.params):
            np.testing.assert_array_equal(a, b)

    def test_off_period_step_does_not_copy(self):
        online = QNetwork.create(np.random.default_rng(0))
        target = QNetwork.create(np.random.default_rng(1))
        assert not sync_target(online, target, step=150, period=100)

    def test_outputs_bit_identical_after_copy(self):
        online = QNetwork.create(np.random.default_rng(2))
        target = QNetwork.create(np.random.default_rng(3))
        sync_target(online, target, step=300, period=150)
        qin = build_feature_planes(make_ctx())
        np.testing.assert_array_equal(online.q_map(qin), target.q_map(qin))


def test_action_offset_center_is_stay():
    assert action_offset(STAY_CELL) == (0, 0)
    assert action_offset((0, 0)) == (-7, -7)
    assert action_offset((14, 14)) == (7, 7)


def test_assemble_batch_matches_per_context_builder():
    rng = np.random.default_rng(11)
    ctxs = [make_ctx(region=(int(rng.integers(0, 10)), int(rng.integers(0, 10))),
                     rng=rng, minute=float(rng.uniform(0, 9000))) for _ in range(7)]
    mains, auxs = assemble_batch(ctxs)
    for i, ctx in enumerate(ctxs):
        qin = build_feature_planes(ctx)
        np.testing.assert_allclose(mains[i], qin.main, atol=1e-12)
        np.testing.assert_array_equal(auxs[i], qin.aux)
