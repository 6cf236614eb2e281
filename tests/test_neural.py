import numpy as np
import pytest

from fleetsim.neural import (
    Concat,
    Conv2D,
    Dense,
    RmsProp,
    backward_from_grad,
    forward,
    forward_cached,
    init_params,
    load_model,
    save_model,
    walk_param_layers,
)
from fleetsim.neural import _im2col, _same_pad
from oracles import avg_pool, crop_pad_center


def numerical_gradients(spec, params, x, target, aux=None, h=1e-4):
    """Central finite differences of the summed squared error, per parameter."""

    def loss():
        y = forward(spec, params, x, aux)  # x, aux and target are batches
        return float(((y - target) ** 2).sum())

    grads = []
    for p in params:
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + h
            up = loss()
            p[idx] = orig - h
            down = loss()
            p[idx] = orig
            g[idx] = (up - down) / (2 * h)
            it.iternext()
        grads.append(g)
    return grads


def max_rel_error(analytic, numeric):
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
        worst = max(worst, float((np.abs(a - n) / denom).max()))
    return worst


class TestForward:
    def test_identity_dense(self):
        spec = (Dense(3, 3, "linear"),)
        params = [np.eye(3), np.zeros(3)]
        x = np.array([[0.5, -1.0, 2.0]])
        np.testing.assert_array_equal(forward(spec, params, x), x)

    def test_one_by_one_conv_doubles_constant(self):
        spec = (Conv2D(1, 1, 1, 1, "linear"),)
        params = [np.full((1, 1, 1, 1), 2.0), np.zeros(1)]
        plane = np.full((1, 4, 4, 1), 3.0)
        out = forward(spec, params, plane)
        np.testing.assert_allclose(out, 6.0)

    def test_rectifier_clamps(self):
        spec = (Dense(3, 3, "relu"),)
        params = [np.eye(3), np.zeros(3)]
        out = forward(spec, params, np.array([[-1.0, 0.0, 3.0]]))
        np.testing.assert_array_equal(out, [[0.0, 0.0, 3.0]])

    def test_valid_conv_shrinks_by_kernel_minus_one(self):
        rng = np.random.default_rng(0)
        for kh, kw in [(1, 1), (3, 3), (5, 3), (2, 4)]:
            spec = (Conv2D(2, 3, kh, kw, "relu", "valid"),)
            params = init_params(spec, rng)
            out = forward(spec, params, rng.normal(size=(1, 9, 9, 2)))
            assert out.shape == (1, 9 - kh + 1, 9 - kw + 1, 3)

    def test_same_conv_preserves_dims(self):
        rng = np.random.default_rng(1)
        spec = (Conv2D(2, 3, 5, 5, "relu", "same"),)
        params = init_params(spec, rng)
        out = forward(spec, params, rng.normal(size=(1, 8, 8, 2)))
        assert out.shape == (1, 8, 8, 3)

    def test_forward_is_pure(self):
        rng = np.random.default_rng(2)
        spec = (Conv2D(2, 4, 3, 3), Conv2D(4, 2, 1, 1, "linear"))
        params = init_params(spec, rng)
        x = rng.normal(size=(1, 6, 6, 2))
        a = forward(spec, params, x)
        b = forward(spec, params, x)
        np.testing.assert_array_equal(a, b)

    def test_shape_mismatch_raises(self):
        spec = (Dense(3, 2),)
        params = init_params(spec, np.random.default_rng(0))
        with pytest.raises(ValueError):
            forward(spec, params, np.zeros((1, 4)))

    @pytest.mark.parametrize("spec, x", [
        ((Dense(3, 2),), np.zeros(3)),
        ((Conv2D(2, 1, 1, 1),), np.zeros((4, 4, 2))),
        ((Conv2D(2, 1, 3, 3, "relu", "same"),), np.zeros((4, 4, 2))),
    ], ids=["vector", "planes", "planes-same"])
    def test_unbatched_input_raises(self, spec, x):
        params = init_params(spec, np.random.default_rng(0))
        with pytest.raises(ValueError, match="expected \\(batch, "):
            forward(spec, params, x)

    def test_batched_matches_loop(self):
        rng = np.random.default_rng(5)
        spec = (Conv2D(2, 4, 3, 3), Conv2D(4, 1, 1, 1, "linear"))
        params = init_params(spec, rng)
        xs = rng.normal(size=(6, 7, 7, 2))
        batch_out = forward(spec, params, xs)
        for i in range(6):
            np.testing.assert_allclose(batch_out[i], forward(spec, params, xs[i:i + 1])[0],
                                       rtol=0, atol=1e-12)

    def test_im2col_equals_loop_reference(self):
        rng = np.random.default_rng(6)
        for b, h, w, c, kh, kw in [(1, 23, 23, 15, 5, 5), (3, 9, 7, 2, 3, 3),
                                   (2, 6, 8, 4, 2, 4), (1, 5, 5, 3, 5, 5),
                                   (2, 4, 4, 3, 1, 1)]:
            x = rng.normal(size=(b, h, w, c))
            cols, oh, ow = _im2col(x, kh, kw)
            ref = np.empty((b, h - kh + 1, w - kw + 1, kh * kw * c))
            for n in range(b):
                for i in range(h - kh + 1):
                    for j in range(w - kw + 1):
                        ref[n, i, j] = x[n, i:i + kh, j:j + kw, :].ravel()
            assert (oh, ow) == (h - kh + 1, w - kw + 1)
            np.testing.assert_array_equal(cols, ref.reshape(-1, kh * kw * c))

    def test_same_pad_equals_np_pad(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            b, h, w, c = rng.integers(1, [6, 12, 12, 5])
            kh, kw = rng.choice([1, 2, 3, 4, 5, 7], size=2)
            x = rng.normal(size=(b, h, w, c))
            top, left = (kh - 1) // 2, (kw - 1) // 2
            ref = np.pad(x, ((0, 0), (top, kh - 1 - top), (left, kw - 1 - left), (0, 0)))
            out = _same_pad(x, kh, kw)
            assert out.dtype == ref.dtype and out.flags.c_contiguous
            assert out.tobytes() == ref.tobytes() and out.shape == ref.shape


class TestBackward:
    def test_hand_chain_rule_single_linear_unit(self):
        # y = w*x with x=1, w=2, target=0 and loss (y-t)^2: dL/dw = 2*2*1 = 4
        spec = (Dense(1, 1, "linear"),)
        params = [np.array([[2.0]]), np.array([0.0])]
        out, caches = forward_cached(spec, params, np.array([[1.0]]))
        grads = backward_from_grad(spec, params, caches, 2.0 * (out - np.array([[0.0]])))
        assert grads[0][0, 0] == pytest.approx(4.0)
        assert grads[1][0] == pytest.approx(4.0)

    def test_zero_error_means_zero_gradients(self):
        rng = np.random.default_rng(3)
        spec = (Dense(4, 2, "linear"),)
        params = init_params(spec, rng)
        x = rng.normal(size=(1, 4))
        target = forward(spec, params, x)
        out, caches = forward_cached(spec, params, x)
        grads = backward_from_grad(spec, params, caches, 2.0 * (out - target))
        for g in grads:
            np.testing.assert_allclose(g, 0.0, atol=1e-12)

    @pytest.mark.parametrize("spec", [
        (Dense(5, 4, "relu"), Dense(4, 2, "linear")),
        (Dense(6, 3, "linear"),),
        (Conv2D(2, 3, 3, 3, "relu"), Conv2D(3, 1, 1, 1, "linear")),
        (Conv2D(2, 2, 3, 3, "relu", "same"), Conv2D(2, 1, 1, 1, "linear")),
        (Conv2D(1, 2, 2, 4, "relu"), Conv2D(2, 1, 1, 1, "linear")),
    ], ids=["mlp", "linear", "conv-valid", "conv-same", "conv-rect"])
    def test_gradient_check_layer_types(self, spec):
        rng = np.random.default_rng(12)
        params = init_params(spec, rng)
        if isinstance(spec[0], Conv2D):
            x = rng.uniform(0.2, 1.0, size=(1, 7, 7, spec[0].in_planes))
        else:
            x = rng.uniform(0.2, 1.0, size=(1, spec[0].n_in))
        probe = forward(spec, params, x)
        target = probe + rng.uniform(0.3, 1.0, size=probe.shape)
        out, caches = forward_cached(spec, params, x)
        analytic = backward_from_grad(spec, params, caches, 2.0 * (out - target))
        numeric = numerical_gradients(spec, params, x, target)
        assert max_rel_error(analytic, numeric) < 1e-4

    def test_gradient_check_two_branch_concat(self):
        rng = np.random.default_rng(21)
        spec = (
            Conv2D(3, 4, 5, 5, "relu"),
            Conv2D(4, 4, 3, 3, "relu"),
            Concat(branch=(Conv2D(2, 3, 1, 1, "relu"),)),
            Conv2D(7, 5, 1, 1, "relu"),
            Conv2D(5, 1, 1, 1, "linear"),
        )
        params = init_params(spec, rng)
        x = rng.uniform(0.2, 1.0, size=(1, 9, 9, 3))
        aux = rng.uniform(0.2, 1.0, size=(1, 3, 3, 2))
        probe = forward(spec, params, x, aux)
        target = probe + rng.uniform(0.3, 1.0, size=probe.shape)
        out, caches = forward_cached(spec, params, x, aux)
        analytic = backward_from_grad(spec, params, caches, 2.0 * (out - target))
        numeric = numerical_gradients(spec, params, x, target, aux=aux)
        assert max_rel_error(analytic, numeric) < 1e-4

    def test_param_order_covers_branch(self):
        spec = (
            Conv2D(3, 4, 3, 3),
            Concat(branch=(Conv2D(2, 3, 1, 1),)),
            Conv2D(7, 1, 1, 1, "linear"),
        )
        layers = walk_param_layers(spec)
        assert len(layers) == 3
        params = init_params(spec, np.random.default_rng(0))
        assert len(params) == 6


class TestRmsProp:
    def test_zero_gradient_is_noop(self):
        p = np.array([1.0, -2.0])
        opt = RmsProp(lr=0.01, rho=0.9)
        opt.step([p], [np.zeros(2)])
        np.testing.assert_array_equal(p, [1.0, -2.0])
        np.testing.assert_array_equal(opt.state[0], np.zeros(2))

    def test_first_step_hand_value(self):
        # s = 0.1*1 = 0.1; dp = -0.01/sqrt(0.1 + 1e-8)
        p = np.zeros(1)
        opt = RmsProp(lr=0.01, rho=0.9, eps=1e-8)
        opt.step([p], [np.ones(1)])
        assert p[0] == pytest.approx(-0.0316227, abs=1e-6)
        assert opt.state[0][0] == pytest.approx(0.1)

    def test_eps_sits_inside_the_square_root(self):
        # s = 0.1; dp = -0.01/sqrt(0.1 + 1) = -0.0095346, where
        # -0.01/(sqrt(0.1) + 1) would give -0.0075975
        p = np.zeros(1)
        opt = RmsProp(lr=0.01, rho=0.9, eps=1.0)
        opt.step([p], [np.ones(1)])
        assert p[0] == pytest.approx(-0.01 / np.sqrt(1.1), rel=1e-12)
        assert opt.state[0][0] == pytest.approx(0.1)

    def test_repeated_gradient_step_size_approaches_lr(self):
        p = np.zeros(1)
        opt = RmsProp(lr=0.01, rho=0.9)
        g = np.full(1, 3.0)
        lr = 0.01
        for _ in range(400):
            prev = p.copy()
            opt.step([p], [g])
        assert abs(prev[0] - p[0]) == pytest.approx(lr, rel=1e-3)

    def test_state_stays_nonnegative_and_step_bounded(self):
        rng = np.random.default_rng(6)
        opt = RmsProp(lr=0.01, rho=0.9, eps=1e-8)
        params = [rng.normal(size=(3, 3))]
        bound = 0.01 / np.sqrt(1e-8)
        for _ in range(50):
            before = params[0].copy()
            opt.step(params, [rng.normal(size=(3, 3))])
            assert (opt.state[0] >= 0).all()
            assert (np.abs(params[0] - before) <= bound + 1e-12).all()

    def test_bad_hyperparameters(self):
        with pytest.raises(ValueError):
            RmsProp(lr=-1.0)


class TestPooling:
    def brute_force_pool(self, x, k):
        h, w = x.shape
        lo = -((k - 1) // 2)
        out = np.zeros_like(x, dtype=float)
        for i in range(h):
            for j in range(w):
                acc = 0.0
                for di in range(lo, lo + k):
                    for dj in range(lo, lo + k):
                        if 0 <= i + di < h and 0 <= j + dj < w:
                            acc += x[i + di, j + dj]
                out[i, j] = acc / (k * k)
        return out

    def test_two_by_two_hand_mean(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = avg_pool(x, 2)
        assert out[0, 0] == pytest.approx(2.5)

    def test_interior_of_constant_plane(self):
        x = np.full((9, 9), 4.0)
        out = avg_pool(x, 3)
        np.testing.assert_allclose(out[1:-1, 1:-1], 4.0)

    def test_all_zero(self):
        np.testing.assert_array_equal(avg_pool(np.zeros((6, 6)), 5), np.zeros((6, 6)))

    @pytest.mark.parametrize("k", [2, 3, 5, 6])
    def test_matches_brute_force(self, k):
        rng = np.random.default_rng(k)
        x = rng.normal(size=(8, 7))
        np.testing.assert_allclose(avg_pool(x, k), self.brute_force_pool(x, k),
                                   atol=1e-12)

    def test_kernel_larger_than_plane(self):
        with pytest.raises(ValueError):
            avg_pool(np.zeros((3, 3)), 4)


class TestCropPadCenter:
    def test_pure_crop_in_interior(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(9, 9))
        out = crop_pad_center(x, (4, 4), 3, 3)
        np.testing.assert_array_equal(out, x[3:6, 3:6])

    def test_corner_center_pads_three_quadrants(self):
        x = np.ones((5, 5))
        out = crop_pad_center(x, (0, 0), 5, 5)
        assert out[2, 2] == 1.0
        assert out[:2].sum() == 0.0
        assert out[:, :2].sum() == 0.0
        assert out[2:, 2:].sum() == 9.0

    def test_center_lands_in_middle(self):
        x = np.arange(49.0).reshape(7, 7)
        out = crop_pad_center(x, (2, 5), 5, 5)
        assert out[2, 2] == x[2, 5]

    def test_embed_then_crop_round_trip(self):
        rng = np.random.default_rng(9)
        window = rng.normal(size=(5, 5))
        big = np.zeros((21, 21))
        big[8:13, 6:11] = window
        out = crop_pad_center(big, (10, 8), 5, 5)
        np.testing.assert_array_equal(out, window)

    def test_even_output_rejected(self):
        with pytest.raises(ValueError):
            crop_pad_center(np.zeros((5, 5)), (2, 2), 4, 5)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(33)
        spec = (
            Conv2D(3, 4, 3, 3, "relu"),
            Concat(branch=(Conv2D(2, 2, 1, 1, "relu"),)),
            Conv2D(6, 1, 1, 1, "linear"),
        )
        params = init_params(spec, rng)
        path = tmp_path / "model.json"
        save_model(path, spec, params, extra={"note": "x"})
        params2, extra = load_model(path, spec)
        for a, b in zip(params, params2):
            assert a.tobytes() == b.tobytes() and a.shape == b.shape
        assert extra == {"note": "x"}
        save_model(path, spec, params)
        assert load_model(path, spec)[1] is None

    def test_format_version_checked(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError):
            load_model(path, (Dense(2, 1, "linear"),))

    @pytest.mark.parametrize("saved", ["eta", "demand", "qnet"])
    @pytest.mark.parametrize("loaded", ["eta", "demand", "qnet"])
    def test_each_loader_rejects_another_models_checkpoint(self, tmp_path, saved, loaded):
        from fleetsim.demand import DEMAND_SPEC, DemandModel
        from fleetsim.dqn import QNetwork
        from fleetsim.eta import ETA_SPEC, EtaModel

        rng = np.random.default_rng(7)
        path = tmp_path / f"{saved}.json"
        if saved == "eta":
            EtaModel(init_params(ETA_SPEC, rng), np.zeros(9), np.ones(9)).save(path)
        elif saved == "demand":
            DemandModel(init_params(DEMAND_SPEC, rng)).save(path)
        else:
            QNetwork.create(rng).save(path)
        load = {"eta": EtaModel.load, "demand": DemandModel.load,
                "qnet": QNetwork.load}[loaded]
        if saved == loaded:
            load(path)
        else:
            with pytest.raises(ValueError, match="other layers"):
                load(path)
