"""LSTM encoder, feedforward stacks, Adam, gradient checking, checkpoints."""

import math
import tracemalloc

import numpy as np
import pytest

from evpirank.neural import (
    AdamState,
    FeedForwardParams,
    LstmParams,
    adam_step,
    feedforward_backward,
    feedforward_forward,
    grad_check,
    load_checkpoint,
    lstm_backward,
    save_checkpoint,
    sigmoid,
    zeros_like_tensors,
)

from tests.oracles import per_gate_lstm_mean
from tests.synthetic import forward_rows


def zero_lstm(input_dim=1, hidden_dim=1):
    """All-zero LSTM; tests set its gate blocks through the per-gate views of tensors()."""
    rows = 4 * hidden_dim
    return LstmParams(np.zeros((rows, input_dim)), np.zeros((rows, hidden_dim)), np.zeros(rows))


def hand_lstm_step(params, x, h_prev, c_prev):
    """Independent scalar recurrence used as the oracle for 1-dim cases."""
    sig = lambda z: 1.0 / (1.0 + math.exp(-z))
    t = params.tensors()
    i = sig(t["W_i"][0, 0] * x + t["U_i"][0, 0] * h_prev + t["b_i"][0])
    f = sig(t["W_f"][0, 0] * x + t["U_f"][0, 0] * h_prev + t["b_f"][0])
    o = sig(t["W_o"][0, 0] * x + t["U_o"][0, 0] * h_prev + t["b_o"][0])
    g = math.tanh(t["W_g"][0, 0] * x + t["U_g"][0, 0] * h_prev + t["b_g"][0])
    c = f * c_prev + i * g
    h = o * math.tanh(c)
    return h, c


class TestEncodeSequence:
    def test_zero_params_give_zero_output(self):
        params = zero_lstm(input_dim=3, hidden_dim=4)
        out = forward_rows(params, np.ones((5, 3)), [5])[0]
        np.testing.assert_array_equal(out, np.zeros((1, 4)))

    def test_single_step_hand_recurrence(self):
        # Open the input and output gates (b_i = b_o = 50), W_g = 1, x = 0.5:
        # h = sigma(50) * tanh(sigma(50) * tanh(0.5)) ~= tanh(tanh(0.5)).
        params = zero_lstm()
        gates = params.tensors()
        gates["b_i"][0] = 50.0
        gates["b_o"][0] = 50.0
        gates["W_g"][0, 0] = 1.0
        got = forward_rows(params, [[0.5]], [1])[0][0, 0]
        s50 = 1.0 / (1.0 + math.exp(-50.0))
        expected = s50 * math.tanh(s50 * math.tanh(0.5))
        assert got == pytest.approx(expected, abs=1e-12)
        # the gate-saturated limit of the same recurrence
        assert got == pytest.approx(math.tanh(math.tanh(0.5)), abs=1e-3)
        assert got == pytest.approx(0.4318081805950961, abs=1e-9)

    def test_repeated_input_differs_from_single(self):
        params = zero_lstm()
        gates = params.tensors()
        gates["b_i"][0] = 50.0
        gates["b_o"][0] = 50.0
        gates["W_g"][0, 0] = 1.0
        once = forward_rows(params, [[0.5]], [1])[0][0, 0]
        twice = forward_rows(params, [[0.5], [0.5]], [2])[0][0, 0]
        h1, c1 = hand_lstm_step(params, 0.5, 0.0, 0.0)
        h2, c2 = hand_lstm_step(params, 0.5, h1, c1)
        assert once == pytest.approx(h1, abs=1e-12)
        assert twice == pytest.approx((h1 + h2) / 2.0, abs=1e-12)
        assert once != twice  # the cell state accumulates

    def test_multistep_matches_hand_recurrence(self):
        rng = np.random.default_rng(12)
        params = zero_lstm()
        gates = params.tensors()
        for name in ("W_i", "W_f", "W_o", "W_g", "U_i", "U_f", "U_o", "U_g"):
            gates[name][0, 0] = rng.normal()
        for name in ("b_i", "b_f", "b_o", "b_g"):
            gates[name][0] = rng.normal()
        xs = rng.normal(size=5)
        h = c = 0.0
        hs = []
        for x in xs:
            h, c = hand_lstm_step(params, float(x), h, c)
            hs.append(h)
        got = forward_rows(params, xs.reshape(-1, 1), [len(xs)])[0][0, 0]
        assert got == pytest.approx(sum(hs) / len(hs), abs=1e-12)

    def test_wide_lstm_matches_per_gate_oracle(self):
        # H > 1, so a gate block read from the wrong rows of W, U or b fails.
        rng = np.random.default_rng(15)
        for _ in range(5):
            params = LstmParams.init(5, 4, rng, scale=0.7)
            params.b[...] = rng.normal(size=16)
            xs = rng.normal(size=(int(rng.integers(1, 9)), 5))
            got = forward_rows(params, xs, [len(xs)])[0][0]
            expected = per_gate_lstm_mean(params.tensors(), xs)
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    def test_outputs_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            params = LstmParams.init(4, 6, rng, scale=2.0)
            xs = rng.normal(scale=3.0, size=(int(rng.integers(1, 8)), 4))
            out = forward_rows(params, xs, [len(xs)])[0]
            assert np.all(np.abs(out) < 1.0)

    def test_empty_sequence_encodes_to_zero(self):
        params = zero_lstm(input_dim=2, hidden_dim=3)
        out = forward_rows(params, np.zeros((0, 2)), [0])[0]
        np.testing.assert_array_equal(out, np.zeros((1, 3)))

    def test_dimension_mismatch_is_error(self):
        params = zero_lstm(input_dim=3, hidden_dim=2)
        with pytest.raises(ValueError):
            forward_rows(params, np.ones((4, 5)), [4])


class TestFeedForward:
    def test_zero_weights_output_final_bias(self):
        params = FeedForwardParams(
            weights=[np.zeros((3, 2)), np.zeros((2, 3))],
            biases=[np.zeros(3), np.array([0.7, -0.2])],
        )
        np.testing.assert_array_equal(feedforward_forward(params, np.array([5.0, -1.0]))[0], [0.7, -0.2])

    def test_identity_single_linear_layer(self):
        params = FeedForwardParams(weights=[np.eye(3)], biases=[np.zeros(3)])
        x = np.array([0.1, -2.0, 3.5])
        np.testing.assert_array_equal(feedforward_forward(params, x)[0], x)

    def test_two_layer_hand_example(self):
        # 2*tanh(0.5) + 1
        params = FeedForwardParams(
            weights=[np.array([[1.0]]), np.array([[2.0]])],
            biases=[np.array([0.0]), np.array([1.0])],
        )
        got = feedforward_forward(params, np.array([0.5]))[0][0]
        assert got == pytest.approx(2.0 * math.tanh(0.5) + 1.0, abs=1e-12)
        assert got == pytest.approx(1.92423431, abs=1e-5)

    def test_shape_mismatch_is_error(self):
        params = FeedForwardParams(weights=[np.eye(2)], biases=[np.zeros(2)])
        with pytest.raises(ValueError):
            feedforward_forward(params, np.ones(3))


class TestSigmoid:
    def test_zero_maps_to_half(self):
        assert sigmoid(0.0) == 0.5

    def test_saturation(self):
        # sigma(50) = 1 - 1.9e-22; in float64 it rounds to exactly 1.0
        assert 1.0 - sigmoid(50.0) < 1e-20

    def test_symmetry(self):
        rng = np.random.default_rng(14)
        x = rng.uniform(-30, 30, size=1000)
        np.testing.assert_allclose(sigmoid(-x), 1.0 - sigmoid(x), atol=1e-12)

    def test_monotone(self):
        x = np.linspace(-20, 20, 2001)
        assert np.all(np.diff(sigmoid(x)) > 0)


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        tensors = {"w": np.array([1.0, -2.0, 3.0])}
        grads = {"w": np.zeros(3)}
        state = AdamState.fresh(tensors)
        adam_step(tensors, grads, state, lr=0.1)
        np.testing.assert_array_equal(tensors["w"], [1.0, -2.0, 3.0])

    def test_first_step_is_signed_lr(self):
        # With fresh state, one step moves by exactly -lr * g / (|g| + eps).
        g = np.array([0.25, -3.0, 1e-3])
        tensors = {"w": np.zeros(3)}
        state = AdamState.fresh(tensors)
        lr = 0.01
        adam_step(tensors, {"w": g.copy()}, state, lr=lr)
        expected = -lr * g / (np.abs(g) + 1e-8)
        np.testing.assert_allclose(tensors["w"], expected, atol=1e-15)

    def test_tensors_updated_independently(self):
        tensors = {"a": np.zeros(2), "b": np.zeros(2)}
        state = AdamState.fresh(tensors)
        adam_step(tensors, {"a": np.array([1.0, 1.0]), "b": np.zeros(2)}, state, lr=0.5)
        assert np.all(tensors["a"] != 0.0)
        np.testing.assert_array_equal(tensors["b"], np.zeros(2))

    def test_shape_mismatch_is_error(self):
        tensors = {"w": np.zeros(3)}
        state = AdamState.fresh(tensors)
        with pytest.raises(ValueError):
            adam_step(tensors, {"w": np.zeros(4)}, state, lr=0.1)


class TestGradCheck:
    def test_quadratic_passes(self):
        params = {"x": np.array([3.0])}

        def loss_fn(p):
            return float(p["x"][0] ** 2), {"x": 2.0 * p["x"]}

        assert grad_check(loss_fn, params, n_probes=5) < 1e-7

    def test_corrupted_gradient_fails(self):
        params = {"x": np.array([3.0])}

        def loss_fn(p):
            return float(p["x"][0] ** 2), {"x": 4.0 * p["x"]}  # doubled on purpose

        err = grad_check(loss_fn, params, n_probes=5)
        assert err == pytest.approx(1.0 / 3.0, abs=1e-3)

    def test_non_finite_loss_is_error(self):
        params = {"x": np.array([1.0])}

        def loss_fn(p):
            return float("nan"), {"x": np.zeros(1)}

        with pytest.raises(ValueError):
            grad_check(loss_fn, params, n_probes=1)

    def test_lstm_backward_against_finite_differences(self):
        rng = np.random.default_rng(20)
        for draw in range(10):
            params = LstmParams.init(3, 4, rng, scale=0.5)
            xs = rng.normal(size=(4, 3))
            direction = rng.normal(size=(1, 4))

            def loss_fn(_):  # grad_check perturbs params through its tensors() views
                means, cache = forward_rows(params, xs, [4])
                return float(np.sum(direction * means)), lstm_backward(params, cache, direction)

            assert grad_check(loss_fn, params.tensors(), n_probes=10, rng=rng) < 1e-4

    def test_feedforward_backward_against_finite_differences(self):
        rng = np.random.default_rng(21)
        for depth in (5, 10):
            params = FeedForwardParams.init([4] + [5] * depth + [2], rng)
            x = rng.normal(size=4)
            direction = rng.normal(size=2)

            def loss_fn(_):  # grad_check perturbs params through its tensors() views
                out, acts = feedforward_forward(params, x)
                return float(direction @ out), feedforward_backward(params, acts, direction)[0]

            assert grad_check(loss_fn, params.tensors(), n_probes=10, rng=rng) < 1e-4


class TestCheckpoints:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(30)
        tensors = {
            "lstm/W_i": rng.normal(size=(4, 3)),
            "ff/b0": rng.normal(size=7),
            "scalar": np.array(rng.normal()),
        }
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, tensors)
        loaded = load_checkpoint(path)
        assert list(loaded) == list(tensors)
        for name in tensors:
            assert loaded[name].shape == tensors[name].shape
            assert np.array_equal(loaded[name], tensors[name])
        again = tmp_path / "again.ckpt"
        save_checkpoint(again, loaded)
        assert path.read_bytes() == again.read_bytes()

    def test_header_validated(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"EVPIRANK-XXX v9\n0\ndata\n")
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_truncated_file_is_error(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"w": np.ones((2, 2))})
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_bytes_and_bad_manifest_are_errors(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"w": np.ones((2, 2))})
        blob = path.read_bytes()
        path.write_bytes(blob + b"\0" * 8)
        with pytest.raises(ValueError, match="trailing bytes"):
            load_checkpoint(path)
        path.write_bytes(blob.replace(b"w 2 2 2", b"w 3 2 2"))
        with pytest.raises(ValueError, match="malformed checkpoint manifest"):
            load_checkpoint(path)
        path.write_bytes(blob.replace(b"\ndata\n", b"\nDATA\n"))
        with pytest.raises(ValueError, match="no data section"):
            load_checkpoint(path)

    def test_each_tensor_is_one_owned_copy(self, tmp_path):
        # 4 MB of tensors: the load holds the file's bytes and one copy of
        # each tensor, with no slice of the data section or of a tensor.
        rng = np.random.default_rng(31)
        tensors = {f"t{k}/W": rng.normal(size=(250, 250)) for k in range(8)}
        path = tmp_path / "big.ckpt"
        save_checkpoint(path, tensors)
        size = path.stat().st_size
        tracemalloc.start()
        try:
            loaded = load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(arr.flags.owndata and arr.flags.writeable for arr in loaded.values())
        assert peak < 2.1 * size, (peak, size)
        assert all(np.array_equal(loaded[name], tensors[name]) for name in tensors)

    def test_whitespace_in_name_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_checkpoint(tmp_path / "x.ckpt", {"bad name": np.ones(1)})


class TestInit:
    def test_forget_gate_bias_is_one(self):
        rng = np.random.default_rng(31)
        gates = LstmParams.init(3, 5, rng).tensors()
        np.testing.assert_array_equal(gates["b_f"], np.ones(5))
        for name in ("b_i", "b_o", "b_g"):
            np.testing.assert_array_equal(gates[name], np.zeros(5))

    def test_lstm_weights_within_uniform_bound(self):
        rng = np.random.default_rng(32)
        params = LstmParams.init(3, 5, rng)
        for name, tensor in params.tensors().items():
            if not name.startswith("b_"):
                assert np.all(np.abs(tensor) <= 0.08)

    def test_init_draws_match_per_gate_order(self):
        # One (4H x D) draw equals the four (H x D) per-gate draws W_i, W_f,
        # W_o, W_g, then the same for U, so a seed gives the same initial
        # weights as it did when each gate was its own tensor.
        params = LstmParams.init(3, 5, np.random.default_rng(33), scale=0.2)
        rng = np.random.default_rng(33)
        gates = params.tensors()
        for kind, cols in (("W", 3), ("U", 5)):
            for gate in "ifog":
                expected = rng.uniform(-0.2, 0.2, size=(5, cols))
                np.testing.assert_array_equal(gates[f"{kind}_{gate}"], expected)

    def test_per_gate_tensors_are_views_of_the_stacked_weights(self):
        rng = np.random.default_rng(34)
        params = LstmParams.init(3, 4, rng, scale=0.5)
        tensors = params.tensors()
        assert list(tensors) == [f"{kind}_{gate}" for kind in "WUb" for gate in "ifog"]
        for name, tensor in tensors.items():
            assert np.shares_memory(tensor, getattr(params, name[0]))
        xs = rng.normal(size=(4, 3))
        before = forward_rows(params, xs, [4])[0]
        stacked_before = [params.W.copy(), params.U.copy(), params.b.copy()]
        grads = {name: np.ones_like(tensor) for name, tensor in tensors.items()}
        adam_step(tensors, grads, AdamState.fresh(tensors), lr=0.1)
        # a first Adam step with unit gradients moves every weight by -lr
        for after, start in zip((params.W, params.U, params.b), stacked_before):
            np.testing.assert_allclose(after, start - 0.1, atol=1e-8)
        assert not np.allclose(forward_rows(params, xs, [4])[0], before)

    def test_zeros_like_tensors(self):
        tensors = {"a": np.ones((2, 2))}
        zeros = zeros_like_tensors(tensors)
        np.testing.assert_array_equal(zeros["a"], np.zeros((2, 2)))
