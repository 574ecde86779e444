import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isogeo.errors import ShapeError, ValidationError
from isogeo.network import (
    Layer,
    MlpEncoderDecoder,
    NetSpec,
    backward,
    forward_with_trace,
    init_network,
    input_gradient,
    load_params,
    save_params,
    stack_networks,
    tangents,
)
from isogeo.objectives import cross_entropy_loss, mse_loss
from isogeo.rng import RngState, normal


def small_net(seed=1, input_dim=6, hidden=(10,), rep_dim=5, out_dim=1, activation="tanh"):
    spec = NetSpec(input_dim, hidden, rep_dim, out_dim, activation)
    net, _ = init_network(spec, RngState(seed))
    return net


def linear_net(w, dec_w=None):
    rep = w.shape[0]
    dec = np.ones((1, rep)) if dec_w is None else dec_w
    return MlpEncoderDecoder(
        [Layer(w, np.zeros(rep), "identity")],
        Layer(dec, np.zeros(dec.shape[0]), "identity"),
    )


@pytest.mark.parametrize(
    "dims,name",
    [((0, (6,), 3, 1), "input_dim"), ((4, (6, 0), 3, 1), "hidden width"),
     ((4, (-2,), 3, 1), "hidden width"), ((4, (6,), 0, 1), "rep_dim"), ((4, (), 3, 0), "out_dim")],
)
def test_net_spec_rejects_a_width_below_one(dims, name):
    # A zero width would reach init_network's 1/sqrt(fan_in) as a division
    # by zero; the spec names the width instead.
    with pytest.raises(ValidationError, match=f"{name} must be >= 1"):
        NetSpec(*dims)


class TestForward:
    def test_zero_network(self):
        net = MlpEncoderDecoder(
            [Layer(np.zeros((4, 3)), np.zeros(4), "tanh")],
            Layer(np.zeros((1, 4)), np.zeros(1), "identity"),
        )
        x = np.ones((5, 3))
        pred, trace = forward_with_trace(net, x)
        assert np.all(pred == 0.0)
        assert np.all(trace[0] == 0.0)

    def test_identity_activation_is_linear(self):
        w, _ = normal(RngState(2), (4, 3))
        net = linear_net(w)
        x, _ = normal(RngState(3), (6, 3))
        _, trace = forward_with_trace(net, x)
        assert np.array_equal(trace[0], x @ w.T)

    def test_tanh_at_zero(self):
        net = small_net()
        pred, trace = forward_with_trace(net, np.zeros((1, 6)))
        # zero-bias layers would give exactly zero; here biases are nonzero,
        # so instead check tanh(0) = 0 with biases zeroed
        for layer in net.encoder:
            layer.bias[:] = 0.0
        net.decoder.bias[:] = 0.0
        pred, trace = forward_with_trace(net, np.zeros((1, 6)))
        assert np.allclose(trace[0], 0.0)

    def test_shape_mismatch(self):
        net = small_net()
        with pytest.raises(ShapeError):
            forward_with_trace(net, np.zeros((2, 7)))

    def test_forward_deterministic(self):
        net = small_net()
        x, _ = normal(RngState(4), (8, 6))
        p1, _ = forward_with_trace(net, x)
        p2, _ = forward_with_trace(net, x)
        assert np.array_equal(p1, p2)

    def test_dimension_composition_enforced(self):
        with pytest.raises(ShapeError):
            MlpEncoderDecoder(
                [
                    Layer(np.zeros((4, 3)), np.zeros(4), "tanh"),
                    Layer(np.zeros((2, 5)), np.zeros(2), "tanh"),
                ],
                Layer(np.zeros((1, 2)), np.zeros(1), "identity"),
            )


class TestBackward:
    def _fd_param_grad(self, net, x, y, loss_fn, layer_idx, idx, eps=1e-5, decoder=False):
        def loss_at(n):
            p, _ = forward_with_trace(n, x)
            return loss_fn(p, y)[0]

        np_ = net.copy()
        nm = net.copy()
        if decoder:
            np_.decoder.weight[idx] += eps
            nm.decoder.weight[idx] -= eps
        else:
            np_.encoder[layer_idx].weight[idx] += eps
            nm.encoder[layer_idx].weight[idx] -= eps
        return (loss_at(np_) - loss_at(nm)) / (2 * eps)

    def test_gradients_match_finite_differences_20_nets(self):
        # acceptance-grade: 10^-6 relative against central differences
        worst = 0.0
        for seed in range(20):
            net = small_net(seed=seed, hidden=(8,), rep_dim=4)
            x, r = normal(RngState(1000 + seed), (5, 6))
            y, _ = normal(r, 5)
            pred, trace = forward_with_trace(net, x)
            _, gp = mse_loss(pred, y)
            grads = backward(net, x, trace, gp)
            for li, layer in enumerate(net.encoder):
                o, i = layer.weight.shape
                for idx in [(0, 0), (o - 1, i - 1)]:
                    fd = self._fd_param_grad(net, x, y, mse_loss, li, idx)
                    an = grads.encoder[li][0][idx]
                    worst = max(worst, abs(an - fd) / max(abs(fd), 1e-8))
            fd = self._fd_param_grad(net, x, y, mse_loss, 0, (0, 1), decoder=True)
            worst = max(worst, abs(grads.decoder[0][0, 1] - fd) / max(abs(fd), 1e-8))
        assert worst < 1e-6

    def test_zero_upstream_zero_gradients(self):
        net = small_net()
        x, _ = normal(RngState(5), (4, 6))
        _, trace = forward_with_trace(net, x)
        grads = backward(net, x, trace, np.zeros((4, 1)))
        for dw, db in grads.encoder:
            assert np.all(dw == 0) and np.all(db == 0)
        assert np.all(grads.decoder[0] == 0)

    def test_linear_net_matches_least_squares_gradient(self):
        # f(x) = x @ w with identity encoder, w in the decoder: the mse batch
        # gradient on w is 2 X^T (X w - y) / n
        d = 5
        net = MlpEncoderDecoder(
            [Layer(np.eye(d), np.zeros(d), "identity")],
            Layer(np.zeros((1, d)), np.zeros(1), "identity"),
        )
        w0, r = normal(RngState(6), d)
        net.decoder.weight[0] = w0
        x, r = normal(r, (30, d))
        y, _ = normal(r, 30)
        pred, trace = forward_with_trace(net, x)
        _, gp = mse_loss(pred, y)
        grads = backward(net, x, trace, gp)
        closed_form = 2.0 * x.T @ (x @ w0 - y) / 30
        assert np.allclose(grads.decoder[0][0], closed_form, atol=1e-10)

    def test_missing_trace_rejected(self):
        net = small_net()
        x, _ = normal(RngState(7), (3, 6))
        with pytest.raises(ValidationError):
            backward(net, x, None, np.zeros((3, 1)))


def jacobian(net, x):
    """(n, rep, d) Jacobians from the kernel's columns J e_k."""
    return np.stack(list(tangents(net, x, np.eye(net.input_dim))), axis=-1)


class TestJacobians:
    def test_linear_stack_is_matrix_product(self):
        w1, r = normal(RngState(8), (4, 3))
        w2, _ = normal(r, (2, 4))
        net = MlpEncoderDecoder(
            [Layer(w1, np.zeros(4), "identity"), Layer(w2, np.zeros(2), "identity")],
            Layer(np.ones((1, 2)), np.zeros(1), "identity"),
        )
        j = jacobian(net, np.ones(3)[None])[0]
        assert np.allclose(j, w2 @ w1, atol=1e-14)

    def test_tanh_at_origin_is_weight_matrix(self):
        w, _ = normal(RngState(9), (4, 3))
        net = MlpEncoderDecoder(
            [Layer(w, np.zeros(4), "tanh")], Layer(np.ones((1, 4)), np.zeros(1), "identity")
        )
        j = jacobian(net, np.zeros(3)[None])[0]
        assert np.allclose(j, w, atol=1e-14)

    def test_matches_finite_differences(self):
        for seed in range(5):
            net = small_net(seed=40 + seed)
            x, _ = normal(RngState(50 + seed), 6)
            j = jacobian(net, x[None])[0]
            h = 1e-6
            from isogeo.network import encoder_forward

            for k in range(6):
                xp = x.copy()
                xp[k] += h
                xm = x.copy()
                xm[k] -= h
                col = (
                    encoder_forward(net, xp[None])[-1][0]
                    - encoder_forward(net, xm[None])[-1][0]
                ) / (2 * h)
                assert np.allclose(j[:, k], col, rtol=1e-6, atol=1e-9)

    def test_block_decomposition_identity(self):
        # ||J||_F^2 = ||J_s||_F^2 + ||J_n||_F^2 exactly for a column split
        net = small_net(seed=60, input_dim=8)
        x, _ = normal(RngState(61), 8)
        j = jacobian(net, x[None])[0]
        total = np.sum(j**2)
        left = np.sum(j[:, :4] ** 2)
        right = np.sum(j[:, 4:] ** 2)
        assert total == pytest.approx(left + right, rel=1e-15)

    def test_batch_jacobians_match_single(self):
        net = small_net(seed=62)
        x, _ = normal(RngState(63), (4, 6))
        batch = jacobian(net, x)
        for i in range(4):
            assert np.allclose(batch[i], jacobian(net, x[i][None])[0], atol=1e-14)


class TestTangents:
    def test_match_jacobian_stack_per_row_and_direction(self):
        # a shared direction v and a per-row direction both give J(x_i) v_i
        net = small_net(seed=64, hidden=(10, 7))
        x, r = normal(RngState(65), (16, 6))
        v, r = normal(r, (3, 6))
        per_row, _ = normal(r, (16, 6))
        jac = jacobian(net, x)
        got = list(tangents(net, x, [*v, per_row]))
        assert [t.shape for t in got] == [(16, 5)] * 4
        exact = [*np.moveaxis(jac @ v.T, -1, 0), (jac @ per_row[:, :, None])[..., 0]]
        for t, e in zip(got, exact):
            np.testing.assert_allclose(t, e, rtol=1e-12, atol=1e-15)

    def test_stack_slices_equal_each_net(self):
        nets = [small_net(seed=66 + k) for k in range(2)]
        x, r = normal(RngState(68), (2, 5, 6))
        per_row, _ = normal(r, (2, 5, 6))
        directions = [*np.eye(6), per_row]
        got = list(tangents(stack_networks(nets), x, directions))
        for k, net in enumerate(nets):
            dirs_k = [*np.eye(6), per_row[k]]
            for t, t_k in zip(got, tangents(net, x[k], dirs_k)):
                assert np.array_equal(t[k], t_k)

    def test_direction_width_must_match_input(self):
        with pytest.raises(ShapeError):
            next(tangents(small_net(), np.zeros((2, 6)), np.ones((1, 5))))
        with pytest.raises(ShapeError):
            next(tangents(small_net(), np.zeros((2, 6)), [np.ones((3, 6))]))


class TestInputGradient:
    def test_zero_weight_net(self):
        net = MlpEncoderDecoder(
            [Layer(np.zeros((4, 3)), np.zeros(4), "tanh")],
            Layer(np.zeros((1, 4)), np.zeros(1), "identity"),
        )
        g = input_gradient(net, np.ones((2, 3)), np.zeros(2), "mse")
        assert np.all(g == 0.0)

    def test_linear_model_hand_derivative(self):
        d = 4
        w, r = normal(RngState(70), d)
        net = MlpEncoderDecoder(
            [Layer(np.eye(d), np.zeros(d), "identity")],
            Layer(w[None, :], np.zeros(1), "identity"),
        )
        x, r = normal(r, (6, d))
        y, _ = normal(r, 6)
        g = input_gradient(net, x, y, "mse")
        expected = 2.0 * (x @ w - y)[:, None] * w[None, :]
        assert np.allclose(g, expected, atol=1e-12)

    def test_matches_finite_differences_random_nets(self):
        for seed in range(5):
            net = small_net(seed=80 + seed)
            x, r = normal(RngState(90 + seed), 6)
            y, _ = normal(r, 1)
            g = input_gradient(net, x, float(y[0]), "mse")
            h = 1e-6
            for k in range(6):
                xp = x.copy()
                xp[k] += h
                xm = x.copy()
                xm[k] -= h
                pp, _ = forward_with_trace(net, xp[None])
                pm, _ = forward_with_trace(net, xm[None])
                fd = ((pp[0, 0] - y[0]) ** 2 - (pm[0, 0] - y[0]) ** 2) / (2 * h)
                assert abs(g[k] - fd) < 1e-6 * max(1.0, abs(fd))

    def test_cross_entropy_gradient_matches_fd(self):
        net = small_net(seed=95, out_dim=3)
        x, _ = normal(RngState(96), 6)
        label = 1
        g = input_gradient(net, x, np.array([label]), "cross-entropy")
        h = 1e-6

        def ce(xv):
            p, _ = forward_with_trace(net, xv[None])
            z = p[0] - p[0].max()
            return -(z[label] - np.log(np.exp(z).sum()))

        for k in range(6):
            xp = x.copy()
            xp[k] += h
            xm = x.copy()
            xm[k] -= h
            fd = (ce(xp) - ce(xm)) / (2 * h)
            assert abs(g[k] - fd) < 1e-6 * max(1.0, abs(fd))


class TestSaveLoad:
    def test_roundtrip_bit_exact(self, tmp_path):
        net = small_net(seed=100, hidden=(7, 9), rep_dim=4)
        path = str(tmp_path / "net.bin")
        save_params(net, path)
        loaded = load_params(path)
        assert loaded.n_layers == net.n_layers
        for a, b in zip(net.parameters(), loaded.parameters()):
            assert np.array_equal(a.weight, b.weight)
            assert np.array_equal(a.bias, b.bias)
            assert a.activation == b.activation

    def test_magic_bytes(self, tmp_path):
        path = str(tmp_path / "net.bin")
        save_params(small_net(), path)
        with open(path, "rb") as f:
            assert f.read(7) == b"ISOGEO1"

    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "junk.bin")
        with open(path, "wb") as f:
            f.write(b"NOTMINE" + b"\x00" * 64)
        with pytest.raises(ValidationError):
            load_params(path)

    @settings(max_examples=25, deadline=None)
    @given(
        hidden=st.lists(st.integers(1, 4), max_size=2),
        rep_dim=st.integers(1, 3),
        out_dim=st.integers(1, 2),
    )
    def test_every_truncation_rejected(self, tmp_path_factory, hidden, rep_dim, out_dim):
        path = str(tmp_path_factory.mktemp("trunc") / "net.bin")
        save_params(small_net(input_dim=3, hidden=tuple(hidden), rep_dim=rep_dim,
                              out_dim=out_dim), path)
        with open(path, "rb") as f:
            blob = f.read()
        for n in range(len(blob)):
            with open(path, "wb") as f:
                f.write(blob[:n])
            with pytest.raises(ValidationError):
                load_params(path)

    def test_predictions_survive_roundtrip(self, tmp_path):
        net = small_net(seed=101)
        x, _ = normal(RngState(102), (10, 6))
        path = str(tmp_path / "net.bin")
        save_params(net, path)
        loaded = load_params(path)
        p1, _ = forward_with_trace(net, x)
        p2, _ = forward_with_trace(loaded, x)
        assert np.array_equal(p1, p2)
