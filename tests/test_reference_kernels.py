"""The input-gradient and PGD kernels against a reference of the plain
algorithm: a forward trace, the full reverse chain with per-layer weight
gradients, dx taken from that chain, and an ``np.clip`` projection.  The
kernels skip the weight gradients and work in place; every output byte must
still match.  The forward-mode tangent kernel is checked against the plain
chain-product Jacobian, within the rounding bound of a product of that
length."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from isogeo.network import Layer, MlpEncoderDecoder, input_gradient, stack_networks, tangents
from isogeo.objectives import pgd_attack
from isogeo.rng import RngState, normal


def _ref_softmax(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _ref_input_gradient(net, x, y, loss):
    x2 = np.atleast_2d(np.asarray(x, dtype=np.float64))
    trace = []
    h = x2
    for layer in net.encoder:
        a = h @ layer.weight.T + layer.bias
        h = np.tanh(a) if layer.activation == "tanh" else a
        trace.append(h)
    pred = trace[-1] @ net.decoder.weight.T + net.decoder.bias
    if loss == "mse":
        target = np.asarray(y, dtype=np.float64)
        target = target.reshape(1, 1) if target.ndim == 0 else target[:, None]
        grad_pred = 2.0 * (pred - target)
    else:
        grad_pred = _ref_softmax(pred).copy()
        grad_pred[np.arange(pred.shape[0]), np.asarray(y)] -= 1.0
    upstream = grad_pred @ net.decoder.weight
    dh = None
    for li in range(net.n_layers - 1, -1, -1):
        layer, z = net.encoder[li], trace[li]
        if dh is None:
            dh = np.zeros_like(z)
        if li == net.n_layers - 1:
            dh = dh + upstream
        deriv = 1.0 - z**2 if layer.activation == "tanh" else np.ones_like(z)
        da = dh * deriv
        prev = trace[li - 1] if li > 0 else x2
        _weight_grads = (da.T @ prev, da.sum(axis=0))
        dh = da @ layer.weight
    return dh if np.asarray(x).ndim == 2 else dh[0]


def _ref_pgd_attack(net, x, y, epsilon, steps, step_size, loss):
    delta = np.zeros_like(x)
    for _ in range(steps):
        g = _ref_input_gradient(net, x + delta, y, loss)
        delta = np.clip(delta + step_size * np.sign(g), -epsilon, epsilon)
    return delta


@st.composite
def cases(draw):
    """A net of 1-3 encoder layers mixing tanh and identity, a loss, and a
    1-D or 2-D input with matching targets.  Weight scales up to 30 reach
    saturated tanh units and one-hot softmax rows."""
    seed = draw(st.integers(0, 2**32 - 1))
    dims = draw(st.lists(st.integers(1, 6), min_size=2, max_size=4))
    acts = draw(st.lists(st.sampled_from(["tanh", "identity"]),
                         min_size=len(dims) - 1, max_size=len(dims) - 1))
    loss = draw(st.sampled_from(["mse", "cross-entropy"]))
    scale = draw(st.sampled_from([0.1, 1.0, 30.0]))
    rows = draw(st.sampled_from([None, 1, 2, 5]))  # None: one 1-D input row
    out_dim = 1 if loss == "mse" else draw(st.integers(2, 4))
    rng = RngState(seed)
    encoder = []
    for d_in, d_out, act in zip(dims[:-1], dims[1:], acts):
        w, rng = normal(rng, (d_out, d_in), scale)
        b, rng = normal(rng, d_out)
        encoder.append(Layer(w, b, act))
    w, rng = normal(rng, (out_dim, dims[-1]), scale)
    b, rng = normal(rng, out_dim)
    net = MlpEncoderDecoder(encoder, Layer(w, b, "identity"))
    n = 1 if rows is None else rows
    x, rng = normal(rng, (n, dims[0]), 2.0)
    if loss == "mse":
        y, rng = normal(rng, n)
    else:
        u, rng = normal(rng, n)
        y = (np.abs(u * 1000).astype(np.int64)) % out_dim
    if rows is None:
        x = x[0]
        y = float(y[0]) if loss == "mse" else y
    return net, x, y, loss


@settings(max_examples=300, deadline=None)
@given(cases())
def test_input_gradient_matches_reference_bytes(case):
    net, x, y, loss = case
    got = input_gradient(net, x, y, loss)
    ref = _ref_input_gradient(net, x, y, loss)
    assert got.shape == ref.shape == np.shape(x)
    assert got.tobytes() == ref.tobytes()


@settings(max_examples=150, deadline=None)
@given(cases(), st.sampled_from([0.01, 0.1, 0.3]), st.integers(1, 6),
       st.sampled_from([0.25, 0.5, 1.5]))
def test_pgd_attack_matches_reference_bytes(case, epsilon, steps, step_frac):
    net, x, y, loss = case
    got = pgd_attack(net, x, y, epsilon, steps, step_frac * epsilon, loss)
    ref = _ref_pgd_attack(net, x, y, epsilon, steps, step_frac * epsilon, loss)
    assert got.shape == ref.shape == np.shape(x)
    assert got.tobytes() == ref.tobytes()


def _ref_jacobians(net, x):
    """Per-row encoder Jacobians as the chain product
    diag(act'(a_L)) W_L ... diag(act'(a_1)) W_1, with the same product of
    absolute values, which bounds the rounding of any evaluation order."""
    h = np.atleast_2d(x)
    jac = mag = np.broadcast_to(np.eye(h.shape[1]), (h.shape[0], h.shape[1], h.shape[1]))
    for layer in net.encoder:
        a = h @ layer.weight.T + layer.bias
        h = np.tanh(a) if layer.activation == "tanh" else a
        deriv = 1.0 - h**2 if layer.activation == "tanh" else np.ones_like(h)
        jac = deriv[:, :, None] * (layer.weight @ jac)
        mag = np.abs(deriv)[:, :, None] * (np.abs(layer.weight) @ mag)
    return jac, mag


@st.composite
def tangent_cases(draw):
    """One net or a stack of 2-3 nets of 1-3 encoder layers (tanh/identity
    mixed, or all identity), a 1-D or 2-D input, and shared and per-row
    directions."""
    seed = draw(st.integers(0, 2**32 - 1))
    dims = draw(st.lists(st.integers(1, 6), min_size=2, max_size=4))
    n_layers = len(dims) - 1
    acts = draw(st.one_of(
        st.just(["identity"] * n_layers),
        st.lists(st.sampled_from(["tanh", "identity"]), min_size=n_layers, max_size=n_layers),
    ))
    scale = draw(st.sampled_from([0.1, 1.0, 30.0]))
    models = draw(st.sampled_from([None, 2, 3]))
    rows = draw(st.sampled_from([1, 2, 5] if models else [None, 1, 2, 5]))  # None: a 1-D row
    rng = RngState(seed)
    nets = []
    for _ in range(models or 1):
        encoder = []
        for d_in, d_out, act in zip(dims[:-1], dims[1:], acts):
            w, rng = normal(rng, (d_out, d_in), scale)
            b, rng = normal(rng, d_out)
            encoder.append(Layer(w, b, act))
        nets.append(MlpEncoderDecoder(encoder, Layer(np.ones((1, dims[-1])), np.zeros(1),
                                                     "identity")))
    x, rng = normal(rng, ((models or 1) * (rows or 1), dims[0]), 2.0)
    shared, rng = normal(rng, (draw(st.integers(1, 3)), dims[0]))
    per_row, rng = normal(rng, x.shape)
    if models:
        x, per_row = (a.reshape(models, rows, dims[0]) for a in (x, per_row))
    elif rows is None:
        x, per_row = x[0], per_row[0]
    return nets, x, [*shared, per_row]


@settings(max_examples=200, deadline=None)
@given(tangent_cases())
def test_tangents_match_chain_product_jacobian(case):
    nets, x, directions = case
    stacked = x.ndim == 3
    got = list(tangents(stack_networks(nets) if stacked else nets[0], x, directions))
    for k, net in enumerate(nets):
        jac, mag = _ref_jacobians(net, x[k] if stacked else x)
        for t, v in zip(got, directions):
            if stacked:
                t, v = t[k], v if v.ndim == 1 else v[k]
            v = np.broadcast_to(v, (jac.shape[0], jac.shape[2]))[:, :, None]
            exact, bound = (jac @ v)[..., 0], (mag @ np.abs(v))[..., 0]
            assert t.shape == exact.shape
            assert np.all(np.abs(t - exact) <= 1e-12 * bound)
