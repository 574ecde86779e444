"""The input-gradient and PGD kernels against a reference of the plain
algorithm: a forward trace, the full reverse chain with per-layer weight
gradients, dx taken from that chain, and an ``np.clip`` projection.  The
kernels skip the weight gradients and work in place; every output byte must
still match."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from isogeo.network import Layer, MlpEncoderDecoder, input_gradient
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
