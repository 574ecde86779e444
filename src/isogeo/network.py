"""Small fully connected encoder with a linear decoder head.

Layer convention: activations are row batches, a layer computes
``act(h @ W.T + b)`` with ``W`` of shape (out_dim, in_dim).  Activations are
restricted to tanh and identity; tanh is smooth with bounded second
derivative, which the curvature-remainder checks rely on.  The decoder is a
single linear layer so its Lipschitz constant is exactly its spectral norm.

The analytic Jacobian of the encoder at x is the per-layer chain product
``diag(act'(a_L)) W_L ... diag(act'(a_1)) W_1``; gradients use the exact
reverse-mode chain rule for the same graph.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, ValidationError
from .linalg import as_matrix, as_vector
from .rng import RngState, uniform

ACTIVATIONS = ("identity", "tanh")
_ACT_TAG = {"identity": 0, "tanh": 1}
_TAG_ACT = {v: k for k, v in _ACT_TAG.items()}

_MAGIC = b"ISOGEO1"


@dataclass
class Layer:
    weight: np.ndarray  # (out_dim, in_dim)
    bias: np.ndarray  # (out_dim,)
    activation: str

    def __post_init__(self):
        self.weight = as_matrix(self.weight, "weight")
        self.bias = as_vector(self.bias, "bias")
        if self.bias.shape[0] != self.weight.shape[0]:
            raise ShapeError("bias length must equal weight rows")
        if self.activation not in ACTIVATIONS:
            raise ValidationError(f"unknown activation {self.activation!r}")

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]


@dataclass(frozen=True)
class NetSpec:
    """Architecture description; encoder dims are input -> hidden... -> rep."""

    input_dim: int
    hidden: tuple = ()
    rep_dim: int = 8
    out_dim: int = 1
    activation: str = "tanh"

    def encoder_dims(self) -> list[int]:
        return [self.input_dim, *self.hidden, self.rep_dim]


class MlpEncoderDecoder:
    """Encoder layer stack plus a single linear decoder layer."""

    def __init__(self, encoder: list[Layer], decoder: Layer):
        if not encoder:
            raise ValidationError("encoder must have at least one layer")
        if decoder.activation != "identity":
            raise ValidationError("decoder activation must be identity")
        for a, b in zip(encoder[:-1], encoder[1:]):
            if a.out_dim != b.in_dim:
                raise ShapeError(
                    f"encoder layer dims do not compose: {a.out_dim} -> {b.in_dim}"
                )
        if decoder.in_dim != encoder[-1].out_dim:
            raise ShapeError("decoder input dim must equal final encoder output dim")
        self.encoder = encoder
        self.decoder = decoder

    @property
    def n_layers(self) -> int:
        return len(self.encoder)

    @property
    def input_dim(self) -> int:
        return self.encoder[0].in_dim

    @property
    def rep_dim(self) -> int:
        return self.encoder[-1].out_dim

    @property
    def out_dim(self) -> int:
        return self.decoder.out_dim

    def copy(self) -> "MlpEncoderDecoder":
        enc = [Layer(l.weight.copy(), l.bias.copy(), l.activation) for l in self.encoder]
        dec = Layer(self.decoder.weight.copy(), self.decoder.bias.copy(), "identity")
        return MlpEncoderDecoder(enc, dec)

    def parameters(self):
        """All (weight, bias) pairs, encoder layers then decoder."""
        for layer in self.encoder:
            yield layer
        yield self.decoder


def init_network(spec: NetSpec, rng: RngState) -> tuple[MlpEncoderDecoder, RngState]:
    """Per-layer uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)]."""
    dims = spec.encoder_dims()
    encoder = []
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        bound = 1.0 / np.sqrt(d_in)
        u, rng = uniform(rng, (d_out, d_in + 1))
        w = (2.0 * u - 1.0) * bound
        encoder.append(Layer(w[:, :d_in], w[:, d_in], spec.activation))
    bound = 1.0 / np.sqrt(spec.rep_dim)
    u, rng = uniform(rng, (spec.out_dim, spec.rep_dim + 1))
    w = (2.0 * u - 1.0) * bound
    decoder = Layer(w[:, : spec.rep_dim], w[:, spec.rep_dim], "identity")
    return MlpEncoderDecoder(encoder, decoder), rng


def _act_deriv_from_output(z: np.ndarray, activation: str) -> np.ndarray:
    # tanh'(a) = 1 - tanh(a)^2, recoverable from the post-activation value
    return 1.0 - z**2 if activation == "tanh" else np.ones_like(z)


def _as_input(net: MlpEncoderDecoder, x) -> np.ndarray:
    h = as_matrix(np.atleast_2d(x), "x")
    if h.shape[1] != net.input_dim:
        raise ShapeError(f"x has {h.shape[1]} columns, expected {net.input_dim}")
    return h


def _encoder_trace(net: MlpEncoderDecoder, h: np.ndarray) -> list[np.ndarray]:
    trace = []
    for layer in net.encoder:
        h = h @ layer.weight.T
        h += layer.bias
        if layer.activation == "tanh":
            np.tanh(h, out=h)
        trace.append(h)
    return trace


def encoder_forward(net: MlpEncoderDecoder, x) -> list[np.ndarray]:
    """Post-activation trace of every encoder layer for a row batch."""
    return _encoder_trace(net, _as_input(net, x))


def forward_with_trace(net: MlpEncoderDecoder, x) -> tuple[np.ndarray, list[np.ndarray]]:
    """Prediction and the full per-layer activation trace."""
    trace = encoder_forward(net, x)
    pred = trace[-1] @ net.decoder.weight.T + net.decoder.bias
    return pred, trace


@dataclass
class ParamGrads:
    """Gradients mirroring the network structure."""

    encoder: list  # list of (dW, db)
    decoder: tuple  # (dW, db)

    def scaled(self, c: float) -> "ParamGrads":
        return ParamGrads(
            [(c * dw, c * db) for dw, db in self.encoder],
            (c * self.decoder[0], c * self.decoder[1]),
        )

    def add_(self, other: "ParamGrads") -> "ParamGrads":
        for (dw, db), (ow, ob) in zip(self.encoder, other.encoder):
            dw += ow
            db += ob
        self.decoder[0][...] += other.decoder[0]
        self.decoder[1][...] += other.decoder[1]
        return self


def _encoder_backward_chain(
    net: MlpEncoderDecoder,
    x: np.ndarray,
    trace: list[np.ndarray],
    upstream_per_layer: list,
) -> tuple[list, np.ndarray]:
    """Reverse pass through the encoder with gradient injection at each layer.

    upstream_per_layer[l] is dLoss/d(trace[l]) or None.  Returns encoder
    (dW, db) pairs and dLoss/dx.
    """
    grads = [None] * len(net.encoder)
    dh = None
    for li in range(len(net.encoder) - 1, -1, -1):
        layer = net.encoder[li]
        up = upstream_per_layer[li]
        if dh is None:
            dh = np.zeros_like(trace[li])
        if up is not None:
            dh = dh + up
        da = dh * _act_deriv_from_output(trace[li], layer.activation)
        prev = trace[li - 1] if li > 0 else x
        grads[li] = (da.T @ prev, da.sum(axis=0))
        dh = da @ layer.weight
    return grads, dh


def backward(
    net: MlpEncoderDecoder,
    x,
    trace: list[np.ndarray],
    grad_pred: np.ndarray,
) -> ParamGrads:
    """Exact chain-rule gradients for every weight and bias.

    ``grad_pred`` is dLoss/dPrediction with the same shape as the forward
    prediction; a trace from the matching forward pass is required.
    """
    x = as_matrix(np.atleast_2d(x), "x")
    if trace is None or len(trace) != net.n_layers:
        raise ValidationError("backward requires the forward trace for x")
    if trace[0].shape[0] != x.shape[0]:
        raise ShapeError("trace batch size does not match x")
    grad_pred = np.atleast_2d(np.asarray(grad_pred, dtype=np.float64))
    if grad_pred.shape != (x.shape[0], net.out_dim):
        raise ShapeError(
            f"grad_pred shape {grad_pred.shape} != {(x.shape[0], net.out_dim)}"
        )
    dec_dw = grad_pred.T @ trace[-1]
    dec_db = grad_pred.sum(axis=0)
    d_rep = grad_pred @ net.decoder.weight
    upstream = [None] * net.n_layers
    upstream[-1] = d_rep
    enc_grads, _ = _encoder_backward_chain(net, x, trace, upstream)
    return ParamGrads(enc_grads, (dec_dw, dec_db))


def encoder_backward(
    net: MlpEncoderDecoder,
    x,
    trace: list[np.ndarray],
    upstream_per_layer: list,
) -> ParamGrads:
    """Encoder-only gradients with per-layer upstream injection (decoder
    gradients are zero).  Used by representation-matching penalties that
    read intermediate layers."""
    x = as_matrix(np.atleast_2d(x), "x")
    enc_grads, _ = _encoder_backward_chain(net, x, trace, upstream_per_layer)
    return ParamGrads(
        enc_grads, (np.zeros_like(net.decoder.weight), np.zeros_like(net.decoder.bias))
    )


def softmax(logits: np.ndarray) -> np.ndarray:
    e = logits - logits.max(axis=1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    return e


def _per_sample_pred_grad(pred: np.ndarray, y, loss: str) -> np.ndarray:
    """d(per-sample loss)/d(prediction); rows are independent samples."""
    if loss == "mse":
        target = np.asarray(y, dtype=np.float64)
        if target.ndim == 0:
            target = target.reshape(1, 1)
        elif target.ndim == 1:
            target = target[:, None]
        if target.shape != pred.shape:
            raise ShapeError(f"y shape {target.shape} incompatible with prediction {pred.shape}")
        return 2.0 * (pred - target)
    if loss == "cross-entropy":
        labels = np.asarray(y)
        grad = softmax(pred)
        grad[np.arange(pred.shape[0]), labels] -= 1.0
        return grad
    raise ValidationError(f"unknown loss tag {loss!r}; expected 'mse' or 'cross-entropy'")


def input_gradient(net: MlpEncoderDecoder, x, y, loss: str = "mse") -> np.ndarray:
    """Per-row gradient of the per-sample loss with respect to the input.

    For mse the per-sample loss is the squared error (no batch averaging),
    so a linear model f(x) = <w, x> yields exactly 2 (f(x) - y) w per row.
    ``x`` is validated once; the reverse pass carries dLoss/dh only and
    computes no weight gradients.
    """
    x = np.asarray(x, dtype=np.float64)
    trace = _encoder_trace(net, _as_input(net, x))
    pred = trace[-1] @ net.decoder.weight.T
    pred += net.decoder.bias
    dh = _per_sample_pred_grad(pred, y, loss) @ net.decoder.weight
    for layer, z in zip(reversed(net.encoder), reversed(trace)):
        if layer.activation == "tanh":
            # tanh'(a) = 1 - z^2; the trace is private, so z is overwritten
            np.square(z, out=z)
            np.subtract(1.0, z, out=z)
            z *= dh
            dh = z
        dh = dh @ layer.weight
    return dh if x.ndim == 2 else dh[0]


def encoder_jacobian(net: MlpEncoderDecoder, x) -> np.ndarray:
    """Exact analytic Jacobian of the encoder at a single input row."""
    x1 = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x1.shape[0] != 1:
        raise ShapeError("encoder_jacobian expects a single input row")
    return batch_encoder_jacobians(net, x1)[0]


def batch_encoder_jacobians(net: MlpEncoderDecoder, x) -> np.ndarray:
    """Analytic encoder Jacobians for every row: shape (n, rep_dim, d_in)."""
    x = as_matrix(np.atleast_2d(x), "x")
    trace = encoder_forward(net, x)
    jac = None
    for layer, z in zip(net.encoder, trace):
        deriv = _act_deriv_from_output(z, layer.activation)  # (n, out)
        if jac is None:
            jac = deriv[:, :, None] * layer.weight[None, :, :]
        else:
            jac = deriv[:, :, None] * np.einsum("oi,nid->nod", layer.weight, jac)
    return jac


def sgd_step(net: MlpEncoderDecoder, grads: ParamGrads, lr: float) -> None:
    for layer, (dw, db) in zip(net.encoder, grads.encoder):
        layer.weight -= lr * dw
        layer.bias -= lr * db
    net.decoder.weight -= lr * grads.decoder[0]
    net.decoder.bias -= lr * grads.decoder[1]


# ---------------------------------------------------------------------------
# Flat binary parameter format
# ---------------------------------------------------------------------------
# Layout (all integers little-endian):
#   magic           7 bytes  b"ISOGEO1"
#   encoder count   uint32
#   per encoder layer: in_dim uint32, out_dim uint32, activation tag uint8
#   decoder:           in_dim uint32, out_dim uint32, activation tag uint8
#   raw float64 data in declaration order: for each encoder layer W (row
#   major) then bias; then decoder W, decoder bias.


def save_params(net: MlpEncoderDecoder, path: str) -> None:
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<I", net.n_layers))
        for layer in net.encoder:
            f.write(struct.pack("<IIB", layer.in_dim, layer.out_dim, _ACT_TAG[layer.activation]))
        f.write(
            struct.pack("<IIB", net.decoder.in_dim, net.decoder.out_dim, _ACT_TAG["identity"])
        )
        for layer in [*net.encoder, net.decoder]:
            f.write(np.ascontiguousarray(layer.weight, dtype="<f8").tobytes())
            f.write(np.ascontiguousarray(layer.bias, dtype="<f8").tobytes())


def load_params(path: str) -> MlpEncoderDecoder:
    """Inverse of save_params.  A truncated or damaged file raises
    ValidationError; sizes are checked before any read, so a corrupt header
    cannot ask for a huge buffer."""
    with open(path, "rb") as f:
        magic = f.read(len(_MAGIC))
        if magic != _MAGIC:
            raise ValidationError(f"bad magic bytes {magic!r}; not a parameter file")
        blob = f.read()
    pos = 0

    def take(n: int) -> bytes:
        nonlocal pos
        if n > len(blob) - pos:
            raise ValidationError(f"parameter file truncated: {path}")
        pos += n
        return blob[pos - n : pos]

    (n_layers,) = struct.unpack("<I", take(4))
    headers = []
    for _ in range(n_layers + 1):
        in_dim, out_dim, tag = struct.unpack("<IIB", take(9))
        if tag not in _TAG_ACT:
            raise ValidationError(f"unknown activation tag {tag}")
        headers.append((in_dim, out_dim, _TAG_ACT[tag]))
    layers = []
    for in_dim, out_dim, act in headers:
        w = np.frombuffer(take(8 * in_dim * out_dim), dtype="<f8").reshape(out_dim, in_dim)
        b = np.frombuffer(take(8 * out_dim), dtype="<f8")
        layers.append(Layer(w.copy(), b.copy(), act))
    if pos != len(blob):
        raise ValidationError("trailing bytes after parameter data")
    return MlpEncoderDecoder(layers[:-1], layers[-1])
