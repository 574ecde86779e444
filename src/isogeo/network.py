"""Small fully connected encoder with a linear decoder head.

Layer convention: activations are row batches, a layer computes
``act(h @ W.T + b)`` with ``W`` of shape (out_dim, in_dim).  Activations are
restricted to tanh and identity; tanh is smooth with bounded second
derivative, which the curvature-remainder checks rely on.  The decoder is a
single linear layer so its Lipschitz constant is exactly its spectral norm.

The analytic Jacobian of the encoder at x is the per-layer chain product
``diag(act'(a_L)) W_L ... diag(act'(a_1)) W_1``; :func:`tangents` applies it
to input directions in forward mode, and gradients use the exact
reverse-mode chain rule for the same graph.

A stack of K networks of one shape (:func:`stack_networks`) carries a leading
model axis on every weight and bias and takes row batches of shape
(K, n, d_in).  The forward and reverse kernels serve both forms through the
same code, with negative axes and broadcasting; no reduction crosses the
model axis, so every slice of a stack computes what its network computes
alone, bit for bit.
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
    weight: np.ndarray  # (out_dim, in_dim); (K, out_dim, in_dim) in a stack
    bias: np.ndarray  # (out_dim,); (K, out_dim) in a stack
    activation: str

    def __post_init__(self):
        stacked = np.ndim(self.weight) == 3
        self.weight = as_matrix(self.weight, "weight", stacked)
        self.bias = as_vector(self.bias, "bias", stacked)
        if self.bias.shape != self.weight.shape[:-1]:
            raise ShapeError("bias length must equal weight rows")
        if self.activation not in ACTIVATIONS:
            raise ValidationError(f"unknown activation {self.activation!r}")

    @property
    def in_dim(self) -> int:
        return self.weight.shape[-1]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[-2]


@dataclass(frozen=True)
class NetSpec:
    """Architecture description; encoder dims are input -> hidden... -> rep."""

    input_dim: int
    hidden: tuple = ()
    rep_dim: int = 8
    out_dim: int = 1
    activation: str = "tanh"

    def __post_init__(self):
        widths = [("input_dim", self.input_dim), *(("hidden width", h) for h in self.hidden),
                  ("rep_dim", self.rep_dim), ("out_dim", self.out_dim)]
        for name, width in widths:
            if width < 1:
                raise ValidationError(f"{name} must be >= 1, got {width}")

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
        if len({layer.weight.shape[:-2] for layer in [*encoder, decoder]}) != 1:
            raise ShapeError("every layer of a stack must hold the same number of models")
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

    @property
    def models(self) -> tuple:
        """() for one network, (K,) for a stack of K."""
        return self.decoder.weight.shape[:-2]

    def copy(self) -> "MlpEncoderDecoder":
        enc = [Layer(l.weight.copy(), l.bias.copy(), l.activation) for l in self.encoder]
        dec = Layer(self.decoder.weight.copy(), self.decoder.bias.copy(), "identity")
        return MlpEncoderDecoder(enc, dec)

    def parameters(self):
        """All (weight, bias) pairs, encoder layers then decoder."""
        for layer in self.encoder:
            yield layer
        yield self.decoder


def stack_networks(nets: list) -> MlpEncoderDecoder:
    """Networks of one shape as one stack: every weight and bias gains a
    leading model axis whose slice k holds nets[k]'s values."""
    if len({tuple((l.weight.shape, l.activation) for l in n.parameters()) for n in nets}) != 1:
        raise ShapeError("a stack needs at least one network, all of one shape")
    layers = [
        Layer(np.stack([l.weight for l in group]), np.stack([l.bias for l in group]),
              group[0].activation)
        for group in zip(*[list(n.parameters()) for n in nets])
    ]
    return MlpEncoderDecoder(layers[:-1], layers[-1])


def init_network(spec: NetSpec, rng: RngState) -> tuple[MlpEncoderDecoder, RngState]:
    """Per-layer uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)]."""
    dims = [*spec.encoder_dims(), spec.out_dim]
    layers = []
    for i, (d_in, d_out) in enumerate(zip(dims[:-1], dims[1:])):
        bound = 1.0 / np.sqrt(d_in)
        u, rng = uniform(rng, (d_out, d_in + 1))
        w = (2.0 * u - 1.0) * bound
        activation = spec.activation if i < len(dims) - 2 else "identity"  # the decoder
        layers.append(Layer(w[:, :d_in], w[:, d_in], activation))
    return MlpEncoderDecoder(layers[:-1], layers[-1]), rng


def _act_deriv_from_output(z: np.ndarray, activation: str) -> np.ndarray:
    # tanh'(a) = 1 - tanh(a)^2, recoverable from the post-activation value
    return 1.0 - z**2 if activation == "tanh" else np.ones_like(z)


def _as_input(net: MlpEncoderDecoder, x) -> np.ndarray:
    """x as a finite float64 row batch: (n, d_in), or (K, n, d_in) for a
    stack of K networks."""
    models = net.models
    h = as_matrix(np.atleast_2d(x), "x", stacked=bool(models))
    if h.shape[:-2] != models or h.shape[-1] != net.input_dim:
        raise ShapeError(f"x has shape {h.shape}, expected {models} + (n, {net.input_dim})")
    return h


# The kernels below serve one network and a stack alike: ``.swapaxes(-1, -2)``
# transposes every matrix of a stack, and ``bias[..., None, :]`` is a bias
# row that broadcasts over the batch rows.


def _encoder_trace(net: MlpEncoderDecoder, h: np.ndarray) -> list[np.ndarray]:
    trace = []
    for layer in net.encoder:
        h = h @ layer.weight.swapaxes(-1, -2)
        h += layer.bias[..., None, :]
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
    pred = trace[-1] @ net.decoder.weight.swapaxes(-1, -2) + net.decoder.bias[..., None, :]
    return pred, trace


def _per_model(c) -> tuple:
    """A scalar, or one value per model of a stack, shaped to broadcast
    against (weights, biases)."""
    c = np.asarray(c)
    return c[..., None, None], c[..., None]


@dataclass
class ParamGrads:
    """Gradients mirroring the network structure (with the leading model
    axis of a stack)."""

    encoder: list  # list of (dW, db)
    decoder: tuple  # (dW, db)

    def pairs(self) -> list:
        return [*self.encoder, self.decoder]

    def scaled(self, c) -> "ParamGrads":
        """Every gradient times c: a scalar, or one factor per model."""
        cw, cb = _per_model(c)
        out = [(cw * dw, cb * db) for dw, db in self.pairs()]
        return ParamGrads(out[:-1], out[-1])

    def add_(self, other: "ParamGrads", where=True) -> "ParamGrads":
        """Add other in place; ``where`` (one flag per model of a stack)
        leaves the models it marks False untouched."""
        ww, wb = (True, True) if where is True else _per_model(where)
        for (dw, db), (ow, ob) in zip(self.pairs(), other.pairs()):
            np.add(dw, ow, out=dw, where=ww)
            np.add(db, ob, out=db, where=wb)
        return self


def _encoder_backward_chain(
    net: MlpEncoderDecoder,
    x: np.ndarray,
    trace: list[np.ndarray],
    d_rep: np.ndarray,
) -> list:
    """Reverse pass through the encoder from d_rep = dLoss/d(trace[-1]);
    returns the encoder (dW, db) pairs, first layer first."""
    grads = []
    dh = d_rep
    for li in reversed(range(net.n_layers)):
        layer = net.encoder[li]
        da = dh * _act_deriv_from_output(trace[li], layer.activation)
        prev = trace[li - 1] if li > 0 else x
        grads.append((da.swapaxes(-1, -2) @ prev, da.sum(axis=-2)))
        if li > 0:
            dh = da @ layer.weight
    return grads[::-1]


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
    x = _as_input(net, x)
    if trace is None or len(trace) != net.n_layers:
        raise ValidationError("backward requires the forward trace for x")
    if trace[0].shape[:-1] != x.shape[:-1]:
        raise ShapeError("trace batch size does not match x")
    grad_pred = np.atleast_2d(np.asarray(grad_pred, dtype=np.float64))
    if grad_pred.shape != x.shape[:-1] + (net.out_dim,):
        raise ShapeError(
            f"grad_pred shape {grad_pred.shape} != {x.shape[:-1] + (net.out_dim,)}"
        )
    dec_dw = grad_pred.swapaxes(-1, -2) @ trace[-1]
    dec_db = grad_pred.sum(axis=-2)
    d_rep = grad_pred @ net.decoder.weight
    return ParamGrads(_encoder_backward_chain(net, x, trace, d_rep), (dec_dw, dec_db))


def encoder_backward(
    net: MlpEncoderDecoder,
    x,
    trace: list[np.ndarray],
    d_rep: np.ndarray,
) -> ParamGrads:
    """Encoder-only gradients of a loss on the final representation, with
    d_rep = dLoss/d(trace[-1]); decoder gradients are zero.  Used by the
    representation-matching penalty."""
    x = _as_input(net, x)
    return ParamGrads(
        _encoder_backward_chain(net, x, trace, d_rep),
        (np.zeros_like(net.decoder.weight), np.zeros_like(net.decoder.bias)),
    )


def softmax(logits: np.ndarray) -> np.ndarray:
    e = logits - logits.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def label_mask(labels, n_classes: int) -> np.ndarray:
    """Boolean rows, True at each label's class.  Subtracting one from a
    probability row is exact: p - 0 = p, and p - 1 is the one rounding."""
    return np.asarray(labels)[..., None] == np.arange(n_classes)


def _per_sample_pred_grad(pred: np.ndarray, y, loss: str) -> np.ndarray:
    """d(per-sample loss)/d(prediction); rows are independent samples."""
    if loss == "mse":
        target = np.asarray(y, dtype=np.float64)
        if target.ndim == 0:
            target = target.reshape(1, 1)
        elif target.ndim == pred.ndim - 1:
            target = target[..., None]
        if target.shape != pred.shape:
            raise ShapeError(f"y shape {target.shape} incompatible with prediction {pred.shape}")
        return 2.0 * (pred - target)
    if loss == "cross-entropy":
        grad = softmax(pred)
        grad -= label_mask(y, pred.shape[-1])
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
    pred = trace[-1] @ net.decoder.weight.swapaxes(-1, -2)
    pred += net.decoder.bias[..., None, :]
    dh = _per_sample_pred_grad(pred, y, loss) @ net.decoder.weight
    for layer, z in zip(reversed(net.encoder), reversed(trace)):
        if layer.activation == "tanh":
            # tanh'(a) = 1 - z^2; the trace is private, so z is overwritten
            np.square(z, out=z)
            np.subtract(1.0, z, out=z)
            z *= dh
            dh = z
        dh = dh @ layer.weight
    return dh if x.ndim > 1 else dh[0]


def tangents(net: MlpEncoderDecoder, x, directions):
    """Exact forward-mode tangents J_phi(x) v, one yield per direction v.

    A direction is a (d_in,) vector shared by every row, or one direction
    per row with the shape of ``x``; each yield has shape
    x.shape[:-1] + (rep_dim,).  One encoder forward serves every direction:
    its private trace becomes the tanh derivatives in place, and each
    direction goes through the layers as ``t = (t @ W.T) * act'``, so memory
    stays at one activation trace and no (n, rep_dim, d_in) Jacobian stack
    is built.  ``directions`` is read lazily, one direction per yield.
    """
    x = _as_input(net, x)
    derivs = _encoder_trace(net, x)
    for layer, z in zip(net.encoder, derivs):
        if layer.activation == "tanh":
            np.subtract(1.0, z * z, out=z)  # tanh' = 1 - z^2, in place
    for v in directions:
        t = np.asarray(v, dtype=np.float64)
        if t.shape == x.shape[-1:]:
            t = t[None, :]
        elif t.shape != x.shape:
            raise ShapeError(f"direction shape {t.shape} is neither {x.shape[-1:]} nor {x.shape}")
        for layer, deriv in zip(net.encoder, derivs):
            t = t @ layer.weight.swapaxes(-1, -2)
            if layer.activation == "tanh":
                t = t * deriv
        # an all-identity encoder leaves a shared direction's tangent one row
        yield np.broadcast_to(t, x.shape[:-1] + (net.rep_dim,))


def sgd_step(net: MlpEncoderDecoder, grads: ParamGrads, lr: float) -> None:
    for layer, (dw, db) in zip(net.parameters(), grads.pairs()):
        layer.weight -= lr * dw
        layer.bias -= lr * db


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
