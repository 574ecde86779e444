"""Correlated-nuisance generative models and their exact reference predictors.

Two data sources live here:

* :class:`GaussianNuisanceModel` — a linear Gaussian model whose input splits
  into a signal block ``s`` and a nuisance block ``n``, with label

      y = <w_s, s> + rho * <w_n, n> + eps,   eps ~ N(0, sigma_eps^2),

  s ~ N(0, I), n ~ N(0, I) independent and ||w_s|| = ||w_n|| = 1.  ``rho`` is
  the nuisance *regression coefficient*: labels are not rescaled, so it is
  not the nuisance-label correlation.  The conditional-mean predictor and
  the signal-only predictor are available in closed form, which makes loss
  gaps exactly computable: suppressing the nuisance costs exactly rho^2 in
  mean squared error.

* :class:`DiscreteNuisanceToy` — a finite (s, n, y) joint distribution on
  which the blindness gap I(n; y | s) is an exact enumeration sum rather
  than a Monte-Carlo estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError, ValidationError
from .linalg import as_matrix, as_vector
from .rng import RngState, _normal_into, uniform

UNIT_TOL = 1e-12


def _unit(v: np.ndarray, name: str) -> np.ndarray:
    v = as_vector(v, name)
    if abs(np.linalg.norm(v) - 1.0) > UNIT_TOL:
        raise ValidationError(f"{name} must be unit-norm within {UNIT_TOL}")
    return v


@dataclass(frozen=True)
class GaussianNuisanceModel:
    """Linear Gaussian model with a label-correlated nuisance block."""

    d_s: int
    d_n: int
    w_s: np.ndarray
    w_n: np.ndarray
    rho: float
    sigma_eps: float

    def __post_init__(self):
        if self.d_s < 1 or self.d_n < 1:
            raise ValidationError("d_s and d_n must be >= 1")
        for name in ("rho", "sigma_eps"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValidationError(f"{name} must be finite, got {value}")
            if value < 0:
                raise ValidationError(f"{name} must be >= 0, got {value}")
        object.__setattr__(self, "w_s", _unit(self.w_s, "w_s"))
        object.__setattr__(self, "w_n", _unit(self.w_n, "w_n"))
        if self.w_s.shape != (self.d_s,) or self.w_n.shape != (self.d_n,):
            raise ShapeError("w_s/w_n dimensions must match d_s/d_n")

    @classmethod
    def canonical(
        cls, d_s: int, d_n: int, rho: float, sigma_eps: float
    ) -> "GaussianNuisanceModel":
        """Model with deterministic weight directions (first basis vector of
        each block), which keeps the analytic checks exact.  A block size
        below 1 gives an empty vector, and the constructor rejects the size."""
        w_s, w_n = ((np.arange(d) == 0).astype(np.float64) for d in (d_s, d_n))
        return cls(d_s, d_n, w_s, w_n, rho, sigma_eps)

    @property
    def d_in(self) -> int:
        return self.d_s + self.d_n

    def bayes_mse(self) -> float:
        """MSE of the conditional-mean predictor: sigma_eps^2."""
        return self.sigma_eps**2

    def signal_only_mse(self) -> float:
        """MSE of the best nuisance-blind predictor: rho^2 + sigma_eps^2."""
        return self.rho**2 + self.sigma_eps**2


@dataclass(frozen=True)
class LabeledBatch:
    """Sampled rows: x columns are signal-then-nuisance, exactly partitioned."""

    x: np.ndarray
    y: np.ndarray
    d_s: int
    d_n: int

    def __post_init__(self):
        x = as_matrix(self.x, "x")
        y = as_vector(self.y, "y")
        if x.shape[1] != self.d_s + self.d_n:
            raise ShapeError(
                f"x has {x.shape[1]} columns, expected d_s + d_n = {self.d_s + self.d_n}"
            )
        if y.shape[0] != x.shape[0]:
            raise ShapeError("x and y row counts differ")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def signal(self) -> np.ndarray:
        return self.x[:, : self.d_s]

    @property
    def nuisance(self) -> np.ndarray:
        return self.x[:, self.d_s :]


def _fill_rows(model: GaussianNuisanceModel, states, n: int, a: int, x, y) -> list[RngState]:
    """Fill x (K, r, d_s + d_n) and y (K, r) with r rows of
    ``sample_stack(model, n, states)`` and return the successor states:
    all rows for a = 0 and r = n, and for even n and h = n / 2 rows
    [a, a + r / 2) then [h + a, h + a + r / 2).  In a draw that fills n
    rows a pair's cosine and sine sit h rows apart (see the rng module), so
    these rows are the window of each of the s, n and eps draws' pairs that
    starts at row a.  s and n are drawn straight into their column blocks
    of x; for odd n and more than one column, each is made in one pass.  y
    is summed in place as s @ w_s + rho * (n @ w_n) + eps, in that order,
    and eps is drawn into the (K, r) array that held the nuisance term."""
    k = len(states)
    s, nn = x[..., : model.d_s], x[..., model.d_s :]
    states = _normal_into(states, s, (1.0,) * k, n * model.d_s, a * model.d_s)
    states = _normal_into(states, nn, (1.0,) * k, n * model.d_n, a * model.d_n)
    np.matmul(s, model.w_s, out=y)
    scratch = nn @ model.w_n
    scratch *= model.rho
    y += scratch
    states = _normal_into(states, scratch[:, :, None], (model.sigma_eps,) * k, n, a)
    y += scratch
    return states


def sample_stack(
    model: GaussianNuisanceModel, n: int, states
) -> tuple[np.ndarray, np.ndarray, list[RngState]]:
    """n rows for each of K streams: x (K, n, d_s + d_n), y (K, n) and the
    successor states.  Member k's rows are ``sample(model, n, states[k])``,
    bit for bit: its s, n and eps blocks are three draws from its own
    stream, made for all members at once (see _fill_rows).  Beyond x and y
    a call holds one (K, n) array and one window of a draw at a time; for
    odd n, the s and n blocks are each staged whole (see rng._normal_into)."""
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    x = np.empty((len(states), n, model.d_in))
    y = np.empty((len(states), n))
    return x, y, _fill_rows(model, states, n, 0, x, y)


def sample(model: GaussianNuisanceModel, n: int, rng: RngState) -> tuple[LabeledBatch, RngState]:
    """Draw n rows; s, n, eps independent, y from the model equation."""
    x, y, (rng,) = sample_stack(model, n, (rng,))
    return LabeledBatch(x[0], y[0], model.d_s, model.d_n), rng


# Rows in one block of sample_blocks.  At 16 columns a block's x is 2 MiB;
# on a 2-vCPU Xeon, blocks of 2**14 to 2**16 rows ran the million-row
# checks within run-to-run noise of one another.
_BLOCK_ROWS = 1 << 14


def sample_blocks(model: GaussianNuisanceModel, n: int, rng: RngState):
    """The rows of ``sample(model, n, rng)`` in blocks: yields (rows, x, y)
    with x and y equal to that sample's ``x[rows]`` and ``y[rows]`` bit for
    bit, the blocks' rows covering range(n) once.  A block holds at most
    _BLOCK_ROWS rows: for even n, rows [a, b) and [n/2 + a, n/2 + b),
    whose values come from the same Box-Muller pairs (see _fill_rows), so
    no uniform is drawn twice.  An odd n is one block of all rows.  The x
    and y arrays are reused by the next block; the sample's successor
    state is not returned."""
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    return _blocks(model, n, rng)


def _blocks(model: GaussianNuisanceModel, n: int, rng: RngState):
    if n % 2:
        x, y, _ = sample_stack(model, n, (rng,))
        yield np.arange(n), x[0], y[0]
        return
    h = n // 2
    step = min(_BLOCK_ROWS // 2, h)
    x = np.empty((1, 2 * step, model.d_in))
    y = np.empty((1, 2 * step))
    for a in range(0, h, step):
        r = 2 * min(step, h - a)
        _fill_rows(model, (rng,), n, a, x[:, :r], y[:, :r])
        yield np.r_[a : a + r // 2, h + a : h + a + r // 2], x[0, :r], y[0, :r]


def _check_layout(model: GaussianNuisanceModel, x: np.ndarray) -> np.ndarray:
    x = np.atleast_2d(as_matrix(np.atleast_2d(x), "x"))
    if x.shape[1] != model.d_in:
        raise ShapeError(f"x has {x.shape[1]} columns, model expects {model.d_in}")
    return x


def bayes_predictor(model: GaussianNuisanceModel, x) -> np.ndarray:
    """Conditional mean E[y | x] = <w_s, s> + rho <w_n, n> (exact, linear)."""
    x = _check_layout(model, x)
    s, nn = x[:, : model.d_s], x[:, model.d_s :]
    return s @ model.w_s + model.rho * (nn @ model.w_n)


def signal_only_predictor(model: GaussianNuisanceModel, x) -> np.ndarray:
    """Best nuisance-blind predictor E[y | s] = <w_s, s>."""
    x = _check_layout(model, x)
    return x[:, : model.d_s] @ model.w_s


def threshold_labels(y: np.ndarray) -> np.ndarray:
    """Binary class labels from a continuous target (sign threshold at 0)."""
    return (np.asarray(y) > 0.0).astype(np.int64)


def model_batch_source(model: GaussianNuisanceModel):
    """Batch source of the training loop: (states, n) -> (x (K, n, d),
    y (K, n), states), member k drawn from states[k] (see sample_stack)."""

    def source(states, n: int):
        return sample_stack(model, n, states)

    return source


# ---------------------------------------------------------------------------
# Discrete toy distribution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscreteNuisanceToy:
    """Finite (s, n, y) joint distribution with exact enumeration queries.

    ``p_y_given_x[s, n, :]`` are conditional rows (each summing to 1) and
    ``p_x[s, n]`` is the input marginal.  The blindness gap is in nats and
    computed by an exact sum over the table.
    """

    p_y_given_x: np.ndarray
    p_x: np.ndarray
    input_values: tuple = field(init=False)

    def __post_init__(self):
        cond = np.asarray(self.p_y_given_x, dtype=np.float64)
        if cond.ndim != 3:
            raise ValidationError("p_y_given_x must have shape (S, N, Y)")
        if np.any(cond < 0) or not np.all(np.isfinite(cond)):
            raise ValidationError("p_y_given_x entries must be finite and nonnegative")
        if np.max(np.abs(cond.sum(axis=2) - 1.0)) > 1e-12:
            raise ValidationError("conditional rows of p_y_given_x must sum to 1 within 1e-12")
        px = np.asarray(self.p_x, dtype=np.float64)
        if px.shape != cond.shape[:2]:
            raise ShapeError("p_x shape must match the (S, N) leading axes of p_y_given_x")
        if np.any(px < 0) or abs(px.sum() - 1.0) > 1e-12:
            raise ValidationError("p_x must be a distribution summing to 1 within 1e-12")
        object.__setattr__(self, "p_y_given_x", cond)
        object.__setattr__(self, "p_x", px)
        # Real-valued embedding of the level indices, used when training
        # continuous encoders on the toy: levels spread over [-1, 1].
        s_lv, n_lv = cond.shape[0], cond.shape[1]
        s_vals = np.linspace(-1.0, 1.0, s_lv) if s_lv > 1 else np.zeros(1)
        n_vals = np.linspace(-1.0, 1.0, n_lv) if n_lv > 1 else np.zeros(1)
        object.__setattr__(self, "input_values", (s_vals, n_vals))

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.p_y_given_x.shape

    def joint(self) -> np.ndarray:
        """Full joint p(s, n, y)."""
        return self.p_x[:, :, None] * self.p_y_given_x

    def p_y_given_s(self) -> np.ndarray:
        """p(y | s) by marginalizing the nuisance, shape (S, Y)."""
        joint = self.joint()
        p_sy = joint.sum(axis=1)
        p_s = self.p_x.sum(axis=1)
        out = np.zeros_like(p_sy)
        nz = p_s > 0
        out[nz] = p_sy[nz] / p_s[nz, None]
        return out

    def kl_gap(self) -> float:
        """Delta = E_x[ KL(p(y|x) || p(y|s)) ], the nuisance-blindness gap.

        Equals the conditional mutual information I(n; y | s); zero exactly
        when y is independent of n given s.
        """
        p_ys = self.p_y_given_s()
        total = 0.0
        S, N, Y = self.shape
        for si in range(S):
            for ni in range(N):
                w = self.p_x[si, ni]
                if w == 0:
                    continue
                for yi in range(Y):
                    p = self.p_y_given_x[si, ni, yi]
                    if p == 0:
                        continue
                    q = p_ys[si, yi]
                    if q == 0:
                        raise ValidationError(
                            "p(y|s) has a zero where p(y|x) > 0; KL gap is infinite"
                        )
                    total += w * p * np.log(p / q)
        return float(total)

    def encode_input(self, s_idx: np.ndarray, n_idx: np.ndarray) -> np.ndarray:
        """Map level indices to real 2-D inputs in [-1, 1]^2."""
        sv = np.asarray(self.input_values[0], dtype=np.float64)[np.asarray(s_idx)]
        nv = np.asarray(self.input_values[1], dtype=np.float64)[np.asarray(n_idx)]
        return np.stack([sv, nv], axis=-1)

    def support_points(self) -> tuple[np.ndarray, np.ndarray]:
        """All (s, n) cells as encoded inputs, with their probabilities."""
        S, N, _ = self.shape
        si, ni = np.meshgrid(np.arange(S), np.arange(N), indexing="ij")
        x = self.encode_input(si.ravel(), ni.ravel())
        return x, self.p_x.ravel().copy()

    def sample_stack(self, n: int, states) -> tuple[np.ndarray, np.ndarray, list[RngState]]:
        """n (x, y) pairs for each of K streams: x (K, n, 2) encoded real
        inputs, y (K, n) integer labels, and the successor states."""
        if n < 1:
            raise ValidationError(f"n must be >= 1, got {n}")
        S, N, Y = self.shape
        flat_joint = self.joint().ravel()
        draws = [uniform(state, n) for state in states]
        u = np.array([d for d, _ in draws])
        idx = np.searchsorted(np.cumsum(flat_joint), u, side="right")
        idx = np.minimum(idx, flat_joint.size - 1)
        si, rem = np.divmod(idx, N * Y)
        ni, yi = np.divmod(rem, Y)
        return self.encode_input(si, ni), yi.astype(np.int64), [s for _, s in draws]

    def sample(self, n: int, rng: RngState) -> tuple[np.ndarray, np.ndarray, RngState]:
        """Draw (x, y) pairs: x encoded real inputs, y integer labels."""
        x, y, (rng,) = self.sample_stack(n, (rng,))
        return x[0], y[0], rng

    def batch_source(self):
        """Batch source of the training loop: (states, n) -> (x (K, n, 2),
        y (K, n), states)."""

        def source(states, n: int):
            return self.sample_stack(n, states)

        return source


def discrete_nuisance_toy(p_table, p_x=None) -> DiscreteNuisanceToy:
    """Build a toy from a conditional table p(y | s, n) of shape (S, N, Y).

    ``p_x`` defaults to the uniform distribution over the (s, n) cells.
    """
    cond = np.asarray(p_table, dtype=np.float64)
    if cond.ndim != 3:
        raise ValidationError("p_table must have shape (S, N, Y)")
    if p_x is None:
        p_x = np.full(cond.shape[:2], 1.0 / (cond.shape[0] * cond.shape[1]))
    return DiscreteNuisanceToy(cond, np.asarray(p_x, dtype=np.float64))
