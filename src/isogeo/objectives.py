"""Training objectives: plain ERM, projected-gradient adversarial training,
and Gaussian perturbation matching (PMH) with its cap mechanism.

The PMH penalty is the expected squared representation displacement under
isotropic Gaussian input noise,

    L_pmh = mean_i || phi(x_i) - phi(x_i + delta_i) ||^2,
    delta_i ~ N(0, sigma^2 I),

whose first-order value is sigma^2 E||J_phi||_F^2, i.e. a uniform Frobenius
penalty on the encoder Jacobian.  An objective only picks a step's task
views, which train alike with weight 1 / len(views): [x] (ERM), [x + its
attack] (PGD), [x, x + delta] (PMH, so at zero noise and no penalty it is
step-identical to ERM).  PMH adds lam * w(t) * L_pmh, where w(t) is a warmup
ramp and lam is rescaled per step so the logged penalty never exceeds
cap * task loss.  At steady state that rescaling pins the penalty fraction
to cap / (1 + cap).

Nets of one shape can train as one stack (:func:`train_stack`): the network
kernels, the losses, the PMH penalty and the PGD attack all take a leading
model axis K, while each member keeps its own init, data, noise and sigma
streams and its own cap rescaling.  Each step draws the whole stack's batch
in one data-source call and its PMH noise in one ``rng.normal_stack`` call;
each member's rows still come from its own streams.  No reduction crosses
the model axis, so every member ends with the weights and the log of its
solo run, bit for bit, and a member that diverges leaves the stack without
touching the others.  :func:`train` is the stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._atomic import atomic_write
from .errors import TrainingDivergedError, ValidationError
from .network import (
    MlpEncoderDecoder,
    NetSpec,
    ParamGrads,
    _per_sample_pred_grad,
    backward,
    encoder_backward,
    encoder_forward,
    forward_with_trace,
    init_network,
    input_gradient,
    label_mask,
    sgd_step,
    stack_networks,
)
from .rng import RngState, derive, normal_stack, uniform

OBJECTIVES = ("erm", "pgd", "pmh")


# ---------------------------------------------------------------------------
# Losses (batch-mean value plus gradient on the prediction)
# ---------------------------------------------------------------------------
# A prediction of shape (n, out) gives a float value; a stack's (K, n, out)
# gives one value per member.  The gradient is the per-sample one that
# input_gradient also uses, over n.


def _value(v):
    return float(v) if np.ndim(v) == 0 else v


def mse_loss(pred: np.ndarray, y):
    grad = _per_sample_pred_grad(pred, y, "mse")  # 2 (pred - y)
    n = pred.shape[-2]
    return _value(((0.5 * grad) ** 2).sum(axis=(-2, -1)) / n), grad / n


def cross_entropy_loss(logits: np.ndarray, labels):
    labels = np.asarray(labels)
    n = logits.shape[-2]
    z = logits - logits.max(axis=-1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    hot = label_mask(labels, logits.shape[-1])
    value = _value(-logp[hot].reshape(labels.shape).mean(axis=-1))
    return value, _per_sample_pred_grad(logits, labels, "cross-entropy") / n


_LOSSES = {"mse": mse_loss, "cross-entropy": cross_entropy_loss}


def task_loss(pred: np.ndarray, y, loss: str) -> tuple[float, np.ndarray]:
    if loss not in _LOSSES:
        raise ValidationError(f"unknown loss tag {loss!r}")
    return _LOSSES[loss](pred, y)


# ---------------------------------------------------------------------------
# Warmup
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WarmupSchedule:
    """Linear ramp from 0 at step t0 to 1 at step t0 + duration."""

    t0: int = 0
    duration: int = 1

    def __post_init__(self):
        if self.duration < 1:
            raise ValidationError("warmup duration must be >= 1")


def warmup_weight(t: int, schedule: WarmupSchedule) -> float:
    """w(t) = min(1, max(0, (t - t0)/T)): 0 before t0, 1 after t0 + T,
    linear in between."""
    frac = (t - schedule.t0) / schedule.duration
    if frac <= 0.0:
        return 0.0
    if frac >= 1.0:
        return 1.0
    return float(frac)


# ---------------------------------------------------------------------------
# PMH penalty
# ---------------------------------------------------------------------------


def pmh_loss(net: MlpEncoderDecoder, x: np.ndarray, x_noisy: np.ndarray) -> tuple:
    """Representation-matching penalty mean_i ||phi(x_i) - phi(x_noisy_i)||^2
    between two views of a batch, and its encoder gradients through both.
    Draws nothing: the caller makes x_noisy.  For a stack, x and x_noisy are
    (K, n, d) and the value holds one entry per member."""
    n = x.shape[-2]
    trace_c = encoder_forward(net, x)
    trace_n = encoder_forward(net, x_noisy)
    diff = trace_c[-1] - trace_n[-1]
    value = _value((diff**2).sum(axis=(-2, -1)) / n)
    up = 2.0 * diff / n
    grads = encoder_backward(net, x, trace_c, up)
    grads.add_(encoder_backward(net, x_noisy, trace_n, -up))
    return value, grads


def cap_rescale(l_task: float, l_pmh_raw: float, lam: float, cap: float) -> float:
    """Effective penalty weight after the cap: scale lam down to equality
    whenever lam * l_pmh_raw would exceed cap * l_task.

    Degenerate rule: a zero task loss with a positive raw penalty gives
    weight 0 (the cap admits no penalty at all in that state).
    """
    if min(l_task, l_pmh_raw, lam, cap) < 0:
        raise ValidationError("cap_rescale inputs must be nonnegative")
    if lam * l_pmh_raw <= cap * l_task:
        return float(lam)
    if l_task == 0.0:
        return 0.0
    return float(cap * l_task / l_pmh_raw)


def multiscale_sigma(rng: RngState, lo: float, hi: float) -> tuple[float, RngState]:
    """One log-uniform noise-scale draw from [lo, hi]; degenerate ranges
    return lo exactly."""
    if lo <= 0:
        raise ValidationError(f"log-uniform range needs lo > 0, got {lo}")
    if lo > hi:
        raise ValidationError(f"need lo <= hi, got [{lo}, {hi}]")
    if lo == hi:
        return float(lo), rng.next()
    u, rng = uniform(rng, ())
    return float(np.exp(np.log(lo) + float(u) * (np.log(hi) - np.log(lo)))), rng


# ---------------------------------------------------------------------------
# PGD attack
# ---------------------------------------------------------------------------


def pgd_attack(
    net: MlpEncoderDecoder,
    x: np.ndarray,
    y,
    epsilon: float,
    steps: int,
    step_size: float,
    loss: str = "mse",
) -> np.ndarray:
    """L-infinity projected gradient ascent on the per-sample loss.

    delta starts at 0; after every step each coordinate is clipped back to
    [-epsilon, epsilon], so the constraint holds exactly on return.  An input
    gradient with a NaN (a diverged network) ends the attack early with the
    last finite delta; the caller's loss at x + delta then shows the
    divergence.  In a stack that ends the attack of that member only: its
    delta stays as it is while the others go on.
    """
    if epsilon < 0:
        raise ValidationError(f"epsilon must be >= 0, got {epsilon}")
    if steps < 1:
        raise ValidationError(f"steps must be >= 1, got {steps}")
    if epsilon == 0.0:
        return np.zeros_like(x)
    delta = np.zeros_like(x, dtype=np.float64)
    stopped = None  # per member of a stack, once some attack has ended
    for _ in range(steps):
        g = input_gradient(net, x + delta, y, loss)
        if np.isnan(g).any():
            nan = np.isnan(g.reshape(net.models + (-1,))).any(axis=-1)
            stopped = nan if stopped is None else stopped | nan
            if stopped.all():
                break
        if stopped is not None:
            g[stopped] = 0.0  # sign 0: those members' deltas stay put
        np.sign(g, out=g)
        g *= step_size
        delta += g
        np.minimum(np.maximum(delta, -epsilon, out=delta), epsilon, out=delta)
    return delta


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PgdConfig:
    """L-infinity attack of radius epsilon: steps of epsilon / 4."""

    epsilon: float = 0.1
    steps: int = 20


@dataclass(frozen=True)
class TrainConfig:
    objective: str = "erm"
    sigma_train: "float | tuple[float, float]" = 0.1
    lam: float = 100.0
    cap: float = 0.3
    warmup: WarmupSchedule = field(default_factory=WarmupSchedule)
    pgd: PgdConfig = field(default_factory=PgdConfig)
    lr: float = 0.05
    steps: int = 2000
    batch_size: int = 32
    seed: int = 0
    loss: str = "mse"

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ValidationError(f"objective must be one of {OBJECTIVES}")
        if self.loss not in _LOSSES:
            raise ValidationError(f"loss must be one of {tuple(_LOSSES)}, got {self.loss!r}")
        floats = {"lr": self.lr, "lam": self.lam, "cap": self.cap,
                  "sigma_train": self.sigma_train, "pgd epsilon": self.pgd.epsilon}
        for name, value in floats.items():
            if not np.isfinite(value).all():  # a sigma_train range checks both ends
                raise ValidationError(f"{name} must be finite, got {value}")
        if self.lr <= 0:
            raise ValidationError("learning rate must be > 0")
        if self.steps < 1 or self.batch_size < 1:
            raise ValidationError("steps and batch_size must be >= 1")
        if self.cap < 0 or self.lam < 0:
            raise ValidationError("cap and lam must be >= 0")
        if isinstance(self.sigma_train, tuple):
            lo, hi = self.sigma_train
            if lo > hi:
                raise ValidationError("sigma_train range must satisfy lo <= hi")
            if lo <= 0:
                raise ValidationError("sigma_train range needs lo > 0")
        elif self.sigma_train < 0:
            raise ValidationError("sigma_train must be >= 0")
        if self.pgd.epsilon < 0:
            raise ValidationError("pgd epsilon must be >= 0")


@dataclass
class TrainLog:
    """Per-step records; fraction = pmh/(task + pmh) from the same row."""

    step: np.ndarray
    task_loss: np.ndarray
    pmh_loss: np.ndarray
    eff_lambda: np.ndarray
    fraction: np.ndarray
    warmup: np.ndarray

    def steady_state_fraction(self) -> float:
        """Mean penalty fraction over the final 20% of steps."""
        k = max(1, int(round(0.2 * len(self.step))))
        return float(self.fraction[-k:].mean())

    def to_csv(self, path: str) -> None:
        lines = ["step,task_loss,pmh_loss,eff_lambda,fraction,warmup"] + [
            f"{int(self.step[i])},{self.task_loss[i]:.17g},"
            f"{self.pmh_loss[i]:.17g},{self.eff_lambda[i]:.17g},"
            f"{self.fraction[i]:.17g},{self.warmup[i]:.17g}"
            for i in range(len(self.step))
        ]
        atomic_write(path, "\n".join(lines) + "\n")


def _sigma_for_step(config: TrainConfig, rng_sigma: RngState) -> tuple[float, RngState]:
    if isinstance(config.sigma_train, tuple):
        return multiscale_sigma(rng_sigma, *config.sigma_train)
    return float(config.sigma_train), rng_sigma


# Fields every member of a stack shares; members may differ in seed,
# sigma_train, cap and lam.
_SHARED = ("objective", "steps", "batch_size", "lr", "loss", "warmup", "pgd")


@dataclass
class _Member:
    """One net of a stack: its place in the caller's list, its config, and
    its own data, noise and sigma streams."""

    index: int
    config: TrainConfig
    data: RngState
    noise: RngState
    sigma: RngState


def _take_models(stack: MlpEncoderDecoder, index) -> None:
    """Keep only the models at index of a stack, in place."""
    for layer in stack.parameters():
        layer.weight = layer.weight[index]
        layer.bias = layer.bias[index]


def train_stack(configs, spec: NetSpec, data_source) -> list:
    """SGD training of nets of one shape as one stack, each member
    deterministic under its own config.seed.

    The members share objective, steps, batch_size, lr, loss, warmup and
    pgd (a ValidationError names any that differ) and may differ in seed,
    sigma_train (a (lo, hi) range included), cap and lam.  Each member has
    its own init, data, noise and sigma streams from its own seed and
    rescales its own penalty weight, so it sees exactly what it sees when
    trained alone.  ``data_source(states, n) -> (x (K, n, d), y (K, n),
    states)`` supplies one step's batch for all members at once, member k's
    rows from states[k]; the PMH noise of all members is one draw too.

    Returns one entry per config, in order: the member's (net, TrainLog),
    or the TrainingDivergedError its solo run raises.  A diverged member
    leaves the stack at the step its loss goes non-finite.
    """
    configs = list(configs)
    if not configs:
        raise ValidationError("train_stack needs at least one config")
    head = configs[0]
    differ = [f for f in _SHARED if any(getattr(c, f) != getattr(head, f) for c in configs)]
    if differ:
        raise ValidationError(f"stack members must share {', '.join(differ)}")
    nets = [init_network(spec, derive(c.seed, "init"))[0] for c in configs]
    stack = stack_networks(nets)
    members = [
        _Member(i, c, derive(c.seed, "data"), derive(c.seed, "noise"), derive(c.seed, "sigma"))
        for i, c in enumerate(configs)
    ]
    results: list = [None] * len(configs)

    steps = head.steps
    logs = np.zeros((3, len(configs), steps))  # task, pmh, eff_lambda
    log_warm = np.zeros(steps)
    rows = slice(None)  # the members' rows of logs

    # A diverging step overflows before its loss turns non-finite; the
    # check below turns it into TrainingDivergedError, so numpy's warnings
    # would only repeat that.
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(steps):
            x, y, data = data_source([m.data for m in members], head.batch_size)
            for m, state in zip(members, data):
                m.data = state
            w_t = warmup_weight(t, head.warmup)

            if head.objective == "erm":
                views = [x]
            elif head.objective == "pgd":
                eps = head.pgd.epsilon
                views = [x + pgd_attack(stack, x, y, eps, head.pgd.steps, eps / 4.0, head.loss)]
            else:  # pmh: the clean batch and its noisy copy, each member at its step sigma
                sigma = []
                for m in members:
                    sigma_t, m.sigma = _sigma_for_step(m.config, m.sigma)
                    sigma.append(sigma_t)
                delta, noise = normal_stack([m.noise for m in members], x.shape[-2:], sigma)
                for m, rng in zip(members, noise):
                    m.noise = rng
                views = [x, x + delta]

            scale = 1.0 / len(views)
            for i, v in enumerate(views):  # sums start at view 0: a -0.0 loss stays
                pred, trace = forward_with_trace(stack, v)
                l_view, g_pred = task_loss(pred, y, head.loss)
                g = backward(stack, v, trace, scale * g_pred)
                l_task, grads = (l_view, g) if i == 0 else (l_task + l_view, grads.add_(g))
            l_task = scale * l_task
            pmh_term = lam_eff = np.zeros(len(members))

            if head.objective == "pmh":
                l_raw, pmh_grads = pmh_loss(stack, *views)
                lam_eff = np.array([
                    cap_rescale(float(task), float(raw), m.config.lam * w_t, m.config.cap)
                    for m, task, raw in zip(members, l_task, l_raw)
                ])
                on = lam_eff > 0.0
                if on.any():
                    grads.add_(pmh_grads.scaled(lam_eff), where=True if on.all() else on)
                pmh_term = lam_eff * l_raw

            sgd_step(stack, grads, head.lr)
            logs[:, rows, t] = l_task, pmh_term, lam_eff
            log_warm[t] = w_t

            finite = np.isfinite(l_task) & np.isfinite(pmh_term)
            if not finite.all():  # those members leave; their last update is void
                for m, ok in zip(members, finite):
                    if not ok:
                        results[m.index] = TrainingDivergedError(
                            f"loss diverged at step {t}", step=t
                        )
                keep = np.flatnonzero(finite)
                members = [members[i] for i in keep]
                if not members:
                    return results
                rows = [m.index for m in members]
                _take_models(stack, keep)

    for k, m in enumerate(members):
        net = nets[m.index]
        for layer, stacked in zip(net.parameters(), stack.parameters()):
            layer.weight, layer.bias = stacked.weight[k].copy(), stacked.bias[k].copy()
        task, pmh, lam = (row.copy() for row in logs[:, m.index])
        total = task + pmh
        frac = np.divide(pmh, total, out=np.zeros(steps), where=total > 0)
        log = TrainLog(np.arange(steps, dtype=np.int64), task, pmh, lam, frac, log_warm.copy())
        results[m.index] = (net, log)
    return results


def train(
    config: TrainConfig,
    spec: NetSpec,
    data_source,
) -> tuple[MlpEncoderDecoder, TrainLog]:
    """SGD training loop, deterministic under config.seed: the stack of one
    (see train_stack).

    ``data_source(states, n) -> (x, y, states)`` supplies fresh batches, as
    for train_stack with K = 1.  The objective selects the task views of
    each step, whose task losses are averaged:

    * erm:  the clean batch x.
    * pgd:  x + delta, with delta from the inner l-infinity attack.
    * pmh:  x and x + delta with delta ~ N(0, sigma^2 I), plus the capped,
            warmed-up matching penalty pmh_loss(net, x, x + delta).

    Raises TrainingDivergedError with the step index if the loss goes
    non-finite.
    """
    (result,) = train_stack([config], spec, data_source)
    if isinstance(result, TrainingDivergedError):
        raise result
    return result
