"""Geometric measurements on trained encoders.

Every Monte-Carlo estimate is returned with its standard error and is a
deterministic function of the supplied RngState.  The central quantity is
the trajectory deviation index (TDI): the layer-averaged, magnitude-
normalized expected squared representation displacement under isotropic
Gaussian input noise,

    TDI(phi, sigma) = (1/L) sum_l  E||phi_(1:l)(x+delta) - phi_(1:l)(x)||^2
                                   ----------------------------------------
                                   E||phi_(1:l)(x)||^2

with delta ~ N(0, sigma^2 I).  The sigma -> 0 limit is probed at sigma=0.01,
well below any training perturbation; the result records the probe scale
actually used.  Denominators always use clean inputs.  ``tdi`` takes a grid
of sigmas: each Monte-Carlo draw is one unit draw z, scaled to sigma * z for
every sigma of the grid, the probe included, so one set of draws serves the
whole grid.  The same draws give the embedding drift, the unnormalized
final-layer displacement.  Jacobian reductions are exact, from forward-mode
tangents (network.tangents).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from ._atomic import atomic_write
from .errors import DegenerateDirectionError, ValidationError
from .linalg import as_matrix, as_vector, gram_schmidt_project_out
from .network import MlpEncoderDecoder, encoder_forward, input_gradient, tangents
from .rng import RngState, choice_without_replacement, normal

TDI_ZERO_PROBE = 0.01  # probe scale standing in for the sigma -> 0 limit
DEGENERATE_LAYER_TOL = 1e-12


class Estimate(NamedTuple):
    """Monte-Carlo estimate with standard error and sample count."""

    value: float
    se: float
    n: int


def mean_se(samples: np.ndarray) -> Estimate:
    """Mean of the samples with its standard error (NaN for one sample)."""
    m = int(samples.size)
    mean = float(samples.mean())
    se = float(samples.std(ddof=1) / np.sqrt(m)) if m > 1 else float("nan")
    return Estimate(mean, se, m)


@dataclass(frozen=True)
class TdiResult:
    value: float
    se: float
    sigma_probe: float
    sigma_requested: float
    mc_draws: int
    drift: Estimate  # E||phi(x+delta) - phi(x)||^2, final layer, same draws

    @property
    def probed_at_zero(self) -> bool:
        return self.sigma_requested == 0.0


def tdi(
    net: MlpEncoderDecoder,
    x,
    sigmas: Sequence[float],
    mc_draws: int,
    rng: RngState,
) -> tuple[list[TdiResult], RngState]:
    """Trajectory deviation index at each sigma of a grid over an evaluation
    batch, and the embedding drift from the same draws; one TdiResult per
    sigma, in grid order.

    Draw j makes one unit draw z_j and uses sigma * z_j as the noise of
    every sigma (a sigma of 0 at the probe scale).  That product has the
    bits of ``normal(rng_j, x.shape, sigma)``, so each entry equals the
    one-sigma call from the same rng, and the sigmas of one call share
    common random numbers.  The standard error is computed across
    independent noise draws (conditional on the evaluation batch).  A
    layer whose clean second moment falls below DEGENERATE_LAYER_TOL raises
    DegenerateDirectionError, since the normalization is undefined there.
    The drift is the final layer's unnormalized mean squared displacement
    at the probe scale; for a linear encoder W it equals
    sigma^2 ||W||_F^2 in expectation.  An empty grid, or a sigma that is
    negative, infinite or NaN, raises ValidationError before any draw.
    """
    if mc_draws < 1:
        raise ValidationError("mc_draws must be >= 1")
    sigmas = [float(s) for s in sigmas]
    if not sigmas:
        raise ValidationError("sigmas must hold at least one value")
    for s in sigmas:
        if not 0.0 <= s < math.inf:  # NaN fails both comparisons
            raise ValidationError(f"sigma must be finite and >= 0, got {s}")
    x = as_matrix(np.atleast_2d(x), "x")
    probes = [TDI_ZERO_PROBE if s == 0.0 else s for s in sigmas]
    trace_c = encoder_forward(net, x)
    denoms = np.array([float(np.mean(np.sum(z**2, axis=1))) for z in trace_c])
    if np.any(denoms < DEGENERATE_LAYER_TOL):
        bad = int(np.argmax(denoms < DEGENERATE_LAYER_TOL))
        raise DegenerateDirectionError(
            f"layer {bad + 1} has vanishing representation magnitude; TDI undefined"
        )
    per_draw = np.zeros((len(sigmas), mc_draws))
    drift = np.zeros((len(sigmas), mc_draws))
    for j in range(mc_draws):
        unit, rng = normal(rng, x.shape, 1.0)
        for i, sigma_probe in enumerate(probes):
            trace_n = encoder_forward(net, x + sigma_probe * unit)
            disp = [float(np.mean(np.sum((zn - zc) ** 2, axis=1)))
                    for zn, zc in zip(trace_n, trace_c)]
            per_draw[i, j] = float(np.mean([m / d for m, d in zip(disp, denoms)]))
            drift[i, j] = disp[-1]
    results = []
    for sigma, sigma_probe, samples, drift_samples in zip(sigmas, probes, per_draw, drift):
        est = mean_se(samples)
        results.append(
            TdiResult(
                value=est.value,
                se=est.se,
                sigma_probe=sigma_probe,
                sigma_requested=sigma,
                mc_draws=mc_draws,
                drift=mean_se(drift_samples),
            )
        )
    return results, rng


def linearization_remainder(
    net: MlpEncoderDecoder,
    x,
    sigma: float,
    mc_draws: int,
    rng: RngState,
) -> tuple[Estimate, RngState]:
    """Estimate D(phi, sigma) - sigma^2 E||J_phi||_F^2 by paired sampling.

    Each noise draw contributes ||phi(x+d)-phi(x)||^2 - ||J_phi(x) d||^2 with
    the same d in both terms, which cancels the O(sigma^2) leading term, and
    the +d/-d antithetic average cancels the odd-order fluctuation, leaving
    an O(sigma^4) quantity with O(sigma^4) noise.  For a linear encoder the
    paired difference is exactly zero.
    """
    if mc_draws < 1:
        raise ValidationError("mc_draws must be >= 1")
    x = as_matrix(np.atleast_2d(x), "x")
    rep_c = encoder_forward(net, x)[-1]
    delta = None

    def draws():
        nonlocal rng, delta
        for _ in range(mc_draws):
            delta, rng = normal(rng, x.shape, sigma)
            yield delta

    diffs = np.zeros(mc_draws)
    # tangents reads one draw per yield, so delta is the draw of jd = J delta
    for j, jd in enumerate(tangents(net, x, draws())):
        lin = np.sum(jd * jd, axis=1)
        disp_p = np.sum((encoder_forward(net, x + delta)[-1] - rep_c) ** 2, axis=1)
        disp_m = np.sum((encoder_forward(net, x - delta)[-1] - rep_c) ** 2, axis=1)
        diffs[j] = float(np.mean(0.5 * (disp_p + disp_m) - lin))
    return mean_se(diffs), rng


def jac_frobenius(net: MlpEncoderDecoder, x) -> Estimate:
    """Exact squared Jacobian Frobenius norm ||J_phi(x)||_F^2 per batch row,
    the sum of the squared tangent norms along every input coordinate; mean
    and SE over rows."""
    sq = [np.sum(t * t, axis=-1) for t in tangents(net, x, np.eye(net.input_dim))]
    return mean_se(np.stack(sq, axis=-1).sum(axis=-1))


def directional_sensitivity(net: MlpEncoderDecoder, x, w) -> np.ndarray:
    """Exact ||J_phi(x) w|| per batch row (per model and row for a stack);
    a float for a single 1-D row."""
    w = as_vector(w, "w")
    if abs(np.linalg.norm(w) - 1.0) > 1e-10:
        raise ValidationError("probe direction w must be unit-norm within 1e-10")
    (t,) = tangents(net, x, [w])
    vals = np.sqrt(np.sum(t * t, axis=-1))
    return float(vals[0]) if np.ndim(x) == 1 else vals


def anisotropy_index(net: MlpEncoderDecoder, x, w) -> float:
    """E||J||_F^2 / E||J w||^2 over the batch, from exact tangents.

    Always >= 1; equals 1 exactly when the Jacobian is rank-1 with w as its
    right singular direction, and d_in for an isotropic (identity-like) map.
    """
    den = float(np.mean(directional_sensitivity(net, x, w) ** 2))
    if den < 1e-12:
        raise DegenerateDirectionError(
            "probe direction has vanishing sensitivity; anisotropy undefined"
        )
    return jac_frobenius(net, x).value / den


@dataclass(frozen=True)
class LipschitzEstimate:
    """Decoder Lipschitz constant: the decoder is a single linear layer, so
    this is its spectral norm.  Encoder layer norms are carried for
    reporting only."""

    value: float
    encoder_layer_norms: tuple = ()


def lipschitz_track(net: MlpEncoderDecoder) -> LipschitzEstimate:
    """Exact spectral norms (largest singular value, from LAPACK's SVD):
    decoder head (the tracked constant) plus per-encoder-layer norms for
    reporting."""
    return LipschitzEstimate(
        value=float(np.linalg.norm(net.decoder.weight, 2)),
        encoder_layer_norms=tuple(float(np.linalg.norm(layer.weight, 2)) for layer in net.encoder),
    )


def jacobian_lipschitz_fd(
    net: MlpEncoderDecoder,
    x,
    rng: RngState,
    n_pairs: int = 100,
    distance: float = 0.1,
) -> tuple[float, RngState]:
    """Finite-difference estimate of the Jacobian's Lipschitz constant.

    Max over probe pairs of ||J(x) - J(x')||_F / ||x - x'||, with pairs at
    the given distance around batch rows.  The max is biased high, which is
    the conservative direction for remainder-bound checks.  Both ends of
    every pair go through one tangent pass, column J e_k by column.
    """
    if n_pairs < 1:
        raise ValidationError(f"n_pairs must be >= 1, got {n_pairs}")
    if not distance > 0:
        raise ValidationError(f"distance must be > 0, got {distance}")
    x = as_matrix(np.atleast_2d(x), "x")
    bases, steps = [], []
    for _ in range(n_pairs):
        idx, rng = choice_without_replacement(rng, x.shape[0], 1)
        direction, rng = normal(rng, x.shape[1])
        bases.append(x[idx[0]])
        steps.append(direction / np.linalg.norm(direction) * distance)
    bases, steps = np.array(bases), np.array(steps)
    ends = np.concatenate([bases, bases + steps])
    sq = sum(np.sum((t[n_pairs:] - t[:n_pairs]) ** 2, axis=-1)
             for t in tangents(net, ends, np.eye(x.shape[1])))
    return float(np.max(np.sqrt(sq) / np.linalg.norm(steps, axis=1))), rng


def nuisance_subspace(
    net: MlpEncoderDecoder,
    x,
    y,
    r: int,
    signal_dirs: Sequence[np.ndarray],
    loss: str = "mse",
) -> tuple[np.ndarray, np.ndarray]:
    """Dominant input-gradient directions after removing known signal axes.

    Builds the second-moment matrix of per-sample input-loss gradients,
    projects out the supplied signal directions (Gram-Schmidt), and returns
    the top r eigenvectors of the projected matrix (LAPACK ``eigh``, largest
    eigenvalue first; each direction's sign is arbitrary) together with the
    directional sensitivity E||J_phi w_k||^2 of each.  r = 0 returns empty
    arrays.
    """
    x = as_matrix(np.atleast_2d(x), "x")
    d = x.shape[1]
    if r < 0:
        raise ValidationError("r must be >= 0")
    dirs = [as_vector(v, "signal direction") for v in signal_dirs]
    if r + len(dirs) > d:
        raise ValidationError(f"r + len(signal_dirs) = {r + len(dirs)} exceeds d_in = {d}")
    if r == 0:
        return np.zeros((0, d)), np.zeros(0)
    grads = input_gradient(net, x, y, loss)
    second_moment = grads.T @ grads / x.shape[0]
    # Orthonormalize the signal directions, then deflate the matrix.
    ortho: list[np.ndarray] = []
    for v in dirs:
        try:
            ortho.append(gram_schmidt_project_out(ortho, v))
        except DegenerateDirectionError:
            continue  # direction already spanned; nothing new to remove
    proj = np.eye(d)
    for u in ortho:
        proj -= np.outer(u, u)
    deflated = proj @ second_moment @ proj
    deflated = 0.5 * (deflated + deflated.T)
    _, vecs = np.linalg.eigh(deflated)  # ascending eigenvalues
    top = vecs[:, ::-1][:, :r].T  # rows are directions, largest first
    sens = np.array([float(np.mean(np.sum(t * t, axis=-1))) for t in tangents(net, x, top)])
    return top, sens


# ---------------------------------------------------------------------------
# Report container
# ---------------------------------------------------------------------------


@dataclass
class DiagnosticsReport:
    """All geometry measurements for one model snapshot.

    ``tdi`` and ``drift`` map evaluation noise scales to (value, se);
    ``tdi_at_0`` records the probe scale standing in for sigma -> 0.
    """

    run_id: str
    tdi: dict = field(default_factory=dict)  # sigma -> (value, se)
    tdi_at_0: dict = field(default_factory=dict)  # {"value", "se", "sigma_probe"}
    drift: dict = field(default_factory=dict)  # sigma -> (value, se)
    jac_fro: dict = field(default_factory=dict)  # {"value", "se"}
    directional: dict = field(default_factory=dict)  # probe name -> (mean, se)
    anisotropy: float = float("nan")
    lipschitz: dict = field(default_factory=dict)
    mc_draws: int = 0
    eval_rows: int = 0
    seed: int = 0

    def to_dict(self) -> dict:
        out = asdict(self)
        for key in ("tdi", "drift"):  # sigma keys written with 17 significant digits
            out[key] = {f"{s:.17g}": [v, se] for s, (v, se) in sorted(out[key].items())}
        return out

    def to_json(self, path: str) -> None:
        atomic_write(path, json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")

    def csv_rows(self) -> list[tuple]:
        """Flattened (run_id, metric, sigma, value, se) rows."""
        rows: list[tuple] = []
        if self.tdi_at_0:
            rows.append(
                (
                    self.run_id,
                    "tdi_at_0",
                    self.tdi_at_0["sigma_probe"],
                    self.tdi_at_0["value"],
                    self.tdi_at_0["se"],
                )
            )
        for s, (v, se) in sorted(self.tdi.items()):
            rows.append((self.run_id, "tdi", s, v, se))
        for s, (v, se) in sorted(self.drift.items()):
            rows.append((self.run_id, "drift", s, v, se))
        if self.jac_fro:
            rows.append((self.run_id, "jac_fro", 0.0, self.jac_fro["value"], self.jac_fro["se"]))
        for name, (v, se) in self.directional.items():
            rows.append((self.run_id, f"directional:{name}", 0.0, v, se))
        if np.isfinite(self.anisotropy):
            rows.append((self.run_id, "anisotropy", 0.0, self.anisotropy, 0.0))
        if self.lipschitz:
            rows.append((self.run_id, "lipschitz", 0.0, self.lipschitz["value"], 0.0))
        return rows

    def to_csv(self, path: str) -> None:
        lines = ["run_id,metric,sigma,value,se"] + [
            f"{run_id},{metric},{sigma:.17g},{value:.17g},{se:.17g}"
            for run_id, metric, sigma, value, se in self.csv_rows()
        ]
        atomic_write(path, "\n".join(lines) + "\n")


def diagnose(
    net: MlpEncoderDecoder,
    x_eval,
    sigma_grid: Sequence[float],
    rng: RngState,
    mc_draws: int = 64,
    run_id: str = "run",
    probe_directions: dict | None = None,
) -> DiagnosticsReport:
    """Assemble a full diagnostics report for one model snapshot.  One tdi
    call over [0, *sigma_grid] (grid values all > 0) gives tdi_at_0 and each
    sigma's TDI and drift, all from one set of unit draws."""
    if not all(s > 0 for s in sigma_grid):
        raise ValidationError(f"sigma_grid values must be > 0, got {list(sigma_grid)}")
    x_eval = as_matrix(np.atleast_2d(x_eval), "x_eval")
    report = DiagnosticsReport(
        run_id=run_id, mc_draws=mc_draws, eval_rows=x_eval.shape[0], seed=rng.seed
    )
    (zero, *grid), _ = tdi(net, x_eval, [0.0, *sigma_grid], mc_draws, rng)
    report.tdi_at_0 = {"value": zero.value, "se": zero.se, "sigma_probe": zero.sigma_probe}
    for res in grid:
        report.tdi[res.sigma_requested] = (res.value, res.se)
        report.drift[res.sigma_requested] = (res.drift.value, res.drift.se)
    fro = jac_frobenius(net, x_eval)
    report.jac_fro = {"value": fro.value, "se": fro.se}
    if probe_directions:
        for name, w in probe_directions.items():
            est = mean_se(directional_sensitivity(net, x_eval, w))
            report.directional[name] = (est.value, est.se)
        first = next(iter(probe_directions.values()))
        report.anisotropy = anisotropy_index(net, x_eval, first)
    report.lipschitz = asdict(lipschitz_track(net))
    return report
