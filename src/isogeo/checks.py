"""Executable checks for the provable statements of the Gaussian nuisance model.

Each check measures the quantities a statement constrains, compares them to
the stated bound or target at an explicit tolerance, and emits a
:class:`CheckReport`.  Pass flags are pure functions of the recorded values;
every check is deterministic under its seed.

Identity-style statements (trace identity, Stein identity, exact loss gap,
sub-block inequality) are verified against Monte-Carlo or enumeration
oracles.  A Monte-Carlo check of an exact identity makes m z-tests and
passes each at the two-sided normal quantile :func:`z_star` of m, so that
a correct program fails it at rate at most FALSE_FAIL_ALPHA per seed.
Behavioral statements about trained models (the sensitivity floor, the
adversarial-training geometry signature) train the models they speak about
and test the predicted ordering across seeds.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from statistics import NormalDist

import numpy as np

from . import data as dt
from ._atomic import atomic_write
from .diagnostics import (
    directional_sensitivity,
    jac_frobenius,
    jacobian_lipschitz_fd,
    linearization_remainder,
    lipschitz_track,
    mean_se,
    nuisance_subspace,
)
from .errors import ConfigError, UndertrainedModelError, ValidationError
from .network import Layer, MlpEncoderDecoder, NetSpec, forward_with_trace, tangents
from .experiments import (
    ExperimentConfig, compare_metrics, default_config, run_capsweep, train_stacks
)
from .objectives import TrainConfig, train
from .rng import derive, gaussian_matrix, normal, uniform

# Family-wise false-fail rate of each Monte-Carlo check of an exact identity.
FALSE_FAIL_ALPHA = 1e-3


def z_star(m: int) -> float:
    """Bonferroni z-threshold: m two-sided z-tests, each passing at
    |z| <= z_star(m), all pass with probability at least 1 - FALSE_FAIL_ALPHA
    when the identity holds."""
    return NormalDist().inv_cdf(1.0 - FALSE_FAIL_ALPHA / (2 * m))


@dataclass
class CheckReport:
    """Record of one verification: measured values vs bounds, with MC error."""

    check_id: str
    passed: bool
    measured: dict = field(default_factory=dict)
    bounds: dict = field(default_factory=dict)
    se: dict = field(default_factory=dict)
    n_samples: dict = field(default_factory=dict)
    seed: int = 0
    detail: str = ""

    def to_dict(self) -> dict:
        return {**asdict(self), "passed": bool(self.passed)}


def write_reports(reports: list[CheckReport], path: str) -> None:
    text = json.dumps([r.to_dict() for r in reports], indent=2, sort_keys=True)
    atomic_write(path, text + "\n")


# ---------------------------------------------------------------------------
# Default instances the checks run on
# ---------------------------------------------------------------------------


def default_model(rho: float = 0.5, sigma_eps: float = 0.1) -> dt.GaussianNuisanceModel:
    return dt.GaussianNuisanceModel.canonical(8, 8, rho, sigma_eps)


def dependent_toy(strength: float = 0.8) -> dt.DiscreteNuisanceToy:
    """2x2x2 toy where the label leans on the nuisance given the signal:
    p(y=1 | s, n) = 0.5 + strength/2 if n == 1 else 0.5 - strength/2."""
    if not (0.0 <= strength < 1.0):
        raise ValidationError("strength must be in [0, 1)")
    hi = 0.5 + strength / 2.0
    lo = 0.5 - strength / 2.0
    table = np.array(
        [
            [[1 - lo, lo], [1 - hi, hi]],
            [[1 - lo, lo], [1 - hi, hi]],
        ]
    )
    return dt.discrete_nuisance_toy(table)


def blind_toy() -> dt.DiscreteNuisanceToy:
    """2x2x2 toy where y depends on s only: y | s is Bernoulli(0.9 or 0.1)."""
    table = np.array(
        [
            [[0.9, 0.1], [0.9, 0.1]],
            [[0.1, 0.9], [0.1, 0.9]],
        ]
    )
    return dt.discrete_nuisance_toy(table)


# ---------------------------------------------------------------------------
# Supporting-lemma checks
# ---------------------------------------------------------------------------


def check_subblock_inequality(seed: int = 0, trials: int = 1000) -> CheckReport:
    """||A v||^2 <= ||A||_F^2 for unit v, on random (A, v) pairs.

    The inequality is exact in exact arithmetic; 1e-12 slack absorbs the
    float64 rounding of the two norms.
    """
    rng = derive(seed, "subblock")
    worst = -np.inf
    for _ in range(trials):
        shape_u, rng = uniform(rng, 2)
        m = 1 + int(shape_u[0] * 8)
        d = 1 + int(shape_u[1] * 8)
        a, rng = gaussian_matrix(rng, m, d, 1.0)
        v, rng = normal(rng, d)
        nv = np.linalg.norm(v)
        if nv == 0.0:
            continue
        v = v / nv
        worst = max(worst, float(np.sum((a @ v) ** 2) - np.sum(a**2)))
    passed = worst <= 1e-12
    return CheckReport(
        check_id="subblock_inequality",
        passed=passed,
        measured={"max_violation": worst},
        bounds={"max_violation_allowed": 1e-12},
        n_samples={"pairs": trials},
        seed=seed,
        detail="max over pairs of ||Av||^2 - ||A||_F^2",
    )


def check_stein_identity(
    model: dt.GaussianNuisanceModel | None = None,
    g_tag: str = "cubic",
    n: int = 1_000_000,
    seed: int = 0,
) -> CheckReport:
    """E[g(n) <v, n>] = E[d_v g(n)] for Gaussian nuisance, v = w_n.

    quadratic: g = <w_n, n>^2, both sides 0 (odd-moment symmetry).
    cubic:     g = <w_n, n>^3, both sides 3 (Gaussian fourth moment).
    """
    if g_tag not in ("quadratic", "cubic"):
        raise ValidationError(f"g_tag must be 'quadratic' or 'cubic', got {g_tag!r}")
    if n < 2:
        raise ValidationError(f"n must be >= 2 for a standard error, got {n}")
    model = model or default_model()
    rng = derive(seed, "stein", g_tag)
    nu = np.empty(n)
    chunk = 200_000
    for i in range(0, n, chunk):
        nn, rng = normal(rng, (min(chunk, n - i), model.d_n))
        nu[i : i + chunk] = nn @ model.w_n
        del nn  # before the next chunk is drawn
    # Products are formed in place, so at most nu and the two sample
    # vectors are held at once.
    if g_tag == "quadratic":
        lhs_samples = nu**2  # g(n) <v, n> = nu^2 nu
        rhs_samples = 2.0 * nu  # d_v g = 2 <w_n, n>
        target = 0.0
    else:
        lhs_samples = nu**3
        rhs_samples = nu**2  # d_v g = 3 nu^2
        rhs_samples *= 3.0
        target = 3.0
    lhs_samples *= nu
    del nu
    lhs = float(lhs_samples.mean())
    rhs = float(rhs_samples.mean())
    se_l = float(lhs_samples.std(ddof=1) / np.sqrt(n))
    se_r = float(rhs_samples.std(ddof=1) / np.sqrt(n))
    diff = np.subtract(lhs_samples, rhs_samples, out=lhs_samples)
    del lhs_samples, rhs_samples
    se_d = float(diff.std(ddof=1) / np.sqrt(n))
    z = z_star(3)
    passed = (
        abs(lhs - target) <= z * se_l
        and abs(rhs - target) <= z * se_r
        and abs(float(diff.mean())) <= z * se_d
    )
    return CheckReport(
        check_id=f"stein_identity_{g_tag}",
        passed=passed,
        measured={"lhs": lhs, "rhs": rhs, "difference": float(diff.mean())},
        bounds={"target": target, "tolerance_rule": z},
        se={"lhs": se_l, "rhs": se_r, "difference": se_d},
        n_samples={"draws": n},
        seed=seed,
        detail="lhs = E[g <v,n>], rhs = E[directional derivative], z_star(3)-SE rule",
    )


def check_encoding_necessity(
    model: dt.GaussianNuisanceModel | None = None, n: int = 1_000_000, seed: int = 0
) -> CheckReport:
    """The loss-optimal predictor keeps mean nuisance-directional derivative
    exactly rho: verified directly (the derivative is constant) and through
    the Stein route E[f*(x) <w_n, n>] = rho.  The per-row products are
    made block by block into one n-vector."""
    if n < 2:
        raise ValidationError(f"n must be >= 2 for a standard error, got {n}")
    model = model or default_model()
    samples = np.empty(n)
    for rows, x, _ in dt.sample_blocks(model, n, derive(seed, "encoding")):
        samples[rows] = dt.bayes_predictor(model, x) * (x[:, model.d_s :] @ model.w_n)
    stein_lhs = float(samples.mean())
    se = float(samples.std(ddof=1) / np.sqrt(n))
    direct = model.rho  # d/d(w_n direction) of <w_s,s> + rho <w_n,n> is rho everywhere
    z = z_star(1)
    passed = abs(stein_lhs - model.rho) <= z * se and abs(direct - model.rho) == 0.0
    return CheckReport(
        check_id="encoding_necessity",
        passed=passed,
        measured={"stein_route": stein_lhs, "direct_derivative": direct},
        bounds={"target": model.rho, "tolerance_rule": z},
        se={"stein_route": se},
        n_samples={"draws": n},
        seed=seed,
        detail="mean nuisance-directional derivative of the optimal predictor",
    )


def check_bregman_loss_gap(toy: dt.DiscreteNuisanceToy | None = None, seed: int = 0) -> CheckReport:
    """Strict-properness identity on the discrete toy, by exact enumeration:
    E_{y~p}[CE(q, y)] - E_{y~p}[CE(p, y)] = KL(p || q) at every input cell,
    and the blindness gap Delta = E_x KL(p(y|x) || p(y|s)) is nonnegative,
    zero exactly when the nuisance condition I(n;y|s)=0 holds."""
    toy = toy or dependent_toy()
    p_ys = toy.p_y_given_s()
    worst = 0.0
    S, N, Y = toy.shape
    for si in range(S):
        for ni in range(N):
            p = toy.p_y_given_x[si, ni]
            q = p_ys[si]
            ce_gap = float(np.sum(p * np.log(np.maximum(p, 1e-300)))
                           - np.sum(p * np.log(np.maximum(q, 1e-300))))
            kl = float(np.sum(p[p > 0] * np.log(p[p > 0] / q[p > 0])))
            worst = max(worst, abs(ce_gap - kl))
    gap_dependent = toy.kl_gap()
    gap_blind = blind_toy().kl_gap()
    passed = worst <= 1e-12 and gap_dependent > 0 and abs(gap_blind) <= 1e-12
    return CheckReport(
        check_id="bregman_loss_gap",
        passed=passed,
        measured={
            "max_identity_error": worst,
            "gap_dependent_toy": gap_dependent,
            "gap_blind_toy": gap_blind,
        },
        bounds={"identity_tolerance": 1e-12},
        n_samples={"cells": S * N},
        seed=seed,
        detail="cross-entropy excess equals KL at every cell; gap sign splits the toys",
    )


def check_linearized_drift(
    sigmas: tuple = (0.01, 0.02, 0.05),
    seed: int = 0,
    mc_draws: int = 400,
    eval_rows: int = 256,
) -> CheckReport:
    """Drift minus its linearization obeys the curvature remainder bound.

    For a linear encoder the paired remainder is exactly zero.  For a tanh
    encoder, |remainder| <= (3/2) beta^2 d^2 sigma^4 + z SE at every sigma,
    with beta estimated by finite-difference Jacobian variation (max over
    probe pairs, biased high, hence conservative); the remainder must also
    scale like sigma^4: some ratio r within a factor two of 16 has
    |rem(0.02) - r rem(0.01)| <= z sqrt(se(0.02)^2 + r^2 se(0.01)^2).  The
    five comparisons share z = z_star(5).
    """
    rng = derive(seed, "lindrift")
    x, rng = normal(rng, (eval_rows, 8))

    w_lin, rng = gaussian_matrix(rng, 6, 8, 0.5)
    linear = MlpEncoderDecoder(
        [Layer(w_lin, np.zeros(6), "identity")], Layer(np.ones((1, 6)), np.zeros(1), "identity")
    )
    lin_rem, rng = linearization_remainder(linear, x, 0.05, 64, rng)

    w1, rng = gaussian_matrix(rng, 12, 8, 0.6)
    w2, rng = gaussian_matrix(rng, 6, 12, 0.6)
    tanh_net = MlpEncoderDecoder(
        [Layer(w1, np.zeros(12), "tanh"), Layer(w2, np.zeros(6), "tanh")],
        Layer(np.ones((1, 6)), np.zeros(1), "identity"),
    )
    beta, rng = jacobian_lipschitz_fd(tanh_net, x, rng, n_pairs=100, distance=0.1)
    d = x.shape[1]
    z = z_star(len(sigmas) + 2)
    measured = {}
    bounds = {"tolerance_rule": z}
    ses = {}
    ok = abs(lin_rem.value) <= max(z * lin_rem.se, 1e-15)
    measured["linear_remainder"] = lin_rem.value
    ses["linear_remainder"] = lin_rem.se
    remainders = {}
    for s in sigmas:
        rem, rng = linearization_remainder(tanh_net, x, s, mc_draws, rng)
        bound = 1.5 * beta**2 * d**2 * s**4
        remainders[s] = rem
        measured[f"tanh_remainder_sigma={s:g}"] = rem.value
        bounds[f"tanh_bound_sigma={s:g}"] = bound
        ses[f"tanh_remainder_sigma={s:g}"] = rem.se
        if abs(rem.value) > bound + z * rem.se:
            ok = False
    small, large = remainders[sigmas[0]], remainders[sigmas[1]]
    measured["scaling_ratio_02_01"] = abs(large.value) / max(abs(small.value), 1e-300)
    # |large - r small| / its SE falls to 0 at r = large / small and has no
    # other minimum, so over the window it is least at that r clipped in.
    lo, hi = 8.0, 32.0
    ratios = (lo, hi, min(max(large.value / small.value, lo), hi)) if small.value else (lo, hi)
    window_z = min(
        abs(large.value - r * small.value) / np.hypot(large.se, r * small.se) for r in ratios
    )
    measured["scaling_window_z"] = float(window_z)
    bounds["scaling_ratio_window"] = [lo, hi]
    if window_z > z:
        ok = False
    measured["beta_hat"] = beta
    return CheckReport(
        check_id="linearized_drift_remainder",
        passed=ok,
        measured=measured,
        bounds=bounds,
        se=ses,
        n_samples={"mc_draws": mc_draws, "eval_rows": eval_rows},
        seed=seed,
        detail="paired remainder vs (3/2) beta^2 d^2 sigma^4 bound and sigma^4 scaling",
    )


# ---------------------------------------------------------------------------
# Proposition checks
# ---------------------------------------------------------------------------


def check_isotropic_trace_identity(
    dim: int = 5,
    n_pairs: int = 200,
    n_anisotropic: int = 50,
    mc_per_pair: int = 4000,
    seed: int = 0,
) -> CheckReport:
    """Sufficiency and necessity of the isotropic trace identity.

    Sufficiency: for random (J, sigma), Monte-Carlo E||J delta||^2 with
    isotropic Gaussian delta matches sigma^2 ||J||_F^2 within z_star(n_pairs)
    exact SEs: q = ||J delta||^2 has Var q = 2 sigma^4 ||J^T J||_F^2.
    Necessity: for anisotropic covariances, the basis construction
    (A = e_i e_i^T and (e_i+e_j)(e_i+e_j)^T) exhibits a witness showing no
    single sigma^2 satisfies Tr(A Sigma) = sigma^2 Tr(A) for all A.
    """
    if dim < 2:
        raise ValidationError("dim must be >= 2")
    rng = derive(seed, "trace-identity")
    z_allowed = z_star(n_pairs)
    worst_z = 0.0
    fails = 0
    for _ in range(n_pairs):
        j, rng = gaussian_matrix(rng, dim, dim, 1.0)
        u, rng = uniform(rng, ())
        sigma = 0.2 + 1.3 * float(u)
        delta, rng = normal(rng, (mc_per_pair, dim), sigma)
        q = np.sum((delta @ j.T) ** 2, axis=1)
        exact = sigma**2 * float(np.sum(j**2))
        se = float(np.sqrt(2.0 * sigma**4 * np.sum((j.T @ j) ** 2) / mc_per_pair))
        z = abs(float(q.mean()) - exact) / se
        worst_z = max(worst_z, z)
        if z > z_allowed:
            fails += 1

    witnessed = 0
    for _ in range(n_anisotropic):
        scales, rng = uniform(rng, dim)
        diag = 0.2 + 1.8 * scales
        diag[0] *= 2.0  # guarantee genuinely unequal variances
        kind, rng = uniform(rng, ())
        if kind < 0.5:
            cov = np.diag(diag)
        else:
            g, rng = gaussian_matrix(rng, dim, dim, 1.0)
            q_rot, _ = np.linalg.qr(g)
            cov = q_rot @ np.diag(diag) @ q_rot.T
        # A = e_i e_i^T probes the diagonal; (e_i+e_j)(...)^T probes off-diagonal.
        diag_entries = np.diag(cov)
        found = np.max(diag_entries) - np.min(diag_entries) > 1e-9
        if not found:
            for i in range(dim):
                for jdx in range(i + 1, dim):
                    probe = cov[i, i] + cov[jdx, jdx] + 2 * cov[i, jdx]
                    if abs(probe - (cov[i, i] + cov[jdx, jdx])) > 1e-9:
                        found = True
                        break
                if found:
                    break
        witnessed += int(found)

    passed = fails == 0 and witnessed == n_anisotropic
    return CheckReport(
        check_id="isotropic_trace_identity",
        passed=passed,
        measured={
            "sufficiency_worst_z": worst_z,
            "sufficiency_failures": fails,
            "necessity_witnessed": witnessed,
        },
        bounds={"z_allowed": z_allowed, "necessity_required": n_anisotropic},
        n_samples={"pairs": n_pairs, "mc_per_pair": mc_per_pair},
        seed=seed,
        detail="E||J delta||^2 vs sigma^2 ||J||_F^2; anisotropy witnessed by basis probes",
    )


def check_anisotropy_floor(seed: int = 0, trials: int = 1000, dim: int = 6) -> CheckReport:
    """Anisotropy index >= 1 on random maps; exactly 1 on a rank-1 map with
    aligned probe; exactly d on the identity map."""
    rng = derive(seed, "anisotropy")
    min_val = np.inf
    for _ in range(trials):
        j, rng = gaussian_matrix(rng, dim, dim, 1.0)
        w, rng = normal(rng, dim)
        w = w / np.linalg.norm(w)
        num = float(np.sum(j**2))
        den = float(np.sum((j @ w) ** 2))
        if den < 1e-12:
            continue
        min_val = min(min_val, num / den)

    u, rng = normal(rng, dim)
    v, rng = normal(rng, dim)
    v = v / np.linalg.norm(v)
    rank1 = np.outer(u, v)
    a_rank1 = float(np.sum(rank1**2) / np.sum((rank1 @ v) ** 2))
    a_identity = float(np.sum(np.eye(dim) ** 2) / np.sum((np.eye(dim) @ v) ** 2))

    passed = (
        min_val >= 1.0 - 1e-9
        and abs(a_rank1 - 1.0) <= 1e-9
        and abs(a_identity - dim) <= 1e-9
    )
    return CheckReport(
        check_id="anisotropy_floor",
        passed=passed,
        measured={"random_min": float(min_val), "rank1": a_rank1, "identity": a_identity},
        bounds={"floor": 1.0, "rank1_target": 1.0, "identity_target": float(dim)},
        n_samples={"trials": trials},
        seed=seed,
        detail="Frobenius-to-directional mass ratio over random, rank-1, identity maps",
    )


def check_cap_fixed_point(
    caps: tuple = (0.10, 0.15, 0.25, 0.30, 0.40, 0.60),
    seed: int = 0,
    steps: int = 4000,
    tolerance: float = 0.01,
) -> CheckReport:
    """Steady-state penalty fraction equals cap/(1+cap) for every cap.

    Targets for the default grid: 0.091, 0.130, 0.200, 0.231, 0.286, 0.375.
    Steady state is the final 20% of steps.  The fractions are the
    ``fraction`` column of the capsweep experiment (run_capsweep) at the
    given seed, length and caps.  A cap whose net diverged reads NaN there,
    which fails its comparison, so the check fails without raising.
    """
    table = run_capsweep(default_config("capsweep", seed=seed, steps=steps, cap_grid=tuple(caps)))
    measured = {}
    bounds = {}
    ok = True
    for cap, row in zip(caps, table.row_keys):
        frac = table.get(row, "fraction")[0]
        target = cap / (1.0 + cap)
        measured[f"fraction_cap={cap:g}"] = frac
        bounds[f"target_cap={cap:g}"] = target
        ok = ok and abs(frac - target) <= tolerance
    return CheckReport(
        check_id="cap_fixed_point",
        passed=ok,
        measured=measured,
        bounds={**bounds, "tolerance": tolerance},
        n_samples={"steps": steps, "caps": len(caps)},
        seed=seed,
        detail="mean penalty fraction over the final 20% of steps vs cap/(1+cap)",
    )


# ---------------------------------------------------------------------------
# Main-result checks
# ---------------------------------------------------------------------------


def train_linear_erm(
    model: dt.GaussianNuisanceModel,
    seed: int = 0,
    steps: int = 8000,
    lr: float = 0.02,
    rep_dim: int = 8,
) -> MlpEncoderDecoder:
    """ERM-train the linear encoder/decoder used by the sensitivity-floor check."""
    spec = NetSpec(
        input_dim=model.d_in, hidden=(), rep_dim=rep_dim, out_dim=1, activation="identity"
    )
    cfg = TrainConfig(objective="erm", lr=lr, steps=steps, batch_size=64, seed=seed)
    net, _ = train(cfg, spec, dt.model_batch_source(model))
    return net


def check_nuisance_sensitivity_floor(
    model: dt.GaussianNuisanceModel | None = None,
    net: MlpEncoderDecoder | None = None,
    sigma: float = 0.1,
    seed: int = 0,
    eval_rows: int = 4096,
) -> CheckReport:
    """Trained-model drift floor: sigma^2 E||J||_F^2 >= sigma^2 rho^2 / L^2
    and E||J_n w_n|| >= rho / L, with L the measured decoder spectral norm.

    Requires the net to be ERM-trained to task loss within 5% of the
    irreducible optimum; otherwise raises UndertrainedModelError.  The
    directional comparison allows z_star(1) MC standard errors plus the exact
    optimization-gap allowance sqrt(max(0, mse - optimum)) / L (for a linear
    model under unit input covariance, excess MSE equals the squared
    parameter error exactly).
    """
    model = model or default_model()
    if net is None:
        net = train_linear_erm(model, seed=seed)
    rng = derive(seed, "floor-eval")
    batch, rng = dt.sample(model, eval_rows, rng)
    pred, _ = forward_with_trace(net, batch.x)
    mse = float(np.mean((pred[:, 0] - batch.y) ** 2))
    optimum = model.bayes_mse()
    if mse > 1.05 * optimum:
        raise UndertrainedModelError(
            f"task loss {mse:.6f} exceeds 1.05 x optimum {optimum:.6f}", measured_loss=mse
        )
    lip = lipschitz_track(net).value
    x_jac = batch.x[:512]
    fro2, fro2_se, jac_rows = jac_frobenius(net, x_jac)
    w_n_full = np.concatenate([np.zeros(model.d_s), model.w_n])
    sens, sens_se, _ = mean_se(directional_sensitivity(net, x_jac, w_n_full))
    opt_gap = float(np.sqrt(max(0.0, mse - optimum)))
    drift_lin = sigma**2 * fro2
    drift_bound = sigma**2 * model.rho**2 / lip**2
    dir_bound = model.rho / lip
    slack = z_star(1) * sens_se + opt_gap / lip
    passed = drift_lin >= drift_bound and sens >= dir_bound - slack
    return CheckReport(
        check_id="nuisance_sensitivity_floor",
        passed=passed,
        measured={
            "linearized_drift": drift_lin,
            "directional_sensitivity": sens,
            "task_mse": mse,
            "lipschitz": lip,
            "frobenius_sq": fro2,
        },
        bounds={
            "drift_floor": drift_bound,
            "directional_floor": dir_bound,
            "directional_slack": slack,
        },
        se={"frobenius_sq": fro2_se, "directional_sensitivity": sens_se},
        n_samples={"eval_rows": eval_rows, "jacobian_rows": jac_rows},
        seed=seed,
        detail="ERM-trained linear encoder keeps nuisance-direction sensitivity",
    )


def check_proper_loss_drift_floor(
    toy: dt.DiscreteNuisanceToy | None = None,
    sigma: float = 0.05,
    seed: int = 0,
    steps: int = 6000,
) -> CheckReport:
    """Cross-entropy version of the drift floor on the discrete toy.

    Delta = E_x KL(p(y|x) || p(y|s)) by exact enumeration; a small tanh
    classifier trained by cross-entropy on the toy must satisfy
    sigma^2 E||J||_F^2 >= sigma^2 Delta / L^2, with E||J||_F^2 the exact
    probability-weighted sum over the toy's support, so no SE allowance
    enters.  Also verifies the enumeration against an explicit 8-cell hand
    sum and the monotonicity of Delta in the dependence strength.
    """
    toy = toy or dependent_toy()
    delta_exact = toy.kl_gap()

    # Independent 8-cell enumeration (no reuse of the library path).
    p_ys = toy.p_y_given_s()
    hand = 0.0
    S, N, Y = toy.shape
    for si in range(S):
        for ni in range(N):
            for yi in range(Y):
                p = toy.p_y_given_x[si, ni, yi]
                if p > 0:
                    hand += toy.p_x[si, ni] * p * np.log(p / p_ys[si, yi])
    enum_err = abs(hand - delta_exact)

    strengths = [0.2, 0.5, 0.8]
    gaps = [dependent_toy(s).kl_gap() for s in strengths]
    monotone = all(b > a for a, b in zip(gaps, gaps[1:]))

    spec = NetSpec(input_dim=2, hidden=(16,), rep_dim=8, out_dim=toy.shape[2], activation="tanh")
    cfg = TrainConfig(
        objective="erm", lr=0.1, steps=steps, batch_size=64, seed=seed, loss="cross-entropy"
    )
    net, _ = train(cfg, spec, toy.batch_source())
    x_cells, weights = toy.support_points()
    sq = [np.sum(t * t, axis=-1) for t in tangents(net, x_cells, np.eye(spec.input_dim))]
    fro2 = float(np.sum(weights * np.stack(sq, axis=-1).sum(axis=-1)))
    lip = lipschitz_track(net).value
    lhs = sigma**2 * fro2
    rhs = sigma**2 * delta_exact / lip**2
    passed = enum_err <= 1e-12 and monotone and lhs >= rhs
    return CheckReport(
        check_id="proper_loss_drift_floor",
        passed=passed,
        measured={
            "delta_enumerated": delta_exact,
            "enumeration_error": enum_err,
            "drift_lhs": lhs,
            "gap_monotone": float(monotone),
            "lipschitz": lip,
        },
        bounds={"drift_floor": rhs, "enumeration_tolerance": 1e-12},
        n_samples={"train_steps": steps, "cells": S * N},
        seed=seed,
        detail="KL blindness gap lower-bounds trained-classifier drift",
    )


def _suppression_gap(rho: float, n: int, seed: int, sigma_eps: float) -> float:
    """Mean of (f_blind - y)^2 - (f_star - y)^2 over n rows drawn at rho.
    The rows come in blocks from dt.sample_blocks, each block's differences
    going into one n-vector, so a call holds that vector and one block."""
    model = dt.GaussianNuisanceModel.canonical(4, 4, rho, sigma_eps)
    diff = np.empty(n)
    for rows, x, y in dt.sample_blocks(model, n, derive(seed, "cost", rho)):
        f_star = dt.bayes_predictor(model, x)
        f_blind = dt.signal_only_predictor(model, x)
        diff[rows] = (f_blind - y) ** 2 - (f_star - y) ** 2
    return float(diff.mean())


def check_suppression_cost_exact(
    rhos: tuple = (0.1, 0.5, 0.9),
    n: int = 1_000_000,
    seed: int = 0,
    sigma_eps: float = 0.1,
) -> CheckReport:
    """The nuisance-blind predictor pays exactly rho^2 extra MSE.

    Paired Monte-Carlo: the per-sample difference of squared errors between
    the signal-only and the conditional-mean predictor is
    rho^2 nu^2 + 2 rho nu eps (nu = <w_n, n>), with expectation rho^2 and
    variance 2 rho^4 + 4 rho^2 sigma_eps^2; each rho must match within
    z_star(len(rhos)) of those exact SEs at the stated sample count.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    z = z_star(len(rhos))
    measured = {}
    bounds = {}
    ses = {}
    ok = True
    for rho in rhos:
        gap = _suppression_gap(rho, n, seed, sigma_eps)
        se = float(np.sqrt((2 * rho**4 + 4 * rho**2 * sigma_eps**2) / n))
        measured[f"gap_rho={rho:g}"] = gap
        bounds[f"target_rho={rho:g}"] = rho**2
        ses[f"gap_rho={rho:g}"] = se
        if abs(gap - rho**2) > z * se:
            ok = False
    return CheckReport(
        check_id="suppression_cost_exact",
        passed=ok,
        measured=measured,
        bounds={**bounds, "tolerance_rule": z},
        se=ses,
        n_samples={"draws_per_rho": n},
        seed=seed,
        detail="MSE(signal-only) - MSE(conditional mean) vs rho^2, paired MC",
    )


def check_adversarial_geometry_signature(
    seed: int = 0,
    n_seeds: int = 5,
    config: ExperimentConfig = ExperimentConfig(kind="compare", mc_draws=48),
) -> CheckReport:
    """Adversarial training's qualitative geometry signature across seeds.

    Per seed, ERM / PGD / PMH nets share architecture, data stream, and
    training length.  The prediction: PGD attains a smaller exact
    Jacobian Frobenius norm than ERM while its clean-input TDI is not below
    ERM's; and PMH's TDI does not exceed ERM's.  Each half must hold on a
    majority (>= 3 of 5) of seeds; single-seed training noise is expected.

    Training is the compare experiment's setup (config): the default
    correlated-nuisance model with sign labels and cross-entropy loss, under
    which the plain-ERM encoder inflates its Jacobian (logit growth), the
    regime where adversarial training visibly redistributes sensitivity.
    Every objective trains at seeds seed .. seed + n_seeds - 1, as one
    stack per objective, and every net is measured by
    experiments.compare_metrics: its tdi_at_0 and jac_fro_sq are the cells
    run_compare gives at that seed, and the three nets of one seed share
    their eval batch.  A diverged net reads NaN, which fails every
    comparison, so it is a miss at its seed.
    """
    if n_seeds < 1:
        raise ValidationError(f"n_seeds must be >= 1, got {n_seeds}")
    seeds = tuple(range(seed, seed + n_seeds))
    per_seed = {s: {} for s in seeds}
    for objective in ("erm", "pgd", "pmh"):
        cfgs = [config.train_config(objective, s) for s in seeds]
        for s, trained in zip(seeds, train_stacks(config, cfgs)):
            metrics = compare_metrics(config, objective, s, trained)
            per_seed[s][f"tdi_{objective}"] = metrics.get("tdi_at_0", (math.nan,))[0]
            per_seed[s][f"fro_{objective}"] = metrics.get("jac_fro_sq", (math.nan,))[0]
    for v in per_seed.values():
        v["pgd_signature"] = v["fro_pgd"] < v["fro_erm"] and v["tdi_pgd"] >= v["tdi_erm"]
        v["pmh_signature"] = v["tdi_pmh"] <= v["tdi_erm"]
    pgd_hits = sum(v["pgd_signature"] for v in per_seed.values())
    pmh_hits = sum(v["pmh_signature"] for v in per_seed.values())
    need = len(seeds) // 2 + 1
    passed = pgd_hits >= need and pmh_hits >= need
    flat = {f"seed={s}:{name}": float(x) for s, v in per_seed.items() for name, x in v.items()}
    return CheckReport(
        check_id="adversarial_geometry_signature",
        passed=passed,
        measured={"pgd_signature_seeds": pgd_hits, "pmh_signature_seeds": pmh_hits, **flat},
        bounds={"majority_needed": need, "total_seeds": len(seeds)},
        n_samples={"train_steps": config.steps, "seeds": len(seeds)},
        seed=seed,
        detail="PGD: lower Jac-Fro with TDI not below ERM; PMH: TDI <= ERM",
    )


def check_nuisance_subspace_recovery(
    model: dt.GaussianNuisanceModel | None = None, seed: int = 0, eval_rows: int = 2048
) -> CheckReport:
    """With the conditional-mean predictor as the network, the top
    input-gradient direction after removing the signal axis aligns with the
    nuisance weight direction (|cosine| >= 0.99); directional drift is
    nondecreasing in the subspace size."""
    model = model or default_model()
    d = model.d_in
    w_enc = np.eye(d)
    dec_w = np.concatenate([model.w_s, model.rho * model.w_n])[None, :]
    net = MlpEncoderDecoder(
        [Layer(w_enc, np.zeros(d), "identity")],
        Layer(dec_w, np.zeros(1), "identity"),
    )
    rng = derive(seed, "subspace")
    batch, rng = dt.sample(model, eval_rows, rng)
    w_s_full = np.concatenate([model.w_s, np.zeros(model.d_n)])
    dirs, sens = nuisance_subspace(net, batch.x, batch.y, 1, [w_s_full], loss="mse")
    w_n_full = np.concatenate([np.zeros(model.d_s), model.w_n])
    cosine = abs(float(dirs[0] @ w_n_full))

    totals = []
    for r in (1, 2, 4):
        _, s_r = nuisance_subspace(net, batch.x, batch.y, r, [w_s_full], loss="mse")
        totals.append(float(np.sum(s_r)))
    monotone = all(b >= a - 1e-12 for a, b in zip(totals, totals[1:]))
    empty_dirs, _ = nuisance_subspace(net, batch.x, batch.y, 0, [w_s_full], loss="mse")

    passed = cosine >= 0.99 and monotone and empty_dirs.shape[0] == 0
    return CheckReport(
        check_id="nuisance_subspace_recovery",
        passed=passed,
        measured={
            "cosine": cosine,
            "subspace_drift_r1": totals[0],
            "subspace_drift_r2": totals[1],
            "subspace_drift_r4": totals[2],
        },
        bounds={"cosine_floor": 0.99},
        n_samples={"eval_rows": eval_rows},
        seed=seed,
        detail="top deflated gradient eigenvector vs the nuisance direction",
    )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

ALL_CHECKS = {
    "subblock_inequality": check_subblock_inequality,
    "stein_identity_quadratic": lambda seed=0: check_stein_identity(g_tag="quadratic", seed=seed),
    "stein_identity_cubic": lambda seed=0: check_stein_identity(g_tag="cubic", seed=seed),
    "encoding_necessity": check_encoding_necessity,
    "bregman_loss_gap": check_bregman_loss_gap,
    "linearized_drift_remainder": check_linearized_drift,
    "isotropic_trace_identity": check_isotropic_trace_identity,
    "anisotropy_floor": check_anisotropy_floor,
    "cap_fixed_point": check_cap_fixed_point,
    "nuisance_sensitivity_floor": check_nuisance_sensitivity_floor,
    "proper_loss_drift_floor": check_proper_loss_drift_floor,
    "suppression_cost_exact": check_suppression_cost_exact,
    "adversarial_geometry_signature": check_adversarial_geometry_signature,
    "nuisance_subspace_recovery": check_nuisance_subspace_recovery,
}


def run_checks(names: list[str] | None = None, seed: int = 0) -> list[CheckReport]:
    """Run the named checks (all by default), each on its own derived stream."""
    selected = list(ALL_CHECKS) if names is None else names
    if not selected:
        raise ConfigError("no check selected")
    unknown = [n for n in selected if n not in ALL_CHECKS]
    if unknown:
        raise ValidationError(f"unknown checks: {unknown}; known: {sorted(ALL_CHECKS)}")
    return [ALL_CHECKS[name](seed=seed) for name in selected]
