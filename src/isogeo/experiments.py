"""Experiment orchestration: method comparisons, noise-alignment grids,
cap sweeps, multi-scale runs, and deterministic result emission.

Configurations are flat ``key = value`` files with ``[section]`` headers
(parsed by the stdlib configparser; the grammar is documented in the README).
Every experiment is a pure function of (config, seed): grid cells derive
their own streams from a hash of the base seed and the cell key, so results
are byte-identical across reruns and independent of worker scheduling.
talign, multiscale and capsweep are a list of cells, each a TrainConfig
plus the arguments of a measure function, run by measure_cells: it trains
consecutive cells of one objective as stacks of at most STACK_SIZE
(objectives.train_stack) and measures each net.  A member of a stack ends
exactly as it would alone, so stacking does not change results either.
compare trains one net at a time (see _compare_cells).
Emitted files contain no timestamps and format floats with 17 significant
digits, which round-trips float64 losslessly.
"""

from __future__ import annotations

import configparser
import functools
import itertools
import json
import math
import os
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import data as dt
from ._atomic import atomic_write
from ._blas import set_one_thread
from .diagnostics import jac_frobenius, lipschitz_track, tdi
from .errors import ConfigError, TrainingDivergedError, ValidationError
from .network import NetSpec, forward_with_trace
from .objectives import OBJECTIVES, PgdConfig, TrainConfig, WarmupSchedule, train, train_stack
from .rng import RngState, derive


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    seed: int = 0
    outdir: str = "results"
    # data model
    d_s: int = 8
    d_n: int = 8
    rho: float = 0.5
    sigma_eps: float = 0.1
    # architecture
    hidden: tuple[int, ...] = (32,)
    rep_dim: int = 16
    # training
    steps: int = 20000
    lr: float = 0.15
    batch_size: int = 32
    loss: str = "cross-entropy"
    sigma_train: float = 0.1
    sigma_train_grid: tuple[float, ...] = (0.05, 0.1, 0.2, 0.4)
    cap: float = 0.3
    cap_grid: tuple[float, ...] = (0.10, 0.15, 0.25, 0.30, 0.40, 0.60)
    lam: float = 100.0
    pgd_epsilon: float = 0.3
    pgd_steps: int = 20
    methods: tuple[str, ...] = ("erm", "pgd", "pmh")
    sigma_range: tuple[float, ...] = (0.05, 0.2)  # multi-scale training range
    # evaluation
    sigma_eval: tuple[float, ...] = (0.05, 0.1, 0.2, 0.4)
    eval_rows: int = 512
    mc_draws: int = 32
    seeds_per_cell: int = 5

    def __post_init__(self):
        if self.kind not in RUNNERS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        unknown = [m for m in self.methods if m not in OBJECTIVES]
        if unknown:
            raise ConfigError(f"unknown methods {unknown}; expected some of {list(OBJECTIVES)}")
        if not all(0.0 <= s < math.inf for s in self.sigma_eval):
            raise ConfigError(f"sigma_eval entries must be finite and >= 0, got {self.sigma_eval}")
        counts = ("steps", "batch_size", "eval_rows", "mc_draws", "seeds_per_cell", "pgd_steps")
        below_one = [name for name in counts if getattr(self, name) < 1]
        if below_one:
            raise ConfigError(f"{', '.join(below_one)} must be >= 1")
        if len(self.sigma_range) != 2:
            raise ConfigError(f"sigma_range must be (lo, hi), got {self.sigma_range}")
        try:
            RngState(self.seed)  # a seed outside [0, 2**64) names no stream
            self.model()  # the data model checks d_s, d_n, rho and sigma_eps
            self.net_spec()  # every layer width >= 1
            base = self.train_config("pmh", self.seed)  # lr, lam, cap, sigma_train, pgd
        except ValidationError as exc:
            raise ConfigError(str(exc)) from exc
        # Every grid cell's TrainConfig, so a bad entry fails before any cell trains.
        entries = [("sigma_train_grid", "sigma_train", s) for s in self.sigma_train_grid]
        entries += [("cap_grid", "cap", c) for c in self.cap_grid]
        entries.append(("sigma_range", "sigma_train", tuple(self.sigma_range)))
        for name, key, value in entries:
            try:
                replace(base, **{key: value})
            except ValidationError as exc:
                raise ConfigError(f"{name} entry {value}: {exc}") from exc
        for name in ("sigma_eval", "sigma_train_grid"):  # read as increasing scales
            grid = getattr(self, name)
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise ConfigError(f"{name} must be strictly increasing")
        # Each entry labels one table row or column; a repeated label fills it twice.
        for name in ("methods", "cap_grid", "sigma_train_grid", "sigma_eval"):
            keys = [v if isinstance(v, str) else f"{v:g}" for v in getattr(self, name)]
            if len(set(keys)) < len(keys):
                raise ConfigError(f"{name} repeats a row or column label: {' '.join(keys)}")

    def model(self) -> dt.GaussianNuisanceModel:
        return dt.GaussianNuisanceModel.canonical(self.d_s, self.d_n, self.rho, self.sigma_eps)

    def data_source(self):
        """Batch source of the task, (states, n) -> (x (K, n, d), y (K, n),
        states): sign labels under cross-entropy, the continuous target
        otherwise."""
        model = self.model()
        if self.loss == "cross-entropy":
            def source(states, n):
                x, y, states = dt.sample_stack(model, n, states)
                return x, dt.threshold_labels(y), states
            return source
        return dt.model_batch_source(model)

    def net_spec(self) -> NetSpec:
        out_dim = 2 if self.loss == "cross-entropy" else 1
        return NetSpec(
            input_dim=self.d_s + self.d_n,
            hidden=self.hidden,
            rep_dim=self.rep_dim,
            out_dim=out_dim,
            activation="tanh",
        )

    def train_config(self, objective: str, seed: int, sigma_train=None) -> TrainConfig:
        return TrainConfig(
            objective=objective,
            sigma_train=self.sigma_train if sigma_train is None else sigma_train,
            lam=self.lam,
            cap=self.cap,
            warmup=WarmupSchedule(t0=int(0.1 * self.steps), duration=max(1, int(0.3 * self.steps))),
            pgd=PgdConfig(epsilon=self.pgd_epsilon, steps=self.pgd_steps),
            lr=self.lr,
            steps=self.steps,
            batch_size=self.batch_size,
            seed=seed,
            loss=self.loss,
        )


_FIELD_TYPES = typing.get_type_hints(ExperimentConfig)  # what parse_config casts each key to
_SECTIONS = {"experiment", "data", "train", "eval"}

# Kind-specific defaults, calibrated so each experiment runs in the regime
# where its effect is measurable at desk scale.  The alignment grid uses a
# regression task with a scarce penalty budget (small cap) and partial
# suppression (short training): with an abundant budget the largest training
# scale dominates every column and the diagonal degenerates.  The eval grid
# spans the tanh nonlinearity knee, where noise scales become geometrically
# distinguishable.  Scale specialization shows only at and above that knee
# (see alignment_verdict); the full-grid claim (matching sigma_train takes
# >= 3 of 4 columns) does not reproduce at desk scale.  The cap binds at
# every step after warmup, so the applied penalty gradient is
# cap * L_task * grad(log L_pmh), which does not depend on sigma_train while
# the encoder is linear in the noise.  The two smaller rows therefore train
# the same penalty, and their order comes from noisy-view augmentation,
# which the penalty-free control (cap = 0) reproduces.
KIND_DEFAULTS: dict = {
    "talign": {
        "loss": "mse",
        "cap": 0.05,
        "steps": 4000,
        "sigma_train_grid": (0.05, 0.2, 0.8, 3.2),
        "sigma_eval": (0.05, 0.2, 0.8, 3.2),
        "seeds_per_cell": 8,
        "eval_rows": 384,
        "mc_draws": 24,
    },
    "multiscale": {
        "loss": "mse",
        "cap": 0.05,
        "steps": 4000,
        "sigma_train_grid": (0.05, 0.2, 0.8),
        "sigma_range": (0.05, 0.8),
        "sigma_eval": (0.05, 0.2, 0.8),
        "eval_rows": 384,
        "mc_draws": 24,
    },
    "capsweep": {
        "steps": 4000,
        "lr": 0.05,
        "loss": "mse",
        "sigma_eval": (0.05, 0.1, 0.2),
    },
}


def default_config(kind: str, **overrides) -> ExperimentConfig:
    """ExperimentConfig with the calibrated per-kind defaults applied."""
    values = dict(KIND_DEFAULTS.get(kind, {}))
    values.update(overrides)
    return ExperimentConfig(kind=kind, **values)


def parse_config(path: str) -> ExperimentConfig:
    """Read a flat key = value file with [section] headers.

    Section names organize the file for humans; keys are globally unique and
    map directly onto ExperimentConfig fields.  Unknown keys or sections are
    errors, as are malformed values.
    """
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    values: dict = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]; expected one of {sorted(_SECTIONS)}")
        for key, raw in parser.items(section):
            if key not in _FIELD_TYPES:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
            if key in values:
                raise ConfigError(f"duplicate key {key!r}")
            cast = _FIELD_TYPES[key]
            try:
                if typing.get_origin(cast) is tuple:  # tuple[item, ...]: space-separated
                    item = typing.get_args(cast)[0]
                    values[key] = tuple(item(tok) for tok in raw.split())
                else:
                    values[key] = cast(raw.strip())
            except ValueError as exc:
                raise ConfigError(f"bad value for {key!r}: {raw!r}") from exc
    if "kind" not in values:
        raise ConfigError("config must set kind under [experiment]")
    kind = values.pop("kind")
    try:
        return default_config(kind, **values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Result tables
# ---------------------------------------------------------------------------


@dataclass
class ResultTable:
    """Rectangular table of (value, se) cells keyed by row and column labels."""

    experiment: str
    row_keys: list
    col_keys: list
    cells: dict = field(default_factory=dict)  # (row, col) -> (value, se)
    seed: int = 0
    failed_rows: list = field(default_factory=list)

    def set(self, row: str, col: str, value: float, se: float = 0.0) -> None:
        self.cells[(row, col)] = (float(value), float(se))

    def get(self, row: str, col: str) -> tuple:
        return self.cells[(row, col)]

    def fill(self, row: str, result: dict) -> None:
        """Copy one cell result, keyed by column label, into a row.  A failed
        result is listed in failed_rows and fills the row with NaN."""
        if result.get("failed"):
            self.failed_rows.append(row)
            for c in self.col_keys:
                self.set(row, c, float("nan"), float("nan"))
            return
        for c in self.col_keys:
            self.set(row, c, *result[c])

    def validate_rectangular(self) -> None:
        for r in self.row_keys:
            if r in self.failed_rows:
                continue
            for c in self.col_keys:
                if (r, c) not in self.cells:
                    raise ConfigError(f"missing cell ({r}, {c})")

    def to_json_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "seed": self.seed,
            "row_keys": list(self.row_keys),
            "col_keys": list(self.col_keys),
            "failed_rows": list(self.failed_rows),
            "cells": {
                f"{r}|{c}": [v, se] for (r, c), (v, se) in sorted(self.cells.items())
            },
        }


CSV_HEADER = "experiment,row_key,col_key,value,se,seed"


def emit(table: ResultTable, outdir: str) -> list[str]:
    """Write the table as CSV and as JSON; returns the two written paths.

    CSV rows follow the schema ``experiment,row_key,col_key,value,se,seed``;
    JSON mirrors the table structure.  Writes are atomic.
    """
    os.makedirs(os.path.abspath(outdir), exist_ok=True)
    base = os.path.join(outdir, table.experiment)
    lines = [CSV_HEADER]
    for r in table.row_keys:
        for c in table.col_keys:
            if (r, c) in table.cells:
                v, se = table.cells[(r, c)]
                lines.append(f"{table.experiment},{r},{c},{v:.17g},{se:.17g},{table.seed}")
    atomic_write(base + ".csv", "\n".join(lines) + "\n")
    atomic_write(base + ".json", json.dumps(table.to_json_dict(), indent=2, sort_keys=True) + "\n")
    return [base + ".csv", base + ".json"]


def parse_table_csv(path: str) -> ResultTable:
    """Inverse of the CSV emitter; round-trips tables exactly.  A row whose
    every cell holds NaN with a NaN SE is a failed row (see ResultTable.fill)."""
    with open(path) as f:
        lines = [ln.rstrip("\n") for ln in f if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ConfigError(f"{path} is not a result table (bad header)")
    experiment = ""
    seed = 0
    rows: list = []
    cols: list = []
    cells = {}
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 6:
            raise ConfigError(f"malformed row: {ln!r}")
        experiment, r, c, v, se, seed_s = parts
        if r not in rows:
            rows.append(r)
        if c not in cols:
            cols.append(c)
        cells[(r, c)] = (float(v), float(se))
        seed = int(seed_s)
    failed = [
        r for r in rows if all(np.isnan(cells[(r, c)]).all() for c in cols if (r, c) in cells)
    ]
    return ResultTable(experiment, rows, cols, cells, seed, failed)


# ---------------------------------------------------------------------------
# Stacks and the worker pool
# ---------------------------------------------------------------------------

# Most nets one training stack holds.  Per-member cost of a training step at
# the default shapes, with the stack's random draws made in one call per
# stream (2-vCPU host, best of 15 runs), at K = 1, 2, 4, 8 and 16 members:
# PMH 640, 352, 316, 244 and 226 us; PGD 2087, 1346, 900, 578 and 621 us.
# Past 8 members PMH gains 7% and PGD loses 7%: the work that grows with K
# (the shared matmuls and elementwise passes) is then the cost, not the
# fixed cost per call that stacking spreads.
STACK_SIZE = 8


def _worker_count(n_cells: int) -> int:
    """Pool size: ISOGEO_THREADS (1 when unset), at most one per cell."""
    raw = os.environ.get("ISOGEO_THREADS", "1")
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ConfigError(f"ISOGEO_THREADS must be an integer >= 1, got {raw!r}")
    return min(cap, n_cells)


def stacks(cells: list, count: int = 1) -> list[list]:
    """cells cut into consecutive stacks of near-equal length: at least
    count of them (fewer only when there are fewer cells), none longer than
    STACK_SIZE."""
    count = max(count, -(-len(cells) // STACK_SIZE), 1)
    size = max(1, -(-len(cells) // count))
    return [cells[i:i + size] for i in range(0, len(cells), size)]


def _run_cells(fn, config: "ExperimentConfig", cell_stacks: list) -> list:
    """Map fn(config, stack) over stacks of cells, optionally in parallel,
    and concatenate the per-cell results in input order.

    Each cell owns a derived seed and trains as it would alone, so neither
    the stacking nor the scheduling can change results.  Each worker runs
    OpenBLAS on one thread, so that it keeps to one core.
    """
    workers = _worker_count(len(cell_stacks))
    if workers <= 1:
        results = [fn(config, cells) for cells in cell_stacks]
    else:
        with ProcessPoolExecutor(max_workers=workers, initializer=set_one_thread) as pool:
            results = list(pool.map(fn, [config] * len(cell_stacks), cell_stacks))
    return [res for stack_results in results for res in stack_results]


def _train_and_measure(measure, config: "ExperimentConfig", cells: list) -> list[dict]:
    """measure_cells on one stack: train it once, then measure each net."""
    trained = train_stack([cell[0] for cell in cells], config.net_spec(), config.data_source())
    return [
        {"failed": True} if isinstance(res, TrainingDivergedError) else measure(config, *res, *args)
        for (_, *args), res in zip(cells, trained)
    ]


def measure_cells(config: "ExperimentConfig", measure, cells: list) -> list[dict]:
    """Train every cell (TrainConfig, *args) and measure its net: per cell, in
    order, measure(config, net, log, *args), or {"failed": True} if the net
    diverged.  Consecutive cells of one objective train as stacks, at least
    one per pool worker; measure must be a module-level function, so that a
    pool worker can be sent it."""
    count = _worker_count(len(cells))
    groups = itertools.groupby(cells, key=lambda cell: cell[0].objective)
    cell_stacks = [stack for _, group in groups for stack in stacks(list(group), count)]
    return _run_cells(functools.partial(_train_and_measure, measure), config, cell_stacks)


# ---------------------------------------------------------------------------
# Experiment bodies
# ---------------------------------------------------------------------------


def _eval_inputs(config: ExperimentConfig, seed: int) -> np.ndarray:
    """The eval rows at seed, read-only: one draw serves every cell measured on them."""
    batch, _ = dt.sample(config.model(), config.eval_rows, derive(seed, "eval-batch"))
    batch.x.flags.writeable = False
    return batch.x


def compare_rows(config: ExperimentConfig, seed: int) -> tuple:
    """(eval inputs, test batch) of compare_metrics at seed, read-only."""
    test, _ = dt.sample(config.model(), 4096, derive(seed, "test-batch"))
    test.x.flags.writeable = test.y.flags.writeable = False
    return _eval_inputs(config, seed), test


def _compare_cells(config: ExperimentConfig, cells: list) -> list[dict]:
    """Train each (method, seed, *rows) cell alone through train and measure
    it.  Not measure_cells: the bench reads compare's per-step spans under
    objectives.train, and its tracer gives train_stack no span; once it
    does, compare becomes one cell per method of measure_cells."""
    spec, source = config.net_spec(), config.data_source()
    out = []
    for method, seed, *rows in cells:
        try:
            trained = train(config.train_config(method, seed), spec, source)
        except TrainingDivergedError:
            out.append({"failed": True})
        else:
            out.append(compare_metrics(config, *trained, method, seed, *rows))
    return out


def compare_metrics(
    config: ExperimentConfig, net, log, method: str, seed: int, x_eval: np.ndarray, test
) -> dict:
    """The comparison columns of one net trained by method at seed, measured
    on compare_rows(config, seed).

    The eval batch, the test batch and the TDI draws all come from seed, so
    every method trained at one seed is measured on the same rows.
    """
    sigmas = [0.0, *config.sigma_eval]
    (zero, *grid), _ = tdi(net, x_eval, sigmas, config.mc_draws, derive(seed, "tdi0", method))
    metrics = {"tdi_at_0": (zero.value, zero.se)}
    for s, res in zip(config.sigma_eval, grid):
        metrics[f"tdi@{s:g}"] = (res.value, res.se)
    fro = jac_frobenius(net, x_eval[:256])
    metrics["jac_fro_sq"] = (fro.value, fro.se)
    metrics["lipschitz"] = (lipschitz_track(net).value, 0.0)
    pred_t, _ = forward_with_trace(net, test.x)
    if config.loss == "cross-entropy":
        labels = dt.threshold_labels(test.y)
        acc = float(np.mean(np.argmax(pred_t, axis=1) == labels))
        metrics["task_metric"] = (acc, 0.0)
    else:
        mse = float(np.mean((pred_t[:, 0] - test.y) ** 2))
        metrics["task_metric"] = (mse, 0.0)
    metrics["final_task_loss"] = (float(log.task_loss[-100:].mean()), 0.0)
    return metrics


def run_compare(config: ExperimentConfig) -> ResultTable:
    """One row per training method, diagnostics on identical eval batches."""
    cols = ["tdi_at_0", *[f"tdi@{s:g}" for s in config.sigma_eval],
            "jac_fro_sq", "lipschitz", "task_metric", "final_task_loss"]
    if not config.methods:
        raise ConfigError("compare needs at least one method")
    table = ResultTable("compare", list(config.methods), cols, seed=config.seed)
    rows = compare_rows(config, config.seed)
    cells = [[(m, config.seed, *rows)] for m in config.methods]
    for method, metrics in zip(config.methods, _run_cells(_compare_cells, config, cells)):
        table.fill(method, metrics)
    table.validate_rectangular()
    return table


def _tdi_columns(config: ExperimentConfig, net, log, seed: int, sigma_train, x_eval) -> dict:
    """TDI of one PMH net at every eval scale, on the base seed's eval rows
    x_eval: the talign and multiscale columns."""
    columns = {}
    for s in config.sigma_eval:
        # one key per column, not one grid call: keeps the draws criterion 9 reads
        key = derive(seed, "talign", sigma_train, s)
        (res,), _ = tdi(net, x_eval, [s], config.mc_draws, key)
        columns[f"eval@{s:g}"] = (res.value, res.se)
    return columns


def _matches_diagonal(column: np.ndarray, grid_t, sigma_eval: float) -> bool:
    """True when the smallest finite TDI of one eval column belongs to the
    training scale nearest sigma_eval; a column with no finite entry (every
    row failed) is unmatched."""
    if not np.any(np.isfinite(column)):
        return False
    best = int(np.nanargmin(column))
    return best == int(np.argmin(np.abs(np.asarray(grid_t) - sigma_eval)))


def _asymmetry_costs(mean: np.ndarray) -> tuple:
    """(under, over, under / TDI[-1, -1], over / TDI[0, 0]) for a mean TDI
    grid with rows = sigma_train and columns = sigma_eval, both increasing.

    under: training at the smallest scale, evaluated at the largest.
    over: training at the largest scale, evaluated at the smallest.
    The raw costs come from columns whose TDI differs by orders of magnitude
    (TDI ~ sigma^2 below the tanh knee); the normalised ones are relative to
    the matched cell of the same column.
    """
    under = mean[0, -1] - mean[-1, -1]
    over = mean[-1, 0] - mean[0, 0]
    return under, over, under / mean[-1, -1], over / mean[0, 0]


def run_talign(config: ExperimentConfig) -> ResultTable:
    """Noise-alignment grid: TDI(sigma_train, sigma_eval) averaged over
    per-cell derived seeds, plus diagonal-argmin and asymmetry summary rows.

    The summary row ``_diag_match`` holds 1.0 in a column when that eval
    scale is minimized by the matching training scale over the full grid (a
    column in which every row failed holds 0.0).  ``_summary`` holds, in its
    first four columns, the raw under- and over-suppression costs and the
    same costs normalised by the matched cell of their column (see
    _asymmetry_costs); further columns hold 0.0.  A row whose every seed
    diverged is listed once in ``failed_rows`` and holds NaN.

    The full-grid diagonal count does not read as scale specialization at
    desk scale: with a binding cap the penalty is scale-free wherever the
    encoder is linear in the noise, so rows below the tanh knee train the
    same penalty and their order comes from noisy-view augmentation.
    alignment_verdict tests the diagonal where the penalty can act by scale.
    """
    grid_t = list(config.sigma_train_grid)
    grid_e = list(config.sigma_eval)
    if len(grid_t) < 1 or len(grid_e) < 1:
        raise ConfigError("talign needs nonempty sigma grids")
    row_keys = [f"train@{s:g}" for s in grid_t]
    col_keys = [f"eval@{s:g}" for s in grid_e]
    table = ResultTable("talign", row_keys, col_keys, seed=config.seed)
    k = config.seeds_per_cell
    keys = [(st, derive(config.seed, "talign-cell", st, i).seed) for st in grid_t for i in range(k)]
    x_eval = _eval_inputs(config, config.seed)
    cells = [(config.train_config("pmh", s, sigma_train=st), s, st, x_eval) for st, s in keys]
    results = measure_cells(config, _tdi_columns, cells)
    mean = np.full((len(grid_t), len(grid_e)), np.nan)
    for i, row in enumerate(row_keys):
        runs = [res for res in results[i * k:(i + 1) * k] if not res.get("failed")]
        if not runs:
            table.fill(row, {"failed": True})
            continue
        for j, c in enumerate(col_keys):
            arr = np.array([res[c][0] for res in runs])
            mean[i, j] = arr.mean()
            sem = arr.std(ddof=1) / np.sqrt(arr.size) if arr.size > 1 else 0.0
            table.set(row, c, mean[i, j], sem)
    # Summary: per-column argmin and the asymmetry comparison.
    table.row_keys.append("_diag_match")
    for j, s in enumerate(grid_e):
        table.set("_diag_match", col_keys[j], float(_matches_diagonal(mean[:, j], grid_t, s)))
    table.row_keys.append("_summary")
    summary = _asymmetry_costs(mean)
    for j, c in enumerate(col_keys):
        table.set("_summary", c, summary[j] if j < len(summary) else 0.0)
    table.validate_rectangular()
    return table


# Relative departure of TDI(sigma) / sigma^2 from its value at the smallest
# eval scale that marks the knee.  On the default grid at seeds 0, 1, 2
# (PMH and cap = 0) every row stays within 3.6% up to sigma 0.2 and departs
# by 8-32% at 0.8.
KNEE_TOL = 0.05


@dataclass(frozen=True)
class AlignmentVerdict:
    """Noise-alignment reading of a talign grid.

    knee: smallest eval scale at which some row leaves the sigma^2 law
    (inf when none does).  matched: for every eval scale at or above the
    knee, whether the matching training scale has the least TDI among the
    training rows at or above the knee.  full_grid_matches: the same count
    over the whole grid (the ``_diag_match`` row).  costs: the four
    ``_summary`` asymmetry values (raw under, raw over, normalised under,
    normalised over).
    """

    knee: float
    rows_above_knee: int
    matched: dict
    full_grid_matches: int
    costs: tuple

    @property
    def passed(self) -> bool:
        aligned = self.rows_above_knee >= 2 and bool(self.matched) and all(self.matched.values())
        return aligned and bool(self.costs[0] > self.costs[1])


def alignment_verdict(config: ExperimentConfig, table: ResultTable) -> AlignmentVerdict:
    """Noise-alignment gate for a run_talign table.

    Below the tanh knee TDI scales as sigma^2 and a binding cap makes the
    PMH penalty gradient independent of sigma_train, so the diagonal there
    is decided by noisy-view augmentation, which the penalty-free control
    (cap = 0) trains as well.  The knee is the smallest eval scale at which
    some row's TDI(sigma) / sigma^2 departs from its value at the smallest
    eval scale by more than KNEE_TOL (failed rows are ignored; inf when no
    row departs).  The gate asks for the diagonal only at and above the
    knee, among the training rows at or above it (at least two), and keeps
    the raw cost asymmetry.
    """
    grid_t = np.asarray(config.sigma_train_grid, dtype=float)
    grid_e = np.asarray(config.sigma_eval, dtype=float)
    cols = [f"eval@{s:g}" for s in grid_e]
    mean = np.array([[table.get(f"train@{st:g}", c)[0] for c in cols] for st in grid_t])
    per_var = mean / grid_e**2
    departed = np.any(np.abs(per_var / per_var[:, :1] - 1.0) > KNEE_TOL, axis=0)
    knee = float(grid_e[np.argmax(departed)]) if departed.any() else float("inf")
    above = grid_t >= knee
    matched = {
        float(s): _matches_diagonal(mean[above, j], grid_t[above], s)
        for j, s in enumerate(grid_e)
        if s >= knee
    }
    full = sum(_matches_diagonal(mean[:, j], grid_t, s) for j, s in enumerate(grid_e))
    return AlignmentVerdict(knee, int(above.sum()), matched, full, _asymmetry_costs(mean))


def _cap_columns(config: ExperimentConfig, net, log, seed: int, cap: float, x_eval) -> dict:
    """Penalty fraction, its target, final task loss and TDI on x_eval of one
    PMH net trained at cap: the capsweep columns."""
    (zero,), _ = tdi(net, x_eval, [0.0], config.mc_draws, derive(seed, "cap-tdi", cap))
    return {
        "fraction": (log.steady_state_fraction(), 0.0),
        "target": (cap / (1.0 + cap), 0.0),
        "final_task_loss": (float(log.task_loss[-100:].mean()), 0.0),
        "tdi_at_0": (zero.value, zero.se),
    }


def run_capsweep(config: ExperimentConfig) -> ResultTable:
    """Steady-state penalty fraction, final task loss, and TDI per cap."""
    if not config.cap_grid:
        raise ConfigError("capsweep needs a nonempty cap grid")
    cols = ["fraction", "target", "final_task_loss", "tdi_at_0"]
    row_keys = [f"cap@{c:g}" for c in config.cap_grid]
    table = ResultTable("capsweep", row_keys, cols, seed=config.seed)
    base = config.train_config("pmh", config.seed)
    x_eval = _eval_inputs(config, config.seed)
    cells = [(replace(base, cap=cap), config.seed, cap, x_eval) for cap in config.cap_grid]
    for row, res in zip(row_keys, measure_cells(config, _cap_columns, cells)):
        table.fill(row, res)
    table.validate_rectangular()
    return table


def run_multiscale(config: ExperimentConfig) -> ResultTable:
    """Log-uniform multi-scale training vs fixed-scale specialists.

    Rows are the fixed scales plus a ``multiscale`` row trained with one
    log-uniform draw per step over config.sigma_range; columns are TDI at
    the eval grid.
    """
    if not config.sigma_eval:
        raise ConfigError("multiscale needs a nonempty sigma_eval grid")
    grid_t = list(config.sigma_train_grid)
    rows = [f"train@{s:g}" for s in grid_t] + ["multiscale"]
    cols = [f"eval@{s:g}" for s in config.sigma_eval]
    table = ResultTable("multiscale", rows, cols, seed=config.seed)
    keys = [(st, derive(config.seed, "ms", st).seed) for st in grid_t]
    keys.append((tuple(config.sigma_range), derive(config.seed, "ms", "range").seed))
    x_eval = _eval_inputs(config, config.seed)
    cells = [(config.train_config("pmh", s, sigma_train=st), s, st, x_eval) for st, s in keys]
    for row, res in zip(rows, measure_cells(config, _tdi_columns, cells)):
        table.fill(row, res)
    table.validate_rectangular()
    return table


RUNNERS = {
    "compare": run_compare,
    "talign": run_talign,
    "capsweep": run_capsweep,
    "multiscale": run_multiscale,
}


def run_experiment(config: ExperimentConfig) -> ResultTable:
    return RUNNERS[config.kind](config)
