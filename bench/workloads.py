"""The four benchmark workloads: their inputs, their CLI calls, and the checks
made on what each call emits.

Every workload is a list of ``isogeo`` command lines run in process through
``isogeo.cli.main``.  Inputs (config files, model files) come from the
workload seed and are written before any timing starts.  Shapes are the
program's defaults (net 16->32->16->out, batch 32, PGD epsilon 0.3 x 20
steps, the default eval sizes); only step and seed counts are cut so that
several repetitions fit in one run.
"""

from __future__ import annotations

import json
import math
import os

# Checks of `isogeo verify` that train no network.
VERIFY_CHECKS = (
    "subblock_inequality",
    "stein_identity_quadratic",
    "stein_identity_cubic",
    "encoding_necessity",
    "bregman_loss_gap",
    "linearized_drift_remainder",
    "isotropic_trace_identity",
    "anisotropy_floor",
    "suppression_cost_exact",
    "nuisance_subspace_recovery",
)

# Per-size parameters.  "full" is what the benchmark measures; "tiny" keeps
# every code path but only exists so the harness's own test runs quickly.
SIZES = {
    "full": {
        "compare_steps": 500,
        "talign_steps": 500,
        "talign_seeds": 2,
        "verify_checks": VERIFY_CHECKS,
        "diagnose_batch": 4096,
        "diagnose_mc": 64,
        "diagnose_models": 3,
    },
    "tiny": {
        "compare_steps": 20,
        "talign_steps": 20,
        "talign_seeds": 2,
        "verify_checks": ("subblock_inequality", "encoding_necessity", "bregman_loss_gap"),
        "diagnose_batch": 128,
        "diagnose_mc": 8,
        "diagnose_models": 2,
    },
}

DIAGNOSE_SIGMAS = ("0.05", "0.1", "0.2", "0.4")


class Outcome:
    """Operations attempted and failed in one repetition, and any output
    that is wrong in a way no operation reports (``problems``)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.notes: dict = {}

    def op(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _numbers(obj) -> list:
    """Every number in a JSON value, lists and dicts flattened."""
    if isinstance(obj, dict):
        return [x for v in obj.values() for x in _numbers(v)]
    if isinstance(obj, list):
        return [x for v in obj for x in _numbers(v)]
    return [obj] if isinstance(obj, (int, float)) else []


def _write_config(path: str, kind: str, seed: int, outdir: str, train: dict) -> None:
    lines = ["[experiment]", f"kind = {kind}", f"seed = {seed}", f"outdir = {outdir}", "[train]"]
    lines += [f"{k} = {v}" for k, v in train.items()]
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


class Workload:
    name = ""

    def __init__(self, seed: int, size: str, workdir: str):
        self.seed = seed
        self.p = SIZES[size]
        self.workdir = workdir

    def prepare(self, outdir: str) -> None:
        """Write the inputs; ``outdir`` is where every repetition emits."""
        self.outdir = outdir

    def calls(self, rep: int) -> list[list[str]]:
        """The argv of each `isogeo` call that repetition `rep` makes."""
        raise NotImplementedError

    def key(self, rep: int) -> str:
        """Repetitions with equal keys must emit identical files."""
        return ""

    def check(self, rep: int, rcs: list[int]) -> Outcome:
        raise NotImplementedError


class _TableWorkload(Workload):
    kind = ""

    def train_keys(self) -> dict:
        raise NotImplementedError

    def prepare(self, outdir):
        super().prepare(outdir)
        self.config = os.path.join(self.workdir, f"{self.kind}.ini")
        _write_config(self.config, self.kind, self.seed, outdir, self.train_keys())

    def calls(self, rep):
        return [[self.kind, "--config", self.config]]

    def _table(self, rcs: list[int], out: Outcome):
        path = os.path.join(self.outdir, f"{self.kind}.json")
        if rcs != [0] or not os.path.exists(path):
            out.problems.append(f"{self.kind} exited {rcs}")
            return None
        with open(path) as f:
            return json.load(f)


class Compare(_TableWorkload):
    name = kind = "compare"
    methods = ("erm", "pgd", "pmh")

    def train_keys(self):
        return {"steps": self.p["compare_steps"]}

    def check(self, rep, rcs):
        out = Outcome()
        table = self._table(rcs, out)
        if table is None:
            out.attempted = out.failed = 27
            return out
        if tuple(table["row_keys"]) != self.methods or len(table["col_keys"]) != 9:
            out.problems.append(f"unexpected table shape {table['row_keys']} x {table['col_keys']}")
        for row in table["row_keys"]:
            for col in table["col_keys"]:
                v, se = table["cells"].get(f"{row}|{col}", (float("nan"), 0.0))
                out.op(row not in table["failed_rows"] and _finite(v, se))
                if col.startswith("tdi") and not v >= 0:
                    out.problems.append(f"negative {col} for {row}: {v}")
                if col == "task_metric" and not 0.0 <= v <= 1.0:
                    out.problems.append(f"accuracy of {row} outside [0, 1]: {v}")
        return out


class Talign(_TableWorkload):
    name = kind = "talign"

    def train_keys(self):
        return {"steps": self.p["talign_steps"], "seeds_per_cell": self.p["talign_seeds"]}

    def check(self, rep, rcs):
        out = Outcome()
        table = self._table(rcs, out)
        if table is None:
            out.attempted = out.failed = 16
            return out
        grid_rows = [r for r in table["row_keys"] if not r.startswith("_")]
        cols = table["col_keys"]
        if len(grid_rows) != 4 or len(cols) != 4:
            out.problems.append(f"unexpected grid {grid_rows} x {cols}")
        for row in grid_rows:
            values = []
            for col in cols:
                v, se = table["cells"].get(f"{row}|{col}", (float("nan"), 0.0))
                out.op(row not in table["failed_rows"] and _finite(v, se))
                values.append(v)
            # TDI grows with the eval noise scale along every row.
            if not all(a < b for a, b in zip(values, values[1:])):
                out.problems.append(f"TDI of {row} not increasing in sigma_eval: {values}")
        summary = [table["cells"].get(f"_summary|{c}", (float("nan"), 0.0)) for c in cols]
        if not all(_finite(v, se) for v, se in summary):
            out.problems.append(f"non-finite _summary row: {summary}")
        # Recorded, not counted: at reduced size the diagonal claim is not tested.
        out.notes["diag_match"] = [table["cells"].get(f"_diag_match|{c}", [None])[0] for c in cols]
        return out


class VerifyIdentities(Workload):
    name = "verify-identities"

    def prepare(self, outdir):
        super().prepare(outdir)
        self.report = os.path.join(outdir, "reports.json")

    def calls(self, rep):
        return [["verify", "--checks", ",".join(self.p["verify_checks"]),
                 "--seed", str(self.seed), "--out", self.report]]

    def check(self, rep, rcs):
        out = Outcome()
        expected = list(self.p["verify_checks"])
        if rcs[0] not in (0, 1) or not os.path.exists(self.report):
            out.problems.append(f"verify exited {rcs}")
            out.attempted = out.failed = len(expected)
            return out
        with open(self.report) as f:
            reports = json.load(f)
        if [r["check_id"] for r in reports] != expected:
            out.problems.append(f"unexpected checks {[r['check_id'] for r in reports]}")
        failed_ids = []
        for r in reports:
            numbers = _numbers([r["measured"], r["se"], r["bounds"]])
            ok = bool(r["passed"]) and _finite(*numbers)
            out.op(ok)
            if not ok:
                failed_ids.append(r["check_id"])
        if (rcs[0] == 1) != bool(failed_ids):
            out.problems.append(f"exit code {rcs[0]} disagrees with failed checks {failed_ids}")
        out.notes["failed_checks"] = failed_ids
        return out


class Diagnose(Workload):
    """One repetition is one `isogeo diagnose` call; the model files are
    taken in turn, so every file is diagnosed with the same work."""

    name = "diagnose"

    def prepare(self, outdir):
        super().prepare(outdir)
        from isogeo.network import NetSpec, init_network, save_params
        from isogeo.rng import derive

        spec = NetSpec(input_dim=16, hidden=(32,), rep_dim=16, out_dim=2, activation="tanh")
        self.models = []
        for i in range(self.p["diagnose_models"]):
            net, _ = init_network(spec, derive(self.seed, "bench-diagnose-model", i))
            path = os.path.join(self.workdir, f"model{i}.bin")
            save_params(net, path)
            self.models.append(path)

    def key(self, rep):
        return f"model{rep % len(self.models)}"

    def calls(self, rep):
        return [["diagnose", "--model", self.models[rep % len(self.models)],
                 "--batch", str(self.p["diagnose_batch"]),
                 "--mc-draws", str(self.p["diagnose_mc"]), "--seed", str(self.seed),
                 "--sigma-grid", *DIAGNOSE_SIGMAS,
                 "--out", os.path.join(self.outdir, "report.json")]]

    def check(self, rep, rcs):
        out = Outcome()
        path = os.path.join(self.outdir, "report.json")
        if rcs != [0] or not os.path.exists(path):
            out.op(False)
            out.problems.append(f"diagnose exited {rcs}")
            return out
        with open(path) as f:
            report = json.load(f)
        # The CLI passes no probe directions, so anisotropy is NaN by design.
        out.op(_finite(*_numbers({k: v for k, v in report.items() if k != "anisotropy"})))
        if sorted(map(float, report["tdi"])) != sorted(map(float, DIAGNOSE_SIGMAS)):
            out.problems.append(f"sigma grid {list(report['tdi'])}")
        if report["run_id"] != self.key(rep) or report["eval_rows"] != self.p["diagnose_batch"]:
            out.problems.append(f"run_id {report['run_id']}, rows {report['eval_rows']}")
        if not all(v >= 0 for v, _ in report["tdi"].values()):
            out.problems.append("negative TDI")
        return out


WORKLOADS = {w.name: w for w in (Compare, Talign, VerifyIdentities, Diagnose)}
