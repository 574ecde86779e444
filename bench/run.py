"""Benchmark of the isogeo command line, end to end and layer by layer.

    python3 bench/run.py --workload compare --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

One run measures one workload (see workloads.py) in this process: it times a
fresh interpreter importing isogeo (``setup_s``), then repeats the workload's
``isogeo.cli.main`` calls for ``--seconds`` and reports medians.  With
``--trace 1`` it instead reports per-layer metrics from spans recorded by
wrapping the package's functions (tracer.py), next to the same workload run
untraced.  ``--workload all`` runs every workload, each in its own process,
and prints every metric with its unit and sample count.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record of
each run (environment stamp, host-speed probe, every sample, output digests)
goes to ``.bench_run/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".bench_run")

# Set-up samples taken before and after the repetitions, so that their median
# spans the run rather than one moment of it.
SETUP_SAMPLES = {"full": (8, 7), "tiny": (2, 1)}
# In a traced run, this share of the time measures the untraced baseline.
UNTRACED_SHARE = 0.4


# ---------------------------------------------------------------------------
# Set-up time
# ---------------------------------------------------------------------------


def measure_setup(n: int) -> list[float]:
    """Wall seconds from starting a fresh interpreter to `import isogeo` done.

    Bytecode caching is left on, as in an installed package; one untimed
    import first fills the cache and warms the page cache.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    cmd = [sys.executable, "-c", "import isogeo, sys; sys.stdout.write('1'); sys.stdout.flush()"]
    samples = []
    for i in range(n + 1):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE) as proc:
            ready = proc.stdout.read(1)
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            if proc.wait(timeout=60) != 0 or ready != b"1":
                raise RuntimeError("`import isogeo` failed in a fresh interpreter")
        if i:
            samples.append(elapsed)
    return samples


# ---------------------------------------------------------------------------
# Repetitions
# ---------------------------------------------------------------------------


def _digests(outdir: str, stdout: str) -> dict:
    # The printed paths name this run's own directory; hash them without it.
    stdout = stdout.replace(outdir, "<out>")
    out = {"stdout": hashlib.sha256(stdout.encode()).hexdigest()}
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as f:
            out[name] = hashlib.sha256(f.read()).hexdigest()
    return out


def run_rep(workload, outdir: str, rep: int) -> dict:
    """Repetition `rep` of the workload's CLI calls; timing covers the calls only."""
    from isogeo import cli

    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)
    argvs = workload.calls(rep)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        c0 = time.process_time()
        t0 = time.perf_counter()
        rcs = [cli.main(argv) for argv in argvs]
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
    outcome = workload.check(rep, rcs)
    return {
        "key": workload.key(rep),
        "wall_s": wall,
        "cpu_s": cpu,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems,
        "notes": outcome.notes,
        "digests": _digests(outdir, buf.getvalue()),
    }


def repeat(workload, outdir: str, until: float, first: int) -> list[dict]:
    """Repetitions numbered from `first` until the next one would end after
    `until` (at least one), or until one emits wrong output."""
    reps = [run_rep(workload, outdir, first)]
    while not reps[-1]["problems"] and time.perf_counter() + reps[-1]["wall_s"] <= until:
        reps.append(run_rep(workload, outdir, first + len(reps)))
    return reps


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def end_to_end(setup: list[float], reps: list[dict]) -> dict:
    """name -> (samples, unit) of every end-to-end metric."""
    return {
        "setup_s": (setup, "s"),
        "job_s": ([r["wall_s"] for r in reps], "s"),
        "cpu_s": ([r["cpu_s"] for r in reps], "s"),
        "peak_rss_mb": ([resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0], "MB"),
    }


def per_layer(s, untraced: list[dict], traced: list[dict], attempted: int, failed: int) -> dict:
    """name -> ([value], unit) of every per-layer metric, per traced repetition."""
    from tracer import MODULES
    from workloads import VERIFY_CHECKS

    n = len(traced)
    m: dict = {}

    def put(name, value, unit):
        m[name] = ([float(value)], unit)

    def calls(fn):
        put(f"{fn}.calls", s.calls.get(fn, 0) / n, "count")

    def self_s(fn):
        put(f"{fn}.self_s", s.self_time.get(fn, 0.0) / n, "s")

    def total_s(fn):
        put(f"{fn}.total_s", s.total.get(fn, 0.0) / n, "s")

    def ratio(num, den):
        return num / den if den else 0.0

    normal_calls, normal_self = s.calls.get("rng.normal", 0), s.self_time.get("rng.normal", 0.0)
    normal_values = s.sizes.get("rng.normal", 0.0)
    calls("rng.normal")
    put("rng.normal.values", normal_values / n, "count")
    self_s("rng.normal")
    put("rng.normal.us_per_call", 1e6 * ratio(normal_self, normal_calls), "us")
    put("rng.normal.ns_per_value", 1e9 * ratio(normal_self, normal_values), "ns")
    calls("rng.uniform")
    self_s("rng.uniform")
    calls("rng.derive")

    calls("data.sample")
    put("data.sample.rows", s.sizes.get("data.sample", 0.0) / n, "count")
    self_s("data.sample")

    calls("linalg.as_matrix")
    self_s("linalg.as_matrix")
    calls("linalg.as_vector")
    self_s("linalg.spectral_norm")
    self_s("linalg.jacobi_eigh")

    for fn in ("encoder_forward", "backward", "encoder_backward", "input_backward",
               "input_gradient"):
        calls(f"network.{fn}")
        self_s(f"network.{fn}")
    put("network.encoder_forward.rows", s.sizes.get("network.encoder_forward", 0.0) / n, "count")
    for fn in ("softmax", "sgd_step", "batch_encoder_jacobians", "load_params"):
        self_s(f"network.{fn}")

    objectives = ("erm", "pgd", "pmh")
    steps = {o: s.sizes.get(f"objectives.train.{o}", 0.0) for o in objectives}
    put("objectives.train.calls",
        sum(s.calls.get(f"objectives.train.{o}", 0) for o in objectives) / n, "count")
    put("objectives.train.steps", sum(steps.values()) / n, "count")
    for o in objectives:
        put(f"objectives.train.{o}.us_per_step",
            1e6 * ratio(s.total.get(f"objectives.train.{o}", 0.0), steps[o]), "us")
    for fn in ("pgd_attack", "pmh_loss", "task_loss"):
        calls(f"objectives.{fn}")
        self_s(f"objectives.{fn}")

    def per_step(objective, names):
        return ratio(sum(s.under_train.get((objective, nm), 0) for nm in names), steps[objective])

    reverse = ("network.backward", "network.encoder_backward", "network.input_backward")
    put("objectives.pmh.encoder_forwards_per_step",
        per_step("pmh", ["network.encoder_forward"]), "1/step")
    put("objectives.pmh.reverse_passes_per_step", per_step("pmh", reverse), "1/step")
    put("objectives.pgd.input_gradients_per_step",
        per_step("pgd", ["network.input_gradient"]), "1/step")
    for o in objectives:
        put(f"objectives.{o}.as_matrix_per_step", per_step(o, ["linalg.as_matrix"]), "1/step")

    for fn in ("tdi", "embedding_drift", "jac_frobenius_fd", "lipschitz_track",
               "linearization_remainder", "jacobian_lipschitz_fd"):
        total_s(f"diagnostics.{fn}")
    for check_id in VERIFY_CHECKS:
        total_s(f"checks.{check_id}")
    put("checks.failed", sum(len(r["notes"].get("failed_checks", ())) for r in traced) / n,
        "count")
    for fn in ("parse_config", "run_compare", "run_talign", "emit"):
        total_s(f"experiments.{fn}")
    put("experiments.workers", max(s.returns.get("experiments._worker_count") or [0]), "count")
    calls("cli.main")
    for module in MODULES:
        put(f"{module}.self_s", s.module_self(module) / n, "s")

    put("trace.spans", s.n_spans / n, "count")
    put("trace.overhead_share",
        statistics.median(r["wall_s"] for r in traced)
        / statistics.median(r["wall_s"] for r in untraced) - 1.0, "ratio")
    put("failed_share", failed / attempted, "ratio")
    return m


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    import host

    setup_before, setup_after = SETUP_SAMPLES[size]
    setup = measure_setup(setup_before)
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS
    import tracer

    workdir = os.path.join(RUN_DIR, "work", f"{name}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        workload = WORKLOADS[name](seed, size, workdir)
        outdir = os.path.join(workdir, "out")
        workload.prepare(outdir)

        calib_before, steal_before = host.calib_s(), host.steal_ticks()
        start = time.perf_counter()
        warmup = run_rep(workload, outdir, 0)
        if not trace:
            untraced = repeat(workload, outdir, start + seconds, 1)
            traced = []
        else:
            untraced = repeat(workload, outdir, start + UNTRACED_SHARE * seconds, 1)
            spans = tracer.Tracer()
            spans.install()
            try:
                traced = repeat(workload, outdir, start + seconds, 1 + len(untraced))
            finally:
                spans.uninstall()
        calib_after, steal_after = host.calib_s(), host.steal_ticks()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setup += measure_setup(setup_after)

    reps = [warmup, *untraced, *traced]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    problems = sorted({p for r in reps for p in r["problems"]})
    digests: dict = {}
    for r in reps:
        if digests.setdefault(r["key"], r["digests"]) != r["digests"]:
            problems.append(f"emitted files differ between repetitions of {r['key'] or name}")
            break
    if trace and not any(r["key"] == t["key"] for r in [warmup, *untraced] for t in traced):
        problems.append("no traced repetition repeats an untraced one")

    if trace:
        os.makedirs(os.path.join(RUN_DIR, "trace"), exist_ok=True)
        spans.save(os.path.join(RUN_DIR, "trace", f"{name}-seed{seed}.npz"))
        metrics = per_layer(spans.summary(), untraced, traced, attempted, failed)
    else:
        metrics = end_to_end(setup, untraced)

    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "size": size,
        "correct": not problems,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": statistics.median(v), "unit": unit, "n": len(v),
                        "quartiles": _quartiles(v)} for k, (v, unit) in metrics.items()},
        "samples": {
            "setup_s": setup,
            "untraced_wall_s": [r["wall_s"] for r in untraced],
            "untraced_cpu_s": [r["cpu_s"] for r in untraced],
            "traced_wall_s": [r["wall_s"] for r in traced],
            "warmup_wall_s": warmup["wall_s"],
        },
        "digests": digests,
        "digests_traced": {r["key"]: r["digests"] for r in traced},
        "notes": warmup["notes"],
        "host": {
            "calib_s": {"before": calib_before, "after": calib_after},
            "steal_ticks": {"before": steal_before, "after": steal_after},
        },
    }
    return record


def write_record(record: dict, ambient: dict) -> str:
    import host

    record["env"] = host.env_stamp(ROOT, record["seed"], ambient)
    results = os.path.join(RUN_DIR, "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(
        results, f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    )
    with open(path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    return path


def print_metrics(record: dict) -> None:
    """One line per metric: workload, name, median, unit, samples, quartiles."""
    w = record["workload"]
    for name, m in record["metrics"].items():
        q1, _, q3 = m["quartiles"]
        print(f"{w:<18} {name:<44} {m['value']:>14.6g} {m['unit']:<7}"
              f" n={m['n']:<3} q1={q1:.6g} q3={q3:.6g}")
    if "failed_share" not in record["metrics"]:
        share = record["failed"] / record["attempted"]
        print(f"{w:<18} {'failed_share':<44} {share:>14.6g} {'ratio':<7}"
              f" n={record['attempted']} operations, {record['failed']} failed")


def result_line(record: dict) -> str:
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in record["metrics"].items()},
    })


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def run_all(args) -> int:
    """Every workload in its own process; one table of every metric."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        with open(os.path.join(RUN_DIR, "results",
                               f"{name}-seed{args.seed}-trace{args.trace}.json")) as f:
            record = json.load(f)
        print_metrics(record)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny keeps every code path at toy sizes, for the harness test")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "isogeo", "__init__.py")):
        print(f"no isogeo sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    from host import THREAD_VARS
    from workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    ambient = {v: os.environ.get(v) for v in THREAD_VARS}
    # One worker process, as a user gets by default; BLAS keeps its default.
    os.environ.pop("ISOGEO_THREADS", None)
    if args.workload == "all":
        return run_all(args)

    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    path = write_record(record, ambient)
    print_metrics(record)
    print(f"# record {os.path.relpath(path, ROOT)}; env {json.dumps(record['env'])}")
    print(result_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
