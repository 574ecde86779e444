"""Command-line entry points.

    isogeo verify   [--checks LIST] [--seed N] [--out FILE]
    isogeo compare  --config FILE
    isogeo talign   --config FILE
    isogeo capsweep --config FILE
    isogeo multiscale --config FILE
    isogeo diagnose --model FILE --sigma-grid S [S ...] [--batch N] [--seed N]

Exit codes: 0 success, 1 at least one verification check failed,
2 configuration error (an unwritable output path included, which is found
before any work).  ISOGEO_THREADS caps the experiment worker count.  A
command runs OpenBLAS on one thread and gives back the caller's count when
it ends.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import checks as ck
from . import experiments as xp
from ._blas import one_thread
from .diagnostics import diagnose
from .errors import ConfigError, IsogeoError, ValidationError
from .network import load_params
from .rng import derive, normal


def _check_output(path: str, make_dirs: bool = False) -> None:
    """Refuse an output file before any work: a directory in its place, or a
    parent that is missing (unless the writer makes it, ``make_dirs``) or is
    not a directory."""
    if os.path.isdir(path):
        raise ConfigError(f"output path {path!r} is a directory")
    parent = os.path.dirname(os.path.abspath(path))
    while make_dirs and not os.path.exists(parent):
        parent = os.path.dirname(parent)
    if not os.path.isdir(parent):
        raise ConfigError(f"cannot write {path!r}: {parent!r} is missing or not a directory")


def _cmd_verify(args) -> int:
    names = None
    if args.checks:
        names = [tok.strip() for tok in args.checks.split(",") if tok.strip()]
    if args.out:
        _check_output(args.out)
    reports = ck.run_checks(names, seed=args.seed)
    width = max(len(r.check_id) for r in reports)
    failed = 0
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.check_id:<{width}}  {r.detail}")
        failed += 0 if r.passed else 1
    if args.out:
        ck.write_reports(reports, args.out)
        print(f"wrote {args.out}")
    print(f"{len(reports) - failed}/{len(reports)} checks passed")
    return 1 if failed else 0


def _cmd_experiment(args) -> int:
    config = xp.parse_config(args.config)
    if config.kind != args.kind:
        raise ConfigError(
            f"config kind {config.kind!r} does not match subcommand {args.kind!r}"
        )
    for ext in (".csv", ".json"):
        _check_output(os.path.join(config.outdir, config.kind + ext), make_dirs=True)
    table = xp.run_experiment(config)
    paths = xp.emit(table, config.outdir)
    for p in paths:
        print(f"wrote {p}")
    if table.failed_rows:
        print(f"failed rows: {table.failed_rows}", file=sys.stderr)
    return 0


def _cmd_diagnose(args) -> int:
    net = load_params(args.model)
    grid = sorted(set(args.sigma_grid))
    if not all(0.0 < s < math.inf for s in grid):
        raise ConfigError(f"--sigma-grid values must be finite and > 0, got {grid}")
    if args.batch < 1:
        raise ConfigError(f"--batch must be >= 1, got {args.batch}")
    run_id = os.path.splitext(os.path.basename(args.model))[0]
    out_json = args.out or (run_id + "_diagnostics.json")
    out_csv = os.path.splitext(out_json)[0] + ".csv"
    for path in (out_json, out_csv):
        _check_output(path)
    x_eval, _ = normal(derive(args.seed, "diagnose-batch"), (args.batch, net.input_dim))
    report = diagnose(
        net, x_eval, grid, derive(args.seed, "diagnose"), mc_draws=args.mc_draws, run_id=run_id
    )
    report.to_json(out_json)
    report.to_csv(out_csv)
    print(f"wrote {out_json}")
    print(f"wrote {out_csv}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isogeo",
        description="Encoder-geometry laboratory: training objectives, "
        "trajectory diagnostics, and executable identity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the verification suite")
    p_verify.add_argument("--checks", help="comma-separated check names (default: all)")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--out", help="write CheckReports JSON here")

    for kind in ("compare", "talign", "capsweep", "multiscale"):
        p = sub.add_parser(kind, help=f"run the {kind} experiment")
        p.add_argument("--config", required=True, help="flat key = value config file")
        p.set_defaults(kind=kind)

    p_diag = sub.add_parser("diagnose", help="diagnostics report for a saved model")
    p_diag.add_argument("--model", required=True, help="parameter file (flat binary)")
    p_diag.add_argument("--sigma-grid", type=float, nargs="+", required=True)
    p_diag.add_argument("--batch", type=int, default=512)
    p_diag.add_argument("--seed", type=int, default=0)
    p_diag.add_argument("--mc-draws", type=int, default=64)
    p_diag.add_argument("--out", help="output JSON path")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with one_thread():
            if args.command == "verify":
                return _cmd_verify(args)
            if args.command == "diagnose":
                return _cmd_diagnose(args)
            return _cmd_experiment(args)
    except (ConfigError, ValidationError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except IsogeoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
