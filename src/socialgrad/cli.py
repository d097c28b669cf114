"""Command-line front end.

Four subcommands, one per experiment family:

    socialgrad flow   --preset aggregative-5 --out runs/flow
    socialgrad ttsa   --preset oscillator-2 --out runs/ttsa
    socialgrad sweep  --preset oscillator-2 --out runs/sweep
    socialgrad verify --preset aggregative-5 --out runs/verify

Settings resolve in precedence order: command-line flags beat the JSON
config file, which beats the preset's per-experiment defaults. Exit codes:
0 success, 1 the experiment ran but something failed (run failures, failed
verification checks, a response solve that did not converge), 2 invalid
configuration or arguments.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .experiments import (
    resolve_config,
    run_flow_batch,
    run_timescale_sweep,
    run_ttsa_batch,
    run_verify,
)
from .presets import PRESET_NAMES
from .solvers import SolverError

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="socialgrad",
        description="simulation and verification for incentive-design dynamics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = [
        ("flow", "integrate the incentive flow from sampled initial conditions"),
        ("ttsa", "run the two-timescale strategy-incentive iteration"),
        ("sweep", "sweep the schedule-exponent gap at a fixed horizon"),
        ("verify", "run the assumption-verification suite"),
    ]
    for name, help_text in specs:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", type=Path, default=None,
                         metavar="PATH", help="JSON config file")
        cmd.add_argument("--preset", default=None, choices=PRESET_NAMES,
                         help="named instance with shipped defaults")
        cmd.add_argument("--seed", type=int, default=None,
                         help="base seed for initial-condition sampling")
        cmd.add_argument("--out", default=None, metavar="DIR",
                         help="output directory")
        cmd.add_argument("--jobs", type=int, default=None,
                         help="worker processes for batch runs")
    return parser


def _short(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, dict):
        text = " ".join(f"{k}={_short(v)}" for k, v in value.items())
    else:
        text = str(value)
    return text if len(text) <= 44 else text[:41] + "..."


def _print_verify_table(report) -> None:
    rows = []
    for entry in report:
        status = "SKIP" if entry["skipped"] else ("PASS" if entry["passed"] else "FAIL")
        rows.append((entry["name"], status, _short(entry["measured"]),
                     _short(entry["bound"]), entry["note"]))
    widths = [max(len(r[i]) for r in rows + [("check", "status", "measured", "bound", "note")])
              for i in range(4)]
    header = ("check", "status", "measured", "bound", "note")
    print("  ".join(h.ljust(w) for h, w in zip(header[:4], widths)) + "  note")
    for r in rows:
        print("  ".join(v.ljust(w) for v, w in zip(r[:4], widths)) + f"  {r[4]}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    file_cfg = None
    if args.config is not None:
        try:
            file_cfg = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read config {args.config}: {exc}", file=sys.stderr)
            return 2
        if not isinstance(file_cfg, dict):
            print("error: config file must hold a JSON object", file=sys.stderr)
            return 2

    overrides = {"preset": args.preset, "seed": args.seed,
                 "output_dir": args.out, "jobs": args.jobs}
    try:
        cfg = resolve_config(args.command, file_cfg, overrides)
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "flow":
            _, summary = run_flow_batch(cfg)
            print(f"flow batch: {summary['runs']} runs, {summary['failed']} failed; "
                  f"outputs in {cfg.output_dir}")
            if summary["failed"] == 0 and "final_dist_median" in summary:
                print(f"median final distance to target incentive: "
                      f"{summary['final_dist_median']:.3e}")
            return 1 if summary["failed"] else 0

        if args.command == "ttsa":
            _, summary = run_ttsa_batch(cfg)
            print(f"ttsa batch ({summary['rule']}): {summary['runs']} runs, "
                  f"{summary['failed']} failed; outputs in {cfg.output_dir}")
            if summary["failed"] == 0 and "final_tracking_median" in summary:
                print(f"median final tracking error:  {summary['final_tracking_median']:.3e}")
                print(f"median final incentive error: {summary['final_incentive_median']:.3e}")
            return 1 if summary["failed"] else 0

        if args.command == "sweep":
            rows, summary = run_timescale_sweep(cfg)
            for row in rows:
                if "error" in row:
                    print(f"gamma={row['gamma']:<4} b_exp={row['b_exp']:.2f}  "
                          f"FAILED: {row['error']}")
                else:
                    print(f"gamma={row['gamma']:<4} b_exp={row['b_exp']:.2f}  "
                          f"tracking={row['final_tracking_error']:.3e}  "
                          f"incentive={row['final_incentive_error']:.3e}  "
                          f"accepted={row['accepted_fraction']:.3f}")
            for gamma in summary["skipped_gammas"]:
                print(f"gamma={gamma}: skipped (b_exp outside (1/2, 1])")
            print(f"outputs in {cfg.output_dir}")
            return 1 if summary["failed"] else 0

        report, passed = run_verify(cfg)
        _print_verify_table(report)
        print(f"verification {'passed' if passed else 'FAILED'}; "
              f"report in {cfg.output_dir}/verify_report.json")
        return 0 if passed else 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
