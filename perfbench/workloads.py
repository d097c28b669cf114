"""Workloads, the round runner and the independent output checks.

A round runs one workload's ``verify`` command and then its experiment
commands through ``socialgrad.cli.main``, each with ``--jobs 1`` and with
its outputs in a directory of the round's own. The checks read those
outputs back and compare them with values recomputed here with numpy and
scipy, or with properties the method must have. They never compare with
stored copies of earlier output.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from socialgrad import (
    ResponseSolverConfig,
    load_preset,
    make_sublevel_geometry,
    resolve_config,
    resolve_instance,
    sample_initial_conditions,
)
from socialgrad.cli import main as cli_main
from socialgrad.presets import game_spec_from_dict

# Relative tolerance for a value the program wrote against the same value
# recomputed here: |a - b| <= REL_TOL * (1 + |b|). Every column is written
# with 17 significant digits and the linear responses are exact solves, so
# the observed gaps are at the 1e-15 level.
REL_TOL = 1e-9

# Slack for "V never grows along a flow trajectory": the values are
# squared distances written with 17 digits, so rounding is ~1e-16 relative.
DESCENT_SLACK = 1e-12

# The aggregative family lives on [-2, 2]^n (README "Inline game specs").
AGG_BOX = (-2.0, 2.0)
# Target of the shipped aggregative-5 preset (README "Presets").
AGG5_X_DAGGER = np.array([0.3, -0.2, 0.1, 0.4, -0.5])
# Oscillator-2: theta, box [-pi/3, pi/3]^2 and target (README "Presets").
OSC_THETA = (4.2, 5.0)
OSC_BOX = (-math.pi / 3.0, math.pi / 3.0)
OSC_X_DAGGER = np.array([0.5, 0.5])

SCALE_GAME = {"kind": "aggregative", "n": 6}
SCALE_X_DAGGER = [0.3, -0.2, 0.1, 0.4, -0.5, 0.2]

TTSA_RUNS = 8
TTSA_STEPS = 5_000
SWEEP_STEPS = 5_000
FLOW_RUNS = 4
RECORD_EVERY = 100          # ttsa and sweep sampling stride, as shipped
FLOW_RECORD_EVERY = 10      # flow sampling stride, the FlowConfig default
FLOW_HORIZON = 30.0         # FlowConfig default
FLOW_STOP_TOL = 1e-8        # FlowConfig default


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``batches`` holds (label, command, config) for each experiment command.
    ``check`` reads a round's output directory and records, on the round's
    result, the problems it found and the iteration steps it counted.
    """

    name: str
    verify: dict
    batches: tuple
    check: Callable


@dataclass
class RoundResult:
    seconds: dict                 # label -> wall time of that command
    codes: dict                   # label -> CLI exit code
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    steps: dict = field(default_factory=dict)   # label -> iteration steps
    ttsa_steps: int = 0
    ttsa_accepted: int = 0
    flow_steps: int = 0
    bytes_written: int = 0


# ---------------------------------------------------------------------------
# running


def set_up(workload: Workload, seed: int) -> None:
    """Do what each experiment batch pays before its first step.

    Calls the same public functions the batch runners call, on the
    workload's own configs: resolve the config and the instance, build the
    sublevel geometry (including the c* face scan) and draw the initial
    conditions, unless the config pins them.
    """
    for _, command, config in workload.batches:
        cfg = resolve_config(command, config, {"seed": seed, "jobs": 1})
        _, game, objective = resolve_instance(cfg)
        geom = make_sublevel_geometry(game, objective, c_frac=cfg.c_fraction,
                                      solver_cfg=ResponseSolverConfig(**cfg.solver))
        if cfg.x0 is None:
            sample_initial_conditions(cfg, game, objective, geom)


def execute(workload: Workload, seed: int, round_dir: Path) -> RoundResult:
    """Run the workload's commands once, timing each CLI call."""
    config_dir = round_dir / "configs"
    config_dir.mkdir(parents=True)
    seconds, codes = {}, {}
    commands = [("verify", "verify", workload.verify)] + list(workload.batches)
    for label, command, config in commands:
        config_path = config_dir / f"{label}.json"
        config_path.write_text(json.dumps(config))
        argv = [command, "--config", str(config_path), "--seed", str(seed),
                "--jobs", "1", "--out", str(round_dir / "out" / label)]
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            codes[label] = cli_main(argv)
            seconds[label] = time.perf_counter() - start
    return RoundResult(seconds=seconds, codes=codes)


def check_round(workload: Workload, result: RoundResult, round_dir: Path) -> RoundResult:
    """Count operations and run every output check on a finished round."""
    out = round_dir / "out"
    problems = result.problems
    for label, code in result.codes.items():
        if code != 0:
            problems.append(f"{label}: exit code {code}")
    result.attempted, result.failed = _count_operations(workload, out, problems)
    workload.check(out, result)
    result.bytes_written = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    return result


def _count_operations(workload: Workload, out: Path, problems: list):
    """(attempted, failed): verify checks, batch runs and sweep points."""
    attempted = failed = 0
    report = _read_json(out / "verify" / "verify_report.json", problems)
    if report is None:
        attempted, failed = 1, 1
    else:
        for entry in report["report"]:
            attempted += 1
            if entry["skipped"] or not entry["passed"]:
                failed += 1
                problems.append(f"verify: check {entry['name']} did not pass")
    for label, command, _ in workload.batches:
        summary = _read_json(out / label / "summary.json", problems)
        if summary is None:
            attempted, failed = attempted + 1, failed + 1
            continue
        if command == "sweep":
            skipped = len(summary["skipped_gammas"])
            attempted += len(summary["rows"]) + skipped
            failed += summary["failed"] + skipped
        else:
            attempted += summary["runs"]
            failed += summary["failed"]
        if summary["failed"]:
            problems.append(f"{label}: summary reports {summary['failed']} failed")
    return attempted, failed


# ---------------------------------------------------------------------------
# reading outputs


def _read_json(path: Path, problems: list):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        problems.append(f"{path.parent.name}/{path.name}: unreadable ({exc})")
        return None


def read_csv(path: Path) -> dict:
    """Columns of a CSV output as float arrays, keyed by header name."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    data = np.array(body, dtype=float).reshape(len(body), len(header))
    return {name: data[:, i] for i, name in enumerate(header)}


def _stack(cols: dict, prefix: str, n: int) -> np.ndarray:
    return np.stack([cols[f"{prefix}_{i + 1}"] for i in range(n)], axis=1)


def _close(a, b) -> np.ndarray:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.abs(a - b) <= REL_TOL * (1.0 + np.abs(b))


def _level(x_dagger, box, c_fraction) -> float:
    """c = c_fraction * c*, c* = half the squared distance to the nearest face."""
    dist = float(np.min(np.minimum(x_dagger - box[0], box[1] - x_dagger)))
    return c_fraction * 0.5 * dist * dist


def aggregative_matrix(spec) -> np.ndarray:
    """M = diag(q) + a W, the pseudo-gradient matrix of the aggregative family."""
    return np.diag(np.asarray(spec.q)) + spec.a * np.asarray(spec.W)


def check_verify(out: Path, problems: list, expected_min_eig=None) -> None:
    """The report passed and, for a constant Jacobian, certifies its value."""
    report = _read_json(out / "verify_report.json", problems)
    if report is None:
        return
    if not report["passed"]:
        problems.append("verify: report not passed")
    if expected_min_eig is not None:
        cert = [e for e in report["report"] if e["name"] == "monotonicity-certificate"]
        if len(cert) != 1 or not _close(cert[0]["measured"], expected_min_eig):
            got = cert[0]["measured"] if cert else None
            problems.append(f"verify: certificate {got} != lambda_min(Sym M) "
                            f"{expected_min_eig!r}")


def check_ttsa_runs(out: Path, label: str, n: int, runs: int, steps: int,
                    box, level: float, response: Callable, p_dagger,
                    problems: list, final_only_response: bool = False):
    """Checks shared by every two-timescale trajectory.

    ``response(p)`` is the benchmark's own x*(p). Returns (steps, accepted)
    summed over the runs, from each run's JSON mirror.
    """
    total_steps = total_accepted = 0
    expected_k = np.arange(0, steps + 1, RECORD_EVERY, dtype=float)
    for i in range(runs):
        stem = out / f"ttsa_run_{i:03d}"
        where = f"{label}/{stem.name}"
        try:
            cols = read_csv(stem.with_suffix(".csv"))
        except (OSError, ValueError, IndexError) as exc:
            problems.append(f"{where}.csv: unreadable ({exc})")
            continue
        mirror = _read_json(stem.with_suffix(".json"), problems)
        if mirror is not None:
            total_steps += mirror["steps_total"]
            total_accepted += mirror["accepted_steps_total"]
            if mirror["steps_total"] != steps:
                problems.append(f"{where}: {mirror['steps_total']} steps, expected {steps}")
        if cols["k"].shape != expected_k.shape or not np.array_equal(cols["k"], expected_k):
            problems.append(f"{where}: sampled steps are not 0, {RECORD_EVERY}, ..., {steps}")
            continue
        x = _stack(cols, "x", n)
        p = _stack(cols, "p", n)
        if np.any(x < box[0]) or np.any(x > box[1]):
            problems.append(f"{where}: a strategy leaves the box")
        if np.any(cols["V"] > level):
            problems.append(f"{where}: V exceeds c={level!r} at k="
                            f"{cols['k'][cols['V'] > level].astype(int).tolist()[:3]}")
        incentive = np.linalg.norm(p - p_dagger, axis=1)
        if not np.all(_close(cols["incentive_error"], incentive)):
            problems.append(f"{where}: incentive_error != ||p - p_dagger||")
        if not incentive[-1] < incentive[0]:
            problems.append(f"{where}: final incentive error {incentive[-1]!r} "
                            f"not below initial {incentive[0]!r}")
        rows = [len(p) - 1] if final_only_response else list(range(len(p)))
        try:
            xstar = np.array([response(p[j]) for j in rows])
        except ValueError as exc:
            problems.append(f"{where}: {exc}")
            continue
        tracking = np.linalg.norm(x[rows] - xstar, axis=1)
        if not np.all(_close(cols["tracking_error"][rows], tracking)):
            problems.append(f"{where}: tracking_error != ||x - x*(p)||")
    return total_steps, total_accepted


# ---------------------------------------------------------------------------
# per-workload checks


def _check_ttsa_aggregative(out: Path, result: RoundResult) -> None:
    problems = result.problems
    check_verify(out / "verify", problems)
    M = aggregative_matrix(load_preset("aggregative-5").spec)
    p_dagger = -M @ AGG5_X_DAGGER
    level = _level(AGG5_X_DAGGER, AGG_BOX, TTSA_BASE["c_fraction"])
    for label in ("ttsa-ne", "ttsa-br"):
        steps, accepted = check_ttsa_runs(
            out / label, label, 5, TTSA_RUNS, TTSA_STEPS, AGG_BOX, level,
            lambda p: np.linalg.solve(M, -p), p_dagger, problems)
        result.steps[label] = steps
        result.ttsa_steps += steps
        result.ttsa_accepted += accepted


def oscillator_g0(x, theta=OSC_THETA) -> np.ndarray:
    s = math.sin(x[0] - x[1])
    return np.array([theta[0] * math.sin(x[0]) - s, theta[1] * math.sin(x[1]) + s])


def oscillator_response(p, theta=OSC_THETA) -> np.ndarray:
    """Root of theta_i sin x_i -+ sin(x1 - x2) + p_i = 0 by scipy."""
    import scipy.optimize   # only this check needs it

    def jac(x):
        cd = math.cos(x[0] - x[1])
        return np.array([[theta[0] * math.cos(x[0]) - cd, cd],
                         [cd, theta[1] * math.cos(x[1]) - cd]])

    sol = scipy.optimize.root(lambda x: oscillator_g0(x, theta) + p, OSC_X_DAGGER,
                              jac=jac, method="hybr", tol=1e-14)
    residual = float(np.linalg.norm(oscillator_g0(sol.x, theta) + p))
    if residual > 1e-12 or np.any(np.abs(sol.x) >= OSC_BOX[1]):
        raise ValueError(f"no interior response at p={p.tolist()}: {sol.message}")
    return sol.x


def _check_sweep_oscillator(out: Path, result: RoundResult) -> None:
    problems = result.problems
    check_verify(out / "verify", problems)
    gammas = SWEEP_CONFIG["gammas"]
    p_dagger = -oscillator_g0(OSC_X_DAGGER)
    level = _level(OSC_X_DAGGER, OSC_BOX, SWEEP_CONFIG["c_fraction"])
    steps, accepted = check_ttsa_runs(
        out / "sweep", "sweep", 2, len(gammas), SWEEP_STEPS, OSC_BOX, level,
        oscillator_response, p_dagger, problems, final_only_response=True)
    result.steps["sweep"] = steps
    result.ttsa_steps += steps
    result.ttsa_accepted += accepted
    try:
        table = read_csv(out / "sweep" / "sweep.csv")
    except (OSError, ValueError, IndexError) as exc:
        problems.append(f"sweep/sweep.csv: unreadable ({exc})")
        return
    if not np.array_equal(table["gamma"], np.array(gammas)):
        problems.append(f"sweep/sweep.csv: gammas {table['gamma'].tolist()} != {gammas}")


def _check_flow_scale(out: Path, result: RoundResult) -> None:
    problems = result.problems
    n = len(SCALE_X_DAGGER)
    M = aggregative_matrix(game_spec_from_dict(SCALE_GAME))
    lam_min = float(np.linalg.eigvalsh(0.5 * (M + M.T))[0])
    check_verify(out / "verify", problems, expected_min_eig=lam_min)
    x_dagger = np.array(SCALE_X_DAGGER)
    p_dagger = -M @ x_dagger
    level = _level(x_dagger, AGG_BOX, FLOW_CONFIG["c_fraction"])
    dt = 0.005 * 2.0 * lam_min            # FlowConfig default dt = 0.005 m
    n_steps = max(1, int(round(FLOW_HORIZON / dt)))
    total = 0
    for i in range(FLOW_RUNS):
        where = f"flow/flow_run_{i:03d}"
        try:
            cols = read_csv(out / "flow" / f"flow_run_{i:03d}.csv")
        except (OSError, ValueError, IndexError) as exc:
            problems.append(f"{where}.csv: unreadable ({exc})")
            continue
        t, V = cols["t"], cols["V"]
        p = _stack(cols, "p", n)
        xstar = _stack(cols, "xstar", n)
        gaps = np.diff(t)
        stride = FLOW_RECORD_EVERY * dt
        finished = (_close(t[-1], n_steps * dt)
                    or cols["grad_norm"][-1] <= FLOW_STOP_TOL)
        if (len(t) < 2 or t[0] != 0.0 or not finished
                or not np.all(_close(gaps[:-1], stride))
                or not 0.0 < gaps[-1] <= stride * (1.0 + REL_TOL)):
            problems.append(f"{where}: sample times are not 0, {stride:.6g}, ... "
                            "to the horizon or the stop tolerance")
            continue
        total += int(round(t[-1] / dt))
        residual = np.linalg.norm(xstar @ M.T + p, axis=1)
        bad = residual > REL_TOL * (1.0 + np.linalg.norm(p, axis=1))
        if np.any(bad):
            problems.append(f"{where}: M xstar + p != 0 at t={t[bad][:3].tolist()} "
                            f"(residual {residual.max():.3g})")
        if np.any(V > level):
            problems.append(f"{where}: V exceeds c={level!r}")
        if not np.all(_close(V, 0.5 * np.sum((xstar - x_dagger) ** 2, axis=1))):
            problems.append(f"{where}: V != Phi(xstar) - Phi(x_dagger)")
        if np.any(V[1:] > V[:-1] + DESCENT_SLACK * (1.0 + V[:-1])):
            problems.append(f"{where}: V increases along the flow")
        dist = np.linalg.norm(p - p_dagger, axis=1)
        if not np.all(_close(cols["dist_to_pdagger"], dist)):
            problems.append(f"{where}: dist_to_pdagger != ||p - p_dagger||")
        if not dist[-1] < dist[0]:
            problems.append(f"{where}: final distance to p_dagger not below initial")
    result.steps["flow"] = total
    result.flow_steps += total


# ---------------------------------------------------------------------------
# the workloads

TTSA_BASE = {"preset": "aggregative-5", "c_fraction": 0.8,
             "num_initial_conditions": TTSA_RUNS, "max_iter": TTSA_STEPS,
             "record_every": RECORD_EVERY}
SWEEP_CONFIG = {"preset": "oscillator-2", "c_fraction": 0.95,
                "max_iter": SWEEP_STEPS, "record_every": RECORD_EVERY,
                "rule": {"kind": "PG", "eta": 0.015},
                "gammas": [0.1, 0.2, 0.3, 0.4], "a_exp_base": 0.6,
                "x0": [0.0, -0.5], "p0": [-3.0, -3.0]}
SCALE_BASE = {"game": SCALE_GAME, "x_dagger": SCALE_X_DAGGER}
FLOW_CONFIG = dict(SCALE_BASE, num_initial_conditions=FLOW_RUNS, c_fraction=0.95)

WORKLOADS = {w.name: w for w in (
    Workload(
        name="ttsa-aggregative-5",
        verify={"preset": "aggregative-5"},
        batches=(("ttsa-ne", "ttsa", dict(TTSA_BASE, rule={"kind": "NE"})),
                 ("ttsa-br", "ttsa", dict(TTSA_BASE, rule={"kind": "BR"}))),
        check=_check_ttsa_aggregative,
    ),
    Workload(
        name="sweep-oscillator-2",
        verify={"preset": "oscillator-2"},
        batches=(("sweep", "sweep", SWEEP_CONFIG),),
        check=_check_sweep_oscillator,
    ),
    Workload(
        name="scale-aggregative-6",
        verify=SCALE_BASE,
        batches=(("flow", "flow", FLOW_CONFIG),),
        check=_check_flow_scale,
    ),
)}
