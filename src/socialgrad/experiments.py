"""Reproducible experiment batches and the verification suite.

Each experiment family (flow, ttsa, sweep, verify) consumes one
ExperimentConfig, writes plot-ready CSV plus a JSON summary into the
output directory, and echoes the fully resolved configuration next to the
data. All randomness lives in initial-condition sampling, driven by a
counter-based generator with one dedicated stream per run index, so
batches are reproducible and independent of worker scheduling.
"""

from __future__ import annotations

import dataclasses
import math
import multiprocessing
import os
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np
import scipy.special

from .flow import (
    FlowConfig,
    SublevelGeometry,
    in_sublevel_set,
    integrate_social_gradient_flow,
    lyapunov_derivative,
    make_sublevel_geometry,
)
from .games import (GameModel, as_vector, certify_strong_monotonicity, is_number,
                    require_numbers, rowwise_dot)
from .objectives import SocialObjective, quadratic_objective
from .presets import PRESET_NAMES, build_game_from_spec, game_spec_from_dict, load_preset
from .records import write_csv, write_json
from .solvers import (
    ResponseSolverConfig,
    SolverError,
    interior_margin,
    response_jacobian_fd,
    solve_response,  # unused here; kept for the benchmark's tracer, which wraps it
    solve_responses,
)
from .ttsa import (
    LearningRule,
    StepSchedule,
    TtsaConfig,
    learning_rule_pg,
    make_learning_rule,
    pg_contraction_factor,
    run_ttsa,
)

__all__ = [
    "ExperimentConfig",
    "resolve_instance",
    "sample_initial_conditions",
    "run_flow_batch",
    "run_ttsa_batch",
    "run_timescale_sweep",
    "run_verify",
    "worker_count",
]

_EXPERIMENTS = ("flow", "ttsa", "sweep", "verify")
_INTEGER_FIELDS = ("num_initial_conditions", "max_iter", "record_every", "jobs", "seed")


def _numbers(value, name: str) -> list:
    """``value``, which must be a list of numbers."""
    if not isinstance(value, list) or not all(map(is_number, value)):
        raise ValueError(f"{name} must be a list of numbers, got {value!r}")
    return value


@dataclass
class ExperimentConfig:
    """Everything one experiment run needs, JSON round-trippable.

    ``preset`` names a shipped instance; ``game`` inlines a game spec
    mapping instead (then ``x_dagger`` is required). Nested dicts override
    the corresponding config dataclasses field by field.
    """

    experiment: str = "verify"
    preset: Optional[str] = "aggregative-5"
    game: Optional[dict] = None
    x_dagger: Optional[list] = None
    objective_form: str = "quadratic"
    num_initial_conditions: int = 100
    c_fraction: float = 0.95
    seed: int = 0
    output_dir: str = "runs"
    jobs: int = 1
    schedule: dict = field(default_factory=dict)
    rule: dict = field(default_factory=lambda: {"kind": "NE"})
    solver: dict = field(default_factory=dict)
    flow: dict = field(default_factory=dict)
    max_iter: int = 100_000
    record_every: int = 100
    gammas: list = field(default_factory=lambda: [0.1, 0.2, 0.3, 0.4])
    a_exp_base: float = 0.6
    x0: Optional[list] = None
    p0: Optional[list] = None

    def __post_init__(self):
        if self.experiment not in _EXPERIMENTS:
            raise ValueError(f"experiment must be one of {_EXPERIMENTS}")
        require_numbers(self, _INTEGER_FIELDS, integer=True)
        _numbers(self.gammas, "gammas")
        require_numbers(self, ("a_exp_base",))
        if not isinstance(self.rule, dict):
            raise ValueError(f"rule must be a mapping, got {self.rule!r}")
        eta = self.rule.get("eta")
        if eta is not None and not is_number(eta):
            raise ValueError(f"rule eta must be a number, got {eta!r}")
        if not isinstance(self.output_dir, str):
            raise ValueError(f"output_dir must be a string, got {self.output_dir!r}")
        if not is_number(self.c_fraction) or not 0.0 < self.c_fraction < 1.0:
            raise ValueError(f"c_fraction must lie in (0, 1), got {self.c_fraction!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be at least 0, got {self.seed}")
        if self.num_initial_conditions < 1:
            raise ValueError("num_initial_conditions must be at least 1")
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")
        if self.preset is not None and self.preset not in PRESET_NAMES:
            raise ValueError(
                f"unknown preset {self.preset!r}; available: {', '.join(PRESET_NAMES)}"
            )
        if self.objective_form != "quadratic":
            raise ValueError("only the 'quadratic' objective form is shipped")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        return _typed(cls, d, "config")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _merge_config_layers(*layers: dict) -> dict:
    """Later layers win; nested dicts merge one level deep."""
    out: dict = {}
    for layer in layers:
        for key, value in layer.items():
            if isinstance(value, dict) and isinstance(out.get(key), dict):
                merged = dict(out[key])
                merged.update(value)
                out[key] = merged
            else:
                out[key] = value
    return out


def resolve_config(experiment: str, file_cfg: Optional[dict] = None,
                   flag_overrides: Optional[dict] = None) -> ExperimentConfig:
    """Layer preset defaults, config-file values, and CLI flag overrides.

    Precedence: flags > file > preset defaults > dataclass defaults.
    """
    file_cfg = dict(file_cfg or {})
    flag_overrides = {k: v for k, v in (flag_overrides or {}).items() if v is not None}
    preset = flag_overrides.get("preset", file_cfg.get("preset"))
    inline_game = file_cfg.get("game")
    if preset is None and inline_game is None:
        preset = "aggregative-5"
    preset_defaults: dict = {}
    if preset is not None:
        bundle = load_preset(preset)   # validates the name early
        preset_defaults = dict(bundle.defaults.get(experiment, {}))
    merged = _merge_config_layers(preset_defaults, file_cfg, flag_overrides)
    merged["experiment"] = experiment
    merged["preset"] = None if inline_game is not None and preset is None else preset
    return ExperimentConfig.from_dict(merged)


def resolve_instance(cfg: ExperimentConfig):
    """(spec, game, objective) for the configured instance."""
    if cfg.game is not None:
        spec = game_spec_from_dict(cfg.game)
        game = build_game_from_spec(spec)
        if cfg.x_dagger is None:
            raise ValueError("inline game specs require an explicit x_dagger")
        objective = quadratic_objective(_numbers(cfg.x_dagger, "x_dagger"))
        return spec, game, objective
    bundle = load_preset(cfg.preset)
    objective = bundle.objective
    if cfg.x_dagger is not None:
        objective = quadratic_objective(_numbers(cfg.x_dagger, "x_dagger"))
    return bundle.spec, bundle.game, objective


def _typed(cls, params, name: str, **overrides):
    """The config dataclass ``cls`` from the config's ``name`` mapping.

    Unknown keys, values of the wrong type and values that ``cls`` rejects
    all raise ValueError, so a malformed setting is a configuration error.
    """
    if not isinstance(params, dict):
        raise ValueError(f"{name} must be a mapping")
    unknown = set(params) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ValueError(f"unknown {name} keys: {sorted(unknown)}")
    try:
        return cls(**{**params, **overrides})
    except (TypeError, ValueError) as exc:
        raise ValueError(f"invalid {name}: {exc}") from None


def _rule(cfg: ExperimentConfig, game: GameModel) -> LearningRule:
    params = dict(cfg.rule)
    kind = params.pop("kind", "NE")
    eta = params.pop("eta", None)
    if params:
        raise ValueError(f"unknown rule keys: {sorted(params)}")
    return make_learning_rule(game, kind, eta=eta)


def _echo_config(cfg: ExperimentConfig, geom: SublevelGeometry, out_dir: Path):
    payload = cfg.to_dict()
    payload["resolved"] = {
        "c_star": geom.c_star,
        "c": geom.c,
        "p_dagger": geom.p_dagger.tolist(),
        "game": geom.game.name,
    }
    write_json(out_dir / "config_resolved.json", payload)


def sample_initial_conditions(cfg: ExperimentConfig, game: GameModel,
                              objective: SocialObjective,
                              geom: SublevelGeometry):
    """Seeded (x0, p0) pairs, one independent generator stream per run.

    x_bar is drawn uniformly from the x-space sublevel region
    {x : Phi(x) - Phi(x_dagger) < c}. For the quadratic objective, the one
    form a config can select, that region is the ball of radius sqrt(2c)
    around x_dagger, and it lies inside the box because c < c*. Each draw
    takes n standard normals z and one uniform U and sets
    x_bar = x_dagger + sqrt(2c) * U^(1/n) * z / ||z||, which is uniform in
    the ball (Muller, Comm. ACM 2(4), 1959), so the cost does not grow
    with n. A draw outside the box's interior margin or not below the
    level is drawn again; after 100 such draws the ball evidently leaves
    the box and ValueError is raised. Any other objective form raises
    ValueError.

    p0 = -g0(x_bar), so that the response at p0 is exactly x_bar and p0
    lies inside the working sublevel set by construction. x0 is then
    drawn uniformly over the box. Sampling is uniform in x-space; its
    pushforward through -g0 is not uniform over the incentive set, which
    is accepted and documented.
    """
    if objective.form != "quadratic":
        raise ValueError("initial conditions are sampled exactly only for the "
                         f"quadratic objective, not {objective.form!r}")
    eps = interior_margin(game.space)
    lo = game.space.lower + eps
    hi = game.space.upper - eps
    radius = math.sqrt(2.0 * geom.c)
    pairs = []
    for run_index in range(cfg.num_initial_conditions):
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence((cfg.seed, run_index)))
        )
        for _ in range(100):
            z = rng.standard_normal(game.dim)
            scale = radius * rng.uniform() ** (1.0 / game.dim) / np.linalg.norm(z)
            cand = objective.x_dagger + scale * z
            if (np.all(cand >= lo) and np.all(cand <= hi)
                    and objective.gap(cand) < geom.c):
                break
        else:
            raise ValueError(
                f"100 draws from the sublevel ball of radius {radius:.6g} missed the "
                "box interior or the level; the ball leaves the strategy box, "
                "so c must lie below c*"
            )
        p0 = -game.g0(cand)
        if not in_sublevel_set(geom, p0, x0=cand):
            raise AssertionError("constructed p0 failed the membership oracle")
        x0 = rng.uniform(game.space.lower, game.space.upper)
        pairs.append((x0, p0))
    return pairs


# ---------------------------------------------------------------------------
# batches: the parent resolves every config, then module-level workers take
# contiguous chunks of runs as picklable payloads, in process or in a pool


@dataclass(frozen=True)
class RunSpec:
    """The picklable part of a batch: what a worker needs to rebuild the
    parent's geometry (c* included, so no worker rescans the boundary) and
    the directory the runs write into."""

    game: object
    x_dagger: np.ndarray
    solver: ResponseSolverConfig
    c: float
    c_star: float
    out_dir: Path

    def geometry(self) -> SublevelGeometry:
        game = build_game_from_spec(self.game)
        objective = quadratic_objective(self.x_dagger)
        return make_sublevel_geometry(game, objective, c=self.c, solver_cfg=self.solver,
                                      c_star=self.c_star)


def _result(idx: int, exc: Optional[Exception] = None, **fields) -> dict:
    """A run's entry in the batch results: ``fields`` if it succeeded, the
    error that stopped it otherwise."""
    if exc is not None:
        return {"run_index": idx, "ok": False, "error": f"{type(exc).__name__}: {exc}"}
    return {"run_index": idx, "ok": True, "error": None, **fields}


def _write_flow_run(run: RunSpec, cfg: FlowConfig, item, record, summary) -> dict:
    path = run.out_dir / f"flow_run_{item[0]:03d}.csv"
    record.write_csv(path)
    return {"summary": summary, "csv": str(path), "V0": float(record.column("V")[0])}


# the columns of a TTSA record that envelope.csv summarizes across runs
_ENVELOPE = ("k", "tracking_error", "incentive_error")


def _write_ttsa_run(run: RunSpec, cfg: TtsaConfig, item, record, summary) -> dict:
    idx, schedule = item[:2]
    path = run.out_dir / f"ttsa_run_{idx:03d}.csv"
    record.write_csv(path)
    record.write_json(path.with_suffix(".json"),
                      config=dataclasses.replace(cfg, schedule=schedule).to_dict())
    return {"summary": summary, "csv": str(path),
            "envelope": np.stack([record.column(name) for name in _ENVELOPE], axis=1)}


def _run_chunk(run: RunSpec, cfg, chunk: list) -> list:
    """One result per run of the chunk; the geometry is built once.

    A TtsaConfig steps the chunk's (run index, schedule, x0, p0) items
    together through run_ttsa; a FlowConfig integrates its (run index, p0)
    items together through integrate_social_gradient_flow. Each finished
    run is then written; an error anywhere fails only the runs it reaches.
    """
    ttsa = isinstance(cfg, TtsaConfig)
    try:
        geom = run.geometry()
        if ttsa:
            _, schedules, x0, p0 = zip(*chunk)
            outcomes = run_ttsa(np.array(x0, dtype=float), np.array(p0, dtype=float),
                                cfg, geom, schedules=schedules)
        else:
            p0 = np.array([item[1] for item in chunk], dtype=float)
            outcomes = integrate_social_gradient_flow(geom, p0, cfg)
    except Exception as exc:
        outcomes = [exc] * len(chunk)
    write = _write_ttsa_run if ttsa else _write_flow_run
    results = []
    for item, outcome in zip(chunk, outcomes):
        try:
            if isinstance(outcome, Exception):
                raise outcome
            results.append(_result(item[0], **write(run, cfg, item, *outcome)))
        except Exception as exc:
            results.append(_result(item[0], exc))
    return results


def _chunk_worker(conn, run: RunSpec, cfg, chunk: list) -> None:
    """Worker process body: send the chunk's results through ``conn``.

    An exception becomes a failed result for every run of the chunk, so
    no traceback reaches the terminal.
    """
    try:
        results = _run_chunk(run, cfg, chunk)
    except Exception as exc:
        results = [_result(item[0], exc) for item in chunk]
    conn.send(results)
    conn.close()


def worker_count(jobs: int, tasks: int) -> int:
    """Worker processes for ``tasks`` independent tasks: at most one per
    task and per CPU, and never more than ``jobs``."""
    return max(1, min(jobs, tasks, os.cpu_count() or 1))


def _run_batch(run: RunSpec, cfg, items: list, jobs: int) -> list:
    """Results of the runs in ``items``, in order (see _run_chunk).

    Each item starts with its run index. The items are split into
    contiguous chunks. One chunk runs in this process; several run in
    one worker process each, so a worker that dies (killed, or out of
    memory) fails only its own chunk's runs and the other chunks finish.
    Every run's output is independent of the chunking, so ``jobs``
    changes the wall time only.
    """
    if not items:
        return []
    workers = worker_count(jobs, len(items))
    chunks = [[items[i] for i in idx]
              for idx in np.array_split(np.arange(len(items)), workers)]
    if workers == 1:
        return _run_chunk(run, cfg, chunks[0])
    ctx = multiprocessing.get_context()
    started = []
    for chunk in chunks:
        receiver, sender = ctx.Pipe(duplex=False)
        process = ctx.Process(target=_chunk_worker, args=(sender, run, cfg, chunk),
                              daemon=True)
        process.start()
        sender.close()     # the worker holds the only write end: EOF when it dies
        started.append((process, receiver, chunk))
    results = []
    for process, receiver, chunk in started:
        with receiver:
            try:
                results.extend(receiver.recv())
            except EOFError:
                process.join()
                error = f"worker process died, exit code {process.exitcode}"
                results.extend({"run_index": item[0], "ok": False, "error": error}
                               for item in chunk)
        process.join()
    return results


def _batch_summary(experiment: str, results: list, **fields):
    """(the successful results, the summary header every batch writes)."""
    failures = [{"run_index": r["run_index"], "error": r["error"]}
                for r in results if not r["ok"]]
    summary = {"experiment": experiment, **fields, "runs": len(results),
               "failed": len(failures), "failures": failures}
    return [r for r in results if r["ok"]], summary


def _prepare_batch(cfg: ExperimentConfig, settings=lambda game: None):
    """(run spec, settings(game), initial conditions) of a batch command.

    The instance, the solver settings, the command's own ``settings`` and
    the initial conditions are all built before the output directory is
    made, so a configuration error leaves no files behind.
    """
    spec, game, objective = resolve_instance(cfg)
    solver = _typed(ResponseSolverConfig, cfg.solver, "solver")
    geom = make_sublevel_geometry(game, objective, c_frac=cfg.c_fraction,
                                  solver_cfg=solver)
    made = settings(game)
    ics = _initial_conditions(cfg, geom)
    out_dir = _output_dir(cfg)
    _echo_config(cfg, geom, out_dir)
    run = RunSpec(game=spec, x_dagger=objective.x_dagger, solver=solver,
                  c=geom.c, c_star=geom.c_star, out_dir=out_dir)
    return run, made, ics


def _output_dir(cfg: ExperimentConfig) -> Path:
    """The output directory, made with its parents; one that cannot be made
    is a configuration error."""
    try:
        Path(cfg.output_dir).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"output_dir {cfg.output_dir!r} cannot be made: "
                         f"{exc.strerror or exc}") from None
    return Path(cfg.output_dir)


def _ttsa_config(cfg: ExperimentConfig, game: GameModel, **fields) -> TtsaConfig:
    return TtsaConfig(rule=_rule(cfg, game), max_iter=cfg.max_iter,
                      record_every=cfg.record_every, seed=cfg.seed, **fields)


def _initial_conditions(cfg: ExperimentConfig, geom: SublevelGeometry):
    """The runs' (x0, p0) starts. A bad pinned pair is a configuration
    error, and so is a pinned pair with more than one run outside the
    sweep."""
    if cfg.x0 is not None or cfg.p0 is not None:
        if cfg.x0 is None or cfg.p0 is None:
            raise ValueError("pin both x0 and p0 or neither")
        game = geom.game
        x0, p0 = (as_vector(_numbers(getattr(cfg, name), name), dim=game.dim, name=name)
                  for name in ("x0", "p0"))
        if not game.space.contains(x0):
            raise ValueError("x0 lies outside the strategy box")
        if not in_sublevel_set(geom, p0):
            raise ValueError("p0 lies outside the working sublevel set")
        # the sweep runs its first start only; elsewhere more starts would
        # be identical reruns
        if cfg.experiment != "sweep" and cfg.num_initial_conditions > 1:
            raise ValueError("a pinned x0/p0 start is one run; num_initial_conditions "
                             f"must be 1, got {cfg.num_initial_conditions}")
        return [(x0, p0)]
    return sample_initial_conditions(cfg, geom.game, geom.objective, geom)


def run_flow_batch(cfg: ExperimentConfig):
    """Integrate the incentive flow from each sampled p0.

    Writes one trajectory CSV per run plus summary.json identifying the
    runs with maximal and minimal initial value (the extreme sublevel
    trajectories) and the final-distance distribution. Single-run failures
    are recorded and the batch continues.
    """
    if cfg.experiment != "flow":
        raise ValueError("config experiment must be 'flow'")
    fcfg = _typed(FlowConfig, cfg.flow, "flow")
    run, _, ics = _prepare_batch(cfg, fcfg.steps)
    results = _run_batch(run, fcfg, [(i, p0) for i, (_, p0) in enumerate(ics)], cfg.jobs)

    ok, summary = _batch_summary("flow", results)
    if ok:
        v0 = {r["run_index"]: r["V0"] for r in ok}
        imax = max(v0, key=v0.get)
        imin = min(v0, key=v0.get)
        finals = np.array([r["summary"]["dist_to_pdagger_final"] for r in ok])
        summary.update({
            "max_initial_V_run": imax, "max_initial_V": v0[imax],
            "min_initial_V_run": imin, "min_initial_V": v0[imin],
            "horizon_T": ok[0]["summary"]["t_final"],
            "final_dist_min": float(finals.min()),
            "final_dist_median": float(np.median(finals)),
            "final_dist_max": float(finals.max()),
        })
    write_json(run.out_dir / "summary.json", summary)
    return results, summary


def _write_envelope_csv(path: Path, samples: np.ndarray):
    """Per-step medians and min-max envelopes across a batch, from the
    (runs, samples, _ENVELOPE) stack of the runs' envelope columns."""
    errors = samples[:, :, 1:]
    stats = np.stack([np.median(errors, axis=0), errors.min(axis=0), errors.max(axis=0)],
                     axis=2)   # samples x error x statistic
    header = ["k"] + [f"{error}_{stat}" for error in _ENVELOPE[1:]
                      for stat in ("median", "min", "max")]
    write_csv(path, header, np.column_stack([samples[0, :, 0],
                                             stats.reshape(len(stats), -1)]))


def run_ttsa_batch(cfg: ExperimentConfig):
    """Run the two-timescale iteration per initial condition.

    Writes one trajectory CSV per run with a JSON of its config and step
    totals, an envelope CSV (per-step median/min/max of both errors across
    the batch), and summary.json.
    """
    if cfg.experiment != "ttsa":
        raise ValueError("config experiment must be 'ttsa'")
    schedule = _typed(StepSchedule, cfg.schedule, "schedule")
    run, tcfg, ics = _prepare_batch(
        cfg, lambda game: _ttsa_config(cfg, game, schedule=schedule))
    results = _run_batch(run, tcfg, [(i, schedule, x0, p0) for i, (x0, p0) in enumerate(ics)],
                         cfg.jobs)

    ok, summary = _batch_summary("ttsa", results, rule=tcfg.rule.kind)
    if ok:
        _write_envelope_csv(run.out_dir / "envelope.csv",
                            np.stack([r["envelope"] for r in ok]))
        summary.update({
            "envelope_csv": str(run.out_dir / "envelope.csv"),
            "final_tracking_median": float(np.median(
                [r["summary"]["final_tracking_error"] for r in ok])),
            "final_incentive_median": float(np.median(
                [r["summary"]["final_incentive_error"] for r in ok])),
            "min_accepted_fraction_last_10pct": float(min(
                r["summary"]["accepted_fraction_last_10pct"] for r in ok)),
        })
    write_json(run.out_dir / "summary.json", summary)
    return results, summary


def run_timescale_sweep(cfg: ExperimentConfig):
    """Final errors versus the schedule-exponent gap.

    Fixes the fast exponent at a_exp_base and runs one fixed-horizon
    iteration per gamma with b_exp = a_exp_base + gamma. Gammas pushing
    b_exp outside (1/2, 1] are skipped with a warning; nonpositive gammas
    (no separation) are rejected outright. The kept gammas are the runs of
    one batch, each with its own schedule.
    """
    if cfg.experiment != "sweep":
        raise ValueError("config experiment must be 'sweep'")
    for gamma in cfg.gammas:
        if gamma <= 0:
            raise ValueError(
                f"gamma={gamma} <= 0 gives b_exp <= a_exp; timescale "
                "separation requires positive gamma"
            )
    # validated once, so a bad schedule is a configuration error even when
    # every gamma is skipped; each kept gamma swaps in its own b_exp
    base = _typed(StepSchedule, cfg.schedule, "schedule", a_exp=cfg.a_exp_base, b_exp=1.0)
    run, tcfg, ics = _prepare_batch(cfg, lambda game: _ttsa_config(cfg, game))
    x0, p0 = ics[0]
    kept, items, skipped = [], [], []
    for i, gamma in enumerate(cfg.gammas):
        b_exp = cfg.a_exp_base + gamma
        if not 0.5 < b_exp <= 1.0:
            warnings.warn(f"gamma={gamma} gives b_exp={b_exp:.3g} outside (1/2, 1]; skipped")
            skipped.append(gamma)
            continue
        kept.append((gamma, b_exp))
        items.append((i, dataclasses.replace(base, b_exp=b_exp), x0, p0))
    results = _run_batch(run, tcfg, items, cfg.jobs)

    rows = []
    for (gamma, b_exp), res in zip(kept, results):
        if not res["ok"]:
            rows.append({"gamma": gamma, "b_exp": b_exp, "error": res["error"]})
            continue
        rows.append({
            "gamma": gamma,
            "b_exp": b_exp,
            "final_tracking_error": res["summary"]["final_tracking_error"],
            "final_incentive_error": res["summary"]["final_incentive_error"],
            "accepted_fraction": res["summary"]["accepted_fraction_full"],
        })

    header = ["gamma", "b_exp", "final_tracking_error",
              "final_incentive_error", "accepted_fraction"]
    write_csv(run.out_dir / "sweep.csv", header,
              [[r[h] for h in header] for r in rows if "error" not in r])

    summary = {
        "experiment": "sweep",
        "rows": rows,
        "skipped_gammas": skipped,
        "failed": sum(1 for r in rows if "error" in r),
        "sweep_csv": str(run.out_dir / "sweep.csv"),
    }
    write_json(run.out_dir / "summary.json", summary)
    return rows, summary


# ---------------------------------------------------------------------------
# verification suite


def _entry(name, passed=None, measured=None, bound=None, note="", skipped=False):
    return {"name": name, "passed": passed, "skipped": skipped,
            "measured": measured, "bound": bound, "note": note}


def _verify_rng(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 977))))


def _sample_admissible(cfg, game, objective, geom, count):
    sub = dataclasses.replace(cfg, num_initial_conditions=count)
    return sample_initial_conditions(sub, game, objective, geom)


def run_verify(cfg: ExperimentConfig):
    """Run the property suite and emit a pass/fail table.

    Failures are report entries, never exceptions. A failed monotonicity
    certificate skips the downstream checks, since their bounds all assume
    the certified modulus.
    """
    if cfg.experiment != "verify":
        raise ValueError("config experiment must be 'verify'")
    scfg = _typed(ResponseSolverConfig, cfg.solver, "solver")
    sched = _typed(StepSchedule, cfg.schedule, "schedule")
    out_dir = _output_dir(cfg)
    report = []

    try:
        spec, game, objective = resolve_instance(cfg)
        geom = make_sublevel_geometry(game, objective, c_frac=cfg.c_fraction,
                                      solver_cfg=scfg)
    except (ValueError, TypeError, SolverError) as exc:
        report.append(_entry("construction", passed=False,
                             note=f"{type(exc).__name__}: {exc}"))
        write_json(out_dir / "verify_report.json", {"report": report, "passed": False})
        return report, False
    report.append(_entry("construction", passed=True, note=game.name))
    _echo_config(cfg, geom, out_dir)

    cert = certify_strong_monotonicity(game, grid_density=101 if game.dim <= 2 else 7)
    note = ("constant Jacobian: one exact eigensolve of Sym(M)" if cert.method == "eigensolve"
            else f"grid density {cert.grid_density}; "
                 f"worst point {np.round(cert.grid_worst_point, 4).tolist()}")
    report.append(_entry(
        "monotonicity-certificate", passed=cert.passed,
        measured=cert.grid_min_eig, bound=0.5 * game.monotonicity_m, note=note,
    ))

    downstream = ["response-round-trip", "response-lipschitz", "jacobian-sandwich",
                  "descent-sign", "pg-contraction", "schedule-laws"]
    if not cert.passed:
        for name in downstream:
            report.append(_entry(name, skipped=True,
                                 note="skipped: monotonicity certificate failed"))
        payload = {"report": report, "passed": False}
        write_json(out_dir / "verify_report.json", payload)
        return report, False

    rng = _verify_rng(cfg.seed)
    eps = interior_margin(game.space)

    # response round-trip: p = -g0(x) must reproduce x
    xs = np.array([rng.uniform(game.space.lower + eps, game.space.upper - eps)
                   for _ in range(20)])
    miss = solve_responses(game, np.array([-game.g0(x) for x in xs]), scfg).x_star - xs
    worst = float(np.max(np.sqrt(rowwise_dot(miss, miss)), initial=0.0))
    bound = 1e-8 * game.space.diameter
    report.append(_entry("response-round-trip", passed=worst <= bound,
                         measured=worst, bound=bound, note="20 interior points"))

    pairs = _sample_admissible(cfg, game, objective, geom, 40)
    ps = [p for (_, p) in pairs]

    # response map Lipschitz constant 2/m
    lip_bound = 2.0 / game.monotonicity_m + 1e-6
    worst = 0.0
    sols = solve_responses(game, np.array(ps), scfg).x_star
    for i in range(len(ps)):
        for j in range(i + 1, len(ps)):
            dp = float(np.linalg.norm(ps[i] - ps[j]))
            if dp < 1e-9:
                continue
            worst = max(worst, float(np.linalg.norm(sols[i] - sols[j])) / dp)
    report.append(_entry("response-lipschitz", passed=worst <= lip_bound,
                         measured=worst, bound=lip_bound,
                         note=f"{len(ps)} sampled incentives, all pairs"))

    # sensitivity spectrum: negative-definite symmetric part, singular
    # values inside the certified sandwich
    sig_lo = 1.0 / game.operator_norm - 1e-4
    sig_hi = 2.0 / game.monotonicity_m + 1e-4
    J = response_jacobian_fd(game, np.array(ps[:15]), cfg=scfg)
    max_sym = float(np.max(np.linalg.eigvalsh(0.5 * (J + np.swapaxes(J, 1, 2)))[:, -1]))
    s = np.linalg.svd(J, compute_uv=False)
    sig_min, sig_max = float(np.min(s[:, -1])), float(np.max(s[:, 0]))
    ok = (max_sym < 0.0) and (sig_min >= sig_lo) and (sig_max <= sig_hi)
    report.append(_entry(
        "jacobian-sandwich", passed=bool(ok),
        measured={"max_sym_eig": max_sym, "sigma_min": sig_min, "sigma_max": sig_max},
        bound={"max_sym_eig": 0.0, "sigma_min": sig_lo, "sigma_max": sig_hi},
        note="finite-difference response Jacobians at 15 incentives",
    ))

    # strict descent away from the target incentive, stationarity at it;
    # a solve warm-started at its converged response returns it unchanged
    worst_val = -np.inf
    for p, xs in zip(ps, sols):
        if np.linalg.norm(p - geom.p_dagger) <= 1e-3:
            continue
        worst_val = max(worst_val, lyapunov_derivative(game, objective, p, scfg, x0=xs))
    at_target = abs(lyapunov_derivative(game, objective, geom.p_dagger, scfg))
    ok = worst_val < -1e-12 and at_target <= 1e-12
    report.append(_entry(
        "descent-sign", passed=bool(ok),
        measured={"worst_derivative": worst_val, "at_p_dagger": at_target},
        bound={"worst_derivative": -1e-12, "at_p_dagger": 1e-12},
        note="value derivative along the flow",
    ))

    # one projected-gradient application contracts by the certified factor
    eta = game.monotonicity_m / (2.0 * game.operator_norm ** 2)
    rho = pg_contraction_factor(game, eta)
    worst = 0.0
    for (x0, p), xs in zip(pairs[:30], sols):
        d0 = float(np.linalg.norm(x0 - xs))
        if d0 < 1e-12:
            continue
        d1 = float(np.linalg.norm(learning_rule_pg(x0, p, game, eta) - xs))
        worst = max(worst, d1 / d0)
    report.append(_entry("pg-contraction", passed=worst <= rho + 1e-8,
                         measured=worst, bound=rho,
                         note=f"eta={eta:.6g}, 30 sampled (x, p)"))

    # schedules: divergent partial sums (integral lower bound) and
    # square-summability (Hurwitz zeta reference)
    K = 1_000_000
    ok_all = True
    measured = {}
    bounds = {}
    for label, coef, expo in (("a", sched.a0, sched.a_exp),
                              ("b", sched.b0, sched.b_exp)):
        # one array of K terms, squared in place: a second array would add
        # 8 MB to the peak memory of verify
        steps = coef * (np.arange(K, dtype=float) + sched.offset) ** (-expo)
        s1 = float(np.sum(steps))
        lower = coef * ((K + sched.offset) ** (1 - expo)
                        - sched.offset ** (1 - expo)) / (1 - expo) if expo < 1 \
            else coef * math.log((K + sched.offset) / sched.offset)
        s2 = float(np.sum(np.square(steps, out=steps)))
        zeta_ref = coef ** 2 * float(scipy.special.zeta(2 * expo, sched.offset)
                                     - scipy.special.zeta(2 * expo, sched.offset + K))
        measured[label] = {"sum": s1, "sum_sq": s2}
        bounds[label] = {"sum_at_least": lower, "sum_sq_ref": zeta_ref}
        ok_all = ok_all and s1 >= lower and abs(s2 - zeta_ref) <= 0.01 * zeta_ref
    report.append(_entry("schedule-laws", passed=bool(ok_all),
                         measured=measured, bound=bounds,
                         note=f"{K} terms; divergence via integral test, "
                              "squares vs zeta reference"))

    all_passed = all(e["passed"] for e in report if not e["skipped"])
    write_json(out_dir / "verify_report.json",
               {"report": report, "passed": all_passed})
    return report, all_passed
