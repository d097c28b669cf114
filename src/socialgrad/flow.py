"""Continuous-time incentive flow and sublevel-set geometry.

The planner moves the incentive along dp/dt = grad Phi(x*(p)), the social
gradient evaluated at the equilibrium response. With a strongly monotone
game and an interior target x_dagger this flow descends the value
V(p) = Phi(x*(p)) - Phi(x_dagger), and every sublevel set
P_c = {p : V(p) <= c} with c below the boundary gap c* is forward
invariant, which keeps the response strictly interior along the whole
trajectory.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

import numpy as np

from .games import GameModel, as_vector, rowwise_dot
from .objectives import SocialObjective
from .records import FlowRecord
from .solvers import (
    ResponseOracle,
    ResponseSolverConfig,
    SolverError,
    interior_margin,
    solve_response,
)

__all__ = [
    "SublevelGeometry",
    "FlowConfig",
    "FlowDomainError",
    "make_sublevel_geometry",
    "compute_c_star",
    "in_sublevel_set",
    "lyapunov_derivative",
    "integrate_social_gradient_flow",
]


class FlowDomainError(RuntimeError):
    """An integration step produced a response on the box boundary.

    Carries the last valid time and incentive so the caller can inspect
    where the trajectory left the admissible set.
    """

    def __init__(self, message, t_last=None, p_last=None):
        super().__init__(message)
        self.t_last = t_last
        self.p_last = None if p_last is None else np.array(p_last, dtype=float)


def compute_c_star(game: GameModel, objective: SocialObjective) -> float:
    """Boundary gap c* = min over the box boundary of Phi minus Phi(x_dagger).

    For the quadratic objective, the one form a config can select, this is
    exactly half the squared distance from x_dagger to the nearest face.
    Raises ValueError for any other form, and unless x_dagger lies strictly
    inside the box.
    """
    if objective.form != "quadratic":
        raise ValueError("c* is closed form only for the quadratic objective, "
                         f"not {objective.form!r}")
    space = game.space
    x_dag = objective.x_dagger
    dist = float(np.min(np.minimum(x_dag - space.lower, space.upper - x_dag)))
    if dist <= 0:
        raise ValueError("x_dagger must lie strictly inside the strategy box")
    return 0.5 * dist * dist


@dataclass(frozen=True)
class SublevelGeometry:
    """Admissible incentive region used by the flow and the discrete gate.
    Its runs share ``oracle``, which keeps no per-run state."""

    game: GameModel
    objective: SocialObjective
    p_dagger: np.ndarray
    c_star: float
    c: float
    solver_cfg: ResponseSolverConfig = field(default_factory=ResponseSolverConfig)
    oracle: ResponseOracle = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "oracle", ResponseOracle(self.game, self.solver_cfg))

    def admit(self, p, warm=None, level: Optional[float] = None):
        """(x, admitted) for one incentive (n,) or a stack (R, n).

        Admitted means an interior response whose gap is at most ``level``
        (default c); x is x*(p) wherever admitted. See ResponseOracle.
        """
        x, interior = self.oracle.response(p, warm)
        return x, interior & (self.objective.gap(x) <= (self.c if level is None else level))


def make_sublevel_geometry(game: GameModel, objective: SocialObjective,
                           c_frac: float = 0.95, c: Optional[float] = None,
                           solver_cfg: Optional[ResponseSolverConfig] = None,
                           c_star: Optional[float] = None) -> SublevelGeometry:
    """Build the gate geometry around the target equilibrium.

    Checks that x_dagger is strictly interior and that the closed-loop
    incentive p_dagger = -g0(x_dagger) actually reproduces it, then fixes
    the working level c, either directly or as a fraction of c*. Passing a
    previously computed ``c_star`` skips compute_c_star; batch runners use
    this to avoid recomputing it per worker.
    """
    if solver_cfg is None:
        solver_cfg = ResponseSolverConfig()
    x_dag = objective.x_dagger
    if x_dag.shape != (game.dim,):
        raise ValueError("objective target dimension does not match the game")
    if not game.space.contains(x_dag, margin=interior_margin(game.space)):
        raise ValueError("x_dagger must be strictly interior to the strategy box")
    p_dagger = -game.g0(x_dag)
    check = solve_response(game, p_dagger, solver_cfg)
    err = float(np.linalg.norm(check.x_star - x_dag))
    if not check.interior or err > 1e-8 * game.space.diameter:
        raise ValueError(
            f"response at p_dagger misses x_dagger by {err:.3e}; "
            "game and objective are inconsistent"
        )
    if c_star is None:
        c_star = compute_c_star(game, objective)
    elif c_star <= 0:
        raise ValueError("c_star must be positive")
    if c is None:
        if not 0.0 < c_frac < 1.0:
            raise ValueError("c_frac must lie in (0, 1)")
        c = c_frac * c_star
    if not 0.0 < c < c_star:
        raise ValueError(f"c={c} must lie strictly between 0 and c*={c_star:.6g}")
    p_dagger = np.array(p_dagger, dtype=float)
    p_dagger.setflags(write=False)
    return SublevelGeometry(game=game, objective=objective, p_dagger=p_dagger,
                            c_star=c_star, c=float(c), solver_cfg=solver_cfg)


def in_sublevel_set(geom: SublevelGeometry, p, x0=None) -> bool:
    """Whether V(p) <= c with an interior response.

    A solver failure raises SolverError rather than returning False, so
    callers can distinguish "outside the set" from "could not decide".
    """
    p = as_vector(p, dim=geom.game.dim, name="p")
    return bool(geom.admit(p, x0)[1])


def lyapunov_derivative(game: GameModel, objective: SocialObjective, p,
                        solver_cfg: Optional[ResponseSolverConfig] = None,
                        x0=None) -> float:
    """Time derivative of V along the flow at incentive p.

    Equals grad Phi(x*)^T Sym(Dx*(p)) grad Phi(x*) with
    Dx*(p) = -(DG0(x*(p)))^{-1}; strictly negative away from p_dagger.
    """
    if solver_cfg is None:
        solver_cfg = ResponseSolverConfig()
    p = as_vector(p, dim=game.dim, name="p")
    res = solve_response(game, p, solver_cfg, x0=x0)
    if not res.interior:
        raise FlowDomainError("response is not interior; derivative formula invalid",
                              p_last=p)
    jac = game.jac_g0(res.x_star)
    sens = -np.linalg.inv(jac)
    sym = 0.5 * (sens + sens.T)
    g = objective.grad_phi(res.x_star)
    return float(g @ sym @ g)


@dataclass(frozen=True)
class FlowConfig:
    """Integrator controls for the incentive flow.

    ``dt=None`` picks 0.005 * m, which keeps dt times the response
    sensitivity bound 2/m at one percent.
    """

    method: str = "rk4"
    dt: Optional[float] = None
    horizon_T: float = 30.0
    record_every: int = 10
    stop_tol: float = 1e-8

    def __post_init__(self):
        if self.method not in ("rk4", "explicit-euler"):
            raise ValueError("method must be 'rk4' or 'explicit-euler'")
        for name in ("dt", "horizon_T", "stop_tol"):
            value = getattr(self, name)
            if name == "dt" and value is None:
                continue
            if isinstance(value, bool) or not isinstance(
                    value, (int, float, np.integer, np.floating)) or not np.isfinite(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if self.dt is not None and self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.horizon_T <= 0:
            raise ValueError("horizon_T must be positive")
        if self.stop_tol < 0:
            raise ValueError("stop_tol must be at least 0")
        every = self.record_every
        if isinstance(every, bool) or not isinstance(every, (int, np.integer)):
            raise ValueError(f"record_every must be an integer, got {every!r}")
        if every < 1:
            raise ValueError("record_every must be at least 1")


class RunBatch:
    """R independent runs of one dynamics, stepped together as (R, n) stacks.

    Row i of every stack the caller keeps belongs to run ``runs[i]``, whose
    record is ``records[i]``. The batch checks each run's start, admits the
    starts at a level, solves stacks so that a failing solve fails only its
    row, retires rows with their outcome and returns the outcomes in run
    order. No operation mixes rows, so each run's output is the same alone
    and in any batch; a start of shape (n,) is the batch of one, which
    returns its outcome or raises it.
    """

    def __init__(self, geom: SublevelGeometry, make_record, p0, x0=None):
        self.geom, self.single = geom, np.ndim(p0) == 1
        P0 = np.atleast_2d(np.asarray(p0, dtype=float))
        X0 = None if x0 is None else np.atleast_2d(np.asarray(x0, dtype=float))
        if X0 is not None and len(X0) != len(P0):
            raise ValueError(f"{len(X0)} strategy starts but {len(P0)} incentive starts")
        self.size, self.outcomes = len(P0), {}
        game = geom.game
        for r in range(self.size):
            try:
                if X0 is not None:
                    as_vector(X0[r], dim=game.dim, name="x0")
                as_vector(P0[r], dim=game.dim, name="p0")
                if X0 is not None and not game.space.contains(X0[r]):
                    raise ValueError("x0 lies outside the strategy box")
            except ValueError as exc:
                self.outcomes[r] = exc
        self.runs = np.flatnonzero([r not in self.outcomes for r in range(self.size)])
        self.records = [make_record() for _ in self.runs]
        self._starts = [P0] if X0 is None else [P0, X0]

    def start(self, level: Optional[float] = None):
        """The stacks (responses, p0, x0 if given) of the runs whose start is
        admitted at ``level`` (default: the geometry's c); the others leave."""
        starts = [start[self.runs] for start in self._starts]
        X, admitted, errors = self.solve(partial(self.geom.admit, level=level), starts[0], None)
        for row in np.flatnonzero(~admitted):
            errors.setdefault(row, ValueError("p0 lies outside the working sublevel set"))
        return self.leave(errors, X, *starts)

    def solve(self, fn, P, warm):
        """(X, mask, {row: error}) of ``fn(P, warm)``, which returns (X, mask)
        as SublevelGeometry.admit does. If the stack's solve raises
        SolverError, each row is solved alone; a row that raises again gets
        X NaN and mask False."""
        try:
            X, mask = fn(P, warm)
            return X, mask, {}
        except SolverError:
            pass
        X, mask, errors = np.full_like(P, np.nan), np.zeros(len(P), dtype=bool), {}
        for r in range(len(P)):
            try:
                X[r:r + 1], mask[r:r + 1] = fn(P[r:r + 1],
                                               None if warm is None else warm[r:r + 1])
            except SolverError as exc:
                errors[r] = exc
        return X, mask, errors

    def leave(self, outcomes: dict, *stacks):
        """Retire the rows keyed in ``outcomes`` ({row: outcome}) and return
        ``stacks`` without them."""
        if not outcomes:
            return stacks
        keep = np.ones(len(self.runs), dtype=bool)
        keep[list(outcomes)] = False
        for row, outcome in outcomes.items():
            self.outcomes[int(self.runs[row])] = outcome
        self.records = [record for record, kept in zip(self.records, keep) if kept]
        self.runs = self.runs[keep]
        return tuple(stack[keep] for stack in stacks)

    def results(self, finish):
        """The outcomes in run order; each run still in the batch ends with
        ``finish(run, record)``."""
        for run, record in zip(self.runs, self.records):
            self.outcomes[int(run)] = finish(int(run), record)
        results = [self.outcomes[r] for r in range(self.size)]
        if self.single:
            if isinstance(results[0], Exception):
                raise results[0]
            return results[0]
        return results


def _finish(record: FlowRecord, geom: SublevelGeometry, dt: float, stopped_early: bool):
    if record.values and record.values[-1] > geom.c_star:
        warnings.warn("final value exceeds c*; trajectory left the certified region")
    return record, {
        "t_final": record.times[-1],
        "V_final": record.values[-1],
        "grad_norm_final": record.grad_norms[-1],
        "dist_to_pdagger_final": record.dists_to_target[-1],
        "steps": int(record.times[-1] / dt + 0.5),
        "dt": dt,
        "stopped_early": stopped_early,
    }


def integrate_social_gradient_flow(geom: SublevelGeometry, p0,
                                   cfg: FlowConfig = FlowConfig()):
    """Integrate the incentive flow from p0 over [0, horizon_T].

    One run takes p0 of shape (n,) and returns the sampled trajectory
    record and a summary dict, raising if the run fails. A batch takes an
    (R, n) stack, one run per row, integrates all R runs together as a
    RunBatch and returns one entry per run: (record, summary), or the
    exception that stopped that run.

    Each p0 must lie inside the working sublevel set (else ValueError). A
    run fails with FlowDomainError, the last valid state attached, if a
    step drives its response onto the box boundary (with c < c* this
    indicates a too-large dt), and with SolverError if its response solve
    fails; it leaves the batch at the stage that failed. A run stops early
    once its social gradient falls to stop_tol.
    """
    game, objective = geom.game, geom.objective
    batch = RunBatch(geom, lambda: FlowRecord(dim=game.dim), p0)
    dt = cfg.dt if cfg.dt is not None else 0.005 * game.monotonicity_m
    n_steps = max(1, int(round(cfg.horizon_T / dt)))
    grad_phi, respond = objective.grad_phi, geom.oracle.response
    warm, P = batch.start()
    G = grad_phi(warm)   # the field at P: each step's first stage

    def sample(t, rows, P, X):
        for row in rows:
            x, p = X[row], P[row]
            batch.records[row].append(
                t, p, x, objective.gap(x), np.linalg.norm(grad_phi(x)),
                np.linalg.norm(p - geom.p_dagger))

    def solve(P_at, message, P, *stacks):
        """grad Phi(x*(P_at)), x*(P_at), P and ``stacks`` for the rows whose
        response is interior. The others leave, with their SolverError or a
        FlowDomainError carrying the state at the start of the step."""
        nonlocal warm
        X, interior, errors = batch.solve(respond, P_at, warm)
        for row in np.flatnonzero(~interior):
            errors.setdefault(row, FlowDomainError(message.format(t=t), t_last=t_last,
                                                   p_last=P[row]))
        warm, P, *stacks = batch.leave(errors, X, P, *stacks)
        return (grad_phi(warm), warm, P, *stacks)

    boundary = "integration step produced a boundary response"
    sample(0.0, range(len(P)), P, warm)
    for k in range(1, n_steps + 1):
        if not len(P):
            break
        # G = grad Phi(x*(P)) was solved at the end of the last step (or on
        # admission), and every row still running passed its checks there
        t_last, t = (k - 1) * dt, k * dt
        if cfg.method == "rk4":
            k2, _, P, G = solve(P + 0.5 * dt * G, boundary, P, G)
            k3, _, P, G, k2 = solve(P + 0.5 * dt * k2, boundary, P, G, k2)
            k4, _, P, G, k2, k3 = solve(P + dt * k3, boundary, P, G, k2, k3)
            P_next = P + (dt / 6.0) * (G + 2.0 * k2 + 2.0 * k3 + k4)
        else:
            P_next = P + dt * G
        G, X, _, P_next = solve(P_next, "flow left the admissible set at t={t:.6g}",
                                P, P_next)
        stop = np.sqrt(rowwise_dot(G, G)) <= cfg.stop_tol
        recorded = (range(len(P_next)) if k % cfg.record_every == 0 or k == n_steps
                    else np.flatnonzero(stop))
        sample(t, recorded, P_next, X)
        P, warm, G = batch.leave(
            {row: _finish(batch.records[row], geom, dt, True) for row in np.flatnonzero(stop)},
            P_next, X, G)
    return batch.results(lambda run, record: _finish(record, geom, dt, False))
