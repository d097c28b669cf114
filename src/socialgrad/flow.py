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


def _face_minimum(objective: SocialObjective, game: GameModel, axis: int,
                  value: float, grid_density: int) -> float:
    """Minimum of Phi over one box face, grid scan plus projected descent."""
    space = game.space
    n = game.dim
    free = [i for i in range(n) if i != axis]
    axes_1d = [np.linspace(space.lower[i], space.upper[i], grid_density) for i in free]
    if free:
        mesh = np.meshgrid(*axes_1d, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
    else:
        pts = np.zeros((1, 0))
    best_val = np.inf
    best_x = None
    for row in pts:
        x = np.empty(n)
        x[axis] = value
        for j, i in enumerate(free):
            x[i] = row[j]
        v = objective.phi(x)
        if v < best_val:
            best_val = v
            best_x = x
    # Descend within the face from the best grid point; the face stays fixed
    # in coordinate `axis`, the rest is projected gradient on the box.
    x = best_x.copy()
    step = 1.0 / objective.lip_L2
    for _ in range(10_000):
        g = objective.grad_phi(x)
        g[axis] = 0.0
        x_next = x - step * g
        x_next = np.clip(x_next, space.lower, space.upper)
        x_next[axis] = value
        if np.linalg.norm(x_next - x) <= 1e-14 * (1.0 + np.linalg.norm(x)):
            x = x_next
            break
        x = x_next
    return min(best_val, float(objective.phi(x)))


def compute_c_star(game: GameModel, objective: SocialObjective,
                   grid_density: Optional[int] = None) -> float:
    """Boundary gap c* = min over the box boundary of Phi minus Phi(x_dagger).

    For the quadratic objective this is exactly half the squared distance
    from x_dagger to the nearest face. Any other objective is scanned: a
    grid on each of the 2n faces, the best point refined by descent within
    its face. The default density adapts to dimension to keep the face
    grids small. Raises ValueError unless x_dagger is a strict interior
    minimizer.
    """
    space = game.space
    x_dag = objective.x_dagger
    if objective.form == "quadratic":
        dist = float(np.min(np.minimum(x_dag - space.lower, space.upper - x_dag)))
        if dist <= 0:
            raise ValueError("x_dagger must lie strictly inside the strategy box")
        return 0.5 * dist * dist
    if grid_density is None:
        grid_density = 9 if game.dim <= 3 else 5
    if grid_density < 2:
        raise ValueError("grid_density must be at least 2")
    best = np.inf
    for axis in range(game.dim):
        for value in (space.lower[axis], space.upper[axis]):
            best = min(best, _face_minimum(objective, game, axis, value, grid_density))
    scanned = best - objective.phi(x_dag)
    if scanned <= 0:
        raise ValueError(
            "boundary minimum of the objective does not exceed the target value; "
            "x_dagger must be a strict interior minimizer"
        )
    return float(scanned)


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
        if self.dt is not None and self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.horizon_T <= 0:
            raise ValueError("horizon_T must be positive")
        if self.record_every < 1:
            raise ValueError("record_every must be at least 1")


def isolate_row_failures(solve, P, warm):
    """``solve(P, warm)`` for an (R, n) stack, where a solve that raises
    fails only its own row.

    ``solve`` returns (X, mask) for a stack, as SublevelGeometry.admit and
    ResponseOracle.response do. Returns (X, mask, {row: error}). When the
    stack's solve raises SolverError, the rows are solved again one at a
    time to find the rows that fail; their X is NaN and their mask False.
    """
    try:
        X, mask = solve(P, warm)
        return X, mask, {}
    except SolverError:
        pass
    X, mask, errors = np.full_like(P, np.nan), np.zeros(len(P), dtype=bool), {}
    for r in range(len(P)):
        try:
            X[r:r + 1], mask[r:r + 1] = solve(P[r:r + 1], None if warm is None else warm[r:r + 1])
        except SolverError as exc:
            errors[r] = exc
    return X, mask, errors


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
    (R, n) stack, one run per row, integrates all R runs together and
    returns one entry per run: (record, summary), or the exception that
    stopped that run. No operation mixes rows, so each run's output is the
    same alone and in any batch; a single run is the batch of one.

    Each p0 must lie inside the working sublevel set (else ValueError). A
    run fails with FlowDomainError, the last valid state attached, if a
    step drives its response onto the box boundary (with c < c* this
    indicates a too-large dt), and with SolverError if its response solve
    fails. A run stops early once its social gradient falls to stop_tol.
    """
    single = np.ndim(p0) == 1
    game, objective = geom.game, geom.objective
    P0 = np.atleast_2d(np.asarray(p0, dtype=float))
    outcomes = {}
    for r in range(len(P0)):
        try:
            as_vector(P0[r], dim=game.dim, name="p0")
        except ValueError as exc:
            outcomes[r] = exc
    dt = cfg.dt if cfg.dt is not None else 0.005 * game.monotonicity_m
    n_steps = max(1, int(round(cfg.horizon_T / dt)))
    grad_phi, respond = objective.grad_phi, geom.oracle.response

    runs = np.array([r for r in range(len(P0)) if r not in outcomes], dtype=int)
    P = P0[runs]
    X, admitted, errors = isolate_row_failures(geom.admit, P, None)
    for row in np.flatnonzero(~admitted):
        outcomes[int(runs[row])] = errors.get(
            row, ValueError("p0 lies outside the working sublevel set"))
    runs, P, warm = runs[admitted], P[admitted], X[admitted]
    records = {int(run): FlowRecord(dim=game.dim) for run in runs}
    failed = {}        # row -> the error that stops its run in the current step
    t = 0.0

    def sample(t, rows, P, X):
        for row in rows:
            x, p = X[row], P[row]
            records[int(runs[row])].append(
                t, p, x, objective.gap(x), np.linalg.norm(grad_phi(x)),
                np.linalg.norm(p - geom.p_dagger))

    def response(P_at):
        """Responses at P_at of the rows still running, and the rows whose
        response is on the boundary; solver failures go into ``failed``."""
        nonlocal warm
        if not failed:
            X, interior, errors = isolate_row_failures(respond, P_at, warm)
        else:
            live = [row for row in range(len(runs)) if row not in failed]
            X = np.full_like(P_at, np.nan)
            interior = np.zeros(len(runs), dtype=bool)
            X[live], interior[live], sub = isolate_row_failures(
                respond, P_at[live], warm[live])
            errors = {live[row]: exc for row, exc in sub.items()}
        failed.update(errors)
        warm = X
        return X, [row for row in np.flatnonzero(~interior) if row not in failed]

    def field(P_at):
        """The vector field p -> grad Phi(x*(p)) at every row of P_at."""
        X, boundary = response(P_at)
        for row in boundary:
            failed[row] = FlowDomainError("integration step produced a boundary response",
                                          t_last=t, p_last=P[row])
        return grad_phi(X)

    sample(0.0, range(len(runs)), P, warm)
    for k in range(1, n_steps + 1):
        if not len(runs):
            break
        failed.clear()
        if cfg.method == "rk4":
            k1 = field(P)
            k2 = field(P + 0.5 * dt * k1)
            k3 = field(P + 0.5 * dt * k2)
            k4 = field(P + dt * k3)
            P_next = P + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        else:
            P_next = P + dt * field(P)
        t = k * dt
        X, boundary = response(P_next)
        for row in boundary:
            failed[row] = FlowDomainError(
                f"flow left the admissible set at t={t:.6g}",
                t_last=(k - 1) * dt, p_last=P[row])
        G = grad_phi(X)
        stop = np.sqrt(rowwise_dot(G, G)) <= cfg.stop_tol
        stop[list(failed)] = False
        recorded = (range(len(runs)) if k % cfg.record_every == 0 or k == n_steps
                    else np.flatnonzero(stop))
        sample(t, [row for row in recorded if row not in failed], P_next, X)
        leave = stop.copy()
        leave[list(failed)] = True
        for row in np.flatnonzero(leave):
            run = int(runs[row])
            record = records.pop(run)
            outcomes[run] = failed[row] if row in failed else _finish(record, geom, dt, True)
        keep = ~leave
        runs, P, warm = runs[keep], P_next[keep], X[keep]
    for run, record in records.items():
        outcomes[run] = _finish(record, geom, dt, False)
    results = [outcomes[r] for r in range(len(P0))]
    if single:
        if isinstance(results[0], Exception):
            raise results[0]
        return results[0]
    return results
