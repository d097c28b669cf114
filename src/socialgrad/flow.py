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

from .games import GameModel, as_vector
from .objectives import SocialObjective
from .records import FlowRecord
from .solvers import (
    ResponseOracle,
    ResponseSolverConfig,
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

    Scans a grid on each of the 2n faces and refines the best point by
    descent within the face. For the quadratic objective the exact value
    is half the squared distance from x_dagger to the nearest face; the
    analytic number is returned and the scan serves as a consistency check.
    The default density adapts to dimension to keep the face grids small.
    """
    if grid_density is None:
        grid_density = 9 if game.dim <= 3 else 5
    if grid_density < 2:
        raise ValueError("grid_density must be at least 2")
    space = game.space
    x_dag = objective.x_dagger
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
    if objective.form == "quadratic":
        dist = float(np.min(np.minimum(x_dag - space.lower, space.upper - x_dag)))
        analytic = 0.5 * dist * dist
        if abs(scanned - analytic) > 1e-6 * max(1.0, analytic):
            raise RuntimeError(
                f"face-scan boundary gap {scanned:.12g} disagrees with the "
                f"analytic value {analytic:.12g} for a quadratic objective"
            )
        return analytic
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
                           grid_density: Optional[int] = None,
                           c_star: Optional[float] = None) -> SublevelGeometry:
    """Build the gate geometry around the target equilibrium.

    Checks that x_dagger is strictly interior and that the closed-loop
    incentive p_dagger = -g0(x_dagger) actually reproduces it, then fixes
    the working level c, either directly or as a fraction of c*. Passing a
    previously computed ``c_star`` skips the boundary scan; batch runners
    use this to avoid rescanning per worker.
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
        c_star = compute_c_star(game, objective, grid_density=grid_density)
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


def integrate_social_gradient_flow(geom: SublevelGeometry, p0,
                                   cfg: FlowConfig = FlowConfig()):
    """Integrate the incentive flow from p0 over [0, horizon_T].

    Requires p0 inside the working sublevel set. Returns the sampled
    trajectory record and a summary dict. Raises FlowDomainError, with the
    last valid state attached, if a step ever drives the response onto the
    box boundary; with c < c* this indicates a too-large dt.
    """
    game = geom.game
    p = as_vector(p0, dim=game.dim, name="p0").copy()
    x_star, admitted = geom.admit(p)
    if not admitted:
        raise ValueError("p0 lies outside the working sublevel set")
    dt = cfg.dt if cfg.dt is not None else 0.005 * game.monotonicity_m
    n_steps = max(1, int(round(cfg.horizon_T / dt)))
    record = FlowRecord(dim=game.dim)
    warm = x_star   # the last response: the next solve's warm start

    def response(p):
        nonlocal warm
        warm, interior = geom.oracle.response(p, warm)
        return warm, interior

    def field(p, t_at, p_valid):
        """The vector field p -> grad Phi(x*(p))."""
        x, interior = response(p)
        if not interior:
            raise FlowDomainError(
                "integration step produced a boundary response",
                t_last=t_at, p_last=p_valid,
            )
        return geom.objective.grad_phi(x)

    def sample(t, p_now, x_star):
        g = geom.objective.grad_phi(x_star)
        record.append(t, p_now, x_star, geom.objective.gap(x_star),
                      np.linalg.norm(g), np.linalg.norm(p_now - geom.p_dagger))

    sample(0.0, p, x_star)
    stopped_early = False
    t = 0.0
    for k in range(1, n_steps + 1):
        if cfg.method == "rk4":
            k1 = field(p, t, p)
            k2 = field(p + 0.5 * dt * k1, t, p)
            k3 = field(p + 0.5 * dt * k2, t, p)
            k4 = field(p + dt * k3, t, p)
            p = p + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        else:
            p = p + dt * field(p, t, p)
        t = k * dt
        x_star, interior = response(p)
        if not interior:
            raise FlowDomainError(
                f"flow left the admissible set at t={t:.6g}",
                t_last=(k - 1) * dt, p_last=record.incentives[-1],
            )
        grad_norm = float(np.linalg.norm(geom.objective.grad_phi(x_star)))
        if k % cfg.record_every == 0 or k == n_steps or grad_norm <= cfg.stop_tol:
            sample(t, p, x_star)
        if grad_norm <= cfg.stop_tol:
            stopped_early = True
            break
    if record.values and record.values[-1] > geom.c_star:
        warnings.warn("final value exceeds c*; trajectory left the certified region")
    summary = {
        "t_final": record.times[-1],
        "V_final": record.values[-1],
        "grad_norm_final": record.grad_norms[-1],
        "dist_to_pdagger_final": record.dists_to_target[-1],
        "steps": int(record.times[-1] / dt + 0.5),
        "dt": dt,
        "stopped_early": stopped_early,
    }
    return record, summary
