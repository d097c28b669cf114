"""Equilibrium response solvers.

Computes the incentivized equilibrium x*(p), the unique solution of the
box-constrained variational inequality for the shifted pseudo-gradient
G0(x) + p. For incentives in the admissible open set (those whose response
is strictly interior) the response satisfies G0(x*) + p = 0 and the solvers
drive that residual below tolerance; for incentives outside it the fixed
point of the projected map is returned and flagged non-interior.

Three methods, dispatched by game structure under the default "auto":

- closed-form-linear: direct solve of M x = -p for games with g0(x) = M x.
- potential-minimization: projected Newton on the registered potential
  (games whose Jacobian is symmetric everywhere).
- projected-gradient-fixed-point: the generic contraction x <- Pi(x - eta G),
  valid for every certified game at eta in (0, m/L^2).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .games import BoxSpace, GameModel, as_vector, project_box, rowwise_matvec

__all__ = [
    "ResponseSolverConfig",
    "ResponseResult",
    "ResponseOracle",
    "SolverError",
    "solve_response",
    "solve_response_linear",
    "solve_response_potential",
    "response_jacobian_fd",
    "interior_margin",
]

_METHODS = (
    "auto",
    "closed-form-linear",
    "projected-gradient-fixed-point",
    "potential-minimization",
)


class SolverError(RuntimeError):
    """Raised when a solver cannot meet its convergence contract.

    Carries the last iterate for diagnostics.
    """

    def __init__(self, message: str, last_iterate: Optional[np.ndarray] = None):
        super().__init__(message)
        self.last_iterate = last_iterate


@dataclass(frozen=True)
class ResponseSolverConfig:
    """Solver controls.

    ``step_eta`` is the inner projected-gradient step; when None it defaults
    to m / (2 L^2), the midpoint of the admissible interval (0, m/L^2).
    """

    method: str = "auto"
    tol: float = 1e-10
    max_iter: int = 10**6
    step_eta: Optional[float] = None

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"unknown method {self.method!r}; use one of {_METHODS}")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.step_eta is not None and self.step_eta <= 0:
            raise ValueError("step_eta must be positive")


@dataclass(frozen=True)
class ResponseResult:
    x_star: np.ndarray
    residual: float          # ||g0(x*) + p||_2
    iterations: int
    converged: bool
    interior: bool           # strictly inside the box by the interior margin


def interior_margin(space: BoxSpace) -> float:
    """Margin below which a response counts as touching the boundary.

    Membership in the incentive domain is decided operationally: solve and
    require the response to clear every face by this margin.
    """
    return 1e-6 * space.diameter


def _inner_step(game: GameModel, cfg: ResponseSolverConfig) -> float:
    L = game.operator_norm
    if L is None:
        raise SolverError("game has no certified operator norm for the PG inner step")
    if cfg.step_eta is None:
        return game.monotonicity_m / (2.0 * L * L)
    if cfg.step_eta >= game.monotonicity_m / (L * L):
        raise ValueError(
            f"step_eta={cfg.step_eta} outside (0, m/L^2) = "
            f"(0, {game.monotonicity_m / (L * L):.3e})"
        )
    return cfg.step_eta


def _result(game: GameModel, x: np.ndarray, p: np.ndarray,
            iterations: int, converged: bool) -> ResponseResult:
    residual = float(np.linalg.norm(game.g0(x) + p))
    interior = game.space.contains(x, margin=interior_margin(game.space))
    return ResponseResult(x_star=x, residual=residual, iterations=iterations,
                          converged=converged, interior=interior)


def solve_response_linear(M: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Solution of M x = -p by a direct dense solve.

    A numerically singular M signals a violated monotonicity assumption.
    """
    M = np.asarray(M, dtype=float)
    p = as_vector(p, dim=M.shape[0], name="p")
    try:
        return np.linalg.solve(M, -p)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"linear response system is singular: {exc}") from exc


def _solve_pg_fixed_point(game: GameModel, p: np.ndarray,
                          cfg: ResponseSolverConfig,
                          x0: Optional[np.ndarray]) -> ResponseResult:
    eta = _inner_step(game, cfg)
    x = project_box(x0 if x0 is not None else game.space.center, game.space)
    margin = max(cfg.tol, interior_margin(game.space))
    for it in range(1, cfg.max_iter + 1):
        grad = game.g0(x) + p
        x_next = project_box(x - eta * grad, game.space)
        displacement = float(np.linalg.norm(x - x_next))
        x = x_next
        # Interior iterates converge on the stationarity residual; iterates
        # hugging a face converge on the fixed-point displacement instead.
        if game.space.contains(x, margin=margin):
            if float(np.linalg.norm(game.g0(x) + p)) <= cfg.tol:
                return _result(game, x, p, it, converged=True)
        elif displacement <= eta * cfg.tol:
            return _result(game, x, p, it, converged=True)
    raise SolverError(
        f"projected-gradient fixed point not reached in {cfg.max_iter} iterations",
        last_iterate=x,
    )


def _active_sets(x, grad, space, tol):
    at_lo = (x <= space.lower + tol) & (grad > 0)
    at_hi = (x >= space.upper - tol) & (grad < 0)
    return at_lo, at_hi


def solve_response_potential(game: GameModel, p: np.ndarray,
                             cfg: ResponseSolverConfig = ResponseSolverConfig(),
                             x0: Optional[np.ndarray] = None) -> ResponseResult:
    """Minimize the registered potential over the box by projected Newton.

    Requires a symmetric-Jacobian game with a registered potential. Active
    box constraints are pinned, the Newton system is solved on the free
    coordinates, and an Armijo backtracking line search on the projected
    path guarantees monotone decrease of the potential.
    """
    if game.potential is None:
        raise SolverError("game has no registered potential; use another method")
    p = as_vector(p, dim=game.dim, name="p")
    x = project_box(x0 if x0 is not None else game.space.center, game.space)
    pin_tol = 1e-12 * game.space.diameter
    for it in range(1, cfg.max_iter + 1):
        grad = game.g0(x) + p
        at_lo, at_hi = _active_sets(x, grad, game.space, pin_tol)
        free = ~(at_lo | at_hi)
        stationary = float(np.linalg.norm(grad[free])) if np.any(free) else 0.0
        if stationary <= cfg.tol:
            return _result(game, x, p, it, converged=True)
        hess = game.jac_g0(x)
        step = np.zeros(game.dim)
        hf = hess[np.ix_(free, free)]
        try:
            step[free] = np.linalg.solve(hf, -grad[free])
        except np.linalg.LinAlgError:
            step[free] = -grad[free]
        # Backtracking on the projected arc; the Hessian is positive definite
        # on the box so the full step is accepted almost always.
        f0 = game.potential(x, p)
        slope = float(grad @ step)
        if abs(slope) <= 1e-12 * max(1.0, abs(f0)):
            # The model decrease is below the floating-point resolution of
            # the potential, so a sufficient-decrease test would compare
            # rounding noise. The bare Newton step is safe here: the step is
            # tiny and the Hessian positive definite, so it contracts
            # quadratically onto the minimizer.
            x_new = project_box(x + step, game.space)
            if np.array_equal(x_new, x):
                return _result(game, x, p, it, converged=stationary <= cfg.tol)
            x = x_new
            continue
        t = 1.0
        for _ in range(60):
            x_try = project_box(x + t * step, game.space)
            if game.potential(x_try, p) <= f0 + 1e-4 * t * slope:
                break
            t *= 0.5
        else:
            raise SolverError("potential line search failed", last_iterate=x)
        if np.array_equal(x_try, x):
            # accepted step shrank below the resolution of x itself
            return _result(game, x, p, it, converged=stationary <= cfg.tol)
        x = x_try
    raise SolverError(
        f"projected Newton did not converge in {cfg.max_iter} iterations",
        last_iterate=x,
    )


def solve_response(game: GameModel, p, cfg: ResponseSolverConfig = ResponseSolverConfig(),
                   x0: Optional[np.ndarray] = None) -> ResponseResult:
    """Compute the equilibrium response x*(p).

    ``x0`` warm-starts the iterative methods; trajectory sweeps pass the
    previous response since the incentive moves slowly. The result flags
    whether the response is strictly interior (the operational membership
    test for the incentive domain).
    """
    p = as_vector(p, dim=game.dim, name="p")
    method = cfg.method
    if method == "auto":
        if game.linear_matrix is not None:
            method = "closed-form-linear"
        elif game.potential is not None:
            method = "potential-minimization"
        else:
            method = "projected-gradient-fixed-point"

    if method == "closed-form-linear":
        if game.linear_matrix is None:
            raise SolverError("closed-form method requires a registered linear_matrix")
        x = solve_response_linear(game.linear_matrix, p)
        if game.space.contains(x, margin=0.0):
            return _result(game, x, p, iterations=1, converged=True)
        # Interior root lies outside the box: the equilibrium sits on the
        # boundary, found by the generic projected fixed-point iteration.
        return _solve_pg_fixed_point(game, p, cfg, x0)
    if method == "potential-minimization":
        return solve_response_potential(game, p, cfg, x0)
    return _solve_pg_fixed_point(game, p, cfg, x0)


class ResponseOracle:
    """Repeated response evaluation for one game.

    Trajectory integrators and the discrete iteration call the response map
    tens of thousands of times at slowly moving incentives. This wrapper
    caches the inverse system matrix for linear games (the interior
    response is then a single matvec, and an out-of-box root certifies a
    boundary equilibrium without solving for it) and solves from a warm
    start otherwise.

    ``response(p, warm)`` takes one incentive of shape (n,) or a stack of
    shape (R, n), one row per run, and returns (x, interior) of the same
    leading shape; x equals x*(p) wherever interior is true. ``warm`` holds
    the matching start (or stack of starts) for iterative solvers, usually
    the previous response; None starts from the box center. On the linear
    fast path a non-interior x is the unconstrained root, not the boundary
    equilibrium; callers that need boundary solutions should use
    solve_response directly. A solve that does not converge raises
    SolverError.
    """

    def __init__(self, game: GameModel, cfg: Optional[ResponseSolverConfig] = None):
        self.game = game
        self.cfg = cfg if cfg is not None else ResponseSolverConfig()
        margin = interior_margin(game.space)
        # Precomputed shrunken bounds: the per-call margin arithmetic would
        # dominate the fast path in long iterations.
        self._lo = game.space.lower + margin
        self._hi = game.space.upper - margin
        self._minv = None
        if game.linear_matrix is not None:
            M = np.asarray(game.linear_matrix, dtype=float)
            try:
                self._minv = np.linalg.inv(M)
            except np.linalg.LinAlgError as exc:
                raise SolverError(f"linear response system is singular: {exc}") from exc

    def response(self, p, warm=None):
        if self._minv is not None:
            # One incentive takes the cheaper matvec; a stack takes the
            # product whose rows do not depend on the stack height.
            x = -(self._minv @ p) if p.ndim == 1 else -rowwise_matvec(self._minv, p)
            return x, ((x >= self._lo) & (x <= self._hi)).all(axis=-1)
        ps = np.atleast_2d(p)
        starts = [None] * len(ps) if warm is None else np.atleast_2d(warm)
        x = np.empty_like(ps)
        interior = np.empty(len(ps), dtype=bool)
        for r, (p_r, start) in enumerate(zip(ps, starts)):
            res = solve_response(self.game, p_r, self.cfg, x0=start)
            if not res.converged:
                raise SolverError("response solve did not converge",
                                  last_iterate=res.x_star)
            x[r] = res.x_star
            interior[r] = res.interior
        if p.ndim == 1:
            return x[0], interior[0]
        return x, interior


def response_jacobian_fd(game: GameModel, p, h: float = 1e-5,
                         cfg: Optional[ResponseSolverConfig] = None) -> np.ndarray:
    """Central finite-difference Jacobian of the response map p -> x*(p).

    Matches -(DG0(x*(p)))^{-1} to O(h^2) plus solver tolerance. Every probe
    must keep the response interior; a probe that leaves the admissible set
    raises with the offending direction identified.
    """
    p = as_vector(p, dim=game.dim, name="p")
    if h <= 0:
        raise ValueError("h must be positive")
    if cfg is None:
        cfg = ResponseSolverConfig(tol=1e-12)
    else:
        cfg = replace(cfg, tol=min(cfg.tol, 1e-12))
    base = solve_response(game, p, cfg)
    if not base.interior:
        raise SolverError("response at p is not interior; Jacobian undefined")
    cols = []
    for i in range(game.dim):
        e = np.zeros(game.dim)
        e[i] = h
        plus = solve_response(game, p + e, cfg, x0=base.x_star)
        minus = solve_response(game, p - e, cfg, x0=base.x_star)
        for probe, tag in ((plus, "+"), (minus, "-")):
            if not (probe.converged and probe.interior):
                raise SolverError(
                    f"finite-difference probe p {tag} h*e_{i} left the "
                    "admissible incentive set"
                )
        cols.append((plus.x_star - minus.x_star) / (2.0 * h))
    return np.stack(cols, axis=1)
