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

from .games import BoxSpace, GameModel, as_vector, rowwise_dot, rowwise_matvec

__all__ = [
    "ResponseSolverConfig",
    "ResponseResult",
    "ResponseOracle",
    "SolverError",
    "solve_response",
    "solve_responses",
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
    """The response to one incentive; from solve_responses, to each row of
    a stack, with every field holding one entry per row."""

    x_star: np.ndarray
    residual: float          # ||g0(x*) + p||_2
    iterations: int
    converged: bool
    interior: bool           # strictly inside the box by the interior margin

    def row(self, r: int) -> "ResponseResult":
        """The one-incentive result of row ``r`` of a stacked result."""
        return ResponseResult(x_star=self.x_star[r], residual=float(self.residual[r]),
                              iterations=int(self.iterations[r]),
                              converged=bool(self.converged[r]),
                              interior=bool(self.interior[r]))


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


def _results(game: GameModel, X: np.ndarray, G: np.ndarray,
             iterations: np.ndarray, converged: np.ndarray) -> ResponseResult:
    """The stacked result at the rows of X, given the incentivized
    gradients g0(x) + p there."""
    space = game.space
    margin = interior_margin(space)
    interior = ((X >= space.lower + margin) & (X <= space.upper - margin)).all(axis=1)
    return ResponseResult(x_star=X, residual=np.sqrt(rowwise_dot(G, G)),
                          iterations=iterations, converged=converged, interior=interior)


def solve_response_linear(M: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Solution of M x = -p for one p of shape (n,) or for every row of an
    (R, n) stack, by direct dense solves.

    Each row gets its own LAPACK solve, with the bits of the 1-D solve; one
    shared factorisation with R right-hand sides would make a row's bits
    depend on its stack. A numerically singular M signals a violated
    monotonicity assumption.
    """
    M = np.asarray(M, dtype=float)
    P = np.asarray(P, dtype=float)
    stack = np.atleast_2d(P)
    try:
        X = np.linalg.solve(np.broadcast_to(M, (len(stack),) + M.shape),
                            -stack[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"linear response system is singular: {exc}") from exc
    return X if P.ndim == 2 else X[0]


def _starts(game: GameModel, P: np.ndarray, X0) -> np.ndarray:
    """The (R, n) starting iterates: X0 projected into the box, or the box
    center for every row when X0 is None."""
    if X0 is None:
        X0 = np.broadcast_to(game.space.center, P.shape)
    return _clip(X0, game.space)


def _clip(X: np.ndarray, space: BoxSpace) -> np.ndarray:
    """Componentwise projection onto the box; the values of np.clip
    without its call overhead."""
    return np.minimum(np.maximum(X, space.lower), space.upper)


def _pg_fixed_points(game: GameModel, P: np.ndarray, cfg: ResponseSolverConfig,
                     X0=None):
    """The projected-gradient fixed point for every row of the (R, n) stack P.

    Returns (X, G, iterations, converged) with one entry per row, G the
    incentivized gradient g0(x) + p at the row's final x; a row stops at
    the iteration where it converges. Raises SolverError if any row is
    still iterating after cfg.max_iter iterations.
    """
    eta = _inner_step(game, cfg)
    space = game.space
    margin = max(cfg.tol, interior_margin(space))
    lo_in, hi_in = space.lower + margin, space.upper - margin
    X = _starts(game, P, X0)
    G = np.empty_like(X)
    iterations = np.zeros(len(P), dtype=int)
    rows = np.arange(len(P))     # the rows still iterating
    x, p = X, P
    grad = game.g0(x) + p
    for it in range(1, cfg.max_iter + 1):
        x_next = _clip(x - eta * grad, space)
        move = x - x_next
        displacement = np.sqrt(rowwise_dot(move, move))
        x = x_next
        grad = game.g0(x) + p
        # Interior iterates converge on the stationarity residual; iterates
        # hugging a face converge on the fixed-point displacement instead.
        inside = ((x >= lo_in) & (x <= hi_in)).all(axis=1)
        done = np.where(inside, np.sqrt(rowwise_dot(grad, grad)) <= cfg.tol,
                        displacement <= eta * cfg.tol)
        if done.any():
            X[rows[done]], G[rows[done]] = x[done], grad[done]
            iterations[rows[done]] = it
            keep = ~done
            rows, x, p, grad = rows[keep], x[keep], p[keep], grad[keep]
            if not len(rows):
                return X, G, iterations, np.ones(len(P), dtype=bool)
    raise SolverError(
        f"projected-gradient fixed point not reached in {cfg.max_iter} iterations",
        last_iterate=x[0],
    )


def _newton_steps(hess: np.ndarray, rhs: np.ndarray, free) -> np.ndarray:
    """Newton steps on each row's free block, as an (R, n) stack.

    ``free`` is the (R, n) mask of free coordinates, or None when every
    coordinate is free. Pinned rows and columns of each Hessian are
    replaced by the identity and their right-hand side is zero, so the
    pinned coordinates do not move and the free block is solved as if it
    stood alone. A singular free block falls back to the gradient step
    ``rhs``.
    """
    if free is not None:
        pair = free[:, :, None] & free[:, None, :]
        hess = np.where(pair, hess, np.eye(hess.shape[-1]))
    try:
        return np.linalg.solve(hess, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        step = rhs.copy()
        for r in range(len(rhs)):
            try:
                step[r] = np.linalg.solve(hess[r], rhs[r])
            except np.linalg.LinAlgError:
                pass
        return step


def _projected_newton(game: GameModel, P: np.ndarray, cfg: ResponseSolverConfig,
                      X0=None):
    """Minimize the potential over the box for every row of the (R, n)
    stack P by projected Newton (Bertsekas 1982).

    Each row keeps its own active set, stationarity test, Newton step on
    its free coordinates and Armijo step on the projected arc; no
    operation mixes rows, so a row's iterates are the same alone and in
    any stack. Returns (X, G, iterations, converged) per row, as
    _pg_fixed_points does; a row whose accepted step no longer moves it
    stops unconverged. Raises SolverError if any row's line search fails
    or any row is still iterating after cfg.max_iter iterations.
    """
    if game.potential is None:
        raise SolverError("game has no registered potential; use another method")
    space = game.space
    pin_tol = 1e-12 * space.diameter
    lo_pin, hi_pin = space.lower + pin_tol, space.upper - pin_tol
    X = _starts(game, P, X0)
    G = np.empty_like(X)
    R = len(P)
    iterations = np.zeros(R, dtype=int)
    converged = np.zeros(R, dtype=bool)
    rows = np.arange(R)          # the rows still iterating
    x, p = X, P
    f = None                     # the potential at x, once computed
    for it in range(1, cfg.max_iter + 1):
        grad = game.g0(x) + p
        # active box constraints: at a face with the gradient pushing out
        near = (x <= lo_pin) | (x >= hi_pin)
        if near.any():
            free = ~(((x <= lo_pin) & (grad > 0)) | ((x >= hi_pin) & (grad < 0)))
            free_grad = np.where(free, grad, 0.0)
        else:
            free, free_grad = None, grad
        stationary = np.sqrt(rowwise_dot(free_grad, free_grad)) <= cfg.tol
        if stationary.all():
            X[rows], G[rows], iterations[rows], converged[rows] = x, grad, it, True
            break
        if stationary.any():
            done = rows[stationary]
            X[done], G[done] = x[stationary], grad[stationary]
            iterations[done] = it
            converged[done] = True
            keep = ~stationary
            rows, x, p = rows[keep], x[keep], p[keep]
            grad, free_grad = grad[keep], free_grad[keep]
            free = None if free is None else free[keep]
            f = None if f is None else f[keep]
        step = _newton_steps(game.jac_g0(x), -free_grad, free)
        # Armijo backtracking on the projected arc; the Hessian is positive
        # definite on the box so the full step passes almost always, and
        # only the rows that fail it halve their step.
        f0 = game.potential(x, p) if f is None else f
        slope = rowwise_dot(grad, step)
        x_new = _clip(x + step, space)
        f = game.potential(x_new, p)
        # Where the model decrease is below the floating-point resolution
        # of the potential, a sufficient-decrease test would compare
        # rounding noise. The bare Newton step is safe there: the step is
        # tiny and the Hessian positive definite, so it contracts
        # quadratically onto the minimizer.
        accept = f <= f0 + 1e-4 * slope
        if not accept.all():
            accept |= np.abs(slope) <= 1e-12 * np.maximum(1.0, np.abs(f0))
        if not accept.all():
            search = np.flatnonzero(~accept)
            t = np.ones(len(search))
            for _ in range(59):
                t *= 0.5
                x_try = _clip(x[search] + t[:, None] * step[search], space)
                f_try = game.potential(x_try, p[search])
                ok = f_try <= f0[search] + 1e-4 * t * slope[search]
                x_new[search[ok]] = x_try[ok]
                f[search[ok]] = f_try[ok]
                search, t = search[~ok], t[~ok]
                if not len(search):
                    break
            else:
                raise SolverError("potential line search failed",
                                  last_iterate=x[search[0]])
        # an accepted step that shrank below the resolution of x itself
        stalled = (x_new == x).all(axis=1)
        if stalled.any():
            X[rows[stalled]], G[rows[stalled]] = x[stalled], grad[stalled]
            iterations[rows[stalled]] = it
            keep = ~stalled
            rows, x_new, p, f = rows[keep], x_new[keep], p[keep], f[keep]
            if not len(rows):
                break
        x = x_new
    else:
        raise SolverError(
            f"projected Newton did not converge in {cfg.max_iter} iterations",
            last_iterate=x[0],
        )
    return X, G, iterations, converged


def _method(game: GameModel, cfg: ResponseSolverConfig) -> str:
    """cfg.method, with "auto" resolved by the game's structure."""
    method = cfg.method
    if method == "auto":
        if game.linear_matrix is not None:
            return "closed-form-linear"
        if game.potential is not None:
            return "potential-minimization"
        return "projected-gradient-fixed-point"
    if method == "closed-form-linear" and game.linear_matrix is None:
        raise SolverError("closed-form method requires a registered linear_matrix")
    return method


def _iterative_solver(method: str):
    """The stacked solver behind an iterative method."""
    return _projected_newton if method == "potential-minimization" else _pg_fixed_points


def solve_responses(game: GameModel, P, cfg: ResponseSolverConfig = ResponseSolverConfig(),
                    X0=None) -> ResponseResult:
    """The equilibrium response to every row of the (R, n) stack P.

    ``X0`` holds one warm start per row for the iterative methods; None
    starts every row from the box center. On a linear game each row gets
    its own direct solve, and a row whose root leaves the box goes to the
    projected fixed-point iteration from its own warm start. No operation
    mixes rows, so each row's result has the bits of its one-row solve.
    """
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[1] != game.dim or not len(P):
        raise ValueError(f"P must have shape (R, {game.dim}) with R >= 1, got {P.shape}")
    method = _method(game, cfg)
    if method != "closed-form-linear":
        return _results(game, *_iterative_solver(method)(game, P, cfg, X0))
    X = solve_response_linear(game.linear_matrix, P)
    G = game.g0(X) + P
    iterations = np.ones(len(P), dtype=int)
    converged = np.ones(len(P), dtype=bool)
    # A root outside the box puts the equilibrium on the boundary, found by
    # the generic projected fixed-point iteration.
    out = np.flatnonzero(~((X >= game.space.lower) & (X <= game.space.upper)).all(axis=1))
    if len(out):
        X[out], G[out], iterations[out], converged[out] = _pg_fixed_points(
            game, P[out], cfg, None if X0 is None else np.asarray(X0, dtype=float)[out])
    return _results(game, X, G, iterations, converged)


def solve_response_potential(game: GameModel, p: np.ndarray,
                             cfg: ResponseSolverConfig = ResponseSolverConfig(),
                             x0: Optional[np.ndarray] = None) -> ResponseResult:
    """Minimize the registered potential over the box by projected Newton.

    Requires a symmetric-Jacobian game with a registered potential. Active
    box constraints are pinned, the Newton system is solved on the free
    coordinates, and an Armijo backtracking line search on the projected
    path guarantees monotone decrease of the potential. This is
    solve_response with the potential-minimization method.
    """
    return solve_response(game, p, replace(cfg, method="potential-minimization"), x0)


def solve_response(game: GameModel, p, cfg: ResponseSolverConfig = ResponseSolverConfig(),
                   x0: Optional[np.ndarray] = None) -> ResponseResult:
    """Compute the equilibrium response x*(p): solve_responses on one row.

    ``x0`` warm-starts the iterative methods; trajectory sweeps pass the
    previous response since the incentive moves slowly. The result flags
    whether the response is strictly interior (the operational membership
    test for the incentive domain).
    """
    p = as_vector(p, dim=game.dim, name="p")
    X0 = None if x0 is None else as_vector(x0, dim=game.dim, name="x0")[None]
    return solve_responses(game, p[None], cfg, X0).row(0)


class ResponseOracle:
    """Repeated response evaluation for one game.

    Trajectory integrators and the discrete iteration call the response map
    tens of thousands of times at slowly moving incentives. This wrapper
    caches the inverse system matrix for linear games (the interior
    response is then a single matvec, and an out-of-box root certifies a
    boundary equilibrium without solving for it) and otherwise solves
    every row of a stack together, each from its own warm start.

    ``response(p, warm)`` takes one incentive of shape (n,) or a stack of
    shape (R, n), one row per run, and returns (x, interior) of the same
    leading shape; x equals x*(p) wherever interior is true. ``warm`` holds
    the matching start (or stack of starts) for iterative solvers, usually
    the previous response; None starts from the box center. On the linear
    fast path a non-interior x is the unconstrained root, not the boundary
    equilibrium; callers that need boundary solutions should use
    solve_response directly. A solve that does not converge in any row
    raises SolverError.
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
        # a game without a linear_matrix resolves to an iterative method
        solve = _iterative_solver(_method(self.game, self.cfg))
        x, _, _, converged = solve(self.game, np.atleast_2d(p), self.cfg,
                                   None if warm is None else np.atleast_2d(warm))
        if not converged.all():
            raise SolverError("response solve did not converge",
                              last_iterate=x[np.argmin(converged)])
        interior = ((x >= self._lo) & (x <= self._hi)).all(axis=-1)
        if p.ndim == 1:
            return x[0], interior[0]
        return x, interior


def response_jacobian_fd(game: GameModel, p, h: float = 1e-5,
                         cfg: Optional[ResponseSolverConfig] = None) -> np.ndarray:
    """Central finite-difference Jacobian of the response map p -> x*(p),
    at one incentive of shape (n,) or at each row of an (R, n) stack.

    Matches -(DG0(x*(p)))^{-1} to O(h^2) plus solver tolerance. The bases
    are one stacked solve, and the 2nR probes p +- h*e_i are another, each
    warm-started at its row's base. Every base and probe must keep the
    response interior; the first that does not, in the order row, then i,
    then + before -, raises with the offending direction identified.
    """
    single = np.ndim(p) == 1
    P = as_vector(p, dim=game.dim, name="p")[None] if single else np.asarray(p, dtype=float)
    if h <= 0:
        raise ValueError("h must be positive")
    if cfg is None:
        cfg = ResponseSolverConfig(tol=1e-12)
    else:
        cfg = replace(cfg, tol=min(cfg.tol, 1e-12))
    R, n = len(P), game.dim
    base = solve_responses(game, P, cfg)
    # the rows before the first non-interior base; later probes are not needed
    live = R if base.interior.all() else int(np.argmin(base.interior))
    if live:
        steps = h * np.eye(n)
        probes = np.stack([P[:live, None] + steps, P[:live, None] - steps], axis=2)
        res = solve_responses(game, probes.reshape(-1, n), cfg,
                              X0=np.repeat(base.x_star[:live], 2 * n, axis=0))
        ok = (res.converged & res.interior).reshape(live, 2 * n)
        if not ok.all():
            i, minus = divmod(int(np.argmin(ok[np.argmin(ok.all(axis=1))])), 2)
            raise SolverError(
                f"finite-difference probe p {'+-'[minus]} h*e_{i} left the "
                "admissible incentive set"
            )
    if live < R:
        raise SolverError("response at p is not interior; Jacobian undefined")
    X = res.x_star.reshape(R, n, 2, n)
    # row r, column i: (x*(p_r + h e_i) - x*(p_r - h e_i)) / (2h)
    J = np.swapaxes((X[:, :, 0] - X[:, :, 1]) / (2.0 * h), 1, 2)
    return J[0] if single else J
