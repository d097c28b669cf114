"""Two-timescale strategy-incentive iteration.

Discrete counterpart of the continuous incentive flow. Strategies move on
the fast timescale through a learning rule f,

    x_{k+1} = x_k + a_k (f(x_k, p_k) - x_k),

and the incentive moves on the slow timescale through a gated ascent step,

    p_{k+1} = p_k + b_k grad Phi(x_k) * 1{p_k + b_k grad Phi(x_k) in P_c},

so the incentive only ever occupies the forward-invariant sublevel set.
The indicator is evaluated by an inner equilibrium solve; the simulator is
the membership oracle.

Runs are independent, so a batch of R runs is stepped as one engine over
(R, n) arrays, and a single run is the case R = 1.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

import numpy as np

from .flow import RunBatch, SublevelGeometry
from .games import GameModel, as_vector, require_numbers, rowwise_dot, rowwise_matvec
from .records import TtsaRecord
from .solvers import ResponseSolverConfig, solve_response

__all__ = [
    "StepSchedule",
    "LearningRule",
    "TtsaConfig",
    "make_learning_rule",
    "learning_rule_ne",
    "learning_rule_br",
    "learning_rule_pg",
    "pg_contraction_factor",
    "br_flow_rate",
    "run_ttsa",
]


@dataclass(frozen=True)
class StepSchedule:
    """Polynomially decaying step sizes a_k = a0 (k+offset)^-a_exp, likewise b_k.

    Exponents in (1/2, 1] give non-summable, square-summable sequences. The
    timescale separation b_exp > a_exp is what the convergence argument
    needs; violating it is allowed (for ablation runs) but warned about.
    a0 <= offset^a_exp keeps every a_k inside (0, 1] so the strategy update
    stays a convex combination.
    """

    a0: float = 1.0
    a_exp: float = 0.6
    b0: float = 1.0
    b_exp: float = 0.9
    offset: int = 1

    def __post_init__(self):
        require_numbers(self, ("a0", "a_exp", "b0", "b_exp"))
        require_numbers(self, ("offset",), integer=True)
        if self.a0 <= 0 or self.b0 <= 0:
            raise ValueError("a0 and b0 must be positive")
        for name, e in (("a_exp", self.a_exp), ("b_exp", self.b_exp)):
            if not 0.5 < e <= 1.0:
                raise ValueError(f"{name}={e} must lie in (1/2, 1]")
        if self.offset < 1:
            raise ValueError("offset must be a positive integer")
        if self.a0 > self.offset ** self.a_exp:
            raise ValueError(
                f"a0={self.a0} exceeds offset^a_exp={self.offset ** self.a_exp:.6g}; "
                "a_k would leave (0, 1]"
            )
        if self.b_exp <= self.a_exp:
            warnings.warn(
                f"b_exp={self.b_exp} <= a_exp={self.a_exp}: no timescale "
                "separation; convergence guarantees do not apply",
                stacklevel=2,
            )

    def a(self, k):
        return self.a0 * (k + self.offset) ** (-self.a_exp)

    def b(self, k):
        return self.b0 * (k + self.offset) ** (-self.b_exp)


@dataclass(frozen=True)
class LearningRule:
    """Inner strategy-update rule f(x, p).

    kind "NE" applies the exact equilibrium response, "BR" the closed-form
    simultaneous best response (games exposing that structure only), "PG"
    one projected-gradient step with step eta. ``certificate`` records the
    rule's uniform convergence certificate: the per-application contraction
    factor toward x*(p) for NE (0.0) and PG (rho), and the exponential rate
    of the continuous best-response flow for BR.
    """

    kind: str
    eta: Optional[float] = None
    certificate: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("NE", "BR", "PG"):
            raise ValueError("kind must be one of 'NE', 'BR', 'PG'")
        if self.kind == "PG":
            if self.eta is None or self.eta <= 0:
                raise ValueError("PG rule requires a positive eta")
        elif self.eta is not None:
            raise ValueError(f"eta is only meaningful for the PG rule, not {self.kind}")


def _pg_eta_bound(game: GameModel) -> float:
    """Largest admissible PG step for this game.

    The generic contraction argument needs eta < m/L^2. Games with an
    everywhere-symmetric Jacobian (certified via a registered potential)
    admit the full gradient-descent range eta < 2/L, since there
    ||I - eta J(x)|| < 1 directly.
    """
    L = game.operator_norm
    if L is None:
        raise ValueError("game has no certified operator norm")
    if game.potential is not None:
        return 2.0 / L
    return game.monotonicity_m / (L * L)


def pg_contraction_factor(game: GameModel, eta: float) -> float:
    """Certified per-step contraction of the projected-gradient map.

    Inside the generic range eta < m/L^2 this is sqrt(1 - eta m + eta^2 L^2).
    Symmetric-Jacobian games get max(|1 - eta m/2|, |1 - eta L|) on the
    wider range eta < 2/L.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    L = game.operator_norm
    if L is None:
        raise ValueError("game has no certified operator norm")
    m = game.monotonicity_m
    if eta < m / (L * L):
        return math.sqrt(1.0 - eta * m + eta * eta * L * L)
    if game.potential is not None and eta < 2.0 / L:
        return max(abs(1.0 - eta * 0.5 * m), abs(1.0 - eta * L))
    raise ValueError(
        f"eta={eta} outside the admissible range (0, {_pg_eta_bound(game):.6g}) "
        "for this game"
    )


def br_flow_rate(game: GameModel) -> float:
    """Exponential decay rate of the continuous best-response flow.

    For the linear aggregative structure the flow dx/dt = f_BR(x,p) - x has
    error dynamics -Q^{-1}M e, whose logarithmic norm gives the rate
    lambda_min(Sym(Q^{-1}M)).
    """
    if game.br_structure is None or game.linear_matrix is None:
        raise ValueError("game does not expose a best-response structure")
    q, _ = game.br_structure
    qinv_m = game.linear_matrix / q[:, None]
    sym = 0.5 * (qinv_m + qinv_m.T)
    return float(np.linalg.eigvalsh(sym)[0])


def make_learning_rule(game: GameModel, kind: str, eta: Optional[float] = None) -> LearningRule:
    """Build a rule with its convergence certificate filled in."""
    if kind == "NE":
        return LearningRule(kind="NE", certificate=0.0)
    if kind == "BR":
        return LearningRule(kind="BR", certificate=br_flow_rate(game))
    if kind == "PG":
        if eta is None:
            raise ValueError("PG rule requires eta")
        return LearningRule(kind="PG", eta=eta,
                            certificate=pg_contraction_factor(game, eta))
    raise ValueError("kind must be one of 'NE', 'BR', 'PG'")


def learning_rule_ne(x, p, game: GameModel,
                     solver_cfg: Optional[ResponseSolverConfig] = None,
                     x0=None) -> np.ndarray:
    """Exact equilibrium response; ignores the current strategy."""
    if solver_cfg is None:
        solver_cfg = ResponseSolverConfig()
    res = solve_response(game, p, solver_cfg, x0=x0 if x0 is not None else x)
    return res.x_star


def learning_rule_br(x, p, game: GameModel) -> np.ndarray:
    """Simultaneous best response, projected into the box.

    Requires the game to expose its best-response structure (diagonal
    curvature q and coupling matrix) rather than silently approximating.
    """
    _check_rule(game, LearningRule(kind="BR"))
    x = as_vector(x, dim=game.dim, name="x")
    p = as_vector(p, dim=game.dim, name="p")
    return _best_responses(game, x[None], p[None])[0]


def learning_rule_pg(x, p, game: GameModel, eta: float) -> np.ndarray:
    """One projected-gradient step on the incentivized pseudo-gradient."""
    _check_rule(game, LearningRule(kind="PG", eta=eta))
    x = as_vector(x, dim=game.dim, name="x")
    p = as_vector(p, dim=game.dim, name="p")
    return _pg_steps(game, x[None], p[None], eta)[0]


def _best_responses(game: GameModel, X, P) -> np.ndarray:
    """The BR rule for every row of the (R, n) stacks X and P."""
    q, coupling = game.br_structure
    return np.clip(-(P + rowwise_matvec(coupling, X)) / q,
                   game.space.lower, game.space.upper)


def _pg_steps(game: GameModel, X, P, eta: float) -> np.ndarray:
    """The PG rule for every row of the (R, n) stacks X and P."""
    return np.clip(X - eta * (game.g0(X) + P), game.space.lower, game.space.upper)


def _check_rule(game: GameModel, rule: LearningRule):
    if rule.kind == "BR" and game.br_structure is None:
        raise ValueError(f"game {game.name!r} does not support the BR rule")
    if rule.kind == "PG" and not 0.0 < rule.eta < _pg_eta_bound(game):
        raise ValueError(
            f"eta={rule.eta} outside the admissible range "
            f"(0, {_pg_eta_bound(game):.6g}) for this game"
        )


@dataclass(frozen=True)
class TtsaConfig:
    schedule: StepSchedule = field(default_factory=StepSchedule)
    rule: LearningRule = field(default_factory=lambda: LearningRule(kind="NE"))
    c: Optional[float] = None          # None: use the geometry's level
    max_iter: int = 10_000
    record_every: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.c is not None and self.c <= 0:
            raise ValueError("c must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.record_every < 1:
            raise ValueError("record_every must be at least 1")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _resolve_level(cfg: TtsaConfig, geom: SublevelGeometry) -> float:
    level = cfg.c if cfg.c is not None else geom.c
    if not 0.0 < level < geom.c_star:
        raise ValueError(f"c={level} must lie strictly between 0 and c*={geom.c_star:.6g}")
    return level


def run_ttsa(x0, p0, cfg: TtsaConfig, geom: SublevelGeometry, schedules=None):
    """Iterate the two-timescale update for cfg.max_iter steps.

    One run takes x0 and p0 of shape (n,) and returns (record, summary),
    raising if the run fails. A batch takes (R, n) stacks, one run per
    row, and steps all R runs together; ``schedules`` gives each run its
    own StepSchedule (cfg.schedule by default). It returns one entry per
    run: (record, summary), or the exception that stopped that run. The
    runs are a RunBatch: a run whose start is invalid fails before the
    loop, a run whose response solve raises fails where it stops, and
    neither changes the other runs.

    Each step asks the gate, SublevelGeometry.admit, once for the
    responses to every row's proposed incentive: a cached-inverse product
    for linear games, otherwise one stacked solve, each row from its own
    warm start.

    The record samples every ``record_every`` steps plus the initial and
    final states; it also keeps the full per-step acceptance array so
    acceptance fractions over any window stay exact. Summary reports final
    errors and the accepted fraction over the last tenth of the run.
    """
    game = geom.game
    objective = geom.objective
    batch = RunBatch(geom, lambda: TtsaRecord(dim=game.dim), p0, x0)
    R = batch.size
    if R == 0:
        return []
    schedules = [cfg.schedule] * R if schedules is None else list(schedules)
    if len(schedules) != R:
        raise ValueError(f"{len(schedules)} schedules for {R} runs")
    _check_rule(game, cfg.rule)
    level = _resolve_level(cfg, geom)

    # Step sizes per distinct schedule, indexed [k, schedule, 0] so that
    # a[k, group] is the (R, 1) column of the active rows.
    K = cfg.max_iter
    distinct = list(dict.fromkeys(schedules))
    group = np.array([distinct.index(s) for s in schedules])
    a_tab = np.stack([np.fromiter(map(s.a, range(K)), float, K) for s in distinct],
                     axis=1)[:, :, None]
    b_tab = np.stack([np.fromiter(map(s.b, range(K)), float, K) for s in distinct],
                     axis=1)[:, :, None]

    # Row i of X (strategies), P (accepted incentives) and Xstar (the
    # responses at P) is run batch.runs[i]; X_hat holds each row's last
    # computed response, the warm start of its next solve.
    Xstar, P, X = batch.start(level)
    X_hat, admit = Xstar, partial(geom.admit, level=level)
    accepts = np.zeros((K, R), dtype=bool)
    grad_phi = objective.grad_phi

    def sample(k, accepted):
        D, E = X - Xstar, P - geom.p_dagger
        Xi = grad_phi(X) - grad_phi(Xstar)
        block = np.column_stack([
            np.full(len(X), k), X, P, np.sqrt(rowwise_dot(D, D)),
            np.sqrt(rowwise_dot(E, E)), objective.gap(Xstar), accepted,
            np.sqrt(rowwise_dot(Xi, Xi))])
        for record, row in zip(batch.records, block):
            record.append(row)

    sample(0, np.ones(len(batch.runs), dtype=bool))
    g = group[batch.runs]
    for k in range(K):
        if not len(batch.runs):
            break
        # apply the rule to every row, ask the gate once for the responses
        # to every row's proposed incentive, accept or reject row by row
        if cfg.rule.kind == "NE":
            F = Xstar
        elif cfg.rule.kind == "BR":
            F = _best_responses(game, X, P)
        else:
            F = _pg_steps(game, X, P, cfg.rule.eta)
        P_hat = P + b_tab[k, g] * grad_phi(X)
        X_hat, accepted, errors = batch.solve(admit, P_hat, X_hat)
        X = X + a_tab[k, g] * (F - X)
        rows = accepted[:, None]
        P = np.where(rows, P_hat, P)
        Xstar = np.where(rows, X_hat, Xstar)
        if errors:
            X, P, Xstar, X_hat, accepted, g = batch.leave(errors, X, P, Xstar, X_hat,
                                                          accepted, g)
        accepts[k, batch.runs] = accepted
        k1 = k + 1
        if k1 % cfg.record_every == 0 or k1 == K:
            sample(k1, accepted)

    tail_start = int(math.floor(0.9 * K))

    def finish(run, record):
        record.step_accepts = accepts[:, run].copy()
        # a running sum, in step order, of b_k over the accepted steps
        masses = np.cumsum(b_tab[record.step_accepts, group[run], 0])
        record.accepted_mass = float(masses[-1]) if len(masses) else 0.0
        return record, {
            "final_tracking_error": float(record.column("tracking_error")[-1]),
            "final_incentive_error": float(record.column("incentive_error")[-1]),
            "final_V": float(record.column("V")[-1]),
            "accepted_fraction_last_10pct": record.acceptance_fraction(tail_start),
            "accepted_fraction_full": record.acceptance_fraction(0),
            "accepted_mass": record.accepted_mass,
            "iterations": K,
        }

    return batch.results(finish)
