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
from typing import Optional

import numpy as np

from .flow import SublevelGeometry, isolate_row_failures
from .games import GameModel, as_vector, rowwise_matvec
from .records import TtsaRecord
from .solvers import ResponseSolverConfig, solve_response

__all__ = [
    "StepSchedule",
    "LearningRule",
    "TtsaConfig",
    "DiagnosticsSummary",
    "make_learning_rule",
    "learning_rule_ne",
    "learning_rule_br",
    "learning_rule_pg",
    "pg_contraction_factor",
    "br_flow_rate",
    "ttsa_step",
    "run_ttsa",
    "tracking_diagnostics",
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
        if self.a0 <= 0 or self.b0 <= 0:
            raise ValueError("a0 and b0 must be positive")
        for name, e in (("a_exp", self.a_exp), ("b_exp", self.b_exp)):
            if not 0.5 < e <= 1.0:
                raise ValueError(f"{name}={e} must lie in (1/2, 1]")
        if self.offset < 1 or int(self.offset) != self.offset:
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


class _Engine:
    """R independent runs of the gated iteration, stepped together.

    Run i is row i of the (R, n) arrays X (strategies), P (accepted
    incentives) and Xstar (the responses at P); ``runs`` maps rows to the
    caller's run indices and ``warm`` holds each row's last computed
    response, the warm start of its next solve. A step applies the rule to
    every row, asks the gate once for the responses to every row's
    proposed incentive, and accepts or rejects row by row. No operation
    mixes rows, so a run's trajectory is the same alone and in any batch.

    The gate, ``SublevelGeometry.admit``, makes the per-step solve cheap:
    a cached-inverse product for linear games (an out-of-box root
    certifies a boundary equilibrium, so the candidate is inadmissible
    without solving further) and otherwise one stacked solve of every
    row, each from its own warm start.
    """

    def __init__(self, geom: SublevelGeometry, level: float, rule: LearningRule):
        self.geom = geom
        self.game = geom.game
        self.objective = geom.objective
        self.level = level
        self.rule = rule

    def start(self, X, P, runs):
        """Bind the runs' starts and drop those that fail.

        Returns {run: error} for the dropped runs: a start outside the
        working sublevel set, or one whose response solve raised.
        """
        self.X, self.P, self.runs = X, P, np.asarray(runs)
        self.Xstar, admitted, errors = self._admit(P, None)
        self.warm = self.Xstar
        for row in np.flatnonzero(~admitted):
            errors.setdefault(row, ValueError("p0 lies outside the working sublevel set"))
        return self._drop(errors)[1]

    def step(self, a, b):
        """One update of every row with step sizes a and b (scalars or (R, 1)).

        Returns the accepted mask of the rows that remain, and {run: error}
        for the runs dropped because their response solve raised.
        """
        X, P = self.X, self.P
        if self.rule.kind == "NE":
            F = self.Xstar
        elif self.rule.kind == "BR":
            F = _best_responses(self.game, X, P)
        else:
            F = _pg_steps(self.game, X, P, self.rule.eta)
        P_hat = P + b * self.objective.grad_phi(X)
        X_hat, accepted, errors = self._admit(P_hat, self.warm)
        self.X = X + a * (F - X)
        rows = accepted[:, None]
        self.P = np.where(rows, P_hat, P)
        self.Xstar = np.where(rows, X_hat, self.Xstar)
        self.warm = X_hat
        if errors:
            kept, failures = self._drop(errors)
            return accepted[kept], failures
        return accepted, {}

    def _drop(self, errors):
        """Remove the rows keyed in ``errors``.

        Returns the mask of the rows kept and {run: error}.
        """
        kept = np.ones(len(self.runs), dtype=bool)
        kept[list(errors)] = False
        failures = {int(self.runs[row]): exc for row, exc in errors.items()}
        self.X, self.P, self.Xstar = self.X[kept], self.P[kept], self.Xstar[kept]
        self.warm, self.runs = self.warm[kept], self.runs[kept]
        return kept, failures

    def _admit(self, P, warm):
        """Responses to each row of P, the gate's verdict on each row, and
        {row: error} for the rows whose solve raised.

        A solve that raises fails only its own row (isolate_row_failures).
        """
        return isolate_row_failures(
            lambda P, warm: self.geom.admit(P, warm, self.level), P, warm)


def _resolve_level(cfg: TtsaConfig, geom: SublevelGeometry) -> float:
    level = cfg.c if cfg.c is not None else geom.c
    if not 0.0 < level < geom.c_star:
        raise ValueError(f"c={level} must lie strictly between 0 and c*={geom.c_star:.6g}")
    return level


def ttsa_step(state, cfg: TtsaConfig, geom: SublevelGeometry):
    """One strategy-incentive update from state (x, p, k).

    Returns (x', p', indicator_accepted), one step of a one-run engine.
    The strategy update is a convex combination so x' stays in the box
    whenever f maps into it.
    """
    x, p, k = state
    game = geom.game
    x = as_vector(x, dim=game.dim, name="x")
    p = as_vector(p, dim=game.dim, name="p")
    if not game.space.contains(x, margin=0.0):
        raise ValueError("x lies outside the strategy box")
    _check_rule(game, cfg.rule)
    engine = _Engine(geom, _resolve_level(cfg, geom), cfg.rule)
    failures = engine.start(x[None], p[None], [0])
    if not failures:
        accepted, failures = engine.step(cfg.schedule.a(int(k)), cfg.schedule.b(int(k)))
    if failures:
        raise failures[0]
    x_next, p_next = engine.X[0], engine.P[0]
    if not game.space.contains(x_next, margin=0.0):
        raise AssertionError("strategy update left the box; broken rule output")
    return x_next, p_next, bool(accepted[0])


def _validated_starts(x0, p0, game: GameModel):
    """(X0, P0, {run: error}) with the starts of R runs stacked as (R, n)."""
    X0 = np.atleast_2d(np.asarray(x0, dtype=float))
    P0 = np.atleast_2d(np.asarray(p0, dtype=float))
    if len(X0) != len(P0):
        raise ValueError(f"{len(X0)} strategy starts but {len(P0)} incentive starts")
    errors = {}
    for r in range(len(X0)):
        try:
            as_vector(X0[r], dim=game.dim, name="x0")
            as_vector(P0[r], dim=game.dim, name="p0")
            if not game.space.contains(X0[r], margin=0.0):
                raise ValueError("x0 lies outside the strategy box")
        except ValueError as exc:
            errors[r] = exc
    return X0, P0, errors


def run_ttsa(x0, p0, cfg: TtsaConfig, geom: SublevelGeometry, schedules=None):
    """Iterate the two-timescale update for cfg.max_iter steps.

    One run takes x0 and p0 of shape (n,) and returns (record, summary),
    raising if the run fails. A batch takes (R, n) stacks, one run per
    row, and steps all R runs together; ``schedules`` gives each run its
    own StepSchedule (cfg.schedule by default). It returns one entry per
    run: (record, summary), or the exception that stopped that run. A run
    whose start is invalid fails before the loop, a run whose response
    solve raises fails where it stops, and neither changes the other runs:
    each run's output is the same as when it runs alone.

    The record samples every ``record_every`` steps plus the initial and
    final states; it also keeps the full per-step acceptance array so
    acceptance fractions over any window stay exact. Summary reports final
    errors and the accepted fraction over the last tenth of the run.
    """
    single = np.ndim(x0) == 1
    game = geom.game
    objective = geom.objective
    X0, P0, outcomes = _validated_starts(x0, p0, game)
    R = len(X0)
    if R == 0:
        return []
    schedules = [cfg.schedule] * R if schedules is None else list(schedules)
    if len(schedules) != R:
        raise ValueError(f"{len(schedules)} schedules for {R} runs")
    _check_rule(game, cfg.rule)
    engine = _Engine(geom, _resolve_level(cfg, geom), cfg.rule)

    # Step sizes per distinct schedule, indexed [k, schedule, 0] so that
    # a[k, group] is the (R, 1) column of the active rows.
    K = cfg.max_iter
    distinct = list(dict.fromkeys(schedules))
    group = np.array([distinct.index(s) for s in schedules])
    a_tab = np.stack([np.fromiter(map(s.a, range(K)), float, K) for s in distinct],
                     axis=1)[:, :, None]
    b_tab = np.stack([np.fromiter(map(s.b, range(K)), float, K) for s in distinct],
                     axis=1)[:, :, None]

    valid = np.array([r for r in range(R) if r not in outcomes], dtype=int)
    outcomes.update(engine.start(X0[valid], P0[valid], valid))

    records = {int(run): TtsaRecord(dim=game.dim) for run in engine.runs}
    accepts = np.zeros((K, R), dtype=bool)
    grad_phi = objective.grad_phi

    def sample(k, accepted):
        for row, run in enumerate(engine.runs):
            x, p, xstar = engine.X[row], engine.P[row], engine.Xstar[row]
            records[run].append(
                k, x, p,
                tracking=np.linalg.norm(x - xstar),
                incentive=np.linalg.norm(p - geom.p_dagger),
                V=objective.gap(xstar),
                accepted=accepted[row],
                xi_norm=np.linalg.norm(grad_phi(x) - grad_phi(xstar)),
            )

    sample(0, np.ones(len(engine.runs), dtype=bool))
    g = group[engine.runs]
    for k in range(K):
        if not len(engine.runs):
            break
        accepted, failures = engine.step(a_tab[k, g], b_tab[k, g])
        if failures:
            outcomes.update(failures)
            for run in failures:
                del records[run]
            g = group[engine.runs]
        accepts[k, engine.runs] = accepted
        k1 = k + 1
        if k1 % cfg.record_every == 0 or k1 == K:
            sample(k1, accepted)

    tail_start = int(math.floor(0.9 * K))
    for run, record in records.items():
        record.step_accepts = accepts[:, run].copy()
        # a running sum, in step order, of b_k over the accepted steps
        masses = np.cumsum(b_tab[record.step_accepts, group[run], 0])
        record.accepted_mass = float(masses[-1]) if len(masses) else 0.0
        outcomes[run] = (record, {
            "final_tracking_error": record.tracking_errors[-1],
            "final_incentive_error": record.incentive_errors[-1],
            "final_V": record.values[-1],
            "accepted_fraction_last_10pct": record.acceptance_fraction(tail_start),
            "accepted_fraction_full": record.acceptance_fraction(0),
            "accepted_mass": record.accepted_mass,
            "iterations": K,
        })
    results = [outcomes[r] for r in range(R)]
    if single:
        if isinstance(results[0], Exception):
            raise results[0]
        return results[0]
    return results


@dataclass(frozen=True)
class DiagnosticsSummary:
    tail_tracking_mean: float
    tail_incentive_mean: float
    accepted_mass: float
    monotone_tail: bool
    tail_samples: int


def tracking_diagnostics(rec: TtsaRecord) -> DiagnosticsSummary:
    """Tail behavior of a finished run.

    Tail means cover the final quarter of the recorded samples. The
    monotone-tail flag checks whether the tracking-error envelope (per-bin
    maxima over four bins of the last half) is nonincreasing.
    """
    n = len(rec)
    if n == 0:
        raise ValueError("empty record")
    tail = max(1, n // 4)
    tracking = np.asarray(rec.tracking_errors)
    incentive = np.asarray(rec.incentive_errors)
    half = tracking[n // 2:] if n >= 2 else tracking
    bins = np.array_split(half, min(4, len(half)))
    maxima = [float(np.max(b)) for b in bins if len(b)]
    monotone = all(maxima[i + 1] <= maxima[i] * (1.0 + 1e-12) for i in range(len(maxima) - 1))
    mass = rec.accepted_mass if rec.accepted_mass is not None else float("nan")
    return DiagnosticsSummary(
        tail_tracking_mean=float(np.mean(tracking[-tail:])),
        tail_incentive_mean=float(np.mean(incentive[-tail:])),
        accepted_mass=mass,
        monotone_tail=bool(monotone),
        tail_samples=tail,
    )
