"""Game primitives over box strategy spaces.

A game is described by its nominal pseudo-gradient G0 (the stacked vector of
each agent's own-cost partial derivative), the Jacobian DG0, and a certified
strong-monotonicity constant m such that Sym(DG0(x)) >= (m/2) I on the whole
box. Incentives enter additively: the incentivized pseudo-gradient is
G0(x) + p. Everything here is immutable after construction and free of
shared mutable state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

__all__ = [
    "BoxSpace",
    "GameModel",
    "CertificateReport",
    "as_vector",
    "is_number",
    "require_numbers",
    "rowwise_matvec",
    "rowwise_dot",
    "certify_strong_monotonicity",
    "symmetry_check",
]


def is_number(value, integer: bool = False) -> bool:
    """Whether ``value`` is a real number, or an integer if ``integer``; a
    bool is neither."""
    kinds = (int, np.integer) if integer else (int, float, np.integer, np.floating)
    return isinstance(value, kinds) and not isinstance(value, bool)


def require_numbers(obj, names, integer: bool = False) -> None:
    """Raise ValueError naming the first attribute of ``obj`` in ``names``
    that is not a finite number, or not an integer if ``integer``."""
    for name in names:
        value = getattr(obj, name)
        if not is_number(value, integer) or not (integer or np.isfinite(value)):
            kind = "an integer" if integer else "a finite number"
            raise ValueError(f"{name} must be {kind}, got {value!r}")


def as_vector(v, dim: Optional[int] = None, name: str = "vector") -> np.ndarray:
    """Validate and return ``v`` as a finite 1-D float64 array."""
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    if dim is not None and arr.shape[0] != dim:
        raise ValueError(f"{name} has length {arr.shape[0]}, expected {dim}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} has non-finite entries")
    return arr


@dataclass(frozen=True)
class BoxSpace:
    """Axis-aligned box, the product of per-agent strategy intervals.

    Parameters
    ----------
    lower, upper : array_like
        Per-coordinate bounds. Must satisfy lower[i] < upper[i] everywhere
        (nonempty interior).
    """

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = as_vector(self.lower, name="lower")
        hi = as_vector(self.upper, dim=lo.shape[0], name="upper")
        if not np.all(lo < hi):
            raise ValueError("box requires lower < upper in every coordinate")
        lo.flags.writeable = False
        hi.flags.writeable = False
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    @cached_property
    def diameter(self) -> float:
        return float(np.linalg.norm(self.upper - self.lower))

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)

    def contains(self, x: np.ndarray, margin: float = 0.0) -> bool:
        x = as_vector(x, dim=self.dim, name="x")
        return bool(
            np.all(x >= self.lower + margin) and np.all(x <= self.upper - margin)
        )


def rowwise_matvec(A: np.ndarray, X: np.ndarray) -> np.ndarray:
    """A x for every row x of the (R, n) stack X, as an (R, m) stack.

    Each row's result does not depend on R: a run's arithmetic is the same
    alone and inside any batch. ``X @ A.T`` does not have that property,
    because the BLAS kernel it dispatches to changes between one row and
    several.
    """
    return np.einsum("ij,rj->ri", A, X)


def rowwise_dot(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """x . y for every row pair of the (R, n) stacks X and Y, as R values.

    Each value has the bits of the 1-D product ``x @ y``: the stacked
    matmul runs the same dot kernel per row. A reduction along the last
    axis (``(X * Y).sum(-1)``, ``np.linalg.norm(X, axis=-1)``) sums in
    another order and differs in the last bit.
    """
    return np.matmul(X[..., None, :], Y[..., :, None])[..., 0, 0]


@dataclass(frozen=True)
class GameModel:
    """A strongly monotone game over a box.

    ``g0`` and ``jac_g0`` are callables x -> R^n and x -> R^{n x n}; both act
    on the last axis, so an (R, n) stack of profiles gives R values, row r
    the same as the call on row r alone.
    ``monotonicity_m`` is the certified constant: Sym(jac_g0(x)) >= (m/2) I
    for every x in the box. ``lip_L1`` bounds the Jacobian's Lipschitz
    constant in the spectral norm (0 for linear games).

    Optional structure, registered by the builders that can certify it:

    - ``potential``: (x, p) -> real whose gradient is g0(x) + p, one value
      per row of a stack; present only when the Jacobian is symmetric
      everywhere.
    - ``linear_matrix``: M when g0(x) = M x, enabling closed-form responses.
    - ``br_structure``: (q, coupling) with g0(x) = diag(q) x + coupling @ x,
      enabling the per-agent best-response map -(p + coupling @ x) / q.
    - ``operator_norm``: certified max of ||jac_g0(x)||_2 over the box.
    - ``analytic_min_eig``: analytic lower bound on min eig of Sym(jac_g0),
      reported next to grid scans by the certifier.
    """

    dim: int
    space: BoxSpace
    g0: Callable[[np.ndarray], np.ndarray]
    jac_g0: Callable[[np.ndarray], np.ndarray]
    monotonicity_m: float
    lip_L1: float
    potential: Optional[Callable[[np.ndarray, np.ndarray], float]] = None
    linear_matrix: Optional[np.ndarray] = None
    br_structure: Optional[tuple] = None
    operator_norm: Optional[float] = None
    analytic_min_eig: Optional[float] = None
    name: str = ""

    def __post_init__(self):
        if self.dim != self.space.dim:
            raise ValueError("dim does not match the strategy space")
        if self.monotonicity_m <= 0:
            raise ValueError("monotonicity_m must be positive")
        if self.lip_L1 < 0:
            raise ValueError("lip_L1 must be nonnegative")


@dataclass(frozen=True)
class CertificateReport:
    """Smallest eigenvalue of Sym(DG0) over the box, against the claimed m/2.

    ``method`` is "eigensolve" for a constant Jacobian (one exact
    eigensolve; the grid fields then describe a one-point grid) and "grid"
    for a scan of a uniform grid.
    """

    passed: bool
    required_min_eig: float            # m/2 the game claims
    grid_min_eig: float                # min over grid of lambda_min(Sym(DG0))
    grid_worst_point: np.ndarray
    analytic_min_eig: Optional[float]  # builder-supplied bound, if any
    lip_jac_estimate: float            # max pairwise ||DG0(x)-DG0(y)|| / ||x-y||
    grid_density: int
    method: str


def _uniform_grid(space: BoxSpace, density: int) -> np.ndarray:
    axes = [np.linspace(space.lower[i], space.upper[i], density)
            for i in range(space.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def certify_strong_monotonicity(game: GameModel, grid_density: int) -> CertificateReport:
    """The smallest eigenvalue of Sym(DG0) over the box, against m/2.

    For a linear game (``linear_matrix`` M) the Jacobian is constant, so one
    eigensolve of Sym(M) is exact and ``grid_density`` goes unused; the
    Lipschitz estimate is 0. Otherwise a uniform grid with ``grid_density``
    points per axis is scanned, which also estimates the Jacobian Lipschitz
    constant from pairwise differences. A failing report is a valid
    result, not an error.
    """
    if grid_density < 2:
        raise ValueError("grid_density must be at least 2 per dimension")
    required = game.monotonicity_m / 2.0
    M = game.linear_matrix
    if M is not None:
        min_eig = float(np.linalg.eigvalsh(0.5 * (M + M.T))[0])
        return CertificateReport(
            passed=bool(min_eig >= required - 1e-12),
            required_min_eig=required,
            grid_min_eig=min_eig,
            grid_worst_point=game.space.lower.copy(),
            analytic_min_eig=game.analytic_min_eig,
            lip_jac_estimate=0.0,
            grid_density=1,
            method="eigensolve",
        )

    pts = _uniform_grid(game.space, grid_density)
    jacs = game.jac_g0(pts)
    sym = 0.5 * (jacs + np.transpose(jacs, (0, 2, 1)))
    min_eigs = np.linalg.eigvalsh(sym)[:, 0]
    worst = int(np.argmin(min_eigs))

    # Lipschitz estimate from a deterministic sample of point pairs; exact
    # pairwise scan is quadratic in the grid size and adds nothing at n <= 10.
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(0)))
    n_pairs = min(2000, pts.shape[0] * (pts.shape[0] - 1) // 2)
    # one draw of the whole (n_pairs, 2) array yields the pairs of one draw
    # per pair, so the sample stays as it was always drawn
    pairs = rng.integers(0, pts.shape[0], size=(n_pairs, 2))
    gaps = np.linalg.norm(pts[pairs[:, 0]] - pts[pairs[:, 1]], axis=1)
    pairs, gaps = pairs[gaps > 0], gaps[gaps > 0]
    diffs = np.linalg.norm(jacs[pairs[:, 0]] - jacs[pairs[:, 1]], ord=2, axis=(1, 2))
    lip = float(np.max(diffs / gaps, initial=0.0))

    return CertificateReport(
        passed=bool(min_eigs[worst] >= required - 1e-12),
        required_min_eig=required,
        grid_min_eig=float(min_eigs[worst]),
        grid_worst_point=pts[worst],
        analytic_min_eig=game.analytic_min_eig,
        lip_jac_estimate=lip,
        grid_density=grid_density,
        method="grid",
    )


def symmetry_check(game: GameModel, samples: int, seed: int = 0) -> bool:
    """True iff the Jacobian is symmetric (within 1e-10) at sampled points.

    Gates registration of potential-based response solvers.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    # one draw of the whole stack yields the points of one draw per sample
    pts = rng.uniform(game.space.lower, game.space.upper, size=(samples, game.dim))
    jacs = game.jac_g0(pts)
    asymmetry = np.max(np.abs(jacs - np.swapaxes(jacs, 1, 2)), axis=(1, 2))
    return not bool(np.any(asymmetry > 1e-10))
