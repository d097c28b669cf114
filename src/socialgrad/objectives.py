"""Planner-side objectives: strongly convex social cost with interior optimum."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .games import as_vector

__all__ = ["SocialObjective", "quadratic_objective"]


@dataclass(frozen=True)
class SocialObjective:
    """Strongly convex social cost Phi with its gradient and minimizer.

    ``x_dagger`` must be the unique minimizer and is expected to lie
    strictly inside the strategy box (validated where the geometry is
    assembled). ``form`` tags structure some consumers exploit: "quadratic"
    means Phi(x) = 0.5 ||x - x_dagger||^2 exactly. ``phi`` and
    ``grad_phi`` act on the last axis, so an (R, n) stack of profiles gives
    one value, or one gradient, per row.
    """

    phi: Callable[[np.ndarray], float]
    grad_phi: Callable[[np.ndarray], np.ndarray]
    x_dagger: np.ndarray
    form: str = "generic"

    def __post_init__(self):
        xd = as_vector(self.x_dagger, name="x_dagger")
        xd.flags.writeable = False
        object.__setattr__(self, "x_dagger", xd)
        g = np.asarray(self.grad_phi(xd), dtype=float)
        if np.linalg.norm(g) > 1e-12:
            raise ValueError("grad_phi(x_dagger) must vanish")
        # Phi(x_dagger), cached: gap() runs on every gate test
        object.__setattr__(self, "_phi_dagger", self.phi(xd))

    def gap(self, x):
        """Phi(x) - Phi(x_dagger), the planner's suboptimality at x.

        A float for one profile, an array of R gaps for an (R, n) stack.
        """
        value = self.phi(x) - self._phi_dagger
        return float(value) if np.ndim(value) == 0 else value


def quadratic_objective(x_dagger) -> SocialObjective:
    """The centered quadratic Phi(x) = 0.5 ||x - x_dagger||^2."""
    xd = as_vector(x_dagger, name="x_dagger").copy()

    def phi(x):
        return 0.5 * ((np.asarray(x, dtype=float) - xd) ** 2).sum(axis=-1)

    def grad_phi(x):
        return np.asarray(x, dtype=float) - xd

    return SocialObjective(phi=phi, grad_phi=grad_phi, x_dagger=xd, form="quadratic")
