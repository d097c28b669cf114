"""Benchmark game instances with certified constants.

Two shipped families:

- "aggregative-5": five players with quadratic costs coupled through a
  row-stochastic directed network, pseudo-gradient G0(x) = Mx with
  M = Q + aW. The network is generated from a fixed documented seed, so
  every published number for this family is instance-relative.
- "oscillator-2": two coupled oscillators with trigonometric costs on the
  box [-pi/3, pi/3]^2; the Jacobian is symmetric, so the equilibrium is
  the minimizer of a potential and monotonicity is certified through a
  Gershgorin corner bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .games import BoxSpace, GameModel, is_number, rowwise_matvec, symmetry_check
from .objectives import SocialObjective, quadratic_objective

__all__ = [
    "INSTANCE_SEED",
    "AggregativeGameSpec",
    "OscillatorGameSpec",
    "default_aggregative_spec",
    "build_aggregative",
    "build_oscillator",
    "build_game_from_spec",
    "game_spec_from_dict",
    "gershgorin_row_bound",
    "gershgorin_scan",
    "PresetBundle",
    "PRESET_NAMES",
    "load_preset",
]

# Seed of the shipped aggregative instance. Chosen for a comfortable
# slow-flow rate (min_i Re(lambda_i)/|lambda_i|^2 of M) so incentive-error
# contrast across two decades of iterations is visible in experiments.
INSTANCE_SEED = 101

PRESET_NAMES = ("aggregative-5", "oscillator-2")


def _philox(seed) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def _frozen_array(obj, name, value):
    arr = np.array(value, dtype=float)
    arr.setflags(write=False)
    object.__setattr__(obj, name, arr)
    return arr


@dataclass(frozen=True)
class AggregativeGameSpec:
    """Parameters of the networked aggregative family.

    Cost of agent i is (1/2) q_i x_i^2 + a x_i (W x)_i, giving the linear
    pseudo-gradient (Q + aW) x. W must be row stochastic with zero
    diagonal; the coupling a must satisfy a < lambda_min(Q)/||Sym(W)||_2,
    which certifies strong monotonicity.
    """

    q: np.ndarray
    W: np.ndarray
    a: float
    box: Optional[BoxSpace] = None
    n: int = 5

    def __post_init__(self):
        q = _frozen_array(self, "q", self.q)
        W = _frozen_array(self, "W", self.W)
        if q.ndim != 1:
            raise ValueError("q must be a vector")
        n = q.shape[0]
        object.__setattr__(self, "n", n)
        if W.shape != (n, n):
            raise ValueError(f"W must be {n}x{n}, got {W.shape}")
        if np.any(q <= 0):
            raise ValueError("q entries must be positive")
        if np.any(W < 0):
            raise ValueError("W entries must be nonnegative")
        if np.any(np.diag(W) != 0):
            raise ValueError("W must have a zero diagonal")
        if np.any(np.abs(W.sum(axis=1) - 1.0) > 1e-12):
            raise ValueError("W rows must sum to 1")
        if self.box is None:
            object.__setattr__(self, "box", BoxSpace(-2.0 * np.ones(n), 2.0 * np.ones(n)))
        if self.box.dim != n:
            raise ValueError("box dimension does not match q")
        bound = float(q.min() / np.linalg.norm(0.5 * (W + W.T), 2))
        if not 0.0 < self.a < bound:
            raise ValueError(
                f"coupling a={self.a} violates a < lambda_min(Q)/||Sym(W)||_2 "
                f"= {bound:.12g}"
            )


def default_aggregative_spec(n: int = 5, seed: int = INSTANCE_SEED) -> AggregativeGameSpec:
    """Shipped instance: q ~ U[1,2], W row-normalized U[0,1] off-diagonal,
    coupling at 0.9 of the certifiable limit."""
    rng = _philox(seed)
    q = rng.uniform(1.0, 2.0, n)
    W = rng.uniform(0.0, 1.0, (n, n))
    np.fill_diagonal(W, 0.0)
    W /= W.sum(axis=1, keepdims=True)
    a = 0.9 * float(q.min() / np.linalg.norm(0.5 * (W + W.T), 2))
    return AggregativeGameSpec(q=q, W=W, a=a)


def build_aggregative(spec: AggregativeGameSpec) -> GameModel:
    """GameModel for the aggregative family.

    monotonicity_m = 2 lambda_min(Sym(M)) is exact for a constant Jacobian,
    the Jacobian Lipschitz constant is 0, and both the closed-form linear
    response and the best-response structure (q, aW) are registered.
    """
    M = np.diag(spec.q) + spec.a * spec.W
    M.setflags(write=False)
    sym = 0.5 * (M + M.T)
    lam_min = float(np.linalg.eigvalsh(sym)[0])
    if lam_min <= 0:
        raise ValueError(
            f"Sym(M) has lambda_min={lam_min:.6g} <= 0; instance is not "
            "strongly monotone"
        )
    coupling = spec.a * spec.W
    coupling.setflags(write=False)

    def g0(x, _M=M):
        # one profile keeps the plain matvec; a stack takes the product
        # whose rows do not depend on the stack height
        return _M @ x if x.ndim == 1 else rowwise_matvec(_M, x)

    def jac_g0(x, _M=M):
        return _M if x.ndim == 1 else np.broadcast_to(_M, x.shape[:-1] + _M.shape)

    return GameModel(
        dim=spec.n,
        space=spec.box,
        g0=g0,
        jac_g0=jac_g0,
        monotonicity_m=2.0 * lam_min,
        lip_L1=0.0,
        linear_matrix=M,
        br_structure=(spec.q, coupling),
        operator_norm=float(np.linalg.norm(M, 2)),
        analytic_min_eig=lam_min,
        name=f"aggregative-{spec.n}",
    )


@dataclass(frozen=True)
class OscillatorGameSpec:
    """Two coupled oscillators, cost_i = -theta_i cos(x_i) + cos(x_1 - x_2).

    The default certification path needs theta_i > 2/cos(pi/3) = 4 on the
    default box. For parameters failing the corner bound, pass m_override
    with a positive (externally justified) modulus; the certifier will then
    grid-audit it rather than certify analytically.
    """

    theta: tuple = (4.2, 5.0)
    box: Optional[BoxSpace] = None
    m_override: Optional[float] = None

    def __post_init__(self):
        theta = (float(self.theta[0]), float(self.theta[1]))
        if len(self.theta) != 2 or theta[0] <= 0 or theta[1] <= 0:
            raise ValueError("theta must be a pair of positive reals")
        object.__setattr__(self, "theta", theta)
        if self.box is None:
            w = np.pi / 3.0
            object.__setattr__(self, "box", BoxSpace(np.array([-w, -w]), np.array([w, w])))
        if self.box.dim != 2:
            raise ValueError("oscillator box must be two-dimensional")
        if self.m_override is not None and self.m_override <= 0:
            raise ValueError("m_override must be positive")


def gershgorin_row_bound(theta, x) -> np.ndarray:
    """Row-wise Gershgorin lower bound on the Jacobian spectrum.

    min_i of theta_i cos(x_i) - cos(dx) - |cos(dx)| at each point x
    (last axis indexes the two coordinates). Every Jacobian eigenvalue at
    x is at least this value.
    """
    x = np.asarray(x, dtype=float)
    x1 = x[..., 0]
    x2 = x[..., 1]
    cd = np.cos(x1 - x2)
    r1 = theta[0] * np.cos(x1) - cd - np.abs(cd)
    r2 = theta[1] * np.cos(x2) - cd - np.abs(cd)
    return np.minimum(r1, r2)


def gershgorin_scan(theta, box: BoxSpace, grid_density: int = 201):
    """Minimum of the Gershgorin row bound over a box grid.

    Returns (min_value, argmin_point). The grid contains the box corners
    exactly, where the bound attains its minimum for the default geometry.
    """
    axes = [np.linspace(box.lower[i], box.upper[i], grid_density) for i in range(2)]
    g1, g2 = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g1, g2], axis=-1)
    vals = gershgorin_row_bound(theta, pts)
    flat = int(np.argmin(vals))
    idx = np.unravel_index(flat, vals.shape)
    return float(vals[idx]), pts[idx].copy()


def _oscillator_grid_norm(theta, box: BoxSpace, grid_density: int = 201) -> float:
    """Grid maximum of ||DG0(x)||_2, via the closed 2x2 eigenvalue formula."""
    t1, t2 = theta
    axes = [np.linspace(box.lower[i], box.upper[i], grid_density) for i in range(2)]
    g1, g2 = np.meshgrid(*axes, indexing="ij")
    cd = np.cos(g1 - g2)
    A = t1 * np.cos(g1)
    B = t2 * np.cos(g2)
    mid = 0.5 * (A + B) - cd
    rad = np.sqrt((0.5 * (A - B)) ** 2 + cd ** 2)
    return float(np.max(np.maximum(np.abs(mid + rad), np.abs(mid - rad))))


def build_oscillator(spec: OscillatorGameSpec) -> GameModel:
    """GameModel for the coupled-oscillator family.

    The monotonicity modulus comes from the Gershgorin bound evaluated at
    the worst box corner (exact at the corner for the symmetric default
    box). The operator norm is the closed-form Jacobian spectral radius at
    the origin, audited against a grid scan. The symmetric Jacobian admits
    a potential, registered after an explicit symmetry check.
    """
    t1, t2 = spec.theta
    space = spec.box
    wmax = np.maximum(np.abs(space.lower), np.abs(space.upper))
    if np.any(wmax > np.pi):
        raise ValueError("box must lie within [-pi, pi]^2 for the trigonometric costs")
    m_half = float(np.minimum(t1 * np.cos(wmax[0]), t2 * np.cos(wmax[1])) - 2.0)
    if spec.m_override is not None:
        m = float(spec.m_override)
    elif m_half > 0:
        m = 2.0 * m_half
    else:
        raise ValueError(
            f"theta={spec.theta} fails the corner bound "
            f"min_i theta_i cos(w_i) - 2 = {m_half:.6g} <= 0; "
            "pass m_override to build anyway with an uncertified modulus"
        )

    # Each coordinate is computed by the same operations, in the same
    # order, as the scalar formulas, and np.sin/np.cos return the bits of
    # math.sin/math.cos at every array length, so a stack's rows equal
    # the one-profile calls.
    theta = np.array([t1, t2])
    coupling = np.array([-1.0, 1.0])   # a + (-s) has the bits of a - s

    def g0(x, _theta=theta, _coupling=coupling):
        s = np.sin(x[..., 0] - x[..., 1])
        return _theta * np.sin(x) + s[..., None] * _coupling

    def jac_g0(x, _t1=t1, _t2=t2):
        cd = np.cos(x[..., 0] - x[..., 1])
        c = np.cos(x)
        jac = np.empty(x.shape + (2,))
        jac[..., 0, 0] = _t1 * c[..., 0] - cd
        jac[..., 0, 1] = cd
        jac[..., 1, 0] = cd
        jac[..., 1, 1] = _t2 * c[..., 1] - cd
        return jac

    closed_norm = 0.5 * (t1 + t2) - 1.0 + math.sqrt((0.5 * (t2 - t1)) ** 2 + 1.0)
    grid_norm = _oscillator_grid_norm(spec.theta, space)
    operator_norm = float(max(closed_norm, grid_norm))

    # Frobenius overbound on the Jacobian's Lipschitz constant from
    # per-entry gradient bounds; loose but valid on any admissible box.
    lip_L1 = math.sqrt((t1 + 1.0) ** 2 + (t2 + 1.0) ** 2 + 6.0)

    model = GameModel(
        dim=2,
        space=space,
        g0=g0,
        jac_g0=jac_g0,
        monotonicity_m=m,
        lip_L1=lip_L1,
        operator_norm=operator_norm,
        name="oscillator-2",
    )

    if symmetry_check(model, samples=128):
        def potential(x, p, _neg_theta=-theta):
            # (-t1 c1) + (-t2 c2) has the bits of -t1 c1 - t2 c2
            w = _neg_theta * np.cos(x)
            px = p * x
            return (w[..., 0] + w[..., 1] + np.cos(x[..., 0] - x[..., 1])
                    + px[..., 0] + px[..., 1])

        model = replace(model, potential=potential)
    return model


def build_game_from_spec(spec) -> GameModel:
    if isinstance(spec, AggregativeGameSpec):
        return build_aggregative(spec)
    if isinstance(spec, OscillatorGameSpec):
        return build_oscillator(spec)
    raise TypeError(f"unknown game spec type {type(spec).__name__}")


# Keys an inline game spec may carry, by kind. An explicit aggregative
# instance gives all of q, W and a; otherwise n and seed generate one.
_SPEC_KEYS = {
    "aggregative": {"kind", "box", "q", "W", "a", "n", "seed"},
    "oscillator": {"kind", "box", "theta", "m_override"},
}
_EXPLICIT_AGGREGATIVE = ("q", "W", "a")


def game_spec_from_dict(d: dict):
    """Parse an inline game description from a configuration mapping.

    Anything malformed raises ValueError: an unknown kind or key, an
    explicit aggregative instance missing some of q, W and a (or mixed
    with n or seed, which generate one), or a value of the wrong type or
    out of range.
    """
    if not isinstance(d, dict):
        raise ValueError("inline game spec must be a mapping")
    kind = d.get("kind")
    if kind not in _SPEC_KEYS:
        raise ValueError(f"unknown game kind {kind!r}; use 'aggregative' or 'oscillator'")
    unknown = set(d) - _SPEC_KEYS[kind]
    if unknown:
        raise ValueError(f"unknown keys in the {kind} game spec: {sorted(unknown)}")
    given = [k for k in _EXPLICIT_AGGREGATIVE if k in d]
    if given and len(given) < len(_EXPLICIT_AGGREGATIVE):
        missing = [k for k in _EXPLICIT_AGGREGATIVE if k not in d]
        raise ValueError(f"aggregative game spec gives {', '.join(given)} but not "
                         f"{', '.join(missing)}; an explicit instance needs q, W and a")
    if given and {"n", "seed"} & set(d):
        raise ValueError("n and seed generate an aggregative instance; "
                         "they cannot accompany an explicit q, W and a")
    try:
        return _spec_from_checked_dict(kind, d)
    except TypeError as exc:
        raise ValueError(f"invalid {kind} game spec: {exc}") from None


def _spec_from_checked_dict(kind: str, d: dict):
    box = d.get("box")
    if box is not None:
        if not isinstance(box, dict) or set(box) != {"lower", "upper"}:
            raise ValueError("box must be a mapping with exactly 'lower' and 'upper'")
        box = BoxSpace(np.asarray(box["lower"], dtype=float),
                       np.asarray(box["upper"], dtype=float))
    if kind == "aggregative":
        if "q" in d:
            return AggregativeGameSpec(
                q=np.asarray(d["q"], dtype=float),
                W=np.asarray(d["W"], dtype=float),
                a=float(d["a"]),
                box=box,
            )
        counts = {"n": d.get("n", 5), "seed": d.get("seed", INSTANCE_SEED)}
        for (name, value), least in zip(counts.items(), (2, 0)):
            if not is_number(value, integer=True) or value < least:
                raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")
        spec = default_aggregative_spec(**counts)
        if box is not None:
            spec = AggregativeGameSpec(q=spec.q, W=spec.W, a=spec.a, box=box)
        return spec
    theta = tuple(d.get("theta", (4.2, 5.0)))
    m_override = d.get("m_override")
    return OscillatorGameSpec(
        theta=theta, box=box,
        m_override=None if m_override is None else float(m_override),
    )


@dataclass(frozen=True)
class PresetBundle:
    """A ready-to-run instance: game, social objective, and per-experiment
    default configuration fragments."""

    name: str
    spec: object
    game: GameModel
    objective: SocialObjective
    defaults: dict = field(default_factory=dict)


def load_preset(name: str) -> PresetBundle:
    if name == "aggregative-5":
        spec = default_aggregative_spec()
        game = build_aggregative(spec)
        objective = quadratic_objective(np.array([0.3, -0.2, 0.1, 0.4, -0.5]))
        defaults = {
            "flow": {
                "num_initial_conditions": 100,
                "c_fraction": 0.99,
                "flow": {"horizon_T": 30.0, "record_every": 10},
            },
            "ttsa": {
                "num_initial_conditions": 100,
                "c_fraction": 0.8,
                "max_iter": 100_000,
                "record_every": 100,
                "rule": {"kind": "NE"},
            },
            "sweep": {
                "num_initial_conditions": 1,
                "c_fraction": 0.8,
                "max_iter": 100_000,
                "record_every": 100,
                "rule": {"kind": "NE"},
                "gammas": [0.1, 0.2, 0.3, 0.4],
                "a_exp_base": 0.6,
            },
            "verify": {},
        }
        return PresetBundle(name=name, spec=spec, game=game,
                            objective=objective, defaults=defaults)
    if name == "oscillator-2":
        spec = OscillatorGameSpec()
        game = build_oscillator(spec)
        objective = quadratic_objective(np.array([0.5, 0.5]))
        defaults = {
            "flow": {
                "num_initial_conditions": 100,
                "c_fraction": 0.95,
                "flow": {"horizon_T": 30.0, "record_every": 10},
            },
            "ttsa": {
                "num_initial_conditions": 1,
                "c_fraction": 0.95,
                "max_iter": 100_000,
                "record_every": 100,
                "rule": {"kind": "PG", "eta": 0.15},
                "x0": [0.0, -0.5],
                "p0": [-3.0, -3.0],
            },
            "sweep": {
                "num_initial_conditions": 1,
                "c_fraction": 0.95,
                "max_iter": 100_000,
                "record_every": 100,
                # The sweep contrasts schedule-exponent gaps; it needs an
                # inner rule slow enough that the timescales never fully
                # separate over the horizon, hence the small eta.
                "rule": {"kind": "PG", "eta": 0.015},
                "gammas": [0.1, 0.2, 0.3, 0.4],
                "a_exp_base": 0.6,
                "x0": [0.0, -0.5],
                "p0": [-3.0, -3.0],
            },
            "verify": {},
        }
        return PresetBundle(name=name, spec=spec, game=game,
                            objective=objective, defaults=defaults)
    raise ValueError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
