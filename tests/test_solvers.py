from dataclasses import replace

import numpy as np
import pytest

from socialgrad import (
    ResponseOracle,
    ResponseSolverConfig,
    SolverError,
    response_jacobian_fd,
    solve_response,
)
from socialgrad.solvers import interior_margin, solve_response_linear, solve_responses


def interior_points(game, rng, count, shrink=0.2):
    lo = game.space.lower + shrink
    hi = game.space.upper - shrink
    return [rng.uniform(lo, hi) for _ in range(count)]


def test_config_validation():
    with pytest.raises(ValueError):
        ResponseSolverConfig(method="simplex")
    with pytest.raises(ValueError):
        ResponseSolverConfig(tol=-1.0)
    with pytest.raises(ValueError):
        ResponseSolverConfig(max_iter=0)


def test_construct_then_recover_aggregative(agg, rng):
    # if p = -g0(xbar) with xbar interior, the response must be xbar
    for xbar in interior_points(agg.game, rng, 10):
        res = solve_response(agg.game, -agg.game.g0(xbar))
        assert res.converged and res.interior
        assert np.linalg.norm(res.x_star - xbar) <= 1e-9


def test_construct_then_recover_oscillator(osc, rng):
    for xbar in interior_points(osc.game, rng, 10, shrink=0.1):
        res = solve_response(osc.game, -osc.game.g0(xbar))
        assert res.converged and res.interior
        assert np.linalg.norm(res.x_star - xbar) <= 1e-8


def test_methods_agree_on_linear_game(agg, rng):
    p = -agg.game.g0(interior_points(agg.game, rng, 1)[0])
    closed = solve_response(agg.game, p,
                            ResponseSolverConfig(method="closed-form-linear"))
    iterated = solve_response(agg.game, p,
                              ResponseSolverConfig(method="projected-gradient-fixed-point"))
    assert np.linalg.norm(closed.x_star - iterated.x_star) <= 1e-8


def test_methods_agree_on_oscillator(osc):
    p = np.array([-3.0, -3.0])
    newton = solve_response(osc.game, p,
                            ResponseSolverConfig(method="potential-minimization"))
    iterated = solve_response(osc.game, p,
                              ResponseSolverConfig(method="projected-gradient-fixed-point"))
    assert np.linalg.norm(newton.x_star - iterated.x_star) <= 1e-8


def test_newton_beats_grid_on_potential(osc):
    # independent check of the minimizer: no grid point of the potential
    # landscape does better than the solver's answer
    p = np.array([-3.0, -3.0])
    res = solve_response(osc.game, p)
    axis = np.linspace(-np.pi / 3.0, np.pi / 3.0, 101)
    best = min(osc.game.potential(np.array([a, b]), p)
               for a in axis for b in axis)
    assert osc.game.potential(res.x_star, p) <= best + 1e-12


def test_boundary_response_flagged(agg):
    # a large incentive pushes the unconstrained root outside the box, so
    # the equilibrium sits on the boundary
    p = np.full(5, 30.0)
    root = solve_response_linear(agg.game.linear_matrix, p)
    assert not agg.game.space.contains(root)
    res = solve_response(agg.game, p)
    assert res.converged
    assert not res.interior
    assert agg.game.space.contains(res.x_star)
    # KKT at the boundary: the incentivized gradient pushes outward on the
    # clamped coordinates and vanishes on the free ones
    grad = agg.game.g0(res.x_star) + p
    eps = interior_margin(agg.game.space)
    for i in range(5):
        if res.x_star[i] <= agg.game.space.lower[i] + eps:
            assert grad[i] >= -1e-7
        elif res.x_star[i] >= agg.game.space.upper[i] - eps:
            assert grad[i] <= 1e-7
        else:
            assert abs(grad[i]) <= 1e-7


def test_boundary_response_oscillator(osc):
    res = solve_response(osc.game, np.array([10.0, 10.0]))
    assert res.converged and not res.interior
    assert osc.game.space.contains(res.x_star)


def test_singular_linear_solve_raises():
    with pytest.raises(SolverError):
        solve_response_linear(np.zeros((2, 2)), np.ones(2))


def test_fd_jacobian_linear(agg, rng):
    p = -agg.game.g0(interior_points(agg.game, rng, 1)[0])
    J = response_jacobian_fd(agg.game, p)
    expected = -np.linalg.inv(agg.game.linear_matrix)
    assert np.max(np.abs(J - expected)) <= 1e-9


def test_fd_jacobian_oscillator(osc):
    p = np.array([-3.0, -3.0])
    res = solve_response(osc.game, p)
    J = response_jacobian_fd(osc.game, p)
    expected = -np.linalg.inv(osc.game.jac_g0(res.x_star))
    assert np.max(np.abs(J - expected)) <= 1e-6


def test_fd_jacobian_rejects_boundary(agg):
    with pytest.raises(SolverError):
        response_jacobian_fd(agg.game, np.full(5, 30.0))


def test_oracle_matches_solver_along_path(osc):
    oracle = ResponseOracle(osc.game)
    p = np.array([-3.0, -3.0])
    for k in range(50):
        pk = p + 0.01 * k * np.array([1.0, 0.4])
        x_fast, interior = oracle.response(pk)
        ref = solve_response(osc.game, pk)
        assert interior == ref.interior
        if interior:
            assert np.linalg.norm(x_fast - ref.x_star) <= 1e-8


def test_oracle_linear_boundary_shortcut(agg):
    oracle = ResponseOracle(agg.game)
    x, interior = oracle.response(np.full(5, 30.0))
    assert not interior


def test_step_eta_guard(agg):
    m = agg.game.monotonicity_m
    L = agg.game.operator_norm
    with pytest.raises(ValueError):
        ResponseSolverConfig(step_eta=-0.1)
    cfg = ResponseSolverConfig(method="projected-gradient-fixed-point",
                               step_eta=2.0 * m / L**2)
    with pytest.raises(ValueError):
        solve_response(agg.game, np.zeros(5), cfg)


# ---------------------------------------------------------------------------
# the stacked solvers against the serial ones they replaced


def serial_projected_newton(game, p, cfg, x0=None):
    """Projected Newton on one incentive, written one row at a time.

    The reference the stacked solver must reproduce bit for bit: returns
    (x, iterations, converged, the number of halved steps tried).
    """
    lo, hi = game.space.lower, game.space.upper
    x = np.clip(game.space.center if x0 is None else x0, lo, hi)
    pin_tol = 1e-12 * game.space.diameter
    halvings = 0
    for it in range(1, cfg.max_iter + 1):
        grad = game.g0(x) + p
        free = ~(((x <= lo + pin_tol) & (grad > 0)) | ((x >= hi - pin_tol) & (grad < 0)))
        stationary = float(np.linalg.norm(grad[free])) if np.any(free) else 0.0
        if stationary <= cfg.tol:
            return x, it, True, halvings
        step = np.zeros(game.dim)
        step[free] = np.linalg.solve(game.jac_g0(x)[np.ix_(free, free)], -grad[free])
        f0 = game.potential(x, p)
        slope = float(grad @ step)
        if abs(slope) <= 1e-12 * max(1.0, abs(f0)):
            x_new = np.clip(x + step, lo, hi)
            if np.array_equal(x_new, x):
                return x, it, False, halvings
            x = x_new
            continue
        t = 1.0
        for _ in range(60):
            x_try = np.clip(x + t * step, lo, hi)
            if game.potential(x_try, p) <= f0 + 1e-4 * t * slope:
                break
            t *= 0.5
            halvings += 1
        else:
            raise SolverError("potential line search failed")
        if np.array_equal(x_try, x):
            return x, it, False, halvings
        x = x_try
    raise SolverError("projected Newton did not converge")


def serial_pg_fixed_point(game, p, cfg, x0=None):
    """The projected-gradient fixed point on one incentive, one row at a
    time: returns (x, iterations)."""
    from socialgrad.solvers import _inner_step

    eta = _inner_step(game, cfg)
    lo, hi = game.space.lower, game.space.upper
    x = np.clip(game.space.center if x0 is None else x0, lo, hi)
    margin = max(cfg.tol, interior_margin(game.space))
    for it in range(1, cfg.max_iter + 1):
        x_next = np.clip(x - eta * (game.g0(x) + p), lo, hi)
        displacement = float(np.linalg.norm(x - x_next))
        x = x_next
        if game.space.contains(x, margin=margin):
            if float(np.linalg.norm(game.g0(x) + p)) <= cfg.tol:
                return x, it
        elif displacement <= eta * cfg.tol:
            return x, it
    raise SolverError("fixed point not reached")


# (p, x0) pairs on oscillator-2 whose full Newton step fails the Armijo
# test at least once, so the halving loop runs
_HALVING_ROWS = [((-7.95, -6.76), (1.01, 0.97)), ((7.53, 2.67), (-0.74, -0.85)),
                 ((2.57, 4.16), (0.98, -0.49))]


def mixed_rows(game, count, seed=11):
    """(P, X0): interior incentives warm-started near and far, cold starts
    (NaN rows of X0 stand for None), incentives whose response is pinned
    on one or two faces, and starts that need a halved step."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    lo, hi = game.space.lower, game.space.upper
    P, X0 = [], []
    pinned = [np.array([10.0, 10.0]), np.array([-10.0, 10.0]), np.array([4.0, -0.5])]
    for r in range(count):
        xbar = rng.uniform(0.8 * lo, 0.8 * hi)
        kind = r % 5
        if kind == 3:
            p, start = pinned[r // 5 % 3], xbar
        elif kind == 4:
            p, start = map(np.array, _HALVING_ROWS[r // 5 % 3])
        else:
            p = -game.g0(xbar)
            start = [xbar + rng.normal(scale=10.0 ** -rng.integers(1, 6), size=2),
                     np.full(2, np.nan), rng.uniform(lo, hi)][kind]
        P.append(p)
        X0.append(start)
    return np.array(P), np.array(X0)


@pytest.mark.parametrize("rows", [1, 4, 17])
def test_stacked_newton_equals_serial_solver(osc, rows):
    from socialgrad.solvers import _projected_newton

    cfg = ResponseSolverConfig()
    P, X0 = mixed_rows(osc.game, rows)
    cold = np.isnan(X0).any(axis=1)
    # cold rows start from the box center, as X0 = None does
    X0[cold] = osc.game.space.center
    X, G, iterations, converged = _projected_newton(osc.game, P, cfg, X0)
    halvings = 0
    for r in range(rows):
        x, it, ok, halved = serial_projected_newton(osc.game, P[r], cfg,
                                                    None if cold[r] else X0[r])
        halvings += halved
        assert np.array_equal(X[r], x) and iterations[r] == it and converged[r] == ok
        assert np.array_equal(G[r], osc.game.g0(x) + P[r])
        one = solve_response(osc.game, P[r], cfg, x0=None if cold[r] else X0[r])
        assert np.array_equal(one.x_star, x) and one.iterations == it
    if rows == 17:
        # the stack holds rows pinned on a face, rows that stop at
        # different iterations and rows whose full step fails Armijo
        on_face = (X == osc.game.space.lower) | (X == osc.game.space.upper)
        assert on_face.any(axis=1).sum() >= 3
        assert len(set(iterations.tolist())) >= 3
        assert halvings > 0


def test_stacked_fixed_point_equals_serial_solver(osc):
    from socialgrad.solvers import _pg_fixed_points

    cfg = ResponseSolverConfig(method="projected-gradient-fixed-point")
    P, X0 = mixed_rows(osc.game, 8, seed=3)
    X0[np.isnan(X0).any(axis=1)] = osc.game.space.center
    X, _, iterations, converged = _pg_fixed_points(osc.game, P, cfg, X0)
    assert converged.all()
    for r in range(len(P)):
        x, it = serial_pg_fixed_point(osc.game, P[r], cfg, X0[r])
        assert np.array_equal(X[r], x) and iterations[r] == it


def test_oracle_stack_equals_one_row_calls(osc):
    oracle = ResponseOracle(osc.game)
    P, X0 = mixed_rows(osc.game, 9, seed=5)
    X0[np.isnan(X0).any(axis=1)] = osc.game.space.center
    X, interior = oracle.response(P, X0)
    for r in range(len(P)):
        x, inside = oracle.response(P[r], X0[r])
        assert np.array_equal(X[r], x) and interior[r] == inside


def test_warm_start_at_the_response_returns_it_unchanged(osc, rng):
    for xbar in interior_points(osc.game, rng, 5, shrink=0.1):
        p = -osc.game.g0(xbar)
        cold = solve_response(osc.game, p)
        warm = solve_response(osc.game, p, x0=cold.x_star)
        assert np.array_equal(warm.x_star, cold.x_star) and warm.iterations == 1


def test_non_converging_row_fails_only_its_ttsa_run(osc, tmp_path):
    # five Newton iterations: a cold solve at p0 = (-3, -3) needs six, one
    # near the box center needs four, and warm starts need fewer
    from socialgrad import TtsaConfig, make_learning_rule, make_sublevel_geometry, run_ttsa

    geom = make_sublevel_geometry(osc.game, osc.objective, c_frac=0.95,
                                  solver_cfg=ResponseSolverConfig(max_iter=5))
    cfg = TtsaConfig(rule=make_learning_rule(osc.game, "PG", eta=0.15),
                     max_iter=300, record_every=50)
    X0 = np.array([[0.0, -0.5], [0.0, -0.5]])
    P0 = np.array([-osc.game.g0(np.array([0.2, 0.2])), [-3.0, -3.0]])
    outcomes = run_ttsa(X0, P0, cfg, geom)
    assert isinstance(outcomes[1], SolverError)
    solo, _ = run_ttsa(X0[0], P0[0], cfg, geom)
    outcomes[0][0].write_csv(tmp_path / "batch.csv")
    solo.write_csv(tmp_path / "solo.csv")
    assert (tmp_path / "batch.csv").read_bytes() == (tmp_path / "solo.csv").read_bytes()


# ---------------------------------------------------------------------------
# stacked response solves and finite differences against one-row calls


def assert_rows_equal_one_row_calls(game, P, cfg, X0):
    stacked = solve_responses(game, P, cfg, X0)
    for r in range(len(P)):
        one, row = solve_response(game, P[r], cfg, x0=X0[r]), stacked.row(r)
        assert np.array_equal(row.x_star, one.x_star)
        assert ((row.residual, row.iterations, row.converged, row.interior)
                == (one.residual, one.iterations, one.converged, one.interior))
    return stacked


def test_stacked_linear_solve_equals_one_row_calls(agg, rng):
    from socialgrad.solvers import _pg_fixed_points

    cfg = ResponseSolverConfig()
    P = np.array([-agg.game.g0(x) for x in interior_points(agg.game, rng, 6)])
    P[3] = np.full(5, 30.0)          # this row's root leaves the box
    X0 = np.array(interior_points(agg.game, rng, 6))
    stacked = assert_rows_equal_one_row_calls(agg.game, P, cfg, X0)
    assert not stacked.interior[3] and stacked.interior[[0, 1, 2, 4, 5]].all()
    # inside the box each row has the bits of the 1-D dense solve; the
    # boundary row is the fixed point from its own warm start
    for r in (0, 1, 2, 4, 5):
        assert np.array_equal(stacked.x_star[r],
                              np.linalg.solve(agg.game.linear_matrix, -P[r]))
    X, _, iterations, _ = _pg_fixed_points(agg.game, P[3:4], cfg, X0[3:4])
    assert np.array_equal(stacked.x_star[3], X[0]) and stacked.iterations[3] == iterations[0]


@pytest.mark.parametrize("method", ["auto", "projected-gradient-fixed-point"])
def test_stacked_oscillator_solve_equals_one_row_calls(osc, method):
    P, X0 = mixed_rows(osc.game, 17, seed=2)
    X0[np.isnan(X0).any(axis=1)] = osc.game.space.center
    stacked = assert_rows_equal_one_row_calls(
        osc.game, P, ResponseSolverConfig(method=method), X0)
    assert stacked.converged.all() and not stacked.interior.all()


def serial_jacobian_fd(game, p, h=1e-5):
    """The per-incentive, per-direction loop the stacked finite
    differences must reproduce bit for bit, messages included."""
    cfg = ResponseSolverConfig(tol=1e-12)
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
                raise SolverError(f"finite-difference probe p {tag} h*e_{i} left the "
                                  "admissible incentive set")
        cols.append((plus.x_star - minus.x_star) / (2.0 * h))
    return np.stack(cols, axis=1)


@pytest.mark.parametrize("preset", ["agg", "osc"])
def test_stacked_fd_jacobian_equals_per_incentive_calls(request, preset, rng):
    game = request.getfixturevalue(preset).game
    P = np.array([-game.g0(x) for x in interior_points(game, rng, 5, shrink=0.3)])
    J = response_jacobian_fd(game, P)
    assert J.shape == (5, game.dim, game.dim)
    for r in range(len(P)):
        assert np.array_equal(J[r], serial_jacobian_fd(game, P[r]))
        assert np.array_equal(J[r], response_jacobian_fd(game, P[r]))


def _near_face(game, fraction):
    """An incentive whose response sits ``fraction`` interior margins above
    the lower face of coordinate 2."""
    x = np.zeros(game.dim)
    x[2] = game.space.lower[2] + fraction * interior_margin(game.space)
    return -game.g0(x)


@pytest.mark.parametrize("fractions, first_bad, message", [
    # the first failure in the order row, direction, + before -; a row of
    # None is an incentive whose response is the box center
    ([None, 1.5, 1.2], 1, "p + h*e_2"),
    ([None, 1.2, 1.5], 1, "p - h*e_0"),
    ([None, 0.5, 1.2], 1, "response at p is not interior"),
    ([1.5, 0.5], 0, "p + h*e_2"),
])
def test_stacked_fd_jacobian_reports_the_first_failure(agg, fractions, first_bad, message):
    P = np.array([-agg.game.g0(np.zeros(5)) if f is None else _near_face(agg.game, f)
                  for f in fractions])
    with pytest.raises(SolverError) as stacked:
        response_jacobian_fd(agg.game, P)
    assert message in str(stacked.value)
    for p in P[:first_bad]:
        serial_jacobian_fd(agg.game, p)
    with pytest.raises(SolverError) as serial:
        serial_jacobian_fd(agg.game, P[first_bad])
    assert str(stacked.value) == str(serial.value)
