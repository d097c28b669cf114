import numpy as np
import pytest
import scipy.linalg

from socialgrad import (
    FlowConfig,
    FlowDomainError,
    compute_c_star,
    in_sublevel_set,
    integrate_social_gradient_flow,
    lyapunov_derivative,
    make_sublevel_geometry,
    quadratic_objective,
)


def test_c_star_aggregative_analytic(agg):
    # quadratic objective: the boundary minimum of the gap is half the
    # squared distance from the target to the nearest face
    c = compute_c_star(agg.game, agg.objective)
    dist = min(np.min(agg.objective.x_dagger - agg.game.space.lower),
               np.min(agg.game.space.upper - agg.objective.x_dagger))
    assert c == pytest.approx(0.5 * dist**2, abs=1e-12)
    assert c == pytest.approx(1.125, abs=1e-12)


def test_c_star_oscillator_analytic(osc):
    c = compute_c_star(osc.game, osc.objective)
    assert c == pytest.approx(0.5 * (np.pi / 3.0 - 0.5) ** 2, abs=1e-12)


def _inline_instance(n, x_dagger):
    from socialgrad.presets import build_game_from_spec, game_spec_from_dict

    game = build_game_from_spec(game_spec_from_dict({"kind": "aggregative", "n": n}))
    return game, quadratic_objective(np.array(x_dagger))


@pytest.mark.parametrize("instance", ["agg", "osc", "inline-2", "inline-3"])
def test_face_scan_agrees_with_analytic_c_star(request, instance):
    # A reference scan of the 2n faces. On a face the quadratic gap is
    # smallest at x_dagger with the face's coordinate moved onto it, so
    # compute_c_star must return the least of those 2n values, and no other
    # point of a face may fall below that face's value.
    if instance.startswith("inline"):
        n = int(instance[-1])
        game, objective = _inline_instance(n, [0.3, -0.7, 0.1][:n])
    else:
        bundle = request.getfixturevalue(instance)
        game, objective = bundle.game, bundle.objective
    space, x_dag = game.space, objective.x_dagger
    rng = np.random.default_rng(7)
    face_values = []
    for axis in range(game.dim):
        for value in (space.lower[axis], space.upper[axis]):
            foot = x_dag.copy()
            foot[axis] = value
            face_values.append(objective.gap(foot))
            points = rng.uniform(space.lower, space.upper, size=(500, game.dim))
            points[:, axis] = value
            assert np.min(objective.gap(points)) >= face_values[-1] - 1e-12
    assert compute_c_star(game, objective) == pytest.approx(min(face_values), abs=1e-12)


def test_c_star_rejects_other_objective_forms(agg):
    import dataclasses

    generic = dataclasses.replace(agg.objective, form="generic")
    with pytest.raises(ValueError, match="quadratic"):
        compute_c_star(agg.game, generic)


@pytest.mark.parametrize("x_dagger", [[2.0, 0.0], [0.0, -2.0], [2.5, 0.0]])
def test_c_star_rejects_target_on_or_outside_the_box(x_dagger):
    game, objective = _inline_instance(2, x_dagger)
    with pytest.raises(ValueError, match="strictly inside"):
        compute_c_star(game, objective)


def test_geometry_roundtrip(agg_geom99, agg):
    # p_dagger = -g0(x_dagger) steers the response exactly onto the target
    from socialgrad import solve_response

    res = solve_response(agg.game, agg_geom99.p_dagger)
    assert np.linalg.norm(res.x_star - agg.objective.x_dagger) <= 1e-10
    assert 0.0 < agg_geom99.c < agg_geom99.c_star


def test_geometry_validation(agg):
    with pytest.raises(ValueError):
        make_sublevel_geometry(agg.game, agg.objective, c_frac=1.5)
    with pytest.raises(ValueError):
        make_sublevel_geometry(agg.game, agg.objective, c=2.0 * 1.125)
    # a target on the box boundary has no interior response
    bad = quadratic_objective(np.array([2.0, 0.0, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        make_sublevel_geometry(agg.game, bad)


def test_c_star_passthrough_skips_scan(agg):
    geom = make_sublevel_geometry(agg.game, agg.objective, c_frac=0.5,
                                  c_star=1.125)
    assert geom.c == pytest.approx(0.5625)
    with pytest.raises(ValueError):
        make_sublevel_geometry(agg.game, agg.objective, c_star=-1.0)


def test_membership(agg_geom99, osc_geom95):
    assert in_sublevel_set(agg_geom99, agg_geom99.p_dagger)
    assert not in_sublevel_set(agg_geom99, np.full(5, 30.0))
    assert in_sublevel_set(osc_geom95, np.array([-3.0, -3.0]))
    assert not in_sublevel_set(osc_geom95, np.array([10.0, 10.0]))


def test_membership_rejects_out_of_box_root_without_solving(agg_geom99, monkeypatch):
    # the linear root of p = 30*1 lies outside the box, which certifies a
    # boundary response: no projected fixed point is needed to say no
    import socialgrad.solvers as solvers

    def forbidden(*args, **kwargs):
        raise AssertionError("projected fixed point called")

    monkeypatch.setattr(solvers, "_pg_fixed_points", forbidden)
    assert not in_sublevel_set(agg_geom99, np.full(5, 30.0))


def test_lyapunov_derivative_signs(agg, agg_geom99, osc, osc_geom95,
                                   draw_admissible):
    for bundle, geom in ((agg, agg_geom99), (osc, osc_geom95)):
        for _, p in draw_admissible(bundle.game, bundle.objective, geom, 10):
            if np.linalg.norm(p - geom.p_dagger) > 1e-3:
                assert lyapunov_derivative(bundle.game, bundle.objective, p) < 0.0
        at_target = lyapunov_derivative(bundle.game, bundle.objective,
                                        geom.p_dagger)
        assert abs(at_target) <= 1e-12


def test_lyapunov_derivative_needs_interior(agg):
    with pytest.raises(FlowDomainError):
        lyapunov_derivative(agg.game, agg.objective, np.full(5, 30.0))


def test_flow_descent_both_presets(agg, agg_geom99, osc, osc_geom95,
                                   draw_admissible):
    for bundle, geom in ((agg, agg_geom99), (osc, osc_geom95)):
        _, p0 = draw_admissible(bundle.game, bundle.objective, geom, 1)[0]
        rec, summary = integrate_social_gradient_flow(
            geom, p0, FlowConfig(horizon_T=2.0, record_every=20))
        diffs = np.diff(np.asarray(rec.values))
        assert np.all(diffs <= 1e-9)
        assert summary["V_final"] < rec.values[0]


def test_flow_matches_matrix_exponential(agg):
    # for a linear game with quadratic objective the flow is linear:
    # dp/dt = -(M^{-1})(p - p_dagger)
    geom = make_sublevel_geometry(agg.game, agg.objective, c_frac=0.8)
    A = np.linalg.inv(agg.game.linear_matrix)
    p0 = geom.p_dagger + 0.3 * np.ones(5)
    assert in_sublevel_set(geom, p0)
    rec, _ = integrate_social_gradient_flow(
        geom, p0, FlowConfig(dt=1e-3, horizon_T=2.0, record_every=200,
                             stop_tol=0.0))
    worst = 0.0
    for t, p in zip(rec.times, rec.incentives):
        exact = geom.p_dagger + scipy.linalg.expm(-A * t) @ (p0 - geom.p_dagger)
        worst = max(worst, float(np.linalg.norm(p - exact)))
    assert worst <= 1e-7


def test_flow_rejects_bad_start(agg_geom99):
    with pytest.raises(ValueError):
        integrate_social_gradient_flow(agg_geom99, np.full(5, 30.0))


def test_flow_domain_error_carries_state(agg, agg_geom99, draw_admissible):
    _, p0 = draw_admissible(agg.game, agg.objective, agg_geom99, 1)[0]
    with pytest.raises(FlowDomainError) as info:
        integrate_social_gradient_flow(agg_geom99, p0,
                                       FlowConfig(dt=50.0, horizon_T=200.0))
    assert info.value.p_last is not None


def test_flow_early_stop(agg, agg_geom99):
    rec, summary = integrate_social_gradient_flow(
        agg_geom99, agg_geom99.p_dagger, FlowConfig(horizon_T=5.0))
    assert summary["stopped_early"]
    assert summary["grad_norm_final"] <= 1e-8


def test_euler_matches_rk4_loosely(osc, osc_geom95):
    p0 = np.array([-3.0, -3.0])
    cfg_rk = FlowConfig(method="rk4", dt=0.002, horizon_T=1.0, record_every=500)
    cfg_eu = FlowConfig(method="explicit-euler", dt=0.002, horizon_T=1.0,
                        record_every=500)
    rec_rk, _ = integrate_social_gradient_flow(osc_geom95, p0, cfg_rk)
    rec_eu, _ = integrate_social_gradient_flow(osc_geom95, p0, cfg_eu)
    assert np.linalg.norm(rec_rk.incentives[-1] - rec_eu.incentives[-1]) <= 1e-3


# ---------------------------------------------------------------------------
# a batch of flows: every row is a run of its own


def _csv(record, path):
    record.write_csv(path)
    return path.read_bytes()


def test_boundary_response_fails_only_its_flow_run(agg, agg_geom99, draw_admissible,
                                                   monkeypatch, tmp_path):
    pairs = draw_admissible(agg.game, agg.objective, agg_geom99, 3, seed=4)
    P0 = np.array([p for _, p in pairs])
    cfg = FlowConfig(horizon_T=0.5, record_every=5)
    solo = [integrate_social_gradient_flow(agg_geom99, p0, cfg)[0] for p0 in P0]
    # run 1's incentive after step 25 is reported as a boundary response
    steps, _ = integrate_social_gradient_flow(
        agg_geom99, P0[1], FlowConfig(horizon_T=0.5, record_every=1))
    doomed = steps.incentives[25]
    original = agg_geom99.oracle.response

    def response(p, warm=None):
        x, interior = original(p, warm)
        hit = (np.atleast_2d(p) == doomed).all(axis=1)
        return x, interior & ~hit if np.ndim(p) == 2 else interior and not hit[0]

    monkeypatch.setattr(agg_geom99.oracle, "response", response)
    outcomes = integrate_social_gradient_flow(agg_geom99, P0, cfg)
    assert isinstance(outcomes[1], FlowDomainError)
    assert str(outcomes[1]).startswith("flow left the admissible set")
    # the last valid state: the start of the step that left
    assert outcomes[1].t_last == steps.times[24]
    assert np.array_equal(outcomes[1].p_last, steps.incentives[24])
    for i in (0, 2):
        assert _csv(outcomes[i][0], tmp_path / "b.csv") == _csv(solo[i], tmp_path / "s.csv")


def test_stop_tol_stops_one_row_while_the_others_continue(agg, agg_geom99,
                                                         draw_admissible, tmp_path):
    pairs = draw_admissible(agg.game, agg.objective, agg_geom99, 2, seed=6)
    P0 = np.array([pairs[0][1], agg_geom99.p_dagger, pairs[1][1]])
    cfg = FlowConfig(horizon_T=0.5, record_every=5)
    outcomes = integrate_social_gradient_flow(agg_geom99, P0, cfg)
    record, summary = outcomes[1]
    assert summary["stopped_early"] and summary["steps"] == 1 and len(record) == 2
    for i, p0 in ((0, P0[0]), (2, P0[2])):
        record, summary = outcomes[i]
        assert not summary["stopped_early"]
        solo, _ = integrate_social_gradient_flow(agg_geom99, p0, cfg)
        assert _csv(record, tmp_path / "b.csv") == _csv(solo, tmp_path / "s.csv")


def test_flow_batch_rejects_bad_starts_per_row(agg_geom99):
    P0 = np.array([agg_geom99.p_dagger, np.full(5, 30.0), [np.nan] * 5])
    outcomes = integrate_social_gradient_flow(agg_geom99, P0, FlowConfig(horizon_T=0.1))
    assert isinstance(outcomes[0], tuple)
    assert str(outcomes[1]) == "p0 lies outside the working sublevel set"
    assert isinstance(outcomes[2], ValueError) and "non-finite" in str(outcomes[2])


def _k2_stage(geom, p0, cfg, s):
    """(t_s, p_s, the k2 stage of step s + 1) of a solo run from p0."""
    steps, _ = integrate_social_gradient_flow(
        geom, p0, FlowConfig(dt=cfg.dt, horizon_T=cfg.horizon_T, record_every=1))
    dt = cfg.dt if cfg.dt is not None else 0.005 * geom.game.monotonicity_m
    p, x = steps.incentives[s], steps.responses[s]
    return steps.times[s], p, p + 0.5 * dt * geom.objective.grad_phi(x)


def test_boundary_response_at_a_stage_fails_only_its_flow_run(agg, agg_geom99,
                                                             draw_admissible,
                                                             monkeypatch, tmp_path):
    pairs = draw_admissible(agg.game, agg.objective, agg_geom99, 3, seed=4)
    P0 = np.array([p for _, p in pairs])
    cfg = FlowConfig(horizon_T=0.5, record_every=5)
    solo = [integrate_social_gradient_flow(agg_geom99, p0, cfg)[0] for p0 in P0]
    t_s, p_s, doomed = _k2_stage(agg_geom99, P0[1], cfg, 10)
    original = agg_geom99.oracle.response

    def response(p, warm=None):
        x, interior = original(p, warm)
        hit = (np.atleast_2d(p) == doomed).all(axis=1)
        return x, interior & ~hit if np.ndim(p) == 2 else interior and not hit[0]

    monkeypatch.setattr(agg_geom99.oracle, "response", response)
    outcomes = integrate_social_gradient_flow(agg_geom99, P0, cfg)
    assert isinstance(outcomes[1], FlowDomainError)
    assert str(outcomes[1]) == "integration step produced a boundary response"
    assert outcomes[1].t_last == t_s
    assert np.array_equal(outcomes[1].p_last, p_s)
    for i in (0, 2):
        assert _csv(outcomes[i][0], tmp_path / "b.csv") == _csv(solo[i], tmp_path / "s.csv")


def test_solver_failure_at_a_stage_fails_only_its_flow_run(osc, osc_geom95,
                                                          draw_admissible,
                                                          monkeypatch, tmp_path):
    import socialgrad.solvers as solvers

    pairs = draw_admissible(osc.game, osc.objective, osc_geom95, 3, seed=2)
    P0 = np.array([p for _, p in pairs])
    cfg = FlowConfig(dt=0.01, horizon_T=0.3, record_every=5)
    solo = [integrate_social_gradient_flow(osc_geom95, p0, cfg)[0] for p0 in P0]
    _, _, doomed = _k2_stage(osc_geom95, P0[0], cfg, 12)
    original = solvers._projected_newton

    def failing(game, P, *args, **kwargs):
        # the stacked solve fails whenever the doomed incentive is a row
        if any(np.array_equal(p, doomed) for p in P):
            raise solvers.SolverError("injected failure")
        return original(game, P, *args, **kwargs)

    monkeypatch.setattr(solvers, "_projected_newton", failing)
    outcomes = integrate_social_gradient_flow(osc_geom95, P0, cfg)
    assert isinstance(outcomes[0], solvers.SolverError)
    for i in (1, 2):
        assert _csv(outcomes[i][0], tmp_path / "b.csv") == _csv(solo[i], tmp_path / "s.csv")


def test_flow_batch_solves_warm_start_per_row(osc, osc_geom95, draw_admissible,
                                              monkeypatch):
    import socialgrad.solvers as solvers

    P0 = np.array([p for _, p in draw_admissible(osc.game, osc.objective, osc_geom95, 3)])
    cold = []        # one entry per row solved: whether it started cold
    original = solvers._projected_newton

    def counting(game, P, cfg, X0=None):
        cold.extend([X0 is None] * len(P))
        return original(game, P, cfg, X0)

    monkeypatch.setattr(solvers, "_projected_newton", counting)
    steps = 10
    integrate_social_gradient_flow(osc_geom95, P0, FlowConfig(dt=0.01, horizon_T=0.1))
    assert len(cold) == 3 + 3 * 4 * steps      # the starts, then 4 solves a step
    assert sum(cold) == 3                      # only the starts solve cold


@pytest.mark.parametrize("name, value", [
    ("dt", "x"), ("horizon_T", True), ("stop_tol", "x"), ("stop_tol", -1.0),
    ("horizon_T", float("inf")), ("dt", float("nan")),
])
def test_flow_config_names_the_bad_setting(name, value):
    with pytest.raises(ValueError, match=name):
        FlowConfig(**{name: value})
