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

    monkeypatch.setattr(solvers, "_solve_pg_fixed_point", forbidden)
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
