import numpy as np
import pytest
import scipy.special
from hypothesis import given
from hypothesis import strategies as st

from socialgrad import (
    LearningRule,
    StepSchedule,
    TtsaConfig,
    br_flow_rate,
    learning_rule_br,
    learning_rule_ne,
    learning_rule_pg,
    make_learning_rule,
    pg_contraction_factor,
    run_ttsa,
    solve_response,
    tracking_diagnostics,
    ttsa_step,
)


# ---------------------------------------------------------------------------
# schedules


def test_schedule_values():
    s = StepSchedule(a0=1.0, a_exp=0.6, b0=1.0, b_exp=0.9, offset=1)
    assert s.a(0) == pytest.approx(1.0)
    assert s.a(1) == pytest.approx(2.0 ** (-0.6))
    assert s.b(9) == pytest.approx(10.0 ** (-0.9))


def test_schedule_validation():
    with pytest.raises(ValueError):
        StepSchedule(a_exp=0.5)            # exponent must exceed 1/2
    with pytest.raises(ValueError):
        StepSchedule(a_exp=1.1)
    with pytest.raises(ValueError):
        StepSchedule(b_exp=0.4)
    with pytest.raises(ValueError):
        StepSchedule(offset=0)
    with pytest.raises(ValueError):
        StepSchedule(a0=2.0, offset=1)     # a(0) = 2 leaves (0, 1]
    with pytest.warns(UserWarning):
        StepSchedule(a_exp=0.8, b_exp=0.7)


@given(
    a0=st.floats(0.1, 1.0),
    a_exp=st.floats(0.55, 1.0),
    offset=st.integers(1, 5),
)
def test_schedule_partial_sum_laws(a0, a_exp, offset):
    # the squared-step series matches the Hurwitz-zeta tail difference
    # exactly; the step series dominates the integral lower bound
    s = StepSchedule(a0=a0, a_exp=a_exp, b0=1.0, b_exp=1.0, offset=offset)
    K = 10_000
    ks = np.arange(K, dtype=float)
    steps = a0 * (ks + offset) ** (-a_exp)
    sum_sq = float(np.sum(steps**2))
    zeta_ref = a0**2 * float(scipy.special.zeta(2 * a_exp, offset)
                             - scipy.special.zeta(2 * a_exp, offset + K))
    assert sum_sq == pytest.approx(zeta_ref, rel=1e-9)

    total = float(np.sum(steps))
    if a_exp < 1.0:
        lower = a0 * ((K + offset) ** (1 - a_exp) - offset ** (1 - a_exp)) / (1 - a_exp)
    else:
        lower = a0 * np.log((K + offset) / offset)
    assert total >= lower


# ---------------------------------------------------------------------------
# rules


def test_rule_validation(agg, osc):
    with pytest.raises(ValueError):
        LearningRule(kind="NE", eta=0.1)
    with pytest.raises(ValueError):
        LearningRule(kind="PG")
    with pytest.raises(ValueError):
        LearningRule(kind="fictitious-play")
    with pytest.raises(ValueError):
        make_learning_rule(osc.game, "BR")   # no best-response structure
    with pytest.raises(ValueError):
        make_learning_rule(agg.game, "PG", eta=10.0)


def test_rule_certificates(agg, osc):
    ne = make_learning_rule(agg.game, "NE")
    assert ne.certificate == 0.0

    br = make_learning_rule(agg.game, "BR")
    q = agg.spec.q
    M = agg.game.linear_matrix
    expected = float(np.linalg.eigvalsh(0.5 * (M / q[:, None]
                                               + (M / q[:, None]).T))[0])
    assert br.certificate == pytest.approx(expected, abs=1e-12)
    assert br_flow_rate(agg.game) == pytest.approx(expected, abs=1e-12)

    m, L = agg.game.monotonicity_m, agg.game.operator_norm
    eta = m / (2.0 * L**2)
    pg = make_learning_rule(agg.game, "PG", eta=eta)
    assert pg.certificate == pytest.approx(
        np.sqrt(1.0 - eta * m + eta**2 * L**2), abs=1e-12)


def test_pg_factor_widened_range_for_potential(osc):
    m, L = osc.game.monotonicity_m, osc.game.operator_norm
    # below m/L^2 the general certificate applies
    eta_small = 0.5 * m / L**2
    assert pg_contraction_factor(osc.game, eta_small) == pytest.approx(
        np.sqrt(1.0 - eta_small * m + eta_small**2 * L**2), abs=1e-12)
    # the symmetric-Jacobian game admits steps up to 2/L
    eta = 0.15
    assert m / L**2 < eta < 2.0 / L
    rho = pg_contraction_factor(osc.game, eta)
    assert rho == pytest.approx(max(abs(1.0 - eta * m / 2.0),
                                    abs(1.0 - eta * L)), abs=1e-12)
    assert rho < 1.0
    with pytest.raises(ValueError):
        pg_contraction_factor(osc.game, 2.0 / L + 0.01)


def test_rule_maps(agg, rng):
    x = rng.uniform(-1.5, 1.5, 5)
    p = -agg.game.g0(rng.uniform(-1.0, 1.0, 5))

    ne = learning_rule_ne(x, p, agg.game)
    assert np.linalg.norm(ne - solve_response(agg.game, p).x_star) <= 1e-10

    q, coupling = agg.game.br_structure
    expected_br = np.clip(-(p + coupling @ x) / q, -2.0, 2.0)
    assert np.allclose(learning_rule_br(x, p, agg.game), expected_br,
                       rtol=0.0, atol=1e-14)

    eta = 0.1
    expected_pg = np.clip(x - eta * (agg.game.g0(x) + p), -2.0, 2.0)
    assert np.allclose(learning_rule_pg(x, p, agg.game, eta), expected_pg,
                       rtol=0.0, atol=1e-14)


def test_pg_rule_range_guard(agg):
    with pytest.raises(ValueError):
        learning_rule_pg(np.zeros(5), np.zeros(5), agg.game, eta=5.0)


# ---------------------------------------------------------------------------
# iteration


def make_cfg(game, kind="NE", eta=None, **kw):
    return TtsaConfig(schedule=StepSchedule(), rule=make_learning_rule(game, kind, eta=eta),
                      **kw)


def test_null_step_at_optimum(agg, agg_geom80):
    x_dag = agg.objective.x_dagger
    p_dag = agg_geom80.p_dagger
    for kind in ("NE", "BR"):
        cfg = make_cfg(agg.game, kind)
        x1, p1, accepted = ttsa_step((x_dag, p_dag, 0), cfg, agg_geom80)
        assert accepted
        assert np.linalg.norm(x1 - x_dag) <= 1e-12
        assert np.array_equal(p1, p_dag)


def test_step_containment(agg, agg_geom80, rng):
    cfg = make_cfg(agg.game, "PG", eta=0.1)
    for _ in range(20):
        x = rng.uniform(-2.0, 2.0, 5)
        x1, p1, _ = ttsa_step((x, agg_geom80.p_dagger, 0), cfg, agg_geom80)
        assert agg.game.space.contains(x1)


def test_step_input_validation(agg, agg_geom80):
    cfg = make_cfg(agg.game)
    with pytest.raises(ValueError):
        ttsa_step((np.full(5, 3.0), agg_geom80.p_dagger, 0), cfg, agg_geom80)
    with pytest.raises(ValueError):
        ttsa_step((np.zeros(5), np.full(5, 30.0), 0), cfg, agg_geom80)


def test_run_rejects_bad_level(agg, agg_geom80):
    cfg = make_cfg(agg.game, c=10.0)   # above c*
    with pytest.raises(ValueError):
        run_ttsa(np.zeros(5), agg_geom80.p_dagger, cfg, agg_geom80)


def test_run_record_layout(agg, agg_geom80, draw_admissible):
    x0, p0 = draw_admissible(agg.game, agg.objective, agg_geom80, 1)[0]
    cfg = make_cfg(agg.game, max_iter=1000, record_every=100)
    rec, summary = run_ttsa(x0, p0, cfg, agg_geom80)
    assert rec.steps == [0] + list(range(100, 1001, 100))
    assert rec.accepted_flags[0] is True or rec.accepted_flags[0] == True  # noqa: E712
    assert len(rec.step_accepts) == 1000
    assert summary["iterations"] == 1000
    # accepted_mass recomputed from the full indicator array
    sched = cfg.schedule
    mass = sum(sched.b(k) for k in range(1000) if rec.step_accepts[k])
    assert summary["accepted_mass"] == pytest.approx(mass, rel=1e-12)
    # xi_norm for the quadratic objective equals the tracking error
    assert np.allclose(rec.xi_norms, rec.tracking_errors, rtol=0.0, atol=1e-12)


def test_fast_tracking_dominates(agg, agg_geom80, draw_admissible):
    # the strategy tracks the moving equilibrium: late tracking error is
    # far below the error one decade earlier
    x0, p0 = draw_admissible(agg.game, agg.objective, agg_geom80, 1, seed=3)[0]
    cfg = make_cfg(agg.game, max_iter=10_000, record_every=100)
    rec, _ = run_ttsa(x0, p0, cfg, agg_geom80)
    idx_early = rec.steps.index(1000)
    assert rec.tracking_errors[-1] < rec.tracking_errors[idx_early]


def test_gate_freezes_incentive_when_level_tight(agg, agg_geom80):
    # with a working level barely above V(p0), most proposals are rejected
    # and the incentive stays inside the tight set
    geom = agg_geom80
    p0 = geom.p_dagger + 1e-3 * np.ones(5)
    from socialgrad import make_sublevel_geometry

    tight = make_sublevel_geometry(agg.game, agg.objective,
                                   c=4e-6, c_star=geom.c_star)
    cfg = make_cfg(agg.game, max_iter=200, record_every=10)
    x0 = agg.objective.x_dagger + 1.0
    rec, summary = run_ttsa(x0, p0, cfg, tight)
    assert summary["accepted_fraction_full"] < 1.0
    assert np.all(np.asarray(rec.values) <= 4e-6 + 1e-15)


def test_run_input_validation(agg, agg_geom80):
    cfg = make_cfg(agg.game)
    with pytest.raises(ValueError):
        run_ttsa(np.full(5, 2.5), agg_geom80.p_dagger, cfg, agg_geom80)
    with pytest.raises(ValueError):
        run_ttsa(np.zeros(5), np.full(5, 30.0), cfg, agg_geom80)


def test_run_is_deterministic(agg, agg_geom80, draw_admissible):
    x0, p0 = draw_admissible(agg.game, agg.objective, agg_geom80, 1)[0]
    cfg = make_cfg(agg.game, max_iter=500, record_every=50)
    rec1, _ = run_ttsa(x0, p0, cfg, agg_geom80)
    rec2, _ = run_ttsa(x0, p0, cfg, agg_geom80)
    assert np.array_equal(np.asarray(rec1.incentives), np.asarray(rec2.incentives))
    assert np.array_equal(np.asarray(rec1.strategies), np.asarray(rec2.strategies))
    assert rec1.tracking_errors == rec2.tracking_errors


def test_tracking_diagnostics(agg, agg_geom80, draw_admissible):
    x0, p0 = draw_admissible(agg.game, agg.objective, agg_geom80, 1)[0]
    cfg = make_cfg(agg.game, max_iter=20_000, record_every=100)
    rec, summary = run_ttsa(x0, p0, cfg, agg_geom80)
    diag = tracking_diagnostics(rec)
    assert diag.monotone_tail
    assert diag.accepted_mass == pytest.approx(summary["accepted_mass"])
    assert diag.tail_tracking_mean <= np.mean(rec.tracking_errors)
    assert diag.tail_samples >= 1


def test_config_to_dict_roundtrip(agg):
    cfg = make_cfg(agg.game, "PG", eta=0.1, max_iter=50, seed=11)
    d = cfg.to_dict()
    assert d["rule"]["kind"] == "PG"
    assert d["rule"]["eta"] == 0.1
    assert d["schedule"]["a_exp"] == 0.6
    assert d["max_iter"] == 50
    assert d["seed"] == 11


# ---------------------------------------------------------------------------
# the batch engine against a plain per-step loop


def reference_run(x, p, rule, schedule, geom, steps):
    """The gated two-timescale update, one run, written as a plain loop."""
    game, objective = geom.game, geom.objective
    lo, hi = game.space.lower, game.space.upper
    warm = None

    def respond(p):
        nonlocal warm
        res = solve_response(game, p, geom.solver_cfg, x0=warm)
        warm = res.x_star
        return res.x_star, res.interior

    xstar, _ = respond(p)
    for k in range(steps):
        if rule.kind == "NE":
            f = xstar
        elif rule.kind == "BR":
            q, coupling = game.br_structure
            f = np.clip(-(p + coupling @ x) / q, lo, hi)
        else:
            f = np.clip(x - rule.eta * (game.g0(x) + p), lo, hi)
        p_hat = p + schedule.b(k) * objective.grad_phi(x)
        x_hat, interior = respond(p_hat)
        x = x + schedule.a(k) * (f - x)
        if interior and objective.gap(x_hat) <= geom.c:
            p, xstar = p_hat, x_hat
    return x, p


@pytest.mark.parametrize("kind, eta", [("NE", None), ("BR", None), ("PG", 0.1)])
def test_batch_engine_matches_reference_aggregative(agg, agg_geom80, draw_admissible,
                                                    kind, eta):
    pairs = draw_admissible(agg.game, agg.objective, agg_geom80, 4, seed=5)
    X0 = np.array([x for x, _ in pairs])
    P0 = np.array([p for _, p in pairs])
    cfg = make_cfg(agg.game, kind, eta=eta, max_iter=400, record_every=400)
    outcomes = run_ttsa(X0, P0, cfg, agg_geom80)
    for (x0, p0), (rec, _) in zip(pairs, outcomes):
        x, p = reference_run(x0, p0, cfg.rule, cfg.schedule, agg_geom80, 400)
        assert np.max(np.abs(rec.strategies[-1] - x)) <= 1e-12
        assert np.max(np.abs(rec.incentives[-1] - p)) <= 1e-12


def test_batch_engine_matches_reference_oscillator_pg(osc, osc_geom95):
    # two runs with their own schedules in one batch, as in the sweep
    schedules = [StepSchedule(a_exp=0.6, b_exp=0.7), StepSchedule(a_exp=0.6, b_exp=0.9)]
    starts = [(np.array([0.0, -0.5]), np.array([-3.0, -3.0])),
              (np.array([0.3, 0.2]), np.array([-2.5, -2.8]))]
    cfg = make_cfg(osc.game, "PG", eta=0.15, max_iter=300, record_every=300)
    outcomes = run_ttsa(np.array([x for x, _ in starts]), np.array([p for _, p in starts]),
                        cfg, osc_geom95, schedules=schedules)
    for (x0, p0), schedule, (rec, _) in zip(starts, schedules, outcomes):
        x, p = reference_run(x0, p0, cfg.rule, schedule, osc_geom95, 300)
        assert np.max(np.abs(rec.strategies[-1] - x)) <= 1e-12
        assert np.max(np.abs(rec.incentives[-1] - p)) <= 1e-12


def _csv_bytes(record, path):
    record.write_csv(path)
    return path.read_bytes()


def test_invalid_start_fails_only_its_run(agg, agg_geom80, draw_admissible, tmp_path):
    pairs = draw_admissible(agg.game, agg.objective, agg_geom80, 4, seed=8)
    X0 = np.array([x for x, _ in pairs])
    P0 = np.array([p for _, p in pairs])
    X0[2] = 5.0                               # outside the strategy box
    cfg = make_cfg(agg.game, "BR", max_iter=300, record_every=50)
    outcomes = run_ttsa(X0, P0, cfg, agg_geom80)
    assert isinstance(outcomes[2], ValueError)
    assert str(outcomes[2]) == "x0 lies outside the strategy box"
    for i in (0, 1, 3):
        solo, _ = run_ttsa(X0[i], P0[i], cfg, agg_geom80)
        assert (_csv_bytes(outcomes[i][0], tmp_path / f"batch{i}.csv")
                == _csv_bytes(solo, tmp_path / f"solo{i}.csv"))


def test_solver_failure_mid_run_fails_only_its_run(osc, osc_geom95, monkeypatch,
                                                   tmp_path):
    import socialgrad.solvers as solvers

    starts = [(np.array([0.0, -0.5]), np.array([-3.0, -3.0])),
              (np.array([0.3, 0.2]), np.array([-2.5, -2.8]))]
    X0 = np.array([x for x, _ in starts])
    P0 = np.array([p for _, p in starts])
    cfg = make_cfg(osc.game, "PG", eta=0.15, max_iter=100, record_every=10)
    solo = [run_ttsa(x, p, cfg, osc_geom95)[0] for x, p in starts]
    # the incentive run 0 proposes at step 50, rebuilt from its solo record
    j = solo[0].steps.index(50)
    doomed = (solo[0].incentives[j]
              + cfg.schedule.b(50) * osc.objective.grad_phi(solo[0].strategies[j]))
    original = solvers._projected_newton

    def failing(game, P, *args, **kwargs):
        # the stacked solve fails whenever the doomed incentive is a row
        if any(np.array_equal(p, doomed) for p in P):
            raise solvers.SolverError("injected failure")
        return original(game, P, *args, **kwargs)

    monkeypatch.setattr(solvers, "_projected_newton", failing)
    outcomes = run_ttsa(X0, P0, cfg, osc_geom95)
    assert isinstance(outcomes[0], solvers.SolverError)
    record, _ = outcomes[1]
    assert (_csv_bytes(record, tmp_path / "batch.csv")
            == _csv_bytes(solo[1], tmp_path / "solo.csv"))


def test_run_ttsa_rejects_mismatched_batches(agg, agg_geom80):
    cfg = make_cfg(agg.game, max_iter=10)
    with pytest.raises(ValueError):
        run_ttsa(np.zeros((2, 5)), np.zeros((3, 5)), cfg, agg_geom80)
    with pytest.raises(ValueError):
        run_ttsa(np.zeros((2, 5)), np.zeros((2, 5)), cfg, agg_geom80,
                 schedules=[StepSchedule()])


def test_batch_solves_warm_start_per_row(osc, osc_geom95, monkeypatch):
    import socialgrad.solvers as solvers

    cold = []        # one entry per row solved: whether it started cold
    original = solvers._projected_newton

    def counting(game, P, cfg, X0=None):
        cold.extend([X0 is None] * len(P))
        return original(game, P, cfg, X0)

    monkeypatch.setattr(solvers, "_projected_newton", counting)
    cfg = make_cfg(osc.game, "PG", eta=0.15, max_iter=50, record_every=50)
    run_ttsa(np.array([[0.0, -0.5], [0.3, 0.2]]), np.array([[-3.0, -3.0], [-2.5, -2.8]]),
             cfg, osc_geom95)
    assert len(cold) == 2 + 2 * 50
    assert sum(cold) == 2          # only the two starts solve cold
