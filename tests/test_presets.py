import numpy as np
import pytest

from socialgrad import (
    AggregativeGameSpec,
    OscillatorGameSpec,
    build_aggregative,
    build_game_from_spec,
    build_oscillator,
    default_aggregative_spec,
    gershgorin_scan,
    load_preset,
)
from socialgrad.presets import (
    aggregative_agent_cost,
    game_spec_from_dict,
    gershgorin_row_bound,
    oscillator_agent_cost,
)

THETA = (4.2, 5.0)


# ---------------------------------------------------------------------------
# aggregative instance


def test_default_spec_structure(agg):
    spec = agg.spec
    assert spec.n == 5
    assert np.all((spec.q >= 1.0) & (spec.q <= 2.0))
    assert np.all(spec.W >= 0.0)
    assert np.all(np.diag(spec.W) == 0.0)
    assert np.allclose(spec.W.sum(axis=1), 1.0, atol=1e-12)
    sym_norm = np.linalg.norm(0.5 * (spec.W + spec.W.T), 2)
    assert 0.0 < spec.a < spec.q.min() / sym_norm


def test_default_spec_is_seeded():
    s1 = default_aggregative_spec()
    s2 = default_aggregative_spec()
    assert np.array_equal(s1.q, s2.q)
    assert np.array_equal(s1.W, s2.W)
    assert s1.a == s2.a
    s3 = default_aggregative_spec(seed=7)
    assert not np.array_equal(s1.q, s3.q)


def test_spec_validation_errors():
    base = default_aggregative_spec()
    W_bad = base.W.copy()
    W_bad[0, 1] = -0.1
    with pytest.raises(ValueError):
        AggregativeGameSpec(q=base.q, W=W_bad, a=base.a)
    W_diag = base.W.copy()
    W_diag[2, 2] = 0.5
    with pytest.raises(ValueError):
        AggregativeGameSpec(q=base.q, W=W_diag, a=base.a)
    with pytest.raises(ValueError) as info:
        AggregativeGameSpec(q=base.q, W=base.W, a=10.0)
    assert "lambda_min(Q)/||Sym(W)||_2" in str(info.value)
    with pytest.raises(ValueError):
        AggregativeGameSpec(q=-base.q, W=base.W, a=base.a)


def test_aggregative_model_constants(agg):
    game = agg.game
    M = game.linear_matrix
    assert np.array_equal(M, np.diag(agg.spec.q) + agg.spec.a * agg.spec.W)
    sym_min = float(np.linalg.eigvalsh(0.5 * (M + M.T))[0])
    assert game.analytic_min_eig == pytest.approx(sym_min, abs=1e-14)
    assert game.monotonicity_m == pytest.approx(2.0 * sym_min, abs=1e-14)
    assert game.operator_norm == pytest.approx(np.linalg.norm(M, 2), abs=1e-14)
    assert game.lip_L1 == 0.0
    assert game.potential is None   # asymmetric coupling, no potential
    q, coupling = game.br_structure
    assert np.array_equal(q, agg.spec.q)
    assert np.array_equal(coupling, agg.spec.a * agg.spec.W)


def test_aggregative_g0_is_linear(agg, rng):
    x = rng.uniform(-2.0, 2.0, 5)
    assert np.allclose(agg.game.g0(x), agg.game.linear_matrix @ x,
                       rtol=0.0, atol=1e-14)
    assert np.array_equal(agg.game.jac_g0(x), agg.game.linear_matrix)


def test_aggregative_cost_gradient(agg, rng):
    # own-coordinate derivative of each agent cost matches row i of g0
    spec = agg.spec
    x = rng.uniform(-1.5, 1.5, 5)
    h = 1e-6
    g = agg.game.g0(x)
    for i in range(5):
        e = np.zeros(5)
        e[i] = h
        fd = (aggregative_agent_cost(spec, i, x + e)
              - aggregative_agent_cost(spec, i, x - e)) / (2.0 * h)
        assert fd == pytest.approx(g[i], abs=1e-7)


# ---------------------------------------------------------------------------
# oscillator instance


def test_oscillator_at_origin(osc):
    game = osc.game
    assert np.array_equal(game.g0(np.zeros(2)), np.zeros(2))
    expected = np.array([[THETA[0] - 1.0, 1.0], [1.0, THETA[1] - 1.0]])
    assert np.allclose(game.jac_g0(np.zeros(2)), expected, atol=1e-15)


def test_oscillator_jacobian_symmetric(osc, rng):
    for _ in range(20):
        x = rng.uniform(-np.pi / 3.0, np.pi / 3.0, 2)
        J = osc.game.jac_g0(x)
        assert np.max(np.abs(J - J.T)) == 0.0


def test_oscillator_monotonicity_constant(osc):
    # worst-case row bound sits at the corner: theta_i cos(pi/3) - 2
    m_expected = 2.0 * (min(THETA[0], THETA[1]) * np.cos(np.pi / 3.0) - 2.0)
    assert osc.game.monotonicity_m == pytest.approx(m_expected, abs=1e-14)
    assert osc.game.monotonicity_m == pytest.approx(0.2, abs=1e-12)


def test_gershgorin_scan_hits_corner(osc):
    worst, argmin = gershgorin_scan(THETA, osc.game.space, grid_density=201)
    assert np.allclose(np.abs(argmin), np.pi / 3.0, atol=1e-12)
    assert 2.0 * worst == pytest.approx(osc.game.monotonicity_m, abs=1e-10)


def test_gershgorin_row_bound_vectorized():
    xs = np.array([[0.0, 0.0], [np.pi / 3.0, np.pi / 3.0]])
    vals = gershgorin_row_bound(THETA, xs)
    # at the origin: min(theta) - cos(0) - |cos(0)| = 5 - 2 with theta=4.2 first
    assert vals[0] == pytest.approx(4.2 - 2.0)
    assert vals[1] == pytest.approx(4.2 * 0.5 - 2.0)


def test_oscillator_operator_norm(osc):
    t1, t2 = THETA
    analytic = (t1 + t2) / 2.0 - 1.0 + np.sqrt(((t2 - t1) / 2.0) ** 2 + 1.0)
    assert osc.game.operator_norm == pytest.approx(analytic, abs=1e-12)
    # the maximum over the box is attained at the origin
    assert osc.game.operator_norm >= np.linalg.norm(
        osc.game.jac_g0(np.zeros(2)), 2) - 1e-12


def test_oscillator_jacobian_lipschitz_bound(osc, rng):
    game = osc.game
    worst = 0.0
    for _ in range(200):
        x = rng.uniform(-np.pi / 3.0, np.pi / 3.0, 2)
        y = rng.uniform(-np.pi / 3.0, np.pi / 3.0, 2)
        gap = np.linalg.norm(x - y)
        if gap < 1e-12:
            continue
        ratio = np.linalg.norm(game.jac_g0(x) - game.jac_g0(y), 2) / gap
        worst = max(worst, ratio)
    assert worst <= game.lip_L1 + 1e-12


def test_oscillator_potential_gradient(osc, rng):
    game = osc.game
    p = np.array([-3.0, -3.0])
    h = 1e-6
    for _ in range(10):
        x = rng.uniform(-0.9, 0.9, 2)
        g = game.g0(x) + p
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd = (game.potential(x + e, p) - game.potential(x - e, p)) / (2.0 * h)
            assert fd == pytest.approx(g[i], abs=1e-8)


def test_oscillator_cost_gradient(rng):
    x = rng.uniform(-1.0, 1.0, 2)
    h = 1e-6
    spec = OscillatorGameSpec()
    game = build_oscillator(spec)
    g = game.g0(x)
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        fd = (oscillator_agent_cost(THETA, i, x + e)
              - oscillator_agent_cost(THETA, i, x - e)) / (2.0 * h)
        assert fd == pytest.approx(g[i], abs=1e-8)


def test_oscillator_weak_curvature_needs_override():
    with pytest.raises(ValueError) as info:
        build_oscillator(OscillatorGameSpec(theta=(3.0, 5.0)))
    assert "m_override" in str(info.value)
    game = build_oscillator(OscillatorGameSpec(theta=(3.0, 5.0), m_override=0.1))
    assert game.monotonicity_m == 0.1


def test_oscillator_spec_validation():
    from socialgrad import BoxSpace

    with pytest.raises(ValueError):
        OscillatorGameSpec(theta=(4.2, -1.0))
    with pytest.raises(ValueError):
        OscillatorGameSpec(m_override=-0.5)
    with pytest.raises(ValueError):
        OscillatorGameSpec(box=BoxSpace(-np.ones(3), np.ones(3)))
    # boxes reaching beyond |x_i| = pi break the corner bound argument
    wide = BoxSpace(np.array([-4.0, -4.0]), np.array([4.0, 4.0]))
    with pytest.raises(ValueError):
        build_oscillator(OscillatorGameSpec(box=wide))


# ---------------------------------------------------------------------------
# dispatch and bundles


def test_build_from_spec_dispatch(agg, osc):
    g1 = build_game_from_spec(agg.spec)
    assert np.array_equal(g1.linear_matrix, agg.game.linear_matrix)
    g2 = build_game_from_spec(osc.spec)
    assert g2.monotonicity_m == osc.game.monotonicity_m
    with pytest.raises(TypeError):
        build_game_from_spec(object())


def test_game_spec_from_dict_aggregative(agg):
    spec = game_spec_from_dict({"kind": "aggregative", "seed": 101})
    assert np.array_equal(spec.q, agg.spec.q)
    inline = game_spec_from_dict({
        "kind": "aggregative",
        "q": [1.0, 1.5],
        "W": [[0.0, 1.0], [1.0, 0.0]],
        "a": 0.3,
    })
    assert inline.n == 2


def test_game_spec_from_dict_oscillator():
    spec = game_spec_from_dict({"kind": "oscillator", "theta": [4.5, 4.5]})
    assert spec.theta == (4.5, 4.5)
    with pytest.raises(ValueError):
        game_spec_from_dict({"kind": "bimatrix"})


def test_game_spec_from_dict_rejects_malformed_specs():
    explicit = {"kind": "aggregative", "q": [1.0, 1.5],
                "W": [[0.0, 1.0], [1.0, 0.0]], "a": 0.3}
    for bad, word in (
        ({"kind": "aggregative", "q": [1.0, 1.5], "a": 0.3}, "W"),
        ({"kind": "aggregative", "sed": 3}, "sed"),
        (dict(explicit, n=5), "n and seed"),
        ({"kind": "oscillator", "theta": 4.5}, "oscillator"),
        ({"kind": "oscillator", "box": {"lower": [0.0, 0.0]}}, "box"),
        (["aggregative"], "mapping"),
    ):
        with pytest.raises(ValueError, match=word):
            game_spec_from_dict(bad)


def test_load_preset_errors():
    with pytest.raises(ValueError):
        load_preset("aggregative-9")


def test_preset_bundles_complete(agg, osc):
    for bundle in (agg, osc):
        assert set(bundle.defaults) == {"flow", "ttsa", "sweep", "verify"}
        assert bundle.objective.form == "quadratic"
        assert bundle.game.space.contains(bundle.objective.x_dagger)


def test_game_callables_act_on_stacks(agg, osc):
    # row r of a stacked call equals the one-profile call on row r, and the
    # oscillator's array formulas give the bits of the scalar ones
    import math

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(2)))
    t1, t2 = osc.spec.theta
    for game in (agg.game, osc.game):
        X = rng.uniform(game.space.lower, game.space.upper, size=(33, game.dim))
        P = rng.normal(size=(33, game.dim))
        G, J = game.g0(X), game.jac_g0(X)
        assert G.shape == X.shape and J.shape == (33, game.dim, game.dim)
        for r in range(33):
            assert np.array_equal(J[r], game.jac_g0(X[r]))
            if game.linear_matrix is not None:
                # the stack's matvec differs from M @ x in the last bit at most
                assert np.allclose(G[r], game.g0(X[r]), rtol=1e-15, atol=1e-15)
                assert np.array_equal(G[r], game.g0(X[r:r + 1])[0])
                continue
            x, p = X[r], P[r]
            assert np.array_equal(G[r], game.g0(x))
            assert game.potential(X, P)[r] == game.potential(x, p)
            s = math.sin(x[0] - x[1])
            assert np.array_equal(G[r], [t1 * math.sin(x[0]) - s, t2 * math.sin(x[1]) + s])
            cd = math.cos(x[0] - x[1])
            assert np.array_equal(J[r], [[t1 * math.cos(x[0]) - cd, cd],
                                         [cd, t2 * math.cos(x[1]) - cd]])
            assert game.potential(x, p) == (-t1 * math.cos(x[0]) - t2 * math.cos(x[1])
                                            + math.cos(x[0] - x[1])
                                            + p[0] * x[0] + p[1] * x[1])
