import numpy as np
import pytest

from socialgrad import (
    BoxSpace,
    GameModel,
    certify_strong_monotonicity,
    symmetry_check,
)
from socialgrad.games import as_vector


def box(lo, hi, n):
    return BoxSpace(lower=np.full(n, float(lo)), upper=np.full(n, float(hi)))


def test_box_validation():
    with pytest.raises(ValueError):
        BoxSpace(lower=np.array([0.0, 0.0]), upper=np.array([1.0]))
    with pytest.raises(ValueError):
        BoxSpace(lower=np.array([1.0]), upper=np.array([0.0]))


def test_box_geometry():
    b = box(-2.0, 2.0, 5)
    assert b.dim == 5
    assert b.diameter == pytest.approx(4.0 * np.sqrt(5.0))
    assert np.array_equal(b.center, np.zeros(5))
    assert b.contains(np.full(5, 2.0))
    assert not b.contains(np.full(5, 2.0), margin=1e-9)
    assert not b.contains(np.full(5, 2.1))


def test_as_vector_dim_check():
    with pytest.raises(ValueError):
        as_vector([1.0, 2.0], dim=3, name="probe")
    with pytest.raises(ValueError):
        as_vector([[1.0, 2.0]], dim=2, name="probe")


def test_certificate_constant_jacobian(agg):
    # the Jacobian is constant, so the grid minimum equals the analytic
    # minimum eigenvalue no matter the density
    rep = certify_strong_monotonicity(agg.game, grid_density=3)
    assert rep.passed
    assert rep.grid_min_eig == pytest.approx(agg.game.analytic_min_eig, abs=1e-12)


def test_certificate_oscillator_corner(osc):
    rep = certify_strong_monotonicity(osc.game, grid_density=41)
    assert rep.passed
    # worst point of the symmetric-part spectrum sits at a box corner
    assert np.allclose(np.abs(rep.grid_worst_point), np.pi / 3.0, atol=1e-12)
    assert rep.grid_min_eig >= 0.5 * osc.game.monotonicity_m - 1e-12


def test_certificate_failure_is_reported(osc):
    import dataclasses

    # inflate the claimed modulus; the certificate must refuse it
    bogus = dataclasses.replace(osc.game, monotonicity_m=10.0)
    rep = certify_strong_monotonicity(bogus, grid_density=21)
    assert not rep.passed


@pytest.mark.parametrize("density", [2, 3])
def test_linear_certificate_equals_grid_scan(agg, density):
    import dataclasses

    exact = certify_strong_monotonicity(agg.game, grid_density=density)
    grid = certify_strong_monotonicity(
        dataclasses.replace(agg.game, linear_matrix=None), grid_density=density)
    assert (exact.method, grid.method) == ("eigensolve", "grid")
    assert exact.grid_min_eig == grid.grid_min_eig
    assert exact.operator_norm_estimate == grid.operator_norm_estimate
    assert exact.passed is grid.passed is True
    assert exact.lip_jac_estimate == 0.0 and grid.lip_jac_estimate == 0.0
    assert exact.grid_density == 1
    assert np.array_equal(exact.grid_worst_point, agg.game.space.lower)


@pytest.mark.parametrize("density", [41, 101])
def test_grid_lipschitz_estimate_matches_pairwise_loop(osc, density):
    # the pair-at-a-time reference the batched estimate must reproduce bit
    # for bit: same pairs, same norms, same maximum
    from socialgrad.games import _uniform_grid

    pts = _uniform_grid(osc.game.space, density)
    jacs = np.array([osc.game.jac_g0(x) for x in pts])
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(0)))
    lip = 0.0
    for _ in range(2000):
        i, j = rng.integers(0, pts.shape[0], size=2)
        gap = np.linalg.norm(pts[i] - pts[j])
        if i != j and gap > 0:
            lip = max(lip, np.linalg.norm(jacs[i] - jacs[j], 2) / gap)
    rep = certify_strong_monotonicity(osc.game, grid_density=density)
    assert rep.lip_jac_estimate == float(lip)


def test_linear_certificate_memory_is_polynomial_in_n():
    import tracemalloc

    from socialgrad.presets import build_game_from_spec, game_spec_from_dict

    game = build_game_from_spec(game_spec_from_dict({"kind": "aggregative", "n": 12}))
    tracemalloc.start()
    try:
        rep = certify_strong_monotonicity(game, grid_density=7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.passed
    assert peak < 1 << 20      # a 7^12-point grid would need terabytes


def test_symmetry_check(agg, osc):
    assert symmetry_check(osc.game, samples=64)
    assert not symmetry_check(agg.game, samples=64)


def test_stacked_jacobians_equal_per_point_calls(osc):
    # the certificate and the symmetry check evaluate the Jacobian on a
    # whole stack; it must equal the per-point list, and the stacked draw
    # must give the points of one draw per sample
    from socialgrad.games import _uniform_grid

    pts = _uniform_grid(osc.game.space, 101)
    assert np.array_equal(osc.game.jac_g0(pts), np.array([osc.game.jac_g0(x) for x in pts]))
    space = osc.game.space
    one = np.random.Generator(np.random.Philox(np.random.SeedSequence(0)))
    stacked = np.random.Generator(np.random.Philox(np.random.SeedSequence(0)))
    assert np.array_equal(stacked.uniform(space.lower, space.upper, size=(128, 2)),
                          np.array([one.uniform(space.lower, space.upper)
                                    for _ in range(128)]))


def test_symmetry_check_finds_one_asymmetric_point():
    # asymmetric only where x_1 > 0.99: a few of 128 samples hit it
    def jac(x):
        j = np.zeros(np.shape(x)[:-1] + (2, 2))
        j[..., 0, 1] = np.where(x[..., 0] > 0.99, 1.0, 0.0)
        return j

    game = GameModel(dim=2, space=box(-1.0, 1.0, 2), g0=lambda x: x, jac_g0=jac,
                     monotonicity_m=1.0, lip_L1=0.0)
    assert not symmetry_check(game, samples=128)
    assert symmetry_check(game, samples=1)


def test_game_model_rejects_bad_shapes():
    b = box(-1.0, 1.0, 2)
    with pytest.raises(ValueError):
        GameModel(dim=3, space=b, g0=lambda x: x, jac_g0=lambda x: np.eye(3),
                  monotonicity_m=1.0, lip_L1=0.0)
    with pytest.raises(ValueError):
        GameModel(dim=2, space=b, g0=lambda x: x, jac_g0=lambda x: np.eye(2),
                  monotonicity_m=-1.0, lip_L1=0.0)
