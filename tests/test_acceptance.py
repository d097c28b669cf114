"""End-to-end acceptance gate.

One test per shipped guarantee, each asserting its stated tolerance on the
shipped instances and printing a one-line measurement summary. The batch
tests exercise the same entry points as the command line.
"""

import json
import math
import time

import numpy as np
import pytest
import scipy.linalg

from socialgrad import (
    FlowConfig,
    StepSchedule,
    TtsaConfig,
    br_flow_rate,
    certify_strong_monotonicity,
    cli,
    gershgorin_scan,
    in_sublevel_set,
    integrate_social_gradient_flow,
    learning_rule_pg,
    lyapunov_derivative,
    make_learning_rule,
    resolve_config,
    response_jacobian_fd,
    run_flow_batch,
    run_timescale_sweep,
    run_ttsa,
    run_ttsa_batch,
    solve_response,
)


def test_criterion_01_flow_batch_converges(tmp_path, agg_geom99):
    cfg = resolve_config("flow", file_cfg={"output_dir": str(tmp_path / "c1")})
    assert cfg.num_initial_conditions == 100 and cfg.c_fraction == 0.99
    t0 = time.perf_counter()
    results, summary = run_flow_batch(cfg)
    wall = time.perf_counter() - t0
    assert summary["runs"] == 100 and summary["failed"] == 0
    assert wall < 60.0

    worst_final = 0.0
    for i in range(100):
        data = np.genfromtxt(tmp_path / "c1" / f"flow_run_{i:03d}.csv",
                             delimiter=",", names=True)
        assert np.all(np.diff(data["V"]) <= 1e-9)
        ps = np.column_stack([data[f"p_{j + 1}"] for j in range(5)])
        for row in ps:
            assert in_sublevel_set(agg_geom99, row)
        worst_final = max(worst_final, float(data["dist_to_pdagger"][-1]))
    assert worst_final <= 1e-4
    print(f"criterion 1: 100/100 runs, horizon T={summary['horizon_T']:.6g}, "
          f"V nonincreasing within 1e-9 and every sample admissible, worst "
          f"final ||p(T)-p_dagger|| = {worst_final:.3e} <= 1e-4, "
          f"wall {wall:.1f}s < 60s")


def test_criterion_02_flow_matches_matrix_exponential(agg, agg_geom80):
    geom = agg_geom80
    p0 = geom.p_dagger + 0.3 * np.ones(5)
    assert in_sublevel_set(geom, p0)
    cfg = FlowConfig(method="rk4", dt=1e-3, horizon_T=10.0,
                     record_every=100, stop_tol=0.0)
    record, summary = integrate_social_gradient_flow(geom, p0, cfg)
    # quadratic objective + interior linear response give the closed form
    # p(t) = p_dagger + expm(-M^{-1} t)(p0 - p_dagger)
    A = -np.linalg.inv(agg.game.linear_matrix)
    worst = 0.0
    for t, p in zip(record.column("t"), record.column("p")):
        p_true = geom.p_dagger + scipy.linalg.expm(A * t) @ (p0 - geom.p_dagger)
        worst = max(worst, float(np.linalg.norm(p - p_true)))
    assert worst <= 1e-6
    print(f"criterion 2: max |rk4 - matrix exponential| = {worst:.3e} <= 1e-6 "
          f"over T=10 at dt=1e-3 ({len(record)} samples)")


def test_criterion_03_descent_direction(agg, osc, agg_geom99, osc_geom95,
                                        draw_admissible):
    lines = []
    for bundle, geom in ((agg, agg_geom99), (osc, osc_geom95)):
        pairs = draw_admissible(bundle.game, bundle.objective, geom,
                                count=210, seed=31)
        ps = [p for _, p in pairs
              if np.linalg.norm(p - geom.p_dagger) > 1e-3][:200]
        assert len(ps) == 200
        worst = max(lyapunov_derivative(bundle.game, bundle.objective, p)
                    for p in ps)
        assert worst < -1e-12
        at_target = abs(lyapunov_derivative(bundle.game, bundle.objective,
                                            geom.p_dagger))
        assert at_target <= 1e-12
        lines.append(f"{bundle.name}: worst of 200 = {worst:.3e} < -1e-12, "
                     f"|at p_dagger| = {at_target:.1e}")
    print("criterion 3: " + "; ".join(lines))


def test_criterion_04_sensitivity_suite(agg, osc, agg_geom99, osc_geom95,
                                        draw_admissible):
    lines = []
    for bundle, geom in ((agg, agg_geom99), (osc, osc_geom95)):
        game = bundle.game
        pairs = draw_admissible(bundle.game, bundle.objective, geom,
                                count=200, seed=41)
        ps = [p for _, p in pairs]
        m, L = game.monotonicity_m, game.operator_norm
        worst_lip = 0.0
        worst_sym = -np.inf
        sig_min, sig_max = np.inf, -np.inf
        worst_diff = 0.0
        for i in range(100):
            p, q = ps[2 * i], ps[2 * i + 1]
            xp = solve_response(game, p).x_star
            xq = solve_response(game, q).x_star
            gap = float(np.linalg.norm(p - q))
            worst_lip = max(worst_lip, float(np.linalg.norm(xp - xq)) / gap)
            Jp = response_jacobian_fd(game, p)
            Jq = response_jacobian_fd(game, q)
            for J in (Jp, Jq):
                worst_sym = max(worst_sym, float(
                    np.linalg.eigvalsh(0.5 * (J + J.T))[-1]))
                s = np.linalg.svd(J, compute_uv=False)
                sig_min = min(sig_min, float(s[-1]))
                sig_max = max(sig_max, float(s[0]))
            diff = float(np.linalg.norm(Jp - Jq, 2))
            worst_diff = max(worst_diff,
                             diff if game.lip_L1 == 0.0 else diff / gap)
        assert worst_lip <= 2.0 / m + 1e-6
        assert worst_sym < 0.0
        assert sig_min >= 1.0 / L - 1e-4
        assert sig_max <= 2.0 / m + 1e-4
        if game.lip_L1 == 0.0:
            assert worst_diff <= 1e-8
            diff_note = f"max |D-D'| = {worst_diff:.1e} <= 1e-8"
        else:
            bound = 8.0 * game.lip_L1 / m ** 3 + 1e-4
            assert worst_diff <= bound
            diff_note = f"max |D-D'|/|p-q| = {worst_diff:.3g} <= {bound:.3g}"
        lines.append(
            f"{bundle.name}: lip {worst_lip:.4f} <= {2.0 / m + 1e-6:.4f}, "
            f"max sym eig {worst_sym:.2e} < 0, "
            f"svals [{sig_min:.4f}, {sig_max:.4f}] within "
            f"[{1.0 / L - 1e-4:.4f}, {2.0 / m + 1e-4:.4f}], {diff_note}")
    print("criterion 4 (100 pairs per instance): " + "; ".join(lines))


def test_criterion_05_two_rule_batches(tmp_path):
    t0 = time.perf_counter()
    outs = {}
    for kind in ("NE", "BR"):
        out = tmp_path / f"c5_{kind.lower()}"
        cfg = resolve_config("ttsa", file_cfg={"rule": {"kind": kind},
                                               "output_dir": str(out)})
        assert cfg.num_initial_conditions == 100
        assert cfg.c_fraction == 0.8 and cfg.max_iter == 100_000
        assert cfg.schedule == {}      # default step laws
        results, summary = run_ttsa_batch(cfg)
        assert summary["failed"] == 0
        outs[kind] = out
    wall = time.perf_counter() - t0
    assert wall < 600.0

    lines = []
    for kind, out in outs.items():
        env = np.genfromtxt(out / "envelope.csv", delimiter=",", names=True)
        k = env["k"]
        i3 = int(np.flatnonzero(k == 1_000)[0])
        i5 = int(np.flatnonzero(k == 100_000)[0])
        ratios = []
        for col in ("tracking_error_median", "incentive_error_median"):
            ratio = env[col][i5] / env[col][i3]
            assert ratio < 0.01
            ratios.append(ratio)
        # per-decade maxima of the envelope must keep falling through the
        # final decade
        for col in ("tracking_error_max", "incentive_error_max"):
            decade_max = [float(np.max(env[col][(k > lo) & (k <= hi)]))
                          for lo, hi in ((1e2, 1e3), (1e3, 1e4), (1e4, 1e5))]
            assert decade_max[0] > decade_max[1] > decade_max[2]
        lines.append(f"{kind}: median ratios k=1e5/k=1e3 = "
                     f"{ratios[0]:.2e}/{ratios[1]:.2e} < 1e-2, "
                     "decade maxima decreasing")
    print(f"criterion 5 (100 runs per rule): " + "; ".join(lines)
          + f"; wall {wall:.0f}s < 600s")


def test_criterion_06_oscillator_pg_run(osc, osc_geom95):
    rule = make_learning_rule(osc.game, "PG", eta=0.15)
    cfg = TtsaConfig(schedule=StepSchedule(), rule=rule,
                     max_iter=100_000, record_every=100)
    record, summary = run_ttsa(np.array([0.0, -0.5]), np.array([-3.0, -3.0]),
                               cfg, osc_geom95)
    # the gate never admits an inadmissible incentive; audit the samples
    # against the membership oracle anyway
    for p in record.column("p"):
        assert in_sublevel_set(osc_geom95, p)
    tail_fraction = record.acceptance_fraction(10_000)
    assert tail_fraction == 1.0
    final = summary["final_incentive_error"]
    assert final <= 1e-2
    print(f"criterion 6: all {len(record)} sampled iterates "
          f"admissible, acceptance over final 90% = {tail_fraction:.4f}, "
          f"final ||p - p_dagger|| = {final:.3e} <= 1e-2")


def test_criterion_07_timescale_sweep(tmp_path):
    cfg = resolve_config("sweep", file_cfg={"preset": "oscillator-2",
                                            "output_dir": str(tmp_path / "c7")})
    assert cfg.gammas == [0.1, 0.2, 0.3, 0.4] and cfg.max_iter == 100_000
    rows, summary = run_timescale_sweep(cfg)
    assert summary["failed"] == 0 and not summary["skipped_gammas"]
    finals = [r["final_incentive_error"] for r in rows]
    best = int(np.argmin(finals))
    assert 0 < best < len(finals) - 1          # interior minimizer
    diffs = np.diff(finals)
    assert np.any(diffs < 0) and np.any(diffs > 0)     # non-monotone
    assert finals[0] > finals[best] and finals[-1] > finals[best]
    pairs = ", ".join(f"{r['gamma']:.1f}:{f:.2e}" for r, f in zip(rows, finals))
    print(f"criterion 7: final incentive error {pairs}; interior best at "
          f"gamma={rows[best]['gamma']:.1f}, endpoints strictly worse")


def test_criterion_08_contraction_certificates(agg, osc, agg_geom99,
                                               osc_geom95, draw_admissible,
                                               rng):
    lines = []
    for bundle, geom in ((agg, agg_geom99), (osc, osc_geom95)):
        game = bundle.game
        m, L = game.monotonicity_m, game.operator_norm
        eta = m / (2.0 * L ** 2)
        rho = math.sqrt(1.0 - eta * m + eta ** 2 * L ** 2)
        pairs = draw_admissible(bundle.game, bundle.objective, geom,
                                count=100, seed=81)
        worst = 0.0
        for x0, p in pairs:
            xs = solve_response(game, p).x_star
            d0 = float(np.linalg.norm(x0 - xs))
            if d0 < 1e-12:
                continue
            d1 = float(np.linalg.norm(learning_rule_pg(x0, p, game, eta) - xs))
            worst = max(worst, d1 / d0)
        assert worst <= rho + 1e-8
        lines.append(f"{bundle.name}: PG ratio {worst:.6f} <= rho {rho:.6f}")

    # continuous best-response error flow on the linear instance decays at
    # least at the logarithmic-norm rate
    q = agg.spec.q
    A = agg.game.linear_matrix / q[:, None]
    mu2 = br_flow_rate(agg.game)
    worst_excess = 0.0
    e0s = rng.standard_normal((20, 5))
    for t in np.linspace(0.0, 5.0, 26):
        E = scipy.linalg.expm(-A * t)
        bound = math.exp(-mu2 * t)
        for e0 in e0s:
            ratio = float(np.linalg.norm(E @ e0) / np.linalg.norm(e0))
            worst_excess = max(worst_excess, ratio / bound)
    assert worst_excess <= 1.05
    lines.append(f"BR flow decay within {worst_excess:.4f} of exp(-mu2 t), "
                 f"mu2 = {mu2:.4f}")
    print("criterion 8: " + "; ".join(lines))


def test_criterion_09_certifier_cross_checks(agg, osc):
    worst, argmin = gershgorin_scan(osc.spec.theta, osc.game.space,
                                    grid_density=401)
    assert np.allclose(np.abs(argmin), np.pi / 3.0, atol=1e-12)
    assert abs(2.0 * worst - osc.game.monotonicity_m) <= 1e-10
    assert osc.game.monotonicity_m == pytest.approx(0.2, abs=1e-12)

    M = agg.game.linear_matrix
    lam = float(np.linalg.eigvalsh(0.5 * (M + M.T))[0])
    assert abs(agg.game.analytic_min_eig - lam) <= 1e-10
    cert = certify_strong_monotonicity(agg.game, grid_density=3)
    assert cert.passed and abs(cert.grid_min_eig - lam) <= 1e-10
    print(f"criterion 9: certified m = {osc.game.monotonicity_m:.17g} matches "
          f"grid scan at corner {np.round(argmin, 6).tolist()} within 1e-10; "
          f"aggregative lambda_min analytic vs eigensolve "
          f"diff = {abs(agg.game.analytic_min_eig - lam):.1e} <= 1e-10")


def test_criterion_10_rerun_is_byte_identical(tmp_path, capsys):
    payload = {"num_initial_conditions": 5, "max_iter": 5000,
               "record_every": 100, "seed": 12}
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"c10_{tag}"
        cfg_path = tmp_path / f"c10_{tag}.json"
        cfg_path.write_text(json.dumps(dict(payload, output_dir=str(out))))
        assert cli.main(["ttsa", "--config", str(cfg_path)]) == 0
        outs.append(out)
    capsys.readouterr()
    names = [f"ttsa_run_{i:03d}.csv" for i in range(5)] + ["envelope.csv"]
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    print(f"criterion 10: reran the iteration experiment with an identical "
          f"configuration; {len(names)} CSV files byte-identical")
