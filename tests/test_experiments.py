import dataclasses
import json
import multiprocessing
import os
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from socialgrad import (
    ExperimentConfig,
    FlowConfig,
    ResponseSolverConfig,
    StepSchedule,
    cli,
    in_sublevel_set,
    make_sublevel_geometry,
    resolve_config,
    resolve_instance,
    run_flow_batch,
    run_timescale_sweep,
    run_ttsa_batch,
    run_verify,
    sample_initial_conditions,
)
from socialgrad.experiments import _rule, _typed


# ---------------------------------------------------------------------------
# configuration


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="render")
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="flow", c_fraction=1.0)
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="flow", c_fraction=0.0)
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="flow", num_initial_conditions=0)
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="flow", jobs=0)
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="flow", preset="aggregative-7")
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="flow", objective_form="entropy")


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError) as info:
        ExperimentConfig.from_dict({"experiment": "flow", "horizon": 10})
    assert "horizon" in str(info.value)


def test_config_to_dict_roundtrip():
    cfg = ExperimentConfig(experiment="ttsa", seed=9, max_iter=500,
                           rule={"kind": "PG", "eta": 0.1})
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again == cfg


def test_resolve_config_precedence():
    # dataclass default < preset default < file < flags
    cfg = resolve_config("ttsa")
    assert cfg.preset == "aggregative-5"
    assert cfg.num_initial_conditions == 100
    assert cfg.c_fraction == 0.8

    cfg = resolve_config("ttsa", file_cfg={"c_fraction": 0.5, "seed": 4})
    assert cfg.c_fraction == 0.5 and cfg.seed == 4

    cfg = resolve_config("ttsa", file_cfg={"c_fraction": 0.5},
                         flag_overrides={"c_fraction": 0.25, "seed": 9})
    assert cfg.c_fraction == 0.25 and cfg.seed == 9
    # None-valued flags do not override
    cfg = resolve_config("ttsa", file_cfg={"seed": 4},
                         flag_overrides={"seed": None})
    assert cfg.seed == 4


def test_resolve_config_merges_nested_rule():
    cfg = resolve_config("sweep", file_cfg={"preset": "oscillator-2",
                                            "rule": {"eta": 0.05}})
    assert cfg.rule == {"kind": "PG", "eta": 0.05}
    assert cfg.x0 is not None and cfg.p0 is not None


def test_resolve_config_inline_game():
    cfg = resolve_config("verify", file_cfg={
        "game": {"kind": "oscillator", "theta": [4.2, 5.0]},
        "x_dagger": [0.5, 0.5],
    })
    assert cfg.preset is None
    spec, game, objective = resolve_instance(cfg)
    assert game.dim == 2
    assert np.array_equal(objective.x_dagger, [0.5, 0.5])

    bare = resolve_config("verify", file_cfg={
        "game": {"kind": "oscillator", "theta": [4.2, 5.0]},
    })
    with pytest.raises(ValueError):
        resolve_instance(bare)


CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))


def test_every_command_has_a_shipped_config():
    assert {path.stem.split("_")[0] for path in CONFIGS} == {"flow", "ttsa", "sweep", "verify"}


@pytest.mark.parametrize("path", CONFIGS, ids=lambda path: path.stem)
def test_shipped_config_resolves(path):
    # the filename's first word names the command; settings are typed as
    # the command types them, and nothing runs
    cfg = resolve_config(path.stem.split("_")[0], json.loads(path.read_text()))
    _, game, _ = resolve_instance(cfg)
    _typed(StepSchedule, cfg.schedule, "schedule")
    _typed(ResponseSolverConfig, cfg.solver, "solver")
    _typed(FlowConfig, cfg.flow, "flow")
    _rule(cfg, game)


def test_resolve_config_rejects_bad_inputs():
    with pytest.raises(ValueError):
        resolve_config("flow", file_cfg={"preset": "nope"})
    with pytest.raises(ValueError):
        resolve_config("flow", file_cfg={"weird_key": 1})


# ---------------------------------------------------------------------------
# initial-condition sampling


def test_sampling_is_seeded_per_run(agg, agg_geom80):
    cfg = ExperimentConfig(experiment="flow", preset="aggregative-5",
                           num_initial_conditions=5, c_fraction=0.8, seed=3)
    a = sample_initial_conditions(cfg, agg.game, agg.objective, agg_geom80)
    b = sample_initial_conditions(cfg, agg.game, agg.objective, agg_geom80)
    for (xa, pa), (xb, pb) in zip(a, b):
        assert np.array_equal(xa, xb) and np.array_equal(pa, pb)
    # runs use independent streams: prefix of a longer batch is unchanged
    cfg2 = ExperimentConfig(experiment="flow", preset="aggregative-5",
                            num_initial_conditions=2, c_fraction=0.8, seed=3)
    short = sample_initial_conditions(cfg2, agg.game, agg.objective, agg_geom80)
    assert np.array_equal(short[1][1], a[1][1])
    # a different seed moves every run
    cfg3 = ExperimentConfig(experiment="flow", preset="aggregative-5",
                            num_initial_conditions=5, c_fraction=0.8, seed=4)
    c = sample_initial_conditions(cfg3, agg.game, agg.objective, agg_geom80)
    assert not any(np.array_equal(pa, pc) for (_, pa), (_, pc) in zip(a, c))


def test_samples_are_admissible(agg, agg_geom80):
    cfg = ExperimentConfig(experiment="flow", preset="aggregative-5",
                           num_initial_conditions=8, c_fraction=0.8, seed=11)
    pairs = sample_initial_conditions(cfg, agg.game, agg.objective, agg_geom80)
    for x0, p0 in pairs:
        assert agg.game.space.contains(x0)
        assert in_sublevel_set(agg_geom80, p0)


def test_sampler_draws_at_a_tiny_level(agg):
    # the ball holds about 1e-9 of the box's volume, so rejection from the
    # box would need about 1e9 draws per sample; the ball draw needs one
    geom = make_sublevel_geometry(agg.game, agg.objective, c_frac=0.001)
    cfg = ExperimentConfig(experiment="flow", preset="aggregative-5",
                           num_initial_conditions=20, c_fraction=0.001)
    pairs = sample_initial_conditions(cfg, agg.game, agg.objective, geom)
    assert len(pairs) == 20
    for x0, p0 in pairs:
        assert agg.game.space.contains(x0)
        assert in_sublevel_set(geom, p0)


def test_sampler_gives_up_when_the_ball_leaves_the_box(agg, agg_geom80):
    # c far above c*: nearly all of the ball lies outside the box
    geom = dataclasses.replace(agg_geom80, c=1e4 * agg_geom80.c_star)
    cfg = ExperimentConfig(experiment="flow", preset="aggregative-5",
                           num_initial_conditions=1)
    with pytest.raises(ValueError) as info:
        sample_initial_conditions(cfg, agg.game, agg.objective, geom)
    assert "leaves the strategy box" in str(info.value)


def test_sampler_rejects_other_objective_forms(agg, agg_geom80):
    objective = dataclasses.replace(agg.objective, form="generic")
    cfg = ExperimentConfig(experiment="flow", preset="aggregative-5",
                           num_initial_conditions=1)
    with pytest.raises(ValueError) as info:
        sample_initial_conditions(cfg, agg.game, objective, agg_geom80)
    assert "quadratic" in str(info.value)


@pytest.mark.parametrize("n", [2, 6])
def test_sampler_is_uniform_in_the_sublevel_ball(n):
    # uniform in an n-ball of radius r means (||x - x_dagger|| / r)^n ~ U(0, 1)
    x_dagger = [0.3, -0.2, 0.1, 0.4, -0.5, 0.2][:n]
    cfg = resolve_config("flow", file_cfg={
        "game": {"kind": "aggregative", "n": n}, "x_dagger": x_dagger,
        "num_initial_conditions": 400, "c_fraction": 0.9, "seed": 12,
    })
    _, game, objective = resolve_instance(cfg)
    geom = make_sublevel_geometry(game, objective, c_frac=cfg.c_fraction)
    pairs = sample_initial_conditions(cfg, game, objective, geom)
    x_bar, _ = geom.oracle.response(np.array([p0 for _, p0 in pairs]))
    radii = np.linalg.norm(x_bar - objective.x_dagger, axis=1) / np.sqrt(2.0 * geom.c)
    assert radii.max() < 1.0
    assert scipy.stats.kstest(radii ** n, "uniform").pvalue > 0.01


# ---------------------------------------------------------------------------
# batch runners


def _flow_cfg(out, n=3, **extra):
    file_cfg = {
        "num_initial_conditions": n,
        "seed": 5,
        "output_dir": str(out),
        "flow": {"horizon_T": 0.5, "record_every": 20},
    }
    file_cfg.update(extra)
    return resolve_config("flow", file_cfg=file_cfg)


def test_flow_batch_outputs(tmp_path):
    cfg = _flow_cfg(tmp_path / "f")
    results, summary = run_flow_batch(cfg)
    assert summary["failed"] == 0 and summary["runs"] == 3
    for i in range(3):
        path = tmp_path / "f" / f"flow_run_{i:03d}.csv"
        header = path.read_text().splitlines()[0]
        assert header.startswith("t,p_1,")
        assert header.endswith("V,grad_norm,dist_to_pdagger")
    echo = json.loads((tmp_path / "f" / "config_resolved.json").read_text())
    assert echo["resolved"]["c_star"] == pytest.approx(1.125, abs=1e-9)
    assert len(echo["resolved"]["p_dagger"]) == 5
    # whole steps only: t_final sits within one dt of the horizon
    assert 0.45 < summary["horizon_T"] <= 0.5
    assert summary["final_dist_min"] <= summary["final_dist_median"] <= summary["final_dist_max"]
    assert {"max_initial_V_run", "min_initial_V_run"} <= set(summary)
    saved = json.loads((tmp_path / "f" / "summary.json").read_text())
    assert saved["runs"] == 3


def test_flow_batch_survives_run_failures(tmp_path):
    # a giant step leaves the admissible set on the first update; every
    # run fails but the batch still reports
    cfg = _flow_cfg(tmp_path / "g", flow={"horizon_T": 100.0, "dt": 50.0,
                                          "record_every": 1})
    results, summary = run_flow_batch(cfg)
    assert summary["runs"] == 3
    assert summary["failed"] == 3
    assert len(summary["failures"]) == 3
    assert all(not r["ok"] for r in results)
    assert "horizon_T" not in summary


def test_flow_batch_parallel_matches_serial(tmp_path):
    cfg1 = _flow_cfg(tmp_path / "s", n=2)
    _, s1 = run_flow_batch(cfg1)
    cfg2 = _flow_cfg(tmp_path / "p", n=2, jobs=2)
    _, s2 = run_flow_batch(cfg2)
    assert s1["failed"] == s2["failed"] == 0
    a = (tmp_path / "s" / "flow_run_001.csv").read_bytes()
    b = (tmp_path / "p" / "flow_run_001.csv").read_bytes()
    assert a == b


def test_ttsa_batch_outputs(tmp_path):
    cfg = resolve_config("ttsa", file_cfg={
        "num_initial_conditions": 3, "seed": 2, "max_iter": 500,
        "record_every": 100, "output_dir": str(tmp_path / "t"),
    })
    results, summary = run_ttsa_batch(cfg)
    assert summary["failed"] == 0 and summary["rule"] == "NE"
    for i in range(3):
        assert (tmp_path / "t" / f"ttsa_run_{i:03d}.csv").exists()
        assert (tmp_path / "t" / f"ttsa_run_{i:03d}.json").exists()
    env = (tmp_path / "t" / "envelope.csv").read_text()
    lines = env.splitlines()
    assert lines[0] == ("k,tracking_error_median,tracking_error_min,"
                        "tracking_error_max,incentive_error_median,"
                        "incentive_error_min,incentive_error_max")
    assert len(lines) == 1 + 6      # k = 0, 100, ..., 500
    assert env.endswith("\n")
    assert summary["final_tracking_median"] >= 0.0
    assert summary["min_accepted_fraction_last_10pct"] <= 1.0


# Projected Newton capped at 5 iterations solves the oscillator's set-up
# and sampled starts 0 and 1, but not the cold solve that admits start 2.
_FAILING_RUN_2 = {"preset": "oscillator-2", "x0": None, "p0": None,
                  "num_initial_conditions": 3, "solver": {"max_iter": 5},
                  "rule": {"kind": "PG", "eta": 0.15}}


def test_ttsa_batch_survives_run_failures(tmp_path):
    cfg = resolve_config("ttsa", file_cfg={
        "max_iter": 50, "record_every": 10, "output_dir": str(tmp_path / "u"),
        **_FAILING_RUN_2,
    })
    results, summary = run_ttsa_batch(cfg)
    assert summary["runs"] == 3 and summary["failed"] == 1
    failure, = summary["failures"]
    assert failure["run_index"] == 2 and failure["error"].startswith("SolverError")
    assert [r["run_index"] for r in results if r["ok"]] == [0, 1]
    assert "envelope_csv" in summary


def test_ttsa_requires_both_pins(tmp_path):
    cfg = resolve_config("ttsa", file_cfg={
        "num_initial_conditions": 1, "max_iter": 10,
        "output_dir": str(tmp_path / "v"),
        "x0": [0.0, 0.0, 0.0, 0.0, 0.0],
    })
    with pytest.raises(ValueError):
        run_ttsa_batch(cfg)


def test_experiment_field_is_checked(tmp_path):
    cfg = resolve_config("ttsa", file_cfg={"output_dir": str(tmp_path)})
    with pytest.raises(ValueError):
        run_flow_batch(cfg)
    with pytest.raises(ValueError):
        run_timescale_sweep(cfg)
    with pytest.raises(ValueError):
        run_verify(cfg)


def test_sweep_rejects_nonpositive_gamma(tmp_path):
    cfg = resolve_config("sweep", file_cfg={
        "gammas": [0.0, 0.2], "max_iter": 100,
        "output_dir": str(tmp_path / "w"),
    })
    with pytest.raises(ValueError):
        run_timescale_sweep(cfg)


def test_sweep_skips_out_of_range_gamma(tmp_path):
    cfg = resolve_config("sweep", file_cfg={
        "gammas": [0.45, 0.2], "max_iter": 200, "record_every": 50,
        "seed": 6, "output_dir": str(tmp_path / "x"),
    })
    with pytest.warns(UserWarning, match="outside"):
        rows, summary = run_timescale_sweep(cfg)
    assert summary["skipped_gammas"] == [0.45]
    assert [r["gamma"] for r in rows] == [0.2]
    text = (tmp_path / "x" / "sweep.csv").read_text()
    lines = text.splitlines()
    assert lines[0] == ("gamma,b_exp,final_tracking_error,"
                        "final_incentive_error,accepted_fraction")
    assert len(lines) == 2
    assert summary["failed"] == 0


# ---------------------------------------------------------------------------
# verification runner


def test_verify_passes_on_shipped_instance(tmp_path):
    cfg = resolve_config("verify", file_cfg={"output_dir": str(tmp_path / "ok")})
    report, passed = run_verify(cfg)
    assert passed is True
    names = [e["name"] for e in report]
    assert names == [
        "construction", "monotonicity-certificate", "response-round-trip",
        "response-lipschitz", "jacobian-sandwich", "descent-sign",
        "pg-contraction", "schedule-laws",
    ]
    assert all(e["passed"] for e in report)
    saved = json.loads((tmp_path / "ok" / "verify_report.json").read_text())
    assert saved["passed"] is True


def test_verify_skips_downstream_when_certificate_fails(tmp_path):
    # theta = (3, 5) has negative curvature at the box corner, so any
    # claimed modulus fails the grid audit
    cfg = resolve_config("verify", file_cfg={
        "game": {"kind": "oscillator", "theta": [3.0, 5.0], "m_override": 0.1},
        "x_dagger": [0.5, 0.5],
        "output_dir": str(tmp_path / "bad"),
    })
    report, passed = run_verify(cfg)
    assert passed is False
    by_name = {e["name"]: e for e in report}
    assert by_name["construction"]["passed"] is True
    assert by_name["monotonicity-certificate"]["passed"] is False
    skipped = [e for e in report if e["skipped"]]
    assert len(skipped) == 6
    assert all("monotonicity" in e["note"] for e in skipped)


def test_verify_reports_construction_failure(tmp_path):
    cfg = resolve_config("verify", file_cfg={
        "game": {"kind": "oscillator", "theta": [4.2, 5.0]},
        "output_dir": str(tmp_path / "noc"),
    })
    report, passed = run_verify(cfg)
    assert passed is False
    assert len(report) == 1
    assert report[0]["name"] == "construction"
    assert "x_dagger" in report[0]["note"]


# ---------------------------------------------------------------------------
# command line


def _write_cfg(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def test_cli_verify_ok(tmp_path, capsys):
    rc = cli.main(["verify", "--preset", "aggregative-5",
                   "--out", str(tmp_path / "v")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS" in out and "FAIL" not in out
    assert "schedule-laws" in out


def test_cli_verify_failing_instance(tmp_path, capsys):
    cfg = _write_cfg(tmp_path / "c.json", {
        "game": {"kind": "oscillator", "theta": [3.0, 5.0], "m_override": 0.1},
        "x_dagger": [0.5, 0.5],
        "output_dir": str(tmp_path / "vf"),
    })
    rc = cli.main(["verify", "--config", cfg])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL" in out and "SKIP" in out


def test_cli_unknown_preset_exits_2():
    with pytest.raises(SystemExit) as info:
        cli.main(["flow", "--preset", "nope"])
    assert info.value.code == 2


def test_cli_config_errors(tmp_path, capsys):
    assert cli.main(["flow", "--config", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["flow", "--config", str(bad)]) == 2
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    assert cli.main(["flow", "--config", str(arr)]) == 2
    unk = _write_cfg(tmp_path / "unk.json", {"horizonn": 3})
    assert cli.main(["flow", "--config", unk]) == 2
    capsys.readouterr()


def test_cli_flow_roundtrip(tmp_path, capsys):
    cfg = _write_cfg(tmp_path / "f.json", {
        "num_initial_conditions": 2,
        "flow": {"horizon_T": 0.3, "record_every": 10},
    })
    rc = cli.main(["flow", "--config", cfg, "--seed", "7",
                   "--out", str(tmp_path / "fo")])
    assert rc == 0
    assert (tmp_path / "fo" / "flow_run_001.csv").exists()
    echo = json.loads((tmp_path / "fo" / "config_resolved.json").read_text())
    assert echo["seed"] == 7     # flag beat the file default
    capsys.readouterr()


def test_cli_failing_runs_exit_1(tmp_path, capsys):
    cfg = _write_cfg(tmp_path / "t.json", {
        "max_iter": 20, "record_every": 5, "output_dir": str(tmp_path / "to"),
        **_FAILING_RUN_2,
    })
    assert cli.main(["ttsa", "--config", cfg]) == 1
    capsys.readouterr()


def test_cli_dispatch_validation_exit_2(tmp_path, capsys):
    cfg = _write_cfg(tmp_path / "s.json", {
        "gammas": [-1.0], "output_dir": str(tmp_path / "so"),
    })
    assert cli.main(["sweep", "--config", cfg]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# batches: a run's output does not depend on its batch or on jobs


@pytest.mark.parametrize("rule", [{"kind": "NE"}, {"kind": "BR"},
                                  {"kind": "PG", "eta": 0.1}])
def test_ttsa_run_bytes_independent_of_batch_and_jobs(tmp_path, rule):
    base = {"num_initial_conditions": 8, "seed": 4, "max_iter": 300,
            "record_every": 50, "rule": rule}
    outs = {}
    for tag, extra in (("serial", {}), ("jobs2", {"jobs": 2})):
        out = tmp_path / tag
        _, summary = run_ttsa_batch(resolve_config(
            "ttsa", file_cfg=dict(base, output_dir=str(out), **extra)))
        assert summary["failed"] == 0
        outs[tag] = out
    cfg = resolve_config("ttsa", file_cfg=base)
    _, game, objective = resolve_instance(cfg)
    geom = make_sublevel_geometry(game, objective, c_frac=cfg.c_fraction)
    pairs = sample_initial_conditions(cfg, game, objective, geom)
    for i in (0, 5, 7):
        x0, p0 = pairs[i]
        alone = tmp_path / f"alone{i}"
        run_ttsa_batch(resolve_config("ttsa", file_cfg=dict(
            base, num_initial_conditions=1, x0=x0.tolist(), p0=p0.tolist(),
            output_dir=str(alone))))
        solo = (alone / "ttsa_run_000.csv").read_bytes()
        for out in outs.values():
            assert (out / f"ttsa_run_{i:03d}.csv").read_bytes() == solo


def test_sweep_point_bytes_independent_of_batch_and_jobs(tmp_path):
    base = {"preset": "oscillator-2", "max_iter": 200, "record_every": 50}
    both, alone, jobs2 = tmp_path / "both", tmp_path / "alone", tmp_path / "jobs2"
    run_timescale_sweep(resolve_config("sweep", file_cfg=dict(
        base, gammas=[0.2, 0.3], output_dir=str(both))))
    run_timescale_sweep(resolve_config("sweep", file_cfg=dict(
        base, gammas=[0.3], output_dir=str(alone))))
    run_timescale_sweep(resolve_config("sweep", file_cfg=dict(
        base, gammas=[0.2, 0.3], jobs=2, output_dir=str(jobs2))))
    solo = (alone / "ttsa_run_000.csv").read_bytes()
    assert (both / "ttsa_run_001.csv").read_bytes() == solo
    assert (jobs2 / "ttsa_run_001.csv").read_bytes() == solo
    assert ((both / "sweep.csv").read_bytes() == (jobs2 / "sweep.csv").read_bytes())


def test_worker_count_is_bounded():
    from socialgrad.experiments import worker_count

    cpus = os.cpu_count() or 1
    assert worker_count(10_000, 10_000) == cpus
    assert worker_count(10_000, 3) == min(3, cpus)
    assert worker_count(1, 50) == 1
    assert worker_count(4, 0) == 1


def test_partial_inline_aggregative_spec_is_a_config_error(tmp_path, capsys):
    # the explicit instance gives q and a but no W
    game = {"kind": "aggregative", "q": [1.0, 1.5], "a": 0.3}
    cfg = _write_cfg(tmp_path / "p.json", {
        "game": game, "x_dagger": [0.1, 0.1], "output_dir": str(tmp_path / "po"),
    })
    assert cli.main(["ttsa", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "W" in err
    assert cli.main(["verify", "--config", cfg]) == 1
    capsys.readouterr()
    report = json.loads((tmp_path / "po" / "verify_report.json").read_text())
    assert [e["name"] for e in report["report"]] == ["construction"]
    assert report["report"][0]["passed"] is False
    assert "W" in report["report"][0]["note"]


def test_inline_spec_rejects_unknown_keys(tmp_path, capsys):
    cfg = _write_cfg(tmp_path / "u.json", {
        "game": {"kind": "aggregative", "sed": 3}, "x_dagger": [0.1] * 5,
        "output_dir": str(tmp_path / "uo"),
    })
    assert cli.main(["ttsa", "--config", cfg]) == 2
    assert "sed" in capsys.readouterr().err


def test_flow_batch_builds_the_game_once_per_chunk(tmp_path, monkeypatch):
    import socialgrad.experiments as experiments

    calls = []
    original = experiments.build_game_from_spec

    def counting(spec):
        calls.append(spec)
        return original(spec)

    monkeypatch.setattr(experiments, "build_game_from_spec", counting)
    _, summary = run_flow_batch(_flow_cfg(tmp_path / "f", n=4))
    assert summary["failed"] == 0
    assert len(calls) == 1


def _assert_flow_run_bytes_independent_of_batch_and_jobs(tmp_path, **extra_cfg):
    outs = []
    for tag, extra in (("serial", {}), ("jobs2", {"jobs": 2})):
        _, summary = run_flow_batch(_flow_cfg(tmp_path / tag, n=3, **extra, **extra_cfg))
        assert summary["failed"] == 0
        outs.append(tmp_path / tag)
    cfg = _flow_cfg(tmp_path / "unused", n=3, **extra_cfg)
    _, game, objective = resolve_instance(cfg)
    geom = make_sublevel_geometry(game, objective, c_frac=cfg.c_fraction)
    pairs = sample_initial_conditions(cfg, game, objective, geom)
    for i in (0, 2):
        x0, p0 = pairs[i]
        alone = tmp_path / f"alone{i}"
        run_flow_batch(_flow_cfg(alone, n=1, x0=x0.tolist(), p0=p0.tolist(), **extra_cfg))
        solo = (alone / "flow_run_000.csv").read_bytes()
        for out in outs:
            assert (out / f"flow_run_{i:03d}.csv").read_bytes() == solo


def test_flow_run_bytes_independent_of_batch_and_jobs(tmp_path):
    _assert_flow_run_bytes_independent_of_batch_and_jobs(tmp_path)


def test_oscillator_flow_run_bytes_independent_of_batch_and_jobs(tmp_path):
    # every stage solves all rows by one stacked projected Newton
    _assert_flow_run_bytes_independent_of_batch_and_jobs(
        tmp_path, preset="oscillator-2", flow={"horizon_T": 0.2, "record_every": 20})


@pytest.mark.parametrize("preset", ["aggregative-5", "oscillator-2"])
def test_run_spec_pickles_and_rebuilds_the_geometry(tmp_path, preset):
    import pickle

    from socialgrad import ResponseSolverConfig, load_preset
    from socialgrad.experiments import RunSpec

    bundle = load_preset(preset)
    geom = make_sublevel_geometry(bundle.game, bundle.objective, c_frac=0.9)
    spec = RunSpec(game=bundle.spec, x_dagger=bundle.objective.x_dagger,
                   solver=ResponseSolverConfig(), c=geom.c, c_star=geom.c_star,
                   out_dir=tmp_path)
    rebuilt = pickle.loads(pickle.dumps(spec)).geometry()
    assert rebuilt.c == geom.c
    assert rebuilt.c_star == geom.c_star
    assert np.array_equal(rebuilt.p_dagger, geom.p_dagger)


_QUICK = {"num_initial_conditions": 2, "max_iter": 50, "record_every": 10}


@pytest.mark.parametrize("command, bad", [
    ("ttsa", {"schedule": {"bogus": 1}}),
    ("ttsa", {"schedule": {"a0": "big"}}),
    ("ttsa", {"solver": {"bogus": 1}}),
    ("ttsa", {"max_iter": 0}),
    ("sweep", {"schedule": {"bogus": 1}}),
    ("sweep", {"solver": {"bogus": 1}}),
    ("sweep", {"record_every": 0}),
    ("verify", {"schedule": {"bogus": 1}}),
    ("verify", {"solver": {"bogus": 1}}),
    ("flow", {"flow": {"bogus": 1}}),
    ("flow", {"flow": {"dt": -1}}),
    ("sweep", {"gammas": ["a"]}),
    ("sweep", {"gammas": 0.1}),
    ("flow", {"num_initial_conditions": 2.0}),
    ("flow", {"seed": 1.5}),
    ("ttsa", {"rule": {"kind": "PG", "eta": "x"}}),
    ("ttsa", {"max_iter": 1000.0}),
    ("ttsa", {"record_every": 2.5}),
    ("flow", {"flow": {"record_every": 2.5}}),
    ("ttsa", {"jobs": 2.5}),
    ("verify", {"seed": True}),
    ("sweep", {"a_exp_base": "x"}),
    ("ttsa", {"rule": "NE"}),
    ("ttsa", {"rule": {"kind": "PG", "eta": 99}}),
    ("sweep", {"rule": {"kind": "PG", "eta": 99}}),
    ("flow", {"x0": [0.0] * 5}),
    ("ttsa", {"output_dir": 5}),
    ("flow", {"c_fraction": "x"}),
    ("verify", {"seed": -1}),
    ("flow", {"flow": {"stop_tol": "x"}}),
    ("flow", {"flow": {"dt": "x"}}),
    ("flow", {"flow": {"horizon_T": True}}),
    ("flow", {"flow": {"stop_tol": -1.0}}),
    ("ttsa", {"x_dagger": "ab"}),
    ("flow", {"x_dagger": [0.1, "a", 0.0, 0.0, 0.0]}),
    ("ttsa", {"solver": {"max_iter": 1.5}}),
    ("verify", {"solver": {"max_iter": 1.5}}),
    ("flow", {"solver": {"max_iter": 1.5}}),
    ("ttsa", {"solver": {"tol": "x"}}),
    ("ttsa", {"schedule": {"offset": True}}),
    ("flow", {"flow": {"dt": 1e-300, "horizon_T": 1e300}}),
])
def test_cli_invalid_settings_exit_2(tmp_path, capsys, command, bad):
    out = tmp_path / "o"
    cfg = _write_cfg(tmp_path / "c.json", {**_QUICK, "output_dir": str(out), **bad})
    assert cli.main([command, "--config", cfg]) == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    # the message names the bad key, or the bad key of a nested mapping
    (key, value), = bad.items()
    assert any(name in captured.err
               for name in [key, *(value if isinstance(value, dict) else [])])


@pytest.mark.parametrize("command", ["flow", "ttsa", "sweep", "verify"])
def test_cli_output_dir_that_cannot_be_made_exits_2(tmp_path, capsys, command):
    blocker = tmp_path / "file"
    blocker.write_text("")
    cfg = _write_cfg(tmp_path / "c.json", {**_QUICK, "output_dir": str(blocker / "o")})
    assert cli.main([command, "--config", cfg]) == 2
    assert sorted(tmp_path.iterdir()) == [tmp_path / "c.json", blocker]
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert captured.err.count("error:") == 1 and "output_dir" in captured.err


_OSC_PIN = {"preset": "oscillator-2", "x0": [0.0, -0.5], "p0": [-3.0, -3.0]}


@pytest.mark.parametrize("command, bad, key", [
    ("ttsa", dict(_OSC_PIN, p0=[50, 50]), "p0"),
    ("sweep", dict(_OSC_PIN, p0=[50, 50]), "p0"),
    ("ttsa", dict(_OSC_PIN, x0=[0.0]), "x0"),
    ("ttsa", dict(_OSC_PIN, x0=[5.0, 0.0]), "x0"),
    ("ttsa", dict(_OSC_PIN, x0=[0.0, "a"]), "x0"),
    ("flow", dict(_OSC_PIN, x0=[0, 0], p0=[50, 50]), "p0"),
    # a valid pin with the two runs of _QUICK: they would be identical
    ("ttsa", _OSC_PIN, "num_initial_conditions"),
    ("flow", _OSC_PIN, "num_initial_conditions"),
])
def test_cli_bad_pinned_start_exits_2(tmp_path, capsys, command, bad, key):
    out = tmp_path / "o"
    cfg = _write_cfg(tmp_path / "c.json", {**_QUICK, "output_dir": str(out), **bad})
    assert cli.main([command, "--config", cfg]) == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert key in captured.err


def test_cli_sweep_runs_a_pinned_start_once_whatever_the_run_count(tmp_path, capsys):
    cfg = _write_cfg(tmp_path / "c.json", {**_QUICK, **_OSC_PIN, "gammas": [0.3],
                                           "num_initial_conditions": 3,
                                           "output_dir": str(tmp_path / "o")})
    assert cli.main(["sweep", "--config", cfg]) == 0
    capsys.readouterr()
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["failed"] == 0 and len(summary["rows"]) == 1


def test_verify_names_a_bad_x_dagger(tmp_path, capsys):
    cfg = _write_cfg(tmp_path / "c.json", {"game": {"kind": "oscillator"}, "x_dagger": "ab",
                                           "output_dir": str(tmp_path / "o")})
    assert cli.main(["verify", "--config", cfg]) == 1
    capsys.readouterr()
    report = json.loads((tmp_path / "o" / "verify_report.json").read_text())
    construction, = report["report"]
    assert not construction["passed"] and "x_dagger" in construction["note"]


def test_cli_sweep_rejects_bad_schedule_when_every_gamma_is_skipped(tmp_path, capsys):
    cfg = _write_cfg(tmp_path / "s.json", {
        "preset": "oscillator-2", "gammas": [0.5], "schedule": {"bogus": 1},
        "output_dir": str(tmp_path / "so"),
    })
    assert cli.main(["sweep", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert "bogus" in captured.err and "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("command", ["flow", "verify"])
def test_cli_solver_failure_during_setup_exits_1(tmp_path, capsys, command):
    cfg = _write_cfg(tmp_path / "c.json", {
        "preset": "oscillator-2", "num_initial_conditions": 2,
        "solver": {"method": "projected-gradient-fixed-point", "max_iter": 1},
        "output_dir": str(tmp_path / "o"),
    })
    assert cli.main([command, "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    if command == "flow":
        assert captured.err.startswith("error: ")
    else:
        report = json.loads((tmp_path / "o" / "verify_report.json").read_text())
        assert [e["name"] for e in report["report"]] == ["construction"]
        assert report["report"][0]["passed"] is False
        assert report["report"][0]["note"].startswith("SolverError")


def test_cli_verify_inline_n8_game(tmp_path, capsys):
    # the certificate and c* are closed forms for a linear game; a 7^8 grid
    # would need more than 5.9 GB
    cfg = _write_cfg(tmp_path / "n8.json", {
        "game": {"kind": "aggregative", "n": 8}, "x_dagger": [0.1] * 8,
        "output_dir": str(tmp_path / "v8"),
    })
    assert cli.main(["verify", "--config", cfg]) == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "v8" / "verify_report.json").read_text())
    cert = [e for e in report["report"] if e["name"] == "monotonicity-certificate"][0]
    assert cert["passed"] and "eigensolve" in cert["note"]


_X_DAGGER_10 = [0.3, -0.2, 0.1, 0.4, -0.5, 0.2, 0.3, -0.2, 0.1, 0.4]


@pytest.mark.parametrize("command", ["verify", "flow", "ttsa"])
@pytest.mark.parametrize("x_dagger", [_X_DAGGER_10, [0.1] * 100], ids=["n10", "n100"])
def test_cli_inline_large_n_game(tmp_path, capsys, command, x_dagger):
    # set-up, sampling and the certificate must not grow exponentially in n
    cfg = _write_cfg(tmp_path / "c.json", {
        "game": {"kind": "aggregative", "n": len(x_dagger)}, "x_dagger": x_dagger,
        "num_initial_conditions": 4, "max_iter": 2000, "flow": {"horizon_T": 2.0},
        "output_dir": str(tmp_path / "o"),
    })
    assert cli.main([command, "--config", cfg]) == 0
    capsys.readouterr()


# ---------------------------------------------------------------------------
# worker processes: a dead or raising worker fails only its own chunk


_two_forked_workers = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork" or (os.cpu_count() or 1) < 2,
    reason="the injected fault reaches a worker only through a forked copy of "
           "this process, and two chunks need two CPUs to run in two workers")


def _faulty_chunks(monkeypatch, fault):
    """Make the worker whose chunk holds run 0 call ``fault``."""
    import socialgrad.experiments as experiments

    original = experiments._run_chunk

    def run_chunk(run, cfg, chunk):
        if chunk[0][0] == 0:
            fault()
        return original(run, cfg, chunk)

    monkeypatch.setattr(experiments, "_run_chunk", run_chunk)


def _run_faulty_flow(tmp_path, capsys):
    cfg = _write_cfg(tmp_path / "f.json", {
        "num_initial_conditions": 4, "seed": 5, "output_dir": str(tmp_path / "fo"),
        "flow": {"horizon_T": 0.2, "record_every": 20},
    })
    code = cli.main(["flow", "--config", cfg, "--jobs", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in captured.out + captured.err
    summary = json.loads((tmp_path / "fo" / "summary.json").read_text())
    assert summary["runs"] == 4 and summary["failed"] == 2
    assert [f["run_index"] for f in summary["failures"]] == [0, 1]
    for i in (2, 3):
        assert (tmp_path / "fo" / f"flow_run_{i:03d}.csv").exists()
    return summary["failures"]


@_two_forked_workers
def test_dead_worker_fails_only_its_chunk(tmp_path, capsys, monkeypatch):
    _faulty_chunks(monkeypatch, lambda: os._exit(3))
    for failure in _run_faulty_flow(tmp_path, capsys):
        assert failure["error"] == "worker process died, exit code 3"


@_two_forked_workers
def test_raising_worker_fails_only_its_chunk(tmp_path, capsys, monkeypatch):
    def fault():
        raise RuntimeError("injected worker fault")

    _faulty_chunks(monkeypatch, fault)
    for failure in _run_faulty_flow(tmp_path, capsys):
        assert failure["error"] == "RuntimeError: injected worker fault"
