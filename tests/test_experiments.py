import json

import numpy as np
import pytest

from socialgrad import (
    ExperimentConfig,
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
from socialgrad import cli


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


def test_sampler_gives_up_on_tiny_level(agg):
    from socialgrad import make_sublevel_geometry

    geom = make_sublevel_geometry(agg.game, agg.objective, c_frac=0.001)
    cfg = ExperimentConfig(experiment="flow", preset="aggregative-5",
                           num_initial_conditions=1, c_fraction=0.001)
    with pytest.raises(ValueError) as info:
        sample_initial_conditions(cfg, agg.game, agg.objective, geom)
    assert "c_fraction" in str(info.value)


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


def test_ttsa_batch_survives_run_failures(tmp_path):
    cfg = resolve_config("ttsa", file_cfg={
        "num_initial_conditions": 2, "max_iter": 50, "record_every": 10,
        "output_dir": str(tmp_path / "u"),
        "x0": [5.0, 5.0, 5.0, 5.0, 5.0],    # outside the strategy box
        "p0": [0.0, 0.0, 0.0, 0.0, 0.0],
    })
    results, summary = run_ttsa_batch(cfg)
    assert summary["failed"] == 2
    assert "envelope_csv" not in summary
    assert all("error" in f for f in summary["failures"])


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
        "num_initial_conditions": 1, "max_iter": 20, "record_every": 5,
        "x0": [5.0, 5.0, 5.0, 5.0, 5.0],
        "p0": [0.0, 0.0, 0.0, 0.0, 0.0],
        "output_dir": str(tmp_path / "to"),
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
    import os

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


def test_flow_run_bytes_independent_of_batch_and_jobs(tmp_path):
    outs = []
    for tag, extra in (("serial", {}), ("jobs2", {"jobs": 2})):
        _, summary = run_flow_batch(_flow_cfg(tmp_path / tag, n=3, **extra))
        assert summary["failed"] == 0
        outs.append(tmp_path / tag)
    cfg = _flow_cfg(tmp_path / "unused", n=3)
    _, game, objective = resolve_instance(cfg)
    geom = make_sublevel_geometry(game, objective, c_frac=cfg.c_fraction)
    pairs = sample_initial_conditions(cfg, game, objective, geom)
    for i in (0, 2):
        x0, p0 = pairs[i]
        alone = tmp_path / f"alone{i}"
        run_flow_batch(_flow_cfg(alone, n=1, x0=x0.tolist(), p0=p0.tolist()))
        solo = (alone / "flow_run_000.csv").read_bytes()
        for out in outs:
            assert (out / f"flow_run_{i:03d}.csv").read_bytes() == solo


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
])
def test_cli_invalid_settings_exit_2(tmp_path, capsys, command, bad):
    cfg = _write_cfg(tmp_path / "c.json", dict(_QUICK, output_dir=str(tmp_path / "o"), **bad))
    assert cli.main([command, "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
