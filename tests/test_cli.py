"""Command-line interface tests: parsing, precedence, outputs, exit codes."""
import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

import lowreg_nlse
from lowreg_nlse import harness, selftest
from lowreg_nlse.cli import _finish, main, parse_args
from lowreg_nlse.harness import CSV_COLUMNS, Equation, SweepRecord, read_records_csv
from lowreg_nlse.spectral import field_from_text, field_to_text


def _simulate_args(tmp_path, **overrides):
    args = {
        "equation": "quad-square",
        "scheme": "li1",
        "eps": "0.5",
        "tau": "0.1",
        "t-final": "0.5",
        "theta": "2",
        "modes": "16",
        "out": str(tmp_path / "out.csv"),
    }
    args.update(overrides)
    argv = ["simulate"]
    for key, value in args.items():
        if value is not None:
            argv += [f"--{key}", value]
    return argv


# ---------------------------------------------------------------------------
# parsing and validation
# ---------------------------------------------------------------------------

def test_eps_out_of_range_names_the_flag(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        parse_args(_simulate_args(tmp_path, eps="1.5"))
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "--eps" in err and "(0, 1]" in err


def test_missing_list_flag_is_named(capsys):
    with pytest.raises(SystemExit) as info:
        parse_args(
            ["sweep-tau", "--equation", "cubic", "--scheme", "nrli1",
             "--eps", "0.5", "--T", "0.5", "--out", "x.csv"]
        )
    assert info.value.code == 2
    assert "--tau-list" in capsys.readouterr().err


def test_unknown_flag_rejected(capsys):
    with pytest.raises(SystemExit) as info:
        parse_args(["simulate", "--frobnicate", "3"])
    assert info.value.code == 2


def test_unparsable_list_rejected(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        parse_args(
            ["sweep-tau", "--equation", "cubic", "--scheme", "nrli1",
             "--eps", "0.5", "--T", "0.5", "--out", "x.csv",
             "--tau-list", "0.1,banana"]
        )
    assert info.value.code == 2
    assert "--tau-list" in capsys.readouterr().err


def test_spec_style_sweep_invocation_parses():
    config = parse_args(
        ["sweep-tau", "--equation", "cubic", "--scheme", "nrsli2",
         "--eps", "0.25", "--tau-list", "0.1,0.05,0.025,0.0125",
         "--theta", "3", "--seed", "7", "--modes", "128", "--T", "0.5",
         "--out", "run.csv"]
    )
    assert config.tau_list == [0.1, 0.05, 0.025, 0.0125]
    assert config.seed == 7 and config.theta == 3.0


def test_config_file_fills_defaults_and_flags_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tau": 0.1, "theta": 4.0, "seed": 3}))
    config = parse_args(
        _simulate_args(tmp_path, tau="0.05", theta=None) + ["--config", str(cfg)]
    )
    assert config.tau == 0.05  # explicit flag wins
    assert config.theta == 4.0  # config fills the gap
    assert config.seed == 3


def test_config_file_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tau": 0.1, "frobnicate": 1}))
    with pytest.raises(SystemExit) as info:
        parse_args(_simulate_args(tmp_path) + ["--config", str(cfg)])
    assert info.value.code == 2
    assert "frobnicate" in capsys.readouterr().err


def test_config_file_list_values(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tau_list": [0.1, 0.05, 0.025, 0.0125]}))
    config = parse_args(
        ["sweep-tau", "--equation", "cubic", "--scheme", "nrli1",
         "--eps", "0.5", "--T", "0.5", "--out", "x.csv", "--config", str(cfg)]
    )
    assert config.tau_list == [0.1, 0.05, 0.025, 0.0125]


@pytest.mark.parametrize("argv, cfg, message", [
    (["simulate"], {"tau": "abc"}, "argument --tau: invalid float value: 'abc'"),
    (["simulate"], {"seed": 3.7}, "argument --seed: invalid int value: '3.7'"),
    (["simulate"], {"jobs": 3}, "unknown key 'jobs' for simulate"),
    (["sweep-eps"], {"t_final": 5}, "unknown key 't_final' for sweep-eps"),
    (["sweep-tau"], {"tau-list": [0.1, 0.05, 0.025, 0.0125]}, "unknown key 'tau-list'"),
    (["simulate"], {"out": None}, "key 'out' is null"),
    (["simulate"], None, "--config: cannot read"),
    (["simulate"], "{'tau': 0.1}", "is not valid JSON"),
    (["simulate"], [0.1, 0.05], "must hold a JSON object"),
], ids=["float", "int", "other-subcommand", "sweep-key", "flag-spelling", "null", "missing-file",
        "invalid-json", "json-array"])
def test_config_values_are_usage_errors(tmp_path, capsys, argv, cfg, message):
    # cfg is written as JSON, a str as the file's raw text; None leaves no file
    path = tmp_path / "cfg.json"
    if cfg is not None:
        path.write_text(cfg if isinstance(cfg, str) else json.dumps(cfg))
    with pytest.raises(SystemExit) as info:
        parse_args(argv + ["--config", str(path)])
    assert info.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, message", [
    ("--fp-tol", "0", "fp_tol must be positive"),
    ("--fp-max-iter", "0", "fp_max_iter must be at least 1"),
    ("--error-norm-r", "-1", "error_norm_r must be nonnegative"),
    ("--scheme", "os18", "scheme 'os18' not available for quad-square"),
    ("--modes", "5", "--modes: n_modes must be an even integer >= 4"),
    ("--fp-tol", "nan", "--fp-tol: fp_tol must be positive"),
    ("--theta", "nan", "--theta: theta must be nonnegative"),
    ("--error-norm-r", "nan", "--error-norm-r: error_norm_r must be nonnegative"),
    ("--error-norm-r", "inf", "--error-norm-r: error_norm_r must be nonnegative and finite"),
    # finite, but 9^400 and (9^200)^2 overflow at N = 16
    ("--error-norm-r", "200", "--error-norm-r: error_norm_r 200 makes the squared H^r weight"),
    ("--error-norm-r", "400", "--error-norm-r: error_norm_r 400 makes the squared H^r weight"),
], ids=["fp-tol", "fp-max-iter", "error-norm-r", "scheme", "modes", "fp-tol-nan", "theta-nan",
        "error-norm-r-nan", "error-norm-r-inf", "error-norm-r-200", "error-norm-r-400"])
@pytest.mark.parametrize("subcommand", ["simulate", "sweep-tau"])
def test_bad_run_settings_are_usage_errors(tmp_path, capsys, subcommand, flag, value, message):
    if subcommand == "simulate":
        argv = _simulate_args(tmp_path)
    else:
        argv = ["sweep-tau", "--equation", "quad-square", "--scheme", "li1", "--eps", "0.5",
                "--tau-list", "0.1,0.05,0.025,0.0125", "--T", "0.5", "--modes", "16",
                "--out", str(tmp_path / "out.csv")]
    with pytest.raises(SystemExit) as info:
        parse_args(argv + [flag, value])
    assert info.value.code == 2
    assert message in capsys.readouterr().err


_EPS_SWEEP = ["sweep-eps", "--equation", "quad-modsq", "--scheme", "li1", "--tau", "0.05",
              "--T", "0.2", "--modes", "16"]
_TAU_SWEEP = ["sweep-tau", "--equation", "quad-modsq", "--scheme", "li1", "--eps", "0.5",
              "--T", "0.2", "--modes", "16"]
_ERROR_VS_TIME = ["error-vs-time", "--equation", "quad-modsq", "--scheme", "li1",
                  "--eps", "0.5", "--tau", "0.05", "--T", "0.2", "--modes", "16"]
_SIMULATE = ["simulate", "--equation", "quad-square", "--scheme", "li1", "--eps", "0.5",
             "--tau", "0.1", "--t-final", "0.5", "--modes", "16"]


@pytest.mark.parametrize("argv, message", [
    (_EPS_SWEEP + ["--eps-list", "0.5,1.5,0.2"], "eps values must lie in (0, 1]"),
    (_EPS_SWEEP + ["--eps-list", "0.5,0.6,0.2"], "eps values must be strictly decreasing"),
    (_EPS_SWEEP + ["--eps-list", "0.5,0.2"], "eps sweep needs at least 3 values"),
    (_TAU_SWEEP + ["--tau-list", "0.1,0.05,-0.025,0.0125"], "step sizes must be positive"),
    (_TAU_SWEEP + ["--tau-list", "0.1,0.05,0.025"], "tau sweep needs at least 4 step sizes"),
    (_EPS_SWEEP + ["--eps-list", "0.5,0.35,0.25", "--ref-tau", "0.01"],
     "ref_tau must be at most tau/10"),
    (_ERROR_VS_TIME + ["--sample-times", "0.5,0.2"], "sample times must be strictly increasing"),
    (_SIMULATE + ["--ref-tau", "0.1"], "ref_tau must be at most tau/10"),
    (_SIMULATE + ["--ref-tau", "0"], "ref_tau must be positive"),
    (_SIMULATE + ["--tau", "nan"], "--tau: tau must be positive and finite"),
    (_SIMULATE + ["--tau", "inf"], "--tau: tau must be positive and finite"),
    (_SIMULATE + ["--ref-tau", "nan"], "--ref-tau: ref_tau must be positive"),
    (_SIMULATE + ["--t-final", "inf"], "--t-final: t_final must be nonnegative and finite"),
    (_TAU_SWEEP + ["--tau-list", "0.1,nan,0.025,0.0125"],
     "--tau-list: tau_list entries must be finite"),
    (_ERROR_VS_TIME + ["--sample-times", "0.1,nan"],
     "--sample-times: sample_times entries must be finite"),
    (_EPS_SWEEP + ["--eps-list", "0.5,0.35,0.25", "--T", "nan"], "--T must be positive and finite"),
    (_TAU_SWEEP + ["--tau-list", "0.1,0.05,0.025,0.0125", "--T", "inf"],
     "--T must be positive and finite"),
    (_EPS_SWEEP + ["--eps-list", "0.5,0.35,0.25", "--jobs", "-4"], "--jobs must be at least 1"),
    (_EPS_SWEEP + ["--eps-list", "0.5,nan,0.2"],
     "--eps-list: eps_list: eps values must lie in (0, 1]"),
    (_EPS_SWEEP + ["--eps-list", "0.5,0.2"], "--eps-list: eps_list: eps sweep needs at least 3"),
    (_EPS_SWEEP + ["--eps-list", "1.5,0.5,0.2"], "--eps-list: eps must lie in (0, 1]"),
    (_TAU_SWEEP + ["--tau-list", "0.1,0.05,0.025"],
     "--tau-list: tau_list: tau sweep needs at least 4 step sizes"),
    (_TAU_SWEEP + ["--tau-list", "0.1,0.05,-0.025,0.0125"],
     "--tau-list: tau_list: step sizes must be positive"),
    (_ERROR_VS_TIME + ["--sample-times", "0.5,0.2"],
     "--sample-times: sample_times: sample times must be strictly increasing"),
    (_ERROR_VS_TIME + ["--sample-times", "0.1,5"],
     "--sample-times: sample_times: sample times must not exceed t_final"),
    (_TAU_SWEEP + ["--tau-list", ","], "--tau-list must not be empty"),
    (_TAU_SWEEP + ["--tau-list", "0.1,0.05,0.025,0.0125", "--scheme", ","],
     "--scheme must not be empty"),
    (["sweep-eps", "--equation", "cubic", "--scheme", "nrli1", "--tau", "0.05",
      "--eps-list", "0.5,0.3,1e-170", "--T", "1", "--modes", "16"],
     "--eps-list: eps 1e-170 with T 1.0 gives a horizon T/eps^2 that is not positive"),
    (["sweep-tau", "--equation", "cubic", "--scheme", "nrli1", "--eps", "1e-200",
      "--tau-list", "0.1,0.05,0.025,0.0125", "--T", "1", "--modes", "16"],
     "--eps: eps 1e-200 with T 1.0 gives a horizon T/eps^2 that is not positive"),
    (["sweep-tau", "--equation", "quad-square", "--scheme", "li1", "--eps", "5e-324",
      "--tau-list", "0.1,0.05,0.025,0.0125", "--T", "1", "--modes", "16"],
     "--eps: eps 5e-324 with T 1.0 gives a horizon T/eps that is not positive"),
    (["error-vs-time", "--equation", "cubic", "--scheme", "nrli1", "--eps", "1e-160",
      "--tau", "0.05", "--T", "1", "--sample-times", "0.1", "--modes", "16"],
     "--eps: eps 1e-160 with T 1.0 gives a horizon T/eps^2 that is not positive"),
], ids=["eps-range", "eps-order", "eps-count", "tau-sign", "tau-count", "ref-tau",
        "sample-order", "simulate-ref-tau", "simulate-ref-tau-zero", "tau-nan", "tau-inf",
        "ref-tau-nan", "t-final-inf", "tau-list-nan", "sample-times-nan", "T-nan", "T-inf",
        "jobs-negative", "eps-list-nan-flag", "eps-count-flag", "eps-first-flag",
        "tau-count-flag", "tau-sign-flag", "sample-order-flag", "sample-past-t-final-flag",
        "tau-list-empty", "scheme-empty", "eps-list-underflow", "sweep-tau-eps-underflow",
        "sweep-tau-horizon-overflow", "error-vs-time-horizon-overflow"])
def test_sweep_list_checks_are_usage_errors(tmp_path, capsys, monkeypatch, argv, message):
    # the sweep's own check, run at parse time: exit 2 before any trajectory
    monkeypatch.setattr(harness, "run_trajectory", None)
    monkeypatch.setattr(harness, "_run_rows", None)
    with pytest.raises(SystemExit) as info:
        main(argv + ["--out", str(tmp_path / "out.csv")])
    assert info.value.code == 2
    assert message in capsys.readouterr().err


_CUBIC = ["--equation", "cubic", "--scheme", "nrli1", "--modes", "16"]


@pytest.mark.parametrize("argv, flag", [
    (["simulate", *_CUBIC, "--eps", "0.5", "--tau", "0.1", "--t-final", "1e300"], "--t-final"),
    (["sweep-tau", *_CUBIC, "--eps", "1e-100", "--tau-list", "0.1,0.05,0.025,0.0125",
      "--T", "1", "--jobs", "1"], "--tau-list"),
    (["simulate", *_CUBIC, "--eps", "0.5", "--tau", "0.1", "--t-final", "1",
      "--ref-tau", "1e-200"], "--ref-tau"),
    (["sweep-eps", *_CUBIC, "--tau", "1e-9", "--eps-list", "0.5,0.4,0.3", "--T", "1"], "--T"),
    (["sweep-eps", *_CUBIC, "--tau", "0.1", "--eps-list", "0.5,0.4,1e-6", "--T", "1"],
     "--eps-list"),
    (["error-vs-time", *_CUBIC, "--eps", "1e-5", "--tau", "0.01", "--T", "1",
      "--sample-times", "0.1"], "--T"),
], ids=["simulate-t-final", "sweep-tau-eps", "simulate-ref-tau", "sweep-eps-T",
        "sweep-eps-eps-list", "error-vs-time-T"])
def test_too_many_steps_exit_2_at_once(tmp_path, capsys, monkeypatch, argv, flag):
    # a horizon of astronomically many steps is a usage error, named by its flag
    monkeypatch.setattr(harness, "run_trajectory", None)
    monkeypatch.setattr(harness, "_run_rows", None)
    started = time.perf_counter()
    with pytest.raises(SystemExit) as info:
        main(argv + ["--out", str(tmp_path / "out.csv")])
    assert time.perf_counter() - started < 1.0
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert f"error: {flag}: " in err and "steps" in err


@pytest.mark.parametrize("argv, flag", [
    (["sweep-tau", *_CUBIC, "--eps", "0.5", "--tau-list", "4,2,1,0.5", "--T", "0.2",
      "--jobs", "1"], "--tau-list"),
    (["sweep-eps", "--equation", "quad-square", "--scheme", "li1", "--modes", "16",
      "--tau", "0.5", "--eps-list", "1.0,0.9,0.8", "--T", "0.2", "--ref-tau", "0.05",
      "--jobs", "1"], "--eps-list"),
], ids=["sweep-tau", "sweep-eps"])
def test_sweep_cell_without_a_step_exits_2_at_once(tmp_path, capsys, monkeypatch, argv, flag):
    # a step above twice a cell's horizon takes no step; rejected before any reference
    monkeypatch.setattr(harness, "run_trajectory", None)
    monkeypatch.setattr(harness, "_run_rows", None)
    started = time.perf_counter()
    with pytest.raises(SystemExit) as info:
        main(argv + ["--out", str(tmp_path / "out.csv")])
    assert time.perf_counter() - started < 1.0
    assert info.value.code == 2
    assert f"error: {flag}: " in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_sweep_eps_rejects_eps(tmp_path, capsys, monkeypatch, source):
    # a sweep's cells take their eps from --eps-list; an --eps would do nothing
    monkeypatch.setattr(harness, "run_trajectory", None)
    monkeypatch.setattr(harness, "_run_rows", None)
    argv = _EPS_SWEEP + ["--eps-list", "0.5,0.35,0.25", "--out", str(tmp_path / "out.csv")]
    if source == "flag":
        argv += ["--eps", "0.9"]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"eps": 0.9}))
        argv += ["--config", str(cfg)]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "sweep-eps takes eps from --eps-list" in capsys.readouterr().err


_PRESETS = sorted((Path(__file__).resolve().parents[1] / "presets").glob("*.json"))


@pytest.mark.parametrize("preset", _PRESETS, ids=[p.stem for p in _PRESETS])
def test_presets_parse(preset):
    # each preset is a valid config for the subcommand its file name starts
    # with; a quad preset serves both quadratic equations; nothing runs
    subcommand, family = preset.stem.split(".")
    argv = [subcommand, "--config", str(preset)]
    parse_args(argv)
    if family == "quad":
        parse_args(argv + ["--equation", "quad-modsq"])


def test_presets_write_distinct_outputs():
    # presets run one after another must not overwrite each other's CSV
    outs = [json.loads(preset.read_text())["out"] for preset in _PRESETS]
    assert len(outs) == 6
    assert len(set(outs)) == len(outs)


def test_simulate_rejects_scheme_list(tmp_path, capsys):
    with pytest.raises(SystemExit):
        parse_args(_simulate_args(tmp_path, scheme="li1,sli2"))
    assert "single scheme" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# end-to-end subcommands
# ---------------------------------------------------------------------------

def test_simulate_zero_horizon_row(tmp_path, capsys):
    out = tmp_path / "out.csv"
    code = main(_simulate_args(tmp_path, **{"t-final": "0.0"}))
    assert code == 0
    rows = read_records_csv(str(out))
    assert len(rows) == 1
    assert rows[0].error == 0.0
    assert rows[0].t_final == 0.0


def test_simulate_writes_record_and_snapshot(tmp_path):
    snap = tmp_path / "final.txt"
    code = main(_simulate_args(tmp_path, **{"snapshot-out": str(snap)}))
    assert code == 0
    rows = read_records_csv(str(tmp_path / "out.csv"))
    assert len(rows) == 1
    assert rows[0].scheme == "li1" and rows[0].error > 0
    field = field_from_text(snap.read_text())
    assert field.grid.n_modes == 16


def test_snapshot_out_runs_no_extra_trajectory(tmp_path, monkeypatch, reference_builds):
    calls = []
    original = harness.run_trajectory

    def counting(params, *args, **kwargs):
        calls.append(params.scheme)
        return original(params, *args, **kwargs)

    monkeypatch.setattr(harness, "run_trajectory", counting)
    assert main(_simulate_args(tmp_path)) == 0
    plain = list(calls)
    assert len(reference_builds) == 2
    calls.clear()
    reference_builds.clear()
    snap = tmp_path / "final.txt"
    assert main(_simulate_args(tmp_path, **{"snapshot-out": str(snap)})) == 0
    # the scheme's own trajectory once; the reference pair builds in lockstep
    assert calls == plain == ["li1"]
    assert len(reference_builds) == 2
    # the snapshot is the final field of the scheme's own trajectory
    p = harness.SimParams(Equation.QUAD_SQUARE, "li1", eps=0.5, tau=0.1, t_final=0.5,
                          n_modes=16, theta=2.0)
    assert snap.read_text() == field_to_text(original(p, harness.make_initial_data(p)).state)


def test_simulate_error_norm_r_with_finite_weights_runs(tmp_path):
    # (1 + N/2)^(2r) = 9^320 is finite; at N = 16 the limit is r = 161.5
    out = tmp_path / "out.csv"
    assert main(_simulate_args(tmp_path, out=str(out), **{"error-norm-r": "160"})) == 0
    [record] = read_records_csv(str(out))
    assert record.error_norm_r == 160.0 and 0.0 < record.error < float("inf")


def test_simulate_is_deterministic_apart_from_wall_clock(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(_simulate_args(tmp_path, out=str(out1))) == 0
    assert main(_simulate_args(tmp_path, out=str(out2))) == 0
    r1, r2 = read_records_csv(str(out1))[0], read_records_csv(str(out2))[0]
    r1.wall_seconds = r2.wall_seconds = 0.0
    assert r1 == r2


def test_sweep_eps_multi_scheme_blocks(tmp_path, capsys):
    out = tmp_path / "eps.csv"
    code = main(
        ["sweep-eps", "--equation", "cubic", "--scheme", "nrli1,os18",
         "--tau", "0.05", "--eps-list", "1.0,0.7,0.5", "--T", "0.05",
         "--theta", "2", "--modes", "8", "--ref-tau", "5e-3",
         "--jobs", "1", "--out", str(out)]
    )
    assert code == 0
    rows = read_records_csv(str(out))
    assert [r.scheme for r in rows] == ["nrli1"] * 3 + ["os18"] * 3
    assert all(r.equation is Equation.CUBIC for r in rows)
    assert "nrli1: slope" in capsys.readouterr().out


def test_sweep_tau_writes_the_library_sweep(tmp_path):
    taus = [0.2, 0.1, 0.05, 0.025]
    argv = ["sweep-tau", "--equation", "quad-square", "--scheme", "li1,sli2", "--eps", "0.5",
            "--tau-list", ",".join(map(str, taus)), "--T", "0.5", "--theta", "2",
            "--modes", "16", "--ref-tau", "2.5e-3"]
    rows = {}
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}.csv"
        assert main(argv + ["--jobs", jobs, "--out", str(out)]) == 0
        rows[jobs] = _rows_without_wall_clock(out)
    # the horizon T/eps = 1; a header and four rows per scheme
    base = harness.SimParams(Equation.QUAD_SQUARE, "li1", eps=0.5, tau=0.2, t_final=1.0,
                             n_modes=16, theta=2.0)
    records = [rec for scheme in ("li1", "sli2")
               for rec in harness.sweep_tau(replace(base, scheme=scheme), taus, 2.5e-3)[0]]
    harness.write_records_csv(str(tmp_path / "lib.csv"), records)
    assert len(rows["1"]) == 9
    assert rows["1"] == rows["2"] == _rows_without_wall_clock(tmp_path / "lib.csv")


def test_error_vs_time_rows(tmp_path):
    out = tmp_path / "evt.csv"
    code = main(
        ["error-vs-time", "--equation", "quad-square", "--scheme", "li1",
         "--eps", "0.5", "--tau", "0.1", "--sample-times", "0,0.4,1.0",
         "--T", "0.5", "--theta", "2", "--modes", "16",
         "--ref-tau", "1e-2", "--out", str(out)]
    )
    assert code == 0
    rows = read_records_csv(str(out))
    assert [r.t_final for r in rows] == [0.0, 0.4, 1.0]
    assert rows[0].error == 0.0
    # two times that snap to one step: a row each, the pair sampled there twice
    code = main(
        ["error-vs-time", "--equation", "quad-square", "--scheme", "li1,sli2",
         "--eps", "0.5", "--tau", "0.1", "--sample-times", "0.41,0.44",
         "--T", "0.5", "--theta", "2", "--modes", "16",
         "--ref-tau", "1e-2", "--out", str(out)]
    )
    assert code == 0
    rows = read_records_csv(str(out))
    assert [(r.scheme, r.t_final) for r in rows] == [("li1", 0.4)] * 2 + [("sli2", 0.4)] * 2
    assert rows[0].error == rows[1].error and rows[2].error == rows[3].error


@pytest.fixture
def reference_builds(monkeypatch):
    """(eps, step, horizon) of every reference trajectory the command builds."""
    built = []
    original = harness._reference_params

    def counting(params, ref_tau, t_final):
        built.append((params.eps, ref_tau, t_final))
        return original(params, ref_tau, t_final)

    monkeypatch.setattr(harness, "_reference_params", counting)
    return built


def _rows_without_wall_clock(path):
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    wall = CSV_COLUMNS.index("wall_seconds")
    return [line.split(",")[:wall] + line.split(",")[wall + 1:] for line in lines]


def test_sweep_eps_builds_each_pair_once_and_jobs_agree(tmp_path, reference_builds):
    argv = ["sweep-eps", "--equation", "quad-modsq", "--scheme", "li1,sli2",
            "--tau", "0.05", "--eps-list", "0.5,0.35,0.25", "--T", "0.2",
            "--theta", "2", "--modes", "16", "--ref-tau", "5e-3"]
    rows = {}
    for jobs in ("1", "2"):
        reference_builds.clear()
        out = tmp_path / f"jobs{jobs}.csv"
        assert main(argv + ["--jobs", jobs, "--out", str(out)]) == 0
        # two schemes, three eps: three pairs of fine and finer, each built once
        assert len(reference_builds) == 6
        assert len(set(reference_builds)) == 6
        assert sorted({eps for eps, _, _ in reference_builds}) == [0.25, 0.35, 0.5]
        rows[jobs] = _rows_without_wall_clock(out)
    assert len(rows["1"]) == 7
    assert rows["1"] == rows["2"]


def test_config_file_runs_as_typed(tmp_path):
    flags = {"equation": "quad-modsq", "scheme": "li1,sli2", "tau": 0.05,
             "eps_list": [0.5, 0.35, 0.25], "T": 0.2, "theta": 2, "modes": 16,
             "ref_tau": 5e-3, "jobs": 1}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(flags))
    typed = ["sweep-eps"]
    for key, value in flags.items():
        typed += [f"--{key.replace('_', '-')}",
                  ",".join(map(str, value)) if isinstance(value, list) else str(value)]
    assert main(typed + ["--out", str(tmp_path / "typed.csv")]) == 0
    assert main(["sweep-eps", "--config", str(cfg), "--out", str(tmp_path / "cfg.csv")]) == 0
    assert (_rows_without_wall_clock(tmp_path / "typed.csv")
            == _rows_without_wall_clock(tmp_path / "cfg.csv"))


def test_cubic_sweep_eps_batched_references_agree_across_jobs(tmp_path):
    # both runs step their nrsli2 references as lockstep rows: one batch of
    # six at --jobs 1, two of three at --jobs 2
    argv = ["sweep-eps", "--equation", "cubic", "--scheme", "nrli1,nrsli2",
            "--tau", "0.05", "--eps-list", "0.9,0.7,0.5", "--T", "0.1",
            "--theta", "2", "--modes", "16", "--ref-tau", "5e-3", "--seed", "267"]
    rows = {}
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}.csv"
        assert main(argv + ["--jobs", jobs, "--out", str(out)]) == 0
        rows[jobs] = _rows_without_wall_clock(out)
    assert len(rows["1"]) == 7
    assert rows["1"] == rows["2"]


def test_error_vs_time_schemes_share_one_pair(tmp_path, reference_builds):
    out = tmp_path / "evt.csv"
    code = main(
        ["error-vs-time", "--equation", "quad-square", "--scheme", "li1,sli2",
         "--eps", "0.5", "--tau", "0.1", "--sample-times", "0,0.4,1.0",
         "--T", "0.5", "--theta", "2", "--modes", "16",
         "--ref-tau", "1e-2", "--out", str(out)]
    )
    assert code == 0
    assert len(reference_builds) == 2
    rows = read_records_csv(str(out))
    assert [r.scheme for r in rows] == ["li1"] * 3 + ["sli2"] * 3
    assert len({r.ref_tau for r in rows}) == 1


def test_error_vs_time_names_a_reference_stall_first(tmp_path, capsys):
    # the pair is requested before the scheme steps, as in the sweeps, so a
    # reference that stalls is named although the cell would stall too
    code = main(
        ["error-vs-time", "--equation", "quad-modsq", "--scheme", "sli2",
         "--eps", "0.5", "--tau", "0.05", "--T", "0.2", "--sample-times", "0.1,0.2",
         "--modes", "16", "--fp-max-iter", "1", "--out", str(tmp_path / "stall.csv")]
    )
    assert code == 1
    assert "in the reference trajectory (step 0.00025, eps 0.5)" in capsys.readouterr().err


@pytest.mark.parametrize("fp_max_iter, failing_time", [
    ("1", "t = 0.00025"),  # the finer reference (longest, so built first)
    ("4", "t = 0.05"),  # references converge in 3 iterations; the cells do not
])
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_picard_stall_names_the_step_on_every_path(tmp_path, capsys, jobs,
                                                   fp_max_iter, failing_time):
    code = main(
        ["sweep-eps", "--equation", "quad-modsq", "--scheme", "sli2",
         "--eps-list", "0.5,0.35,0.25", "--T", "0.2", "--tau", "0.05",
         "--modes", "16", "--fp-max-iter", fp_max_iter, "--jobs", jobs,
         "--out", str(tmp_path / "stall.csv")]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert f"implicit solve failed at step 1 ({failing_time})" in err


@pytest.mark.parametrize("fp_max_iter, trajectory", [
    ("1", "in the reference trajectory (step 0.00025, eps "),
    ("4", "in the cell (scheme sli2, eps "),
])
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_picard_stall_names_the_trajectory(tmp_path, capsys, jobs, fp_max_iter, trajectory):
    code = main(
        ["sweep-eps", "--equation", "quad-modsq", "--scheme", "sli2",
         "--eps-list", "0.5,0.35,0.25", "--T", "0.2", "--tau", "0.05",
         "--modes", "16", "--fp-max-iter", fp_max_iter, "--jobs", jobs,
         "--out", str(tmp_path / "stall.csv")]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "implicit solve failed at step 1 (t = " in err
    assert trajectory in err
    if fp_max_iter == "4":
        # cells run in task order at every --jobs, so the first stall is eps 0.5's
        assert "cell (scheme sli2, eps 0.5, tau 0.05)" in err


def test_unwritable_output_is_diagnosed(tmp_path, capsys):
    code = main(_simulate_args(tmp_path, out="/nonexistent-dir/x.csv"))
    assert code == 1
    assert "cannot write" in capsys.readouterr().err


def test_flagged_records_fail_the_exit_code(tmp_path, capsys):
    record = SweepRecord(
        equation=Equation.QUAD_SQUARE, scheme="li1", eps=0.5, tau=0.1,
        theta=1.0, seed=0, n_modes=16, t_final=1.0, error_norm_r=1.0,
        error=1e-8, ref_tau=1e-3, wall_seconds=0.1, fp_iter_max=None,
        fp_iter_mean=None, reliable=False,
    )
    config = parse_args(_simulate_args(tmp_path))
    assert _finish(config, [record]) == 1
    assert "unreliable" in capsys.readouterr().err


def test_help_runs_as_console_script():
    proc = subprocess.run(
        [sys.executable, "-m", "lowreg_nlse.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    for sub in ("simulate", "sweep-tau", "sweep-eps", "error-vs-time", "selftest"):
        assert sub in proc.stdout


def test_cold_start_loads_neither_the_pool_nor_the_selftest_battery():
    # a fresh interpreter importing the CLI pays only for what every command runs
    code = ("import sys, lowreg_nlse.cli; print(sorted(m for m in ('concurrent.futures', "
            "'multiprocessing', 'lowreg_nlse.selftest', 'lowreg_nlse.oracles') "
            "if m in sys.modules))")
    src = str(Path(lowreg_nlse.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout.strip() == "[]"
    # the battery still resolves from the package root, one name or all of them
    assert lowreg_nlse.run_selftest is selftest.run_selftest
    namespace = {}
    exec("from lowreg_nlse import *", namespace)
    assert set(lowreg_nlse.__all__) <= namespace.keys()
    assert namespace["run_selftest"] is selftest.run_selftest
    with pytest.raises(AttributeError):
        lowreg_nlse.no_such_name


def test_jobs_2_sweep_runs_in_the_pool(tmp_path, monkeypatch):
    import concurrent.futures

    started = []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    out = tmp_path / "tau.csv"
    assert main(_TAU_SWEEP + ["--tau-list", "0.1,0.05,0.025,0.0125", "--jobs", "2",
                              "--out", str(out)]) == 0
    assert started == [2]
    assert len(read_records_csv(str(out))) == 4


def test_pool_is_sized_by_its_work(tmp_path, monkeypatch):
    # a 4-cell sweep misses at most 8 references, so it starts at most 8
    # workers however large --jobs is; the fake pool maps in this process
    import concurrent.futures

    started = []

    class InProcess:
        def __init__(self, max_workers=None):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return None

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcess)
    rows = {}
    for jobs in ("1000000", "1"):
        out = tmp_path / f"jobs{jobs}.csv"
        assert main(_TAU_SWEEP + ["--tau-list", "0.1,0.05,0.025,0.0125", "--jobs", jobs,
                                  "--out", str(out)]) == 0
        rows[jobs] = _rows_without_wall_clock(out)
    assert started == [8]
    assert rows["1000000"] == rows["1"]


def test_selftest_subcommand_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "checks passed" in out and "FAIL" not in out


def test_selftest_reports_failing_checks(monkeypatch, capsys):
    # a failed assertion and any other error both come back as a failed
    # check, never as a crash, and the subcommand exits 1
    def wrong():
        raise AssertionError("worst H1 gap 1.0e-03 exceeds 1e-10")

    def broken():
        raise ZeroDivisionError("float division by zero")

    monkeypatch.setattr(selftest, "_CHECKS", [("wrong", wrong), ("broken", broken)])
    assert selftest.run_selftest() == [
        ("wrong", False, "AssertionError: worst H1 gap 1.0e-03 exceeds 1e-10"),
        ("broken", False, "ZeroDivisionError: float division by zero"),
    ]
    assert main(["selftest"]) == 1
    out = capsys.readouterr().out
    assert "FAIL  wrong" in out and "FAIL  broken" in out and "0/2 checks passed" in out
