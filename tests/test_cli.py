"""Command-line interface tests: parsing, precedence, outputs, exit codes."""
import json
import subprocess
import sys

import pytest

from lowreg_nlse import harness
from lowreg_nlse.cli import _finish, main, parse_args
from lowreg_nlse.harness import CSV_COLUMNS, Equation, SweepRecord, read_records_csv
from lowreg_nlse.spectral import field_from_text


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


def test_selftest_subcommand_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "checks passed" in out and "FAIL" not in out
