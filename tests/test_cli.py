"""End-to-end tests of the command-line interface: output formats, exit
codes, config precedence, sweeps, and byte-level determinism."""

import csv
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from lame3trf import cli
from lame3trf.cli import main
from lame3trf.lame_series import (
    EvaluationPoint,
    LameParams,
    eval_series,
    series_coefficients,
)
from lame3trf.generating_functions import kernel_gamma, kernel_psi
from lame3trf.scalar_kernels import jacobi_sn_cn_dn

REPORT_KEYS = {
    "command", "params", "lhs_re", "lhs_im", "rhs_re", "rhs_im",
    "gap", "tail_estimate", "pass",
}


def run_cli(*argv):
    return main(list(argv))


def parse_csv(text):
    lines = [ln for ln in text.strip().split("\n") if ln]
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    return header, rows


# ------------------------------------------------------------ eval commands

def test_eval_series_xi_zero_is_one(capsys):
    assert run_cli("eval-series", "--xi", "0") == 0
    _, rows = parse_csv(capsys.readouterr().out)
    assert rows[0]["value"] == "1"


def test_eval_series_matches_library(capsys):
    assert run_cli("eval-series", "--xi", "0.1", "--N", "40") == 0
    _, rows = parse_csv(capsys.readouterr().out)
    series = series_coefficients(LameParams(0.5, 3.0, 1.0), 0.0, 1.0, 40)
    want = eval_series(series, EvaluationPoint.from_xi(0.1, 0.5))
    assert float(rows[0]["value"]) == pytest.approx(want, rel=1e-15)


def test_eval_series_with_z_flag(capsys):
    assert run_cli("eval-series", "--z", "0.6", "--rho", "0.5") == 0
    _, rows = parse_csv(capsys.readouterr().out)
    sn, _, _ = jacobi_sn_cn_dn(0.6, 0.5)
    assert float(rows[0]["xi"]) == pytest.approx(sn * sn, rel=1e-15)


def test_eval_series_json(capsys):
    assert run_cli("eval-series", "--xi", "0", "--format", "json") == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["command"] == "eval-series"
    assert obj["value"] == 1.0
    assert obj["params"]["xi"] == 0.0


def test_eval_sn_outputs(capsys):
    assert run_cli("eval-sn", "--z", "0.6", "--rho", "0.5") == 0
    _, rows = parse_csv(capsys.readouterr().out)
    sn, cn, dn = jacobi_sn_cn_dn(0.6, 0.5)
    assert float(rows[0]["sn"]) == pytest.approx(sn, rel=1e-15)
    assert float(rows[0]["cn"]) == pytest.approx(cn, rel=1e-15)
    assert float(rows[0]["dn"]) == pytest.approx(dn, rel=1e-15)
    assert float(rows[0]["xi"]) == pytest.approx(sn * sn, rel=1e-15)


def test_eval_sn_large_z_reduced_or_rejected(capsys):
    assert run_cli("eval-sn", "--z", "1000", "--rho", "0.5") == 0
    _, row = capsys.readouterr().out.strip().split("\n")
    sn = float(row.split(",")[2])
    assert sn == jacobi_sn_cn_dn(1000.0, 0.5)[0]
    assert run_cli("eval-sn", "--z", "1e300", "--rho", "0.5") == 2
    assert run_cli("eval-sn", "--z", "1e15", "--rho", "0.5") == 2


def test_eval_sn_requires_z(capsys):
    assert run_cli("eval-sn") == 2


def test_heun_map_example(capsys):
    assert run_cli("heun-map", "--rho", "0.5", "--h", "2", "--alpha", "3") == 0
    _, rows = parse_csv(capsys.readouterr().out)
    row = rows[0]
    assert row["gamma"] == "0.5"
    assert row["delta"] == "0.5"
    assert row["epsilon"] == "0.5"
    assert row["a"] == "4"
    assert row["q"] == "-2"
    assert row["alpha_h"] == "2"
    assert row["beta_h"] == "-1.5"


# ----------------------------------------------------------- verify targets

def test_verify_lemma1_default_grid_passes(capsys):
    assert run_cli("verify", "lemma1") == 0
    assert capsys.readouterr().out.startswith("PASS lemma1")


def test_verify_lemma1_full_grid_passes_with_terms_per_point(tmp_path, capsys):
    # six grid points sit at q = |w|/r = 0.989 of the series convergence
    # radius; each takes the terms its geometric tail needs (2,282 for 1e-9),
    # the other 30 keep --N = 60
    out_csv = tmp_path / "full.csv"
    assert run_cli("verify", "lemma1", "--full-grid", "--out", str(out_csv)) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS lemma1")
    assert "points=36" in out
    rows = list(csv.DictReader(out_csv.read_text().splitlines()))
    corner = [r for r in rows if float(r["x"]) == -0.4 and abs(float(r["w"])) == 0.3]
    assert len(rows) == 36 and len(corner) == 6
    assert {r["n_terms"] for r in corner} == {"2282"}
    assert {r["n_terms"] for r in rows if r not in corner} == {"60"}


def test_verify_ode_passes(capsys):
    assert run_cli("verify", "ode") == 0
    assert capsys.readouterr().out.startswith("PASS ode")


def test_verify_residue_passes(capsys):
    assert run_cli("verify", "residue") == 0
    assert capsys.readouterr().out.startswith("PASS residue")


@pytest.mark.parametrize("lam,kernel", [("0", kernel_gamma), ("0.5", kernel_psi)])
def test_verify_residue_closed_column_is_the_level1_kernel(lam, kernel, tmp_path, capsys):
    out = tmp_path / "residue.csv"
    assert run_cli("verify", "residue", "--lambda", lam, "--out", str(out)) == 0
    capsys.readouterr()
    _, rows = parse_csv(out.read_text())
    assert len(rows) == 100
    for r in rows:
        s, t, u, eta = (float(r[k]) for k in ("s", "t", "u", "eta"))
        assert float(r["closed"]) == kernel(1, 0, s, t, u, eta)


def test_verify_kernels_passes(capsys):
    assert run_cli("verify", "kernels") == 0
    assert capsys.readouterr().out.startswith("PASS kernels")


def test_verify_gf_order0_passes_with_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = run_cli("verify", "gf-order0", "--format", "json", "--out", str(out))
    assert rc == 0
    assert capsys.readouterr().out.startswith("PASS gf-order0")
    report = json.loads(out.read_text())
    assert set(report) == REPORT_KEYS
    assert report["pass"] is True
    assert report["gap"] < 1e-8
    assert report["lhs_im"] == 0.0


def test_verify_gf_order1_fails_honestly(tmp_path, capsys):
    # neither operator power satisfies the order-1 identity as written; the
    # closed form drops the origin residues of the off-diagonal terms
    out = tmp_path / "report.json"
    rc = run_cli("verify", "gf-order1", "--format", "json", "--out", str(out))
    assert rc == 1
    line = capsys.readouterr().out
    assert line.startswith("FAIL gf-order1")
    assert "op_power=1" in line and "op_power=2" in line
    report = json.loads(out.read_text())
    assert set(report) == REPORT_KEYS
    assert report["pass"] is False
    assert report["gap"] > 1e-3


def test_verify_gf_order1_passes_when_both_powers_close(capsys):
    # at s0 = 0 the origin residue vanishes and the identity closes; both
    # sides apply the same operator, so it closes at both powers
    assert run_cli("verify", "gf-order1", "--s", "0,0.2,0.1") == 0
    line = capsys.readouterr().out
    assert line.startswith("PASS gf-order1")
    assert "powers_passing=2 (need both)" in line


def test_verify_gf_order2_fails_honestly(capsys):
    assert run_cli("verify", "gf-order2") == 1
    assert capsys.readouterr().out.startswith("FAIL gf-order2")


@pytest.mark.parametrize("s", ["0,0.2,0", "0,0.2,0.1"])
def test_verify_gf_order2_passes_without_origin_residues(s, capsys):
    # s0 = 0 leaves no order-1 origin residue; with level 1 at s1 s2 the
    # identity closes
    assert run_cli("verify", "gf-order2", "--s", s) == 0
    assert capsys.readouterr().out.startswith("PASS gf-order2")


@pytest.mark.filterwarnings("error::numpy.exceptions.ComplexWarning")
@pytest.mark.parametrize("argv", [
    ("gf-order1", "--rho", "0.9", "--xi", "0.9", "--s", "0.9,0.9,0.5"),
    ("gf-order1", "--rho", "0.9", "--xi", "0.9", "--s", "0.3,0.5,0.9"),
    ("gf-order2", "--rho", "0.9", "--xi", "0.9", "--s", "0.9,0.9,0.5"),
])
def test_verify_off_branch_right_side_is_a_numerical_failure(argv, capsys):
    # the kernel radicand goes negative on the mesh: no gap is printed
    assert run_cli("verify", *argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("lame3trf: numerical failure:")
    assert "right side is complex" in captured.err


def test_verify_csv_report_file(tmp_path, capsys):
    out = tmp_path / "kernels.csv"
    assert run_cli("verify", "kernels", "--out", str(out)) == 0
    capsys.readouterr()
    header, rows = parse_csv(out.read_text())
    assert header[0] == "family"
    assert len(rows) == 2 * 7 * 6 + 2
    assert all(r["passed"] == "true" for r in rows)
    assert {r["check"] for r in rows} == {"sum", "reduction"}


def test_forced_tiny_tolerance_fails(capsys):
    assert run_cli("verify", "gf-order0", "--tol", "1e-30") == 1
    assert capsys.readouterr().out.startswith("FAIL gf-order0")


# ------------------------------------------------------- usage error paths

def test_unknown_flag_exits_2(capsys):
    assert run_cli("verify", "gf-order0", "--bogus") == 2


def test_unknown_command_exits_2(capsys):
    assert run_cli("frobnicate") == 2


def test_bad_lambda_exits_2(capsys):
    assert run_cli("eval-series", "--lambda", "0.3") == 2


def test_bad_s_magnitude_exits_2(capsys):
    assert run_cli("verify", "gf-order0", "--s", "1.5,0.2,0.1") == 2


def test_mismatched_k_exits_2(capsys):
    assert run_cli("verify", "gf-order0", "--s", "0.3,0.2,0.1", "--K", "3") == 2


@pytest.mark.parametrize("argv", [
    ("eval-series", "--xi", "nan"),
    ("eval-series", "--xi", "inf"),
    ("eval-series", "--alpha", "nan"),
    ("eval-series", "--h", "inf"),
    ("eval-sn", "--z", "nan"),
    ("eval-sn", "--z", "inf"),
    ("verify", "gf-order0", "--xi", "nan"),
    ("verify", "ode", "--h", "nan"),
    ("verify", "gf-order0", "--gamma", "inf"),
    ("verify", "gf-order0", "--tol", "inf"),
])
def test_non_finite_input_exits_2(argv, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be finite" in captured.err


def test_bad_config_key_exits_2(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"bogus_key": 1}))
    assert run_cli("eval-series", "--config", str(cfgfile)) == 2


def test_malformed_config_exits_2(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text("not json {")
    assert run_cli("eval-series", "--config", str(cfgfile)) == 2


def test_nmax_is_gone(tmp_path, capsys):
    # no command read it; it only echoed "n_max": 1 in the JSON params
    assert run_cli("verify", "gf-order0", "--nmax", "1") == 2
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"nmax": 1}))
    assert run_cli("verify", "gf-order0", "--config", str(cfgfile)) == 2
    assert "unknown config keys: nmax" in capsys.readouterr().err


def test_bad_sweep_axis_exits_2(capsys):
    assert run_cli("sweep", "--grid", "nonsense=1,2") == 2


# --------------------------------------------------------- config file merge

def test_config_file_values_used(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"h": 2.0, "alpha": 7.0, "rho": 0.5}))
    assert run_cli("heun-map", "--config", str(cfgfile)) == 0
    _, rows = parse_csv(capsys.readouterr().out)
    assert rows[0]["q"] == "-2"        # q = -h*rho^-2/4
    assert rows[0]["alpha_h"] == "4"   # (alpha+1)/2


def test_flags_override_config_file(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"h": 2.0, "alpha": 7.0}))
    assert run_cli("heun-map", "--config", str(cfgfile), "--h", "4") == 0
    _, rows = parse_csv(capsys.readouterr().out)
    assert rows[0]["q"] == "-4"        # flag h=4 wins over file h=2
    assert rows[0]["alpha_h"] == "4"   # file alpha=7 still applies


def test_config_file_list_s_accepted(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"s": [0.1, 0.2, 0.1]}))
    assert run_cli("verify", "gf-order0", "--config", str(cfgfile)) == 0


def _outputs(capsys, argv, paths):
    """Exit code, stdout, and the text of each path (removed after reading)."""
    code = main(list(argv))
    texts = [p.read_text() if p.exists() else None for p in paths]
    for p in paths:
        p.unlink(missing_ok=True)
    return code, capsys.readouterr().out, texts


# One case per option: flag -> (command, file value, the same value as flag
# arguments, another file value).
ROUND_TRIPS = {
    "--rho": (["eval-series"], 0.7, ["0.7"], 0.6),
    "--h": (["eval-series"], 2.0, ["2"], 0.5),
    "--alpha": (["eval-series"], 5.0, ["5"], 1.0),
    "--lambda": (["eval-series"], 0.5, ["0.5"], 0.0),
    "--xi": (["eval-series"], 0.2, ["0.2"], 0.05),
    "--z": (["eval-series"], 0.6, ["0.6"], 0.4),
    "--N": (["eval-series"], 20, ["20"], 30),
    "--s": (["verify", "gf-order0"], [0.1, 0.2], ["0.1,0.2"], [0.2, 0.1]),
    "--gamma": (["verify", "gf-order0"], 1.1, ["1.1"], 0.9),
    "--K": (["verify", "gf-order0"], 2, ["2"], 3),
    "--amax": (["verify", "gf-order0"], 30, ["30"], 40),
    "--nodes": (["verify", "gf-order0"], 16, ["16"], 24),
    "--contour-m": (["verify", "residue"], 128, ["128"], 256),
    "--tol": (["verify", "ode"], 1e-3, ["1e-3"], 1e-30),
    "--format": (["eval-series"], "json", ["json"], "csv"),
    "--out": (["eval-series"], "a.txt", ["a.txt"], "b.txt"),
    "--full-grid": (["verify", "lemma1"], True, [], False),
    "--grid": (["sweep"], ["xi=0.1,0.2"], ["xi=0.1,0.2"], ["h=0,1"]),
}


def test_round_trips_cover_every_option():
    assert set(ROUND_TRIPS) == {opt[0] for opt in cli._OPTIONS}


@pytest.mark.parametrize("flag", sorted(ROUND_TRIPS))
def test_config_value_round_trips_through_its_flag(flag, tmp_path, monkeypatch, capsys):
    # a file value gives the same bytes as its flag, and the flag wins over it
    monkeypatch.chdir(tmp_path)
    key = next(opt[1] for opt in cli._OPTIONS if opt[0] == flag)
    command, value, flag_args, other = ROUND_TRIPS[flag]
    if flag != "--format":
        command = command + ["--format", "json"]
    paths = [tmp_path / "a.txt", tmp_path / "b.txt"]

    def config(v):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({key: v}))
        return ["--config", str(path)]

    flag_argv = [flag, *flag_args]
    by_flag = _outputs(capsys, command + flag_argv, paths)
    assert by_flag[1] or any(by_flag[2])
    assert _outputs(capsys, command + config(value), paths) == by_flag
    assert _outputs(capsys, command + config(other), paths) != by_flag
    assert _outputs(capsys, command + config(other) + flag_argv, paths) == by_flag


@pytest.mark.parametrize("data,flag_argv", [
    ({"rho": "0.5"}, ["--rho", "0.5"]),
    ({"alpha": "3"}, ["--alpha", "3"]),
    ({"tol": "1e-3"}, ["--tol", "1e-3"]),
    ({"N": 40.0}, ["--N", "40"]),
    ({"N": "40"}, ["--N", "40"]),
])
def test_config_value_converts_like_its_flag(data, flag_argv, tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(data))
    assert run_cli("eval-series", "--format", "json", "--config", str(cfgfile)) == 0
    from_file = capsys.readouterr().out
    assert run_cli("eval-series", "--format", "json", *flag_argv) == 0
    assert capsys.readouterr().out == from_file


@pytest.mark.parametrize("data,named", [
    ({"xi": None}, "'xi'"),
    ({"z": None}, "'z'"),
    ({"rho": "0.5x"}, "'rho'"),
    ({"N": 40.7}, "'N'"),
    ({"amax": "ten"}, "'amax'"),
    ({"nodes": 1e400}, "'nodes'"),
    ({"K": True}, "'K'"),
    ({"tol": [1e-3]}, "'tol'"),
    ({"format": 1}, "'format'"),
    ({"out": None}, "'out'"),
    ({"full_grid": "yes"}, "'full_grid'"),
    ({"s": ["a", 0.1]}, "--s"),
    ({"grid": 5}, "grid"),
    ({"grid": ["xi"]}, "grid axis"),
])
def test_bad_config_value_exits_2_naming_key(data, named, tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(data))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("eval-series", "--config", str(cfgfile)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("lame3trf: error:")
    assert named in captured.err


def test_config_grid_list_matches_flag(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"grid": ["xi=0.1,0.2"]}))
    assert run_cli("sweep", "--config", str(cfgfile)) == 0
    from_file = capsys.readouterr().out
    assert run_cli("sweep", "--grid", "xi=0.1,0.2") == 0
    assert capsys.readouterr().out == from_file
    assert len(from_file.strip().split("\n")) == 3


# -------------------------------------------------------------------- sweep

def test_sweep_single_point_matches_eval_series(capsys):
    assert run_cli("eval-series") == 0
    direct = capsys.readouterr().out
    assert run_cli("sweep") == 0
    swept = capsys.readouterr().out
    assert direct == swept


def test_sweep_three_h_values_sorted(capsys):
    assert run_cli("sweep", "--grid", "h=2,0,1") == 0
    _, rows = parse_csv(capsys.readouterr().out)
    hs = [float(r["h"]) for r in rows]
    assert len(hs) == 3
    assert hs[0] < hs[1] < hs[2]


def test_sweep_two_axes_lexicographic(capsys):
    assert run_cli("sweep", "--grid", "xi=0.1,0.05", "--grid", "h=1,0") == 0
    _, rows = parse_csv(capsys.readouterr().out)
    pairs = [(float(r["h"]), float(r["xi"])) for r in rows]
    assert pairs == [(0.0, 0.05), (0.0, 0.1), (1.0, 0.05), (1.0, 0.1)]


def test_sweep_gf_order0_gaps_small(capsys):
    assert run_cli("sweep", "gf-order0", "--grid", "s0=0.1,0.2,0.3") == 0
    _, rows = parse_csv(capsys.readouterr().out)
    assert len(rows) == 3
    assert [float(r["s0"]) for r in rows] == [0.1, 0.2, 0.3]
    assert all(float(r["gap"]) < 1e-8 for r in rows)


def test_sweep_json_format(capsys):
    assert run_cli("sweep", "--grid", "h=0,1", "--format", "json") == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["command"] == "sweep"
    assert obj["target"] == "eval-series"
    assert len(obj["rows"]) == 2
    assert obj["rows"][0]["h"] == 0.0


# -------------------------------------------------------------- determinism

def test_repeated_runs_byte_identical(tmp_path, capsys):
    checks = (
        ("a", ["eval-series", "--xi", "0.07"]),
        ("b", ["verify", "gf-order0", "--format", "json"]),
        ("c", ["verify", "residue", "--format", "json"]),
        ("d", ["sweep", "gf-order0", "--grid", "s0=0.1,0.3"]),
        ("e", ["heun-map"]),
    )
    for tag, argv in checks:
        f1 = tmp_path / f"{tag}1.dat"
        f2 = tmp_path / f"{tag}2.dat"
        run_cli(*argv, "--out", str(f1))
        run_cli(*argv, "--out", str(f2))
        capsys.readouterr()
        assert f1.read_bytes() == f2.read_bytes(), argv
        assert f1.read_bytes()  # non-empty


def test_cli_import_leaves_scipy_out():
    # numpy is the only runtime dependency; scipy is a test-only oracle
    code = (
        "import sys, lame3trf.cli\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "lame3trf.cli", "heun-map", "--rho", "0.5",
         "--h", "2", "--alpha", "3"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1].endswith("-2")
