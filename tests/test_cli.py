"""End-to-end tests of the command-line interface."""

import argparse
import json
import math
import os
import pathlib
import random
import subprocess
import sys
import warnings

import numpy as np
import pytest

import trotterion
from trotterion import SixGateParams, apply_scheme, reparam, s3
from trotterion.apps import CDConfig, cd_beta
from trotterion.apps.cd import MAX_SLICES
from trotterion.apps.common import MAX_MODES
from trotterion.cli import MAX_GRID_POINTS, _parse_grid, main
from trotterion.formula import from_json, to_json


# Child processes import the package this process imports, from an
# installed copy or from the checkout's src directory.
SRC = pathlib.Path(trotterion.__file__).resolve().parents[1]
CHILD_ENV = {**os.environ,
             "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def build_file(tmp_path, capsys, name, *argv):
    path = tmp_path / name
    code, _, _ = run_cli(capsys, "build", "--out", str(path), *argv)
    assert code == 0
    return str(path)


def test_build_matches_recipe_examples(tmp_path, capsys):
    code, out, err = run_cli(capsys, "build", "--base", "s3",
                             "--scheme", "g10")
    assert code == 0
    f = from_json(out)
    assert len(f.steps) == 56
    assert f.claimed_order == 5
    assert "gates=56 order=5" in err

    code, out, _ = run_cli(capsys, "build", "--base", "s2")
    assert code == 0
    assert len(from_json(out).steps) == 4

    code, out, err = run_cli(capsys, "build", "--base", "s3",
                             "--scheme", "q4", "--scheme", "q4")
    assert code == 0
    f = from_json(out)
    assert len(f.steps) == 81
    assert f.claimed_order == 7


def test_build_parity_violation_exits_2(capsys):
    # the odd-order 5-copy promotion refuses the even-order base
    code, _, err = run_cli(capsys, "build", "--base", "s2", "--scheme", "cw5")
    assert code == 2
    assert err.startswith("error:")


def test_build_fr_requires_weight(capsys):
    code, _, err = run_cli(capsys, "build", "--base", "fr")
    assert code == 2
    assert "--R" in err


def test_scan_footer_slope_and_determinism(tmp_path, capsys):
    formula = build_file(tmp_path, capsys, "s3.json", "--base", "s3")
    args = ("scan", "--formula", formula, "--window", "0.02:0.1")
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    lines = out1.strip().split("\n")
    assert lines[0] == "x,error"
    assert len(lines) == 22  # header + 20 points + footer
    footer = lines[-1]
    assert footer.startswith("# slope=")
    slope = float(footer.split("slope=")[1].split()[0])
    assert abs(slope - 4.001) <= 0.05
    code, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_scan_single_point_omits_footer(tmp_path, capsys):
    formula = build_file(tmp_path, capsys, "s3.json", "--base", "s3")
    code, out, _ = run_cli(capsys, "scan", "--formula", formula,
                           "--xs", "0.1:0.1:0.1")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 2
    assert not lines[-1].startswith("#")


def test_scan_gnuplot_companion(tmp_path, capsys):
    formula = build_file(tmp_path, capsys, "s3.json", "--base", "s3")
    code, _, err = run_cli(capsys, "scan", "--formula", formula,
                           "--gnuplot", str(tmp_path / "plot.gp"))
    assert code == 2
    assert "--out" in err
    csv = tmp_path / "scan.csv"
    script = tmp_path / "plot.gp"
    code, _, _ = run_cli(capsys, "scan", "--formula", formula,
                         "--out", str(csv), "--gnuplot", str(script))
    assert code == 0
    text = script.read_text()
    assert "set logscale xy" in text
    assert str(csv) in text


def test_fit_reproduces_scan_footer(tmp_path, capsys):
    formula = build_file(tmp_path, capsys, "s3.json", "--base", "s3")
    csv = tmp_path / "scan.csv"
    code, _, _ = run_cli(capsys, "scan", "--formula", formula,
                         "--window", "0.02:0.1", "--out", str(csv))
    assert code == 0
    footer = csv.read_text().strip().split("\n")[-1]
    want = float(footer.split("slope=")[1].split()[0])
    code, out, _ = run_cli(capsys, "fit", "--csv", str(csv),
                           "--window", "0.02:0.1")
    assert code == 0
    assert out.startswith("slope=")
    got = float(out.split("slope=")[1].split()[0])
    assert abs(got - want) <= 1e-9


def test_fit_missing_file_exits_2(capsys):
    code, _, err = run_cli(capsys, "fit", "--csv", "/no/such/file.csv")
    assert code == 2
    assert err.startswith("error:")


def test_gates_accuracy_table(tmp_path, capsys):
    formula = build_file(tmp_path, capsys, "g5.json", "--base", "s3",
                         "--scheme", "g10")
    code, out, _ = run_cli(capsys, "gates", "--formula", formula,
                           "--eps", "1e-4", "--xs", "0.1:0.3:0.1")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,r,gates"
    assert len(lines) == 4
    # one repetition suffices across the whole range
    for line in lines[1:]:
        _, r, gates = line.split(",")
        assert r == "1"
        assert gates == "56"


def test_gates_unreachable_accuracy_exits_3(tmp_path, capsys):
    formula = build_file(tmp_path, capsys, "g5.json", "--base", "s3",
                         "--scheme", "g10")
    code, _, err = run_cli(capsys, "gates", "--formula", formula,
                           "--eps", "1e-30", "--xs", "0.3:0.3:0.1")
    assert code == 3
    assert err.startswith("error:")


def test_solve_sqrt4_row(capsys):
    code, out, _ = run_cli(capsys, "solve", "--sqrt4", "3")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,a,b,c,d,signed_sum"
    fields = lines[1].split(",")
    assert fields[0] == "3"
    assert fields[1] == "1" and fields[2] == "2"
    assert abs(float(fields[3]) - 1.982590733) <= 1e-9
    assert abs(float(fields[5]) - 0.2597447625) <= 1e-9


@pytest.mark.parametrize("n", ["47", "1021"])
def test_solve_sqrt4_high_order_row(capsys, n):
    code, out, err = run_cli(capsys, "solve", "--sqrt4", n)
    assert code == 0, err
    fields = out.strip().split("\n")[1].split(",")
    assert fields[0] == n
    assert float(fields[4]) < 0.0 and float(fields[5]) > 1e-6


def test_solve_sqrt4_even_order_exits_2(capsys):
    code, _, err = run_cli(capsys, "solve", "--sqrt4", "4")
    assert code == 2
    assert err.startswith("error:")


def test_solve_pr_row(capsys):
    code, out, _ = run_cli(capsys, "solve", "--pr", "10")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "R,p1,p2,p3,p4,p5,p6,max_residual"
    fields = lines[1].split(",")
    assert fields[0] == "10"
    assert float(fields[-1]) <= 1e-10
    # the printed 12 digits still meet every condition
    rp = reparam(SixGateParams(*map(float, fields[1:7])))
    want = (1.0, 1.0, 0.5 - 10.0, 1.0 / 6.0, 1.0 / 6.0)
    assert np.allclose((rp.l, rp.m, rp.q, rp.r, rp.s), want, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("argv,want", [
    (["chain", "--L", "6", "--t1", "1", "--t2", "-1e-3", "--T", "1", "--ns", "8,16"], 0),
    (["cd", "--J", "-1e0", "--hz", "5", "--tau", "1", "--N", "4"], 0),
    (["solve", "--pr", "-1e-1"], 0),
    (["km", "--Lx", "4", "--Ly", "4", "--J", "-inf", "--phi", "1", "--T", "1"], 2),
], ids=["chain-e-notation", "cd-e-notation", "solve-e-notation", "km-minus-inf"])
def test_negative_float_given_as_separate_argument(capsys, argv, want):
    # argparse alone takes -1e-3 or -inf after a flag for an unknown option
    code, out, err = run_cli(capsys, *argv)
    assert code == want, err
    if want == 0:
        assert err == "" and out
    else:
        lines = err.strip().split("\n")
        assert len(lines) == 1 and lines[0].startswith("error:")


def test_cd_run_csv(tmp_path, capsys):
    args = ("cd", "--J", "-1", "--hz", "5", "--tau", "1", "--N", "10")
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,fidelity_trotter,fidelity_cd,beta"
    assert len(lines) == 12
    final = lines[-1].split(",")
    assert float(final[2]) > float(final[1])
    assert final[3] == "nan"  # the weight is an endpoint limit there
    code, out2, _ = run_cli(capsys, *args)
    assert out == out2


def test_chain_csv_and_convergence(capsys):
    code, out, _ = run_cli(capsys, "chain", "--L", "6", "--t1", "1",
                           "--t2", "0.5", "--T", "1", "--ns", "8,16")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,error,gates"
    assert lines[1].split(",")[2] == str(3 * 8 * 6)
    assert lines[2].split(",")[2] == str(3 * 16 * 6)
    assert lines[-1].startswith("# slope=")

    def single_error(n):
        code, out, _ = run_cli(capsys, "chain", "--L", "6", "--t1", "1",
                               "--t2", "0.5", "--T", "1", "--n", str(n))
        assert code == 0
        return float(out.strip().split("\n")[1].split(",")[1])

    assert 0.0 < single_error(128) < single_error(64)


@pytest.mark.parametrize("argv", [
    ["chain", "--L", "6", "--t1", "1", "--t2", "0.5", "--T", "1"],
    ["km", "--Lx", "4", "--Ly", "4", "--J", "1", "--phi", "1.5707963267948966", "--T", "1"],
], ids=["chain", "km"])
def test_single_step_count_runs_as_a_one_count_grid(capsys, argv):
    code, single, _ = run_cli(capsys, *argv, "--n", "16")
    assert code == 0
    code, grid, _ = run_cli(capsys, *argv, "--ns", "16")
    assert code == 0
    assert single == grid and single.startswith("n,error,gates\n16,")


def test_km_csv(capsys):
    code, out, _ = run_cli(capsys, "km", "--Lx", "3", "--Ly", "3", "--J", "1",
                           "--phi", "0.7853981633974483", "--T", "1",
                           "--boundary", "torus", "--ns", "8,16")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,error,gates"
    assert lines[1].split(",")[2] == "56"
    assert lines[2].split(",")[2] == "112"
    errs = [float(line.split(",")[1]) for line in lines[1:3]]
    assert errs[1] < errs[0]


def test_trajectory_partial_sums(tmp_path, capsys):
    formula = build_file(tmp_path, capsys, "s3.json", "--base", "s3")
    code, out, _ = run_cli(capsys, "trajectory", "--formula", formula,
                           "--gen", "A")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "step,partial_sum"
    sums = [float(line.split(",")[1]) for line in lines[1:]]
    assert len(sums) == 3
    assert abs(sums[0] - (math.sqrt(5.0) - 1.0) / 2.0) <= 1e-15
    assert abs(sums[1] + (3.0 - math.sqrt(5.0)) / 2.0) <= 1e-15
    assert sums[2] == 0.0


def test_scan_missing_formula_exits_2(capsys):
    code, _, err = run_cli(capsys, "scan", "--formula", "/no/such/file.json")
    assert code == 2
    assert err.startswith("error:")


def test_scan_rejects_malformed_grid(tmp_path, capsys):
    formula = build_file(tmp_path, capsys, "s3.json", "--base", "s3")
    for grid in ("nope", "nan:0.1:0.01", "0.01:inf:0.01", "0.01:0.1:inf",
                 f"1:{MAX_GRID_POINTS + 1}:1", f"0:1:{1 / MAX_GRID_POINTS}"):
        with pytest.raises(SystemExit) as info:
            main(["scan", "--formula", formula, "--xs", grid])
        assert info.value.code == 2
    capsys.readouterr()
    assert len(_parse_grid(f"1:{MAX_GRID_POINTS}:1")) == MAX_GRID_POINTS


def test_grid_endpoint_tolerance_scales_with_the_grid():
    # HI is in when a point passes it by rounding alone, at any magnitude:
    # an absolute 1e-12 took 1e-13:5e-13 to 15 points, and counted
    # 1e-300:1e-299 as about 1e287 of them
    small = _parse_grid("1e-13:5e-13:1e-13")
    assert len(small) == 5 and small[-1] == pytest.approx(5e-13, rel=1e-15)
    tiny = _parse_grid("1e-300:1e-299:1e-300")
    assert len(tiny) == 10 and tiny[-1] == pytest.approx(1e-299, rel=1e-15)
    assert _parse_grid("0.1:0.3:0.1") == [0.1, 0.2, 0.1 + 2 * 0.1]
    assert len(_parse_grid("0.1:0.3:0.05")) == 5
    # but never by half a STEP: 1e-12 of the grid's magnitude alone took
    # 1:1:1e-14 to 101 points up to 1.000000000001, and counted
    # 1e154:1e154:1 as about 1e142 points
    assert _parse_grid("1:1:1e-14") == [1.0]
    assert _parse_grid("1:1:1.2e-16") == [1.0]
    with pytest.raises(argparse.ArgumentTypeError, match="below the spacing of doubles"):
        _parse_grid("1e154:1e154:1")


def test_accuracy_warning_is_one_line():
    warning = ("warning: closed-form sum+commutator coefficients requested below the "
               "large-R regime; third-order residuals are O(1)\n")
    for argv, code, tail in (
            (["--R", "0.3"], 0, "gates=6 order=3 label=fR[R=0.3]\n"),
            (["--R", "-0.3", "--scheme", "two-copy"], 2,
             "error: the 2-copy step needs an even-order input\n")):
        proc = subprocess.run([sys.executable, "-m", "trotterion.cli", "build", "--base", "fr",
                               *argv], env=CHILD_ENV, capture_output=True, text=True, timeout=60)
        assert proc.returncode == code
        assert proc.stderr == warning + tail


def test_console_script_entry_point(tmp_path):
    proc = subprocess.run([sys.executable, "-m", "trotterion.cli", "build",
                           "--base", "s2"],
                          env=CHILD_ENV, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert len(payload["steps"]) == 4
    assert "gates=4" in proc.stderr


def test_one_process_matches_a_process_per_command(tmp_path, capsys):
    # the parser is built once per process; a rejected command in between
    # must not change what later commands write
    def commands(d):
        g5 = str(d / "g5.json")
        return [["build", "--base", "s3", "--scheme", "g10", "--out", g5],
                ["scan", "--formula", g5, "--out", str(d / "scan.csv")],
                ["gates", "--formula", g5, "--xs", "0.1:0.2:0.1", "--eps", "1e-6",
                 "--out", str(d / "gates.csv")]]

    fresh, same = tmp_path / "fresh", tmp_path / "same"
    fresh.mkdir()
    same.mkdir()
    for argv in commands(fresh):
        proc = subprocess.run([sys.executable, "-m", "trotterion.cli", *argv],
                              env=CHILD_ENV, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
    build, *rest = commands(same)
    assert main(build) == 0
    with pytest.raises(SystemExit) as info:
        main(["scan", "--formula", build[-1], "--xs", "1:0:1"])
    assert info.value.code == 2
    for argv in rest:
        assert main(argv) == 0
    capsys.readouterr()
    for name in ("g5.json", "scan.csv", "gates.csv"):
        assert (same / name).read_bytes() == (fresh / name).read_bytes(), name


def test_cli_import_leaves_scipy_optimize_out(tmp_path):
    # scipy.optimize adds about 0.2 s to every CLI start, and scipy.linalg
    # about 0.3 s; it serves only matcore's Pade and square-root fallbacks,
    # which none of the README's commands reaches
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    commands = [line.removeprefix("trotterion ") for line in readme.read_text().splitlines()
                if line.startswith("trotterion ")]
    script = ("import contextlib, io, sys, trotterion.cli\n"
              "print('scipy.optimize' in sys.modules)\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    codes = [trotterion.cli.main(line.split()) for line in sys.argv[1:]]\n"
              "print(codes, 'scipy.linalg' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script, *commands], cwd=tmp_path,
                          env=CHILD_ENV, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert len(commands) == 10
    assert proc.stdout.split("\n")[:2] == ["False", f"{[0] * len(commands)} False"]


def test_km_negative_coupling_runs(capsys):
    # a negative J sends the per-step weight below -1/2, into the reflected step
    code, out, err = run_cli(capsys, "km", "--Lx", "4", "--Ly", "4", "--J", "-1",
                             "--phi", "1.5707963267948966", "--T", "1")
    assert code == 0, err
    footer = out.strip().split("\n")[-1]
    slope = float(footer.split("slope=")[1].split()[0])
    assert abs(slope - (-1.0)) <= 0.15


def test_cd_endpoint_row_chosen_by_index(capsys):
    # 49 * (1 / 49) rounds below 1, so the last t is not tau
    code, out, err = run_cli(capsys, "cd", "--J", "-1", "--hz", "5", "--tau", "1",
                             "--N", "49")
    assert code == 0, err
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert len(rows) == 50
    assert rows[-1][3] == "nan"
    cfg = CDConfig(J=-1.0, hz=5.0, tau=1.0, n_steps=49)
    for t, _, _, beta in rows[:-1]:
        assert float(beta) == cd_beta(cfg, float(t))


def test_cd_exact_pr_rescues_slice_beyond_first_multistart_round(capsys):
    # slice 7 sits at R=0.594648, where the closed-form gauge has no root and
    # the former Newton multistart needed a second round of draws
    code, out, err = run_cli(capsys, "cd", "--J", "-0.7844027253947177",
                             "--hz", "5.3319924341205285", "--tau", "1", "--N", "14",
                             "--exact-pr")
    assert code == 0, err
    assert len(out.strip().split("\n")) == 16


GOOD_JSON = '{"steps": [["A", 1.0], ["B", 1.0]]}'
# g10 applied three times to S3: every error of its default scan sits at
# the rounding floor of its 5556 factors
G10_CUBED_JSON = to_json(apply_scheme("g10", apply_scheme("g10", apply_scheme("g10", s3()))))
HUGE_INT = "1" + "0" * 400  # beyond the float range
HUGE_STEPS = "1" + "0" * 300  # within the float range, but its matrix power overflows
HUGE_COEFF_JSON = '{"steps": [["A", %s], ["B", 1.0]]}' % HUGE_INT
# finite coefficients whose phases are past 2**52, where no double resolves a radian
HUGE_PHASE_JSON = '{"steps": [["A", 1e300], ["B", 1e300]]}'
BAD_INPUTS = [
    # files to write, argv (file names replaced by their paths), exit code
    pytest.param({"f.json": '{"steps": [5]}'}, ["scan", "--formula", "f.json"], 2,
                 id="step-not-a-pair"),
    pytest.param({"f.json": '{"steps": [["A"]]}'},
                 ["trajectory", "--formula", "f.json", "--gen", "A"], 2, id="step-too-short"),
    pytest.param({"f.json": '{"steps": [["A", "x"]]}'},
                 ["gates", "--formula", "f.json", "--eps", "1e-4", "--xs", "0.1:0.1:0.1"], 2,
                 id="step-coefficient-not-a-number"),
    pytest.param({"f.json": GOOD_JSON},
                 ["gates", "--formula", "f.json", "--eps", "nan", "--xs", "0.1:0.1:0.1"], 2,
                 id="gates-eps-nan"),
    pytest.param({"f.json": GOOD_JSON},
                 ["gates", "--formula", "f.json", "--eps", "inf", "--xs", "0.1:0.1:0.1"], 2,
                 id="gates-eps-inf"),
    # files that are not UTF-8 text
    pytest.param({"f.json": b"\xff\xfe"}, ["scan", "--formula", "f.json"], 2,
                 id="formula-not-utf8"),
    pytest.param({"s.csv": b"\xff\xfe"}, ["fit", "--csv", "s.csv"], 2, id="fit-csv-not-utf8"),
    pytest.param({"f.json": HUGE_COEFF_JSON}, ["trajectory", "--formula", "f.json", "--gen", "A"],
                 2, id="trajectory-coefficient-beyond-float-range"),
    pytest.param({"f.json": HUGE_COEFF_JSON}, ["scan", "--formula", "f.json"], 2,
                 id="scan-coefficient-beyond-float-range"),
    pytest.param({"f.json": HUGE_COEFF_JSON},
                 ["gates", "--formula", "f.json", "--eps", "1e-4", "--xs", "0.1:0.1:0.1"], 2,
                 id="gates-coefficient-beyond-float-range"),
    pytest.param({"f.json": HUGE_PHASE_JSON}, ["scan", "--formula", "f.json"], 2,
                 id="scan-phase-beyond-resolution"),
    pytest.param({"f.json": HUGE_PHASE_JSON},
                 ["gates", "--formula", "f.json", "--xs", "0.1:0.1:0.1", "--eps", "1e-3"], 2,
                 id="gates-phase-beyond-resolution"),
    pytest.param({"f.json": GOOD_JSON}, ["scan", "--formula", "f.json", "--target",
                                         "sum-commutator", "--R", "1e308"], 2,
                 id="scan-commutator-weight-phase-beyond-resolution"),
    pytest.param({"f.json": '{"steps": [["A", true], ["B", 1.0]]}'},
                 ["scan", "--formula", "f.json"], 2, id="step-coefficient-bool"),
    pytest.param({"f.json": '{"steps": [["A", "1e-3"], ["B", 1.0]]}'},
                 ["scan", "--formula", "f.json"], 2, id="step-coefficient-string"),
    pytest.param({"f.json": '{"claimed_order": true, "steps": [["A", 1.0], ["B", 1.0]]}'},
                 ["scan", "--formula", "f.json"], 2, id="claimed-order-bool"),
    pytest.param({"f.json": GOOD_JSON}, ["scan", "--formula", "f.json", "--window", "1:0"], 2,
                 id="scan-inverted-window"),
    pytest.param({"s.csv": "x,error\n0.05,1e-3\n0.1,1e-4\n"},
                 ["fit", "--csv", "s.csv", "--window", "1:0"], 2, id="fit-inverted-window"),
    pytest.param({"s.csv": "x,error\n0,1e-3\n0.1,1e-4\n"}, ["fit", "--csv", "s.csv"], 2,
                 id="fit-zero-x"),
    pytest.param({"s.csv": "x,error\n-0.05,1e-3\n0.1,1e-4\n"}, ["fit", "--csv", "s.csv"], 2,
                 id="fit-negative-x"),
    pytest.param({"s.csv": "x,error\n0.05,inf\n0.1,1e-4\n"}, ["fit", "--csv", "s.csv"], 2,
                 id="fit-infinite-error"),
    pytest.param({"s.csv": "x,error\n0.05,nan\n0.1,1e-4\n"}, ["fit", "--csv", "s.csv"], 2,
                 id="fit-nan-error"),
    pytest.param({"s.csv": "x,error\n0.1,1e-3\n0.1,2e-3\n"}, ["fit", "--csv", "s.csv"], 3,
                 id="fit-one-distinct-x"),
    # a window that keeps fewer than two rows: scan exits as fit does
    pytest.param({"s.csv": "x,error\n0.05,1e-3\n0.1,1e-4\n"},
                 ["fit", "--csv", "s.csv", "--window", "1:2"], 3, id="fit-window-holds-no-row"),
    pytest.param({"f.json": GOOD_JSON}, ["scan", "--formula", "f.json", "--window", "1:2"], 3,
                 id="scan-window-holds-no-row"),
    pytest.param({"f.json": GOOD_JSON}, ["scan", "--formula", "f.json", "--window", "0.1:0.2"],
                 3, id="scan-window-holds-one-row"),
    pytest.param({}, ["solve", "--pr", "nan"], 2, id="solve-pr-nan"),
    pytest.param({}, ["solve", "--pr", "inf"], 2, id="solve-pr-inf"),
    pytest.param({}, ["solve", "--pr", "1e300"], 2, id="solve-pr-overflowing-seed"),
    pytest.param({}, ["solve", "--pr", "1e10"], 2, id="solve-pr-beyond-weight-cap"),
    pytest.param({}, ["solve", "--pr", "1e14"], 2, id="solve-pr-far-beyond-weight-cap"),
    pytest.param({}, ["solve", "--pr=-0.5"], 2, id="solve-pr-at-domain-edge"),
    pytest.param({}, ["solve", "--pr=-0.7"], 2, id="solve-pr-below-domain"),
    pytest.param({}, ["solve", "--sqrt4", "1025"], 2, id="solve-sqrt4-overflowing-order"),
    pytest.param({}, ["km", "--Lx", "4", "--Ly", "4", "--J", "1", "--phi", "inf", "--T", "1"], 2,
                 id="km-infinite-flux"),
    pytest.param({}, ["km", "--Lx", "4", "--Ly", "4", "--J", "1e200", "--phi", "1", "--T", "1"], 2,
                 id="km-overflowing-coupling"),
    pytest.param({}, ["chain", "--L", "6", "--t1", "1e300", "--t2", "0.5", "--T", "1"], 2,
                 id="chain-overflowing-t1"),
    pytest.param({}, ["chain", "--L", "6", "--t1", "1", "--t2", "0.5", "--T", "1e300"], 2,
                 id="chain-overflowing-time"),
    pytest.param({}, ["chain", "--L", "6", "--t1", "1", "--t2", "inf", "--T", "1"], 2,
                 id="chain-infinite-t2"),
    pytest.param({}, ["cd", "--J", "-1", "--hz", "inf", "--tau", "1", "--N", "10"], 2,
                 id="cd-infinite-field"),
    pytest.param({}, ["cd", "--J", "1e200", "--hz", "5", "--tau", "1e-200", "--N", "10"], 2,
                 id="cd-overflowing-coupling"),
    pytest.param({}, ["km", "--Lx", "4", "--Ly", "4", "--J", "1e-200", "--phi", "1",
                      "--T", "1e200"], 2, id="km-overflowing-time"),
    pytest.param({}, ["chain", "--L", "6", "--t1", "1e-200", "--t2", "0.5", "--T", "1"], 2,
                 id="chain-step-scale-square-underflows"),
    pytest.param({}, ["km", "--Lx", "4", "--Ly", "4", "--J", "1", "--phi", "1",
                      "--T", "5e-324"], 2, id="km-step-weight-overflows"),
    pytest.param({}, ["chain", "--L", "6", "--t1=5e-324", "--t2", "3", "--T=1e-160"], 2,
                 id="chain-step-scale-underflows"),
    pytest.param({}, ["km", "--Lx", "3", "--Ly", "3", "--J=5e-324", "--phi", "1", "--T", "1"], 2,
                 id="km-flat-band-coupling-overflows"),
    pytest.param({}, ["km", "--Lx", "3", "--Ly", "3", "--J=5e-324", "--phi", "0.37", "--T", "1"],
                 2, id="km-flat-band-denominator-underflows"),
    pytest.param({}, ["cd", "--J", "3", "--hz", "3", "--tau=5e-324", "--N", "5"], 2,
                 id="cd-time-step-underflows"),
    pytest.param({}, ["chain", "--L", "6", "--t1", "1", "--t2", "0.5", "--T", "1",
                      "--ns", HUGE_INT], 2, id="chain-step-count-beyond-float-range"),
    pytest.param({}, ["km", "--Lx", "3", "--Ly", "3", "--J", "1", "--phi", "1", "--T", "1",
                      "--n", HUGE_INT], 2, id="km-step-count-beyond-float-range"),
    pytest.param({}, ["cd", "--J", "-1", "--hz", "5", "--tau", "1", "--N", HUGE_INT], 2,
                 id="cd-step-count-beyond-float-range"),
    pytest.param({}, ["chain", "--L", "6", "--t1", "1", "--t2", "0.5", "--T", "1",
                      "--ns", f"8,{HUGE_STEPS}"], 2, id="chain-step-power-overflows"),
    pytest.param({}, ["km", "--Lx", "3", "--Ly", "3", "--J", "1", "--phi", "1", "--T", "1",
                      "--ns", f"8,{HUGE_STEPS}"], 2, id="km-step-power-overflows"),
    pytest.param({}, ["cd", "--J", "-1", "--hz", "5", "--tau", "1", "--N", str(MAX_SLICES + 1)],
                 2, id="cd-step-count-above-slice-cap"),
    pytest.param({}, ["chain", "--L", "6", "--t1", "1", "--t2", "0.5", "--T", "1", "--ns", "0"], 2,
                 id="chain-zero-step-count"),
    pytest.param({}, ["km", "--Lx", "3", "--Ly", "3", "--J", "1", "--phi", "1", "--T", "1",
                      "--ns", "2,-3"], 2, id="km-negative-step-count"),
    # a single step count and a grid of them together
    pytest.param({}, ["chain", "--L", "8", "--t1", "1", "--t2", "0.5", "--T", "1", "--n", "8",
                      "--ns", "16,32"], 2, id="chain-step-count-and-grid"),
    pytest.param({}, ["km", "--Lx", "4", "--Ly", "4", "--J", "1", "--phi", "1", "--T", "1",
                      "--n", "8", "--ns", "16,32"], 2, id="km-step-count-and-grid"),
    # every error sits at the rounding floor, so no slope is fitted
    pytest.param({}, ["chain", "--L", "6", "--t1", "1e-300", "--t2", "1e-300", "--T", "1"], 3,
                 id="chain-couplings-at-noise-floor"),
    # errors grow with n from accumulated rounding, each below n * NOISE_FLOOR
    pytest.param({}, ["chain", "--L", "4", "--t1", "1", "--t2", "0", "--T", "1"], 3,
                 id="chain-rounding-grows-with-n"),
    pytest.param({}, ["km", "--Lx", "4", "--Ly", "4", "--J", "1e-9",
                      "--phi", "1.5707963267948966", "--T", "1"], 3,
                 id="km-rounding-grows-with-n"),
    pytest.param({}, ["cd", "--J", "0", "--hz", "0", "--tau", "1", "--N", "5"], 2,
                 id="cd-no-coupling-and-no-field"),
    pytest.param({}, ["cd", "--J", "1e-200", "--hz", "1e-200", "--tau", "1", "--N", "5"], 2,
                 id="cd-weight-denominator-underflows"),
    # a ramp ends with the error of its first failing slice; see RAMP_ERRORS
    pytest.param({}, ["cd", "--J", "1e-5", "--hz", "1e-5", "--tau", "1", "--N", "10",
                      "--exact-pr"], 2, id="cd-exact-weight-beyond-cap"),
    pytest.param({}, ["cd", "--J", "1e-200", "--hz", "1e-200", "--tau", "1", "--N", "10",
                      "--exact-pr"], 2, id="cd-exact-weight-denominator-underflows"),
    pytest.param({}, ["cd", "--J", "0", "--hz", "1e-152", "--tau", "1", "--N", "10"], 2,
                 id="cd-weight-over-time-step-overflows"),
    pytest.param({}, ["cd", "--J", "0", "--hz", "1e-152", "--tau", "1", "--N", "10",
                      "--exact-pr"], 2, id="cd-exact-weight-overflows-later"),
    pytest.param({"f.json": GOOD_JSON}, ["scan", "--formula", "f.json", "--target",
                                         "sum-commutator", "--R", "inf"], 2,
                 id="scan-infinite-commutator-weight"),
    # the default commutator target has no weight, so an R there is refused
    pytest.param({"f.json": GOOD_JSON}, ["scan", "--formula", "f.json", "--R", "3"], 2,
                 id="scan-commutator-target-with-weight"),
    pytest.param({"f.json": G10_CUBED_JSON}, ["scan", "--formula", "f.json"], 3,
                 id="scan-errors-at-rounding-floor"),
    # STEP below the spacing of doubles at LO. Made one point at a time
    # until a point passes HI, the first two grids never end; the third
    # repeats points
    pytest.param({"f.json": GOOD_JSON}, ["scan", "--formula", "f.json", "--xs", "1e300:1e300:1"],
                 2, id="scan-grid-step-below-spacing"),
    pytest.param({"f.json": GOOD_JSON}, ["gates", "--formula", "f.json", "--eps", "1e-4",
                                         "--xs", "1e154:1e154:1"], 2,
                 id="gates-grid-step-below-spacing"),
    pytest.param({"f.json": GOOD_JSON},
                 ["scan", "--formula", "f.json", "--xs", "1:1.000000000001:1.2e-16"], 2,
                 id="scan-grid-points-do-not-increase"),
]

# Rows run in a child process with a timeout, so that a grid made without
# end fails the suite instead of hanging it. Their error comes from argparse,
# as its last line after the usage lines.
CHILD_PROCESS_ROWS = {"scan-grid-step-below-spacing", "gates-grid-step-below-spacing",
                      "scan-grid-points-do-not-increase"}

# The error line of the ramps above. With J = 0 and hz = 1e-152 the weight
# R = beta/dt is finite beyond the exact solve's cap from slice 1, overflows
# to inf on slice 8, and beta itself overflows on slice 9.
RAMP_ERRORS = {
    "cd-exact-weight-beyond-cap": "error: R must be finite and at most 1e+08 in magnitude",
    "cd-exact-weight-denominator-underflows":
        "error: counterdiabatic weight overflows: J and hz are too small",
    "cd-weight-over-time-step-overflows": "error: step coefficients must be finite",
    "cd-exact-weight-overflows-later": "error: R must be finite and at most 1e+08 in magnitude",
}


@pytest.mark.parametrize("files,argv,want", BAD_INPUTS)
def test_malformed_input_exits_with_one_error_line(request, tmp_path, capsys, files, argv, want):
    for name, text in files.items():
        if isinstance(text, bytes):
            (tmp_path / name).write_bytes(text)
        else:
            (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    if request.node.callspec.id in CHILD_PROCESS_ROWS:
        proc = subprocess.run([sys.executable, "-m", "trotterion.cli", *argv],
                              env=CHILD_ENV, capture_output=True, text=True, timeout=60)
        assert proc.returncode == want and proc.stdout == ""
        lines = proc.stderr.strip().split("\n")
        assert [line for line in lines if "error:" in line] == lines[-1:]
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
        return
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, *argv)
    assert [str(w.message) for w in caught] == []
    assert code == want
    assert out == ""
    lines = err.strip().split("\n")
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "Traceback" not in err
    assert lines[0] == RAMP_ERRORS.get(request.node.callspec.id, lines[0])
    if any(isinstance(text, bytes) for text in files.values()):
        assert str(tmp_path) in lines[0]  # an unreadable file is named


def test_km_step_scale_whose_square_underflows_runs(capsys):
    # alpha^2 = 1e-400 underflows, but the weight beta*n/alpha^2 is the
    # finite coupling*n/T ~ 1e200, so the run is valid; every error sits at
    # the rounding floor of a near-identity evolution, so no slope is fitted
    code, out, err = run_cli(capsys, "km", "--Lx", "4", "--Ly", "4", "--J", "1",
                             "--phi", "1", "--T", "1e-200", "--ns", "8,16")
    assert code == 3 and out == ""
    lines = err.strip().split("\n")
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "Traceback" not in err


# Magnitudes for the fuzz below. Each argument is extreme with probability
# FUZZ_EXTREME_SHARE: zero, subnormal, underflowing squares, the 1e15 cap
# and either side of it, overflowing squares or non-finite; otherwise it is
# ordinary, so that runs also get past the argument checks.
FUZZ_ORDINARY = (0.37, 1.0, 3.0)
FUZZ_EXTREMES = (0.0, 5e-324, 1e-300, 1e-200, 1e-160, 1e-20, 1e8, 1e15, 1.1e15,
                 1e200, 1e300, math.inf, math.nan)
FUZZ_EXTREME_SHARE = 0.4
FUZZ_CASES = 300


def _fuzz_argv(rng: random.Random) -> list[str]:
    def value(flag: str) -> str:
        # "--flag=-1e-20"; test_negative_float_given_as_separate_argument
        # covers the separate form
        v = rng.choice(FUZZ_EXTREMES if rng.random() < FUZZ_EXTREME_SHARE else FUZZ_ORDINARY)
        return f"{flag}={-v if rng.random() < 0.5 else v!r}"

    kind = rng.choice(("cd", "chain", "km", "solve"))
    if kind == "cd":
        argv = ["cd", value("--J"), value("--hz"), value("--tau"),
                "--N", str(rng.choice((1, 2, 5)))]
        return argv + ["--exact-pr"] if rng.random() < 0.5 else argv
    if kind == "chain":
        return ["chain", "--L", str(rng.choice((4, 6))), value("--t1"), value("--t2"),
                value("--T"), "--ns", "8,64"]
    if kind == "km":
        return ["km", "--Lx", "3", "--Ly", str(rng.choice((3, 4))), value("--J"),
                value("--phi"), value("--T"), "--ns", "8,64"]
    return ["solve", value("--pr")]


def test_extreme_arguments_fuzz(capsys):
    """Seeded fuzz of extreme cd, chain, km and solve --pr arguments: every
    run ends in exit 0, 2 or 3, a failure prints exactly one error line, and
    nothing prints a traceback or a RuntimeWarning."""
    rng = random.Random(20211)
    for _ in range(FUZZ_CASES):
        argv = _fuzz_argv(rng)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code, out, err = run_cli(capsys, *argv)
            except Exception as exc:  # a traceback at the command line
                pytest.fail(f"{argv} raised {exc!r}")
        runtime = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
        assert runtime == [], argv
        assert code in (0, 2, 3), argv
        assert "Traceback" not in err and "RuntimeWarning" not in err, argv
        if code != 0:
            lines = err.strip().split("\n")
            assert len(lines) == 1 and lines[0].startswith("error:"), argv


def _refuse_allocation(*args, **kwargs):
    raise AssertionError("allocated before the size check")


@pytest.mark.parametrize("argv", [
    ["chain", "--L", str(MAX_MODES + 2), "--t1", "1", "--t2", "0.5", "--T", "1"],
    ["km", "--Lx", "33", "--Ly", "32", "--J", "1", "--phi", "1", "--T", "1"],
    ["km", "--Lx", "3", "--Ly", str(10**12), "--J", "1", "--phi", "1", "--T", "1"],
], ids=["chain", "km", "km-huge"])
def test_oversized_lattice_rejected_before_allocating(monkeypatch, capsys, argv):
    monkeypatch.setattr(np, "zeros", _refuse_allocation)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error:") and "at most" in err


def test_solve_pr_large_weight_converges(capsys):
    code, out, err = run_cli(capsys, "solve", "--pr", "40000")
    assert code == 0, err
    assert out.startswith("R,p1,p2,p3,p4,p5,p6,max_residual\n40000,")


def test_cd_exact_pr_long_ramp_reaches_large_weights(capsys):
    # slices near the end of this ramp carry R up to about 4e4
    code, out, err = run_cli(capsys, "cd", "--J", "-1", "--hz", "5", "--tau", "1",
                             "--N", "200", "--exact-pr")
    assert code == 0, err
    assert len(out.strip().split("\n")) == 202
