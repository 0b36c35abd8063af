"""End-to-end tests of the command-line interface."""

import json
import math
import subprocess
import sys

import pytest

from trotterion.apps import CDConfig, cd_beta
from trotterion.cli import main
from trotterion.formula import from_json


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
    assert abs(float(fields[6]) - math.sqrt(10.5)) <= 1e-9


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
    for grid in ("nope", "nan:0.1:0.01", "0.01:inf:0.01", "0.01:0.1:inf"):
        with pytest.raises(SystemExit) as info:
            main(["scan", "--formula", formula, "--xs", grid])
        assert info.value.code == 2
    capsys.readouterr()


def test_console_script_entry_point(tmp_path):
    proc = subprocess.run([sys.executable, "-m", "trotterion.cli", "build",
                           "--base", "s2"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert len(payload["steps"]) == 4
    assert "gates=4" in proc.stderr


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
    # slice 7 sits at R=0.594648, where all 40 draws of the first round fail
    code, out, err = run_cli(capsys, "cd", "--J", "-0.7844027253947177",
                             "--hz", "5.3319924341205285", "--tau", "1", "--N", "14",
                             "--exact-pr")
    assert code == 0, err
    assert len(out.strip().split("\n")) == 16


GOOD_JSON = '{"steps": [["A", 1.0], ["B", 1.0]]}'
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
    pytest.param({}, ["solve", "--pr", "nan"], 2, id="solve-pr-nan"),
    pytest.param({}, ["solve", "--pr", "inf"], 2, id="solve-pr-inf"),
    pytest.param({}, ["solve", "--pr", "1e300"], 2, id="solve-pr-overflowing-seed"),
]


@pytest.mark.parametrize("files,argv,want", BAD_INPUTS)
def test_malformed_input_exits_with_one_error_line(tmp_path, capsys, files, argv, want):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == want
    assert out == ""
    lines = err.strip().split("\n")
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "Traceback" not in err
