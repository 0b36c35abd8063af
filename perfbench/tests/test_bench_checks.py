"""Every correctness check passes on real output and fails on corrupted output.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import io
import json
import math
import sys
from contextlib import redirect_stderr
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402
from trotterion import cli, extract_bch, from_json, GeneratorPair  # noqa: E402

RAMP = (-1.0, 1.0, 1.0, 10)     # no slice needs the multistart: fast


def run_cli(tmp_path: Path, name: str, argv: list[str]) -> str:
    out = tmp_path / name
    with redirect_stderr(io.StringIO()):
        assert cli.main(argv + ["--out", str(out)]) == 0
    return out.read_text(encoding="utf-8")


def replace_row(text: str, index: int, edit) -> str:
    """Apply edit(list of fields) to the index-th data row of a CSV."""
    lines = text.splitlines()
    data = [i for i, line in enumerate(lines) if line and not line.startswith("#")][1:]
    fields = lines[data[index]].split(",")
    lines[data[index]] = ",".join(edit(fields))
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def certify_out(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("certify")
    out = {}
    for name in ("G5", "Q5"):
        args, _, _ = workloads.LIBRARY[name]
        out[f"build:{name}"] = run_cli(tmp, f"{name}.json", ["build", *args])
        (tmp / f"{name}.json").write_text(out[f"build:{name}"])
        out[f"gates:{name}"] = run_cli(tmp, f"{name}.csv", [
            "gates", "--formula", str(tmp / f"{name}.json"), "--xs", "0.1:0.3:0.1", "--eps", "1e-8"])
    out["scan:G5"] = run_cli(tmp, "scan.csv", ["scan", "--formula", str(tmp / "G5.json")])
    out["sqrt4"] = run_cli(tmp, "sqrt4.csv", ["solve", "--sqrt4", "7"])
    return out


def test_build(certify_out):
    text = certify_out["build:G5"]
    checks.check_build(text, 56, 5)
    payload = json.loads(text)
    payload["steps"] = payload["steps"][:-1]
    with pytest.raises(CheckFailed):
        checks.check_build(json.dumps(payload), 56, 5)
    with pytest.raises(CheckFailed):
        checks.check_build(text, 56, 4)


def test_scan(certify_out):
    formula, csv = certify_out["build:G5"], certify_out["scan:G5"]
    checks.check_scan(formula, csv, checks.commutator_target)

    def double(fields):
        return [fields[0], repr(2.0 * float(fields[1]))]

    with pytest.raises(CheckFailed):
        checks.check_scan(formula, replace_row(csv, -1, double), checks.commutator_target)
    all_doubled = csv
    for i in range(20):
        all_doubled = replace_row(all_doubled, i, double)
    with pytest.raises(CheckFailed, match="scipy gives"):  # same slope, wrong values
        checks.check_scan(formula, all_doubled, checks.commutator_target)
    with pytest.raises(CheckFailed, match="printed slope"):
        checks.check_scan(formula, csv.replace("# slope=6", "# slope=7"), checks.commutator_target)
    with pytest.raises(CheckFailed, match="order\\+1"):
        checks.check_scan(formula.replace('"claimed_order": 5', '"claimed_order": 4'), csv,
                          checks.commutator_target)


def test_exact_step_scan_has_order_four(tmp_path):
    R = 6.0
    path = tmp_path / "fr.json"
    path.write_text(checks.exact_step_formula(R))
    csv = run_cli(tmp_path, "fr.csv", ["scan", "--formula", str(path), "--target",
                                       "sum-commutator", "--R", repr(R)])
    checks.check_scan(path.read_text(), csv, checks.sum_commutator_target(R))
    with pytest.raises(CheckFailed):
        checks.check_scan(path.read_text(), csv, checks.sum_commutator_target(R + 1.0))


def test_gates(certify_out):
    formula, csv = certify_out["build:G5"], certify_out["gates:G5"]
    checks.check_gates(formula, csv, 1e-8)
    with pytest.raises(CheckFailed, match="exceeds eps"):
        checks.check_gates(formula, replace_row(csv, -1, lambda f: [f[0], str(int(f[1]) - 1), f[2]]), 1e-8)
    with pytest.raises(CheckFailed, match="not minimal"):
        checks.check_gates(formula, replace_row(csv, -1, lambda f: [f[0], str(int(f[1]) + 1), f[2]]), 1e-8)
    with pytest.raises(CheckFailed, match="gates printed"):
        checks.check_gates(formula, replace_row(csv, 0, lambda f: [f[0], f[1], str(int(f[2]) + 1)]), 1e-8)


def test_gate_gain(certify_out):
    checks.check_gate_gain(certify_out["gates:G5"], certify_out["gates:Q5"])
    with pytest.raises(CheckFailed):
        checks.check_gate_gain(certify_out["gates:Q5"], certify_out["gates:G5"])


def test_sqrt4(certify_out):
    csv = certify_out["sqrt4"]
    checks.check_sqrt4(csv)
    with pytest.raises(CheckFailed, match="condition"):
        checks.check_sqrt4(replace_row(csv, 0, lambda f: f[:3] + [repr(float(f[3]) * (1 + 1e-6))] + f[4:]))
    with pytest.raises(CheckFailed, match="signed_sum"):
        checks.check_sqrt4(replace_row(csv, 0, lambda f: f[:5] + [repr(float(f[5]) + 1e-3)]))


def test_bch(certify_out):
    gens = GeneratorPair(checks.PAULI_A, checks.PAULI_B)
    result = extract_bch(from_json(certify_out["build:G5"]), gens)
    checks.check_bch(result.order1, result.order2)
    with pytest.raises(CheckFailed, match="M1"):
        checks.check_bch(result.order1 + 1e-3 * checks.PAULI_A, result.order2)
    with pytest.raises(CheckFailed, match="M2"):
        checks.check_bch(result.order1, 1.001 * result.order2)


@pytest.fixture(scope="module")
def ramp_out(tmp_path_factory):
    J, hz, tau, N = RAMP
    return run_cli(tmp_path_factory.mktemp("ramp"), "cd.csv",
                   ["cd", "--J", repr(J), "--hz", repr(hz), "--tau", repr(tau), "--N", str(N),
                    "--exact-pr"])


def test_ramp(ramp_out):
    final = checks.check_ramp(ramp_out, *RAMP)
    checks.check_cd_limit(final, checks.ideal_cd_fidelity(*RAMP[:3]))
    with pytest.raises(CheckFailed, match="outside"):
        checks.check_ramp(replace_row(ramp_out, 3, lambda f: [f[0], f[1], "1.0001", f[3]]), *RAMP)
    with pytest.raises(CheckFailed, match="outside"):
        checks.check_ramp(replace_row(ramp_out, 3, lambda f: [f[0], "-0.01", f[2], f[3]]), *RAMP)
    with pytest.raises(CheckFailed, match="does not beat"):
        checks.check_ramp(replace_row(ramp_out, -1, lambda f: [f[0], f[2], f[1], f[3]]), *RAMP)
    with pytest.raises(CheckFailed, match="beta"):
        checks.check_ramp(replace_row(ramp_out, 2, lambda f: f[:3] + [repr(1.01 * float(f[3]))]), *RAMP)
    with pytest.raises(CheckFailed, match="ideal"):
        checks.check_cd_limit(final, 0.99)


def test_cd_convergence():
    checks.check_cd_convergence((25, 1.0 - 8e-4), (100, 1.0 - 6e-5))
    with pytest.raises(CheckFailed):
        checks.check_cd_convergence((25, 1.0 - 6e-5), (100, 1.0 - 8e-4))


def test_lattice(tmp_path):
    csv = run_cli(tmp_path, "km.csv", ["km", "--Lx", "4", "--Ly", "4", "--J", "1", "--phi",
                                      repr(math.pi / 2), "--T", "1"])
    checks.check_lattice(csv, 7)
    with pytest.raises(CheckFailed, match="fall"):
        checks.check_lattice(replace_row(csv, -1, lambda f: [f[0], "1.0", f[2]]), 7)
    with pytest.raises(CheckFailed, match="gates printed"):
        checks.check_lattice(csv, 6)
    steep = csv
    for i in range(6):
        steep = replace_row(steep, i, lambda f: [f[0], repr(float(f[1]) ** 2), f[2]])
    with pytest.raises(CheckFailed, match="slope"):
        checks.check_lattice(steep, 7)


def test_loglog_slope_recovers_power():
    xs = np.logspace(-2, -1, 9)
    assert abs(checks.loglog_slope(xs, 3.0 * xs**5) - 5.0) < 1e-12
