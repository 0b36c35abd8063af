"""Correctness checks for the benchmark's operations.

Every check recomputes what it can with numpy and scipy alone, or tests a
property the method must have; none compares against a stored copy of an
earlier output, and none imports the package under test. A failing check
raises CheckFailed with a one-line reason.
"""

from __future__ import annotations

import json
import math

import numpy as np
import scipy.linalg
import scipy.optimize

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY2 = np.eye(2, dtype=complex)

# The pair the command line evaluates every formula on: A = -i X, B = -i Z.
PAULI_A = -1j * SIGMA_X
PAULI_B = -1j * SIGMA_Z
PAULI_COMM = PAULI_A @ PAULI_B - PAULI_B @ PAULI_A

# A fitted log-log slope may differ from the order it certifies by this
# much; it is the acceptance suite's tolerance for the fifth-order family
# (Q5's full-grid fit lands at 6.16).
SCAN_SLOPE_TOL = 0.3
# A scan row recomputed with scipy must match the printed error this closely.
ROW_REL_TOL = 1e-6
ROW_ABS_TOL = 1e-13
# Slack on the eps comparisons of a gates row, for the rounding difference
# between r explicit copies and the program's matrix power.
EPS_SLACK = 1e-9
BCH_TOL = 1e-6
SQRT4_REL_TOL = 1e-9
FIDELITY_SLACK = 1e-12
BETA_REL_TOL = 1e-9
# The ideal counterdiabatic evolution keeps the system in its ground state;
# a fine-step scipy evolution must reach fidelity 1 to within this.
IDEAL_CD_TOL = 1e-8
IDEAL_CD_SUBSTEPS = 400
# 1 - F_CD must fall at least like 1/N (observed: like 1/N^2).
CD_MIN_ORDER = 1.0
LATTICE_SLOPE_TOL = 0.15
FIT_AGREE_TOL = 1e-6


class CheckFailed(Exception):
    """An operation's output contradicts an independent computation."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------- parsing

def parse_csv(text: str) -> tuple[list[str], list[list[float]], dict[str, str]]:
    """Header, numeric rows and `# key=value` footer fields of a CLI CSV."""
    header: list[str] = []
    rows: list[list[float]] = []
    footer: dict[str, str] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            for part in line[1:].split():
                key, _, value = part.partition("=")
                footer[key] = value
        elif not header:
            header = line.split(",")
        else:
            rows.append([float(v) for v in line.split(",")])
    _require(bool(header) and bool(rows), "CSV has no header or no rows")
    _require(all(len(r) == len(header) for r in rows), "CSV row width differs from header")
    return header, rows, footer


def parse_formula(text: str) -> tuple[list[tuple[str, float]], int | None]:
    payload = json.loads(text)
    steps = [(str(tag), float(c)) for tag, c in payload["steps"]]
    return steps, payload.get("claimed_order")


def loglog_slope(xs, ys) -> float:
    """Ordinary least-squares slope of log(y) against log(x)."""
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    dx = lx - lx.mean()
    return float(np.dot(dx, ly - ly.mean()) / np.dot(dx, dx))


def _norm2(m: np.ndarray) -> float:
    return float(np.linalg.svd(m, compute_uv=False)[0])


def product(steps, x: float) -> np.ndarray:
    """Multiply out exp(c x G) on the Pauli pair with scipy, first step leftmost."""
    gens = {"A": PAULI_A, "B": PAULI_B}
    out = np.eye(2, dtype=complex)
    for tag, c in steps:
        out = out @ scipy.linalg.expm((c * x) * gens[tag])
    return out


def simplified_gate_count(steps) -> int:
    """Gates after merging adjacent same-tag steps and dropping |c| < 1e-14."""
    merged: list[list] = []
    for tag, c in steps:
        if merged and merged[-1][0] == tag:
            c += merged.pop()[1]
        if abs(c) >= 1e-14:
            merged.append([tag, c])
    return len(merged)


# ---------------------------------------------------------------- certify

def check_build(formula_text: str, gates: int, order: int) -> None:
    """The paper's gate count and the order the scheme raises to."""
    steps, claimed = parse_formula(formula_text)
    _require(claimed == order, f"built formula claims order {claimed}, scheme gives {order}")
    got = simplified_gate_count(steps)
    _require(got == gates, f"built formula has {got} gates, the paper's count is {gates}")


def commutator_target(x: float) -> np.ndarray:
    return scipy.linalg.expm((x * x) * PAULI_COMM)


def sum_commutator_target(R: float):
    return lambda x: scipy.linalg.expm(x * (PAULI_A + PAULI_B) + (R * x * x) * PAULI_COMM)


def check_scan(formula_text: str, csv_text: str, target) -> None:
    """Refit the slope, compare it with order + 1, and recompute the last row.

    `target(x)` is the exact exponential the formula approximates.
    """
    steps, order = parse_formula(formula_text)
    _, rows, footer = parse_csv(csv_text)
    xs = [r[0] for r in rows]
    errs = [r[1] for r in rows]
    _require(all(e > 0.0 for e in errs), "scan has a non-positive error")
    slope = loglog_slope(xs, errs)
    _require(abs(slope - (order + 1)) <= SCAN_SLOPE_TOL,
             f"refitted slope {slope:.4f} is not order+1={order + 1} within {SCAN_SLOPE_TOL}")
    _require("slope" in footer and abs(float(footer["slope"]) - slope) <= FIT_AGREE_TOL,
             f"printed slope {footer.get('slope')} differs from the refit {slope:.9f}")
    x = xs[-1]
    want = _norm2(product(steps, x) - target(x))
    _require(abs(want - errs[-1]) <= ROW_REL_TOL * want + ROW_ABS_TOL,
             f"error at x={x:g} is {errs[-1]:.6e}, scipy gives {want:.6e}")


def _repeat_error(steps, x: float, r: int) -> float:
    step = product(steps, x / math.sqrt(r))
    return _norm2(np.linalg.matrix_power(step, r) - commutator_target(x))


def check_gates(formula_text: str, csv_text: str, eps: float) -> None:
    """r is the smallest repetition count within eps; gates counts its gates."""
    steps, _ = parse_formula(formula_text)
    _, rows, _ = parse_csv(csv_text)
    for x, r_f, gates_f in rows:
        r, gates = int(r_f), int(gates_f)
        _require(r >= 1, f"x={x:g}: repetition count {r} < 1")
        err_r = _repeat_error(steps, x, r)
        _require(err_r <= eps * (1.0 + EPS_SLACK),
                 f"x={x:g}: error {err_r:.3e} at r={r} exceeds eps={eps:g}")
        if r > 1:
            err_less = _repeat_error(steps, x, r - 1)
            _require(err_less > eps * (1.0 - EPS_SLACK),
                     f"x={x:g}: r={r} is not minimal, r-1 already reaches {err_less:.3e}")
        scaled = [(tag, c / math.sqrt(r)) for tag, c in steps]
        want = simplified_gate_count(scaled * r)
        _require(gates == want, f"x={x:g}: {gates} gates printed, {r} copies simplify to {want}")


def check_gate_gain(g5_csv: str, q5_csv: str) -> None:
    """At equal x and eps the G5 recursion needs fewer gates than Q5."""
    g5 = {r[0]: int(r[2]) for r in parse_csv(g5_csv)[1]}
    q5 = {r[0]: int(r[2]) for r in parse_csv(q5_csv)[1]}
    _require(g5.keys() == q5.keys(), "G5 and Q5 gates rows cover different x")
    for x in g5:
        _require(g5[x] < q5[x], f"x={x:g}: G5 needs {g5[x]} gates, Q5 only {q5[x]}")


def check_sqrt4(csv_text: str) -> None:
    """Both power conditions of the four-copy scheme, from the printed values."""
    _, rows, _ = parse_csv(csv_text)
    _require(len(rows) == 1, "sqrt4 output must have one row")
    n_f, a, b, c, d, signed = rows[0]
    n = int(n_f)
    for p in (n + 1, n + 2):
        res = a**p - b**p + c**p - d**p
        scale = abs(a) ** p + abs(b) ** p + abs(c) ** p + abs(d) ** p
        _require(abs(res) <= SQRT4_REL_TOL * scale,
                 f"n={n}: power-{p} condition leaves {res:.3e}")
    want = a * a - b * b + c * c - d * d
    _require(abs(signed - want) <= SQRT4_REL_TOL * (a * a + b * b + c * c + d * d),
             f"n={n}: signed_sum {signed} differs from a^2-b^2+c^2-d^2={want}")
    _require(d < 0.0, f"n={n}: d={d} is on the trivial branch")


def check_bch(order1: np.ndarray, order2: np.ndarray) -> None:
    """A pure-commutator formula has M1 = 0 and M2 = [A, B]."""
    m1 = _norm2(np.asarray(order1))
    m2 = _norm2(np.asarray(order2) - PAULI_COMM)
    _require(m1 <= BCH_TOL, f"BCH M1 has norm {m1:.3e}, want 0")
    _require(m2 <= BCH_TOL, f"BCH M2 is {m2:.3e} from [A,B]")


def exact_step_formula(R: float) -> str:
    """Formula JSON of the exact six-gate sum-plus-commutator step at weight R.

    Solves l = m = 1, q = 1/2 - R, r = s = 1/6 for p1..p5 with scipy from
    the closed-form large-R coefficients, p6 pinned at its closed-form value.
    """
    golden = (math.sqrt(5.0) + 1.0) / 2.0
    u = math.sqrt(R + 0.5)
    seed = [(golden - 1.0) * u, (golden - 1.0) * u + 1.0, 1.0 - u, -golden * u, (2.0 - golden) * u]
    p6 = u

    def residuals(p):
        p1, p2, p3, p4, p5 = p
        return [p1 + p3 + p5 - 1.0,
                p2 + p4 + p6 - 1.0,
                p2 * p3 + p2 * p5 + p4 * p5 + R - 0.5,
                p1 * p2 * p3 + p1 * p2 * p5 + p1 * p4 * p5 + p3 * p4 * p5 - 1.0 / 6.0,
                p2 * p3 * p4 + p2 * p3 * p6 + p2 * p5 * p6 + p4 * p5 * p6 - 1.0 / 6.0]

    p = scipy.optimize.fsolve(residuals, seed, xtol=1e-14, full_output=True)[0]
    worst = max(abs(v) for v in residuals(p))
    _require(worst <= 1e-10, f"exact six-gate solve at R={R} left {worst:.3e}")
    coeffs = list(p) + [p6]
    steps = [[tag, float(c)] for tag, c in zip("ABABAB", coeffs)]
    return json.dumps({"label": f"fR*[R={R:.12g}]", "claimed_order": 3, "steps": steps})


# ---------------------------------------------------------------- ramp

def schedule(t: float, tau: float) -> float:
    v = 0.5 * math.pi * t / tau
    return math.sin(0.5 * math.pi * math.sin(v) ** 2) ** 2


def schedule_rate(t: float, tau: float) -> float:
    v = 0.5 * math.pi * t / tau
    u = 0.5 * math.pi * math.sin(v) ** 2
    return (math.pi**2 / (4.0 * tau)) * math.sin(2.0 * u) * math.sin(2.0 * v)


def ramp_hamiltonians(J: float, hz: float, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Field term H_a(lam) and coupling term H_b of the two-spin ramp."""
    zz = np.kron(SIGMA_Z, IDENTITY2) + np.kron(IDENTITY2, SIGMA_Z)
    h_a = hz * (lam - 1.0) * zz
    h_b = J * (np.kron(SIGMA_X, SIGMA_X) + np.kron(SIGMA_Z, SIGMA_Z))
    return h_a, h_b


def cd_weight(J: float, hz: float, t: float, tau: float) -> float:
    """beta(t): the weight of -i[H_a, H_b] in the ideal counterdiabatic term."""
    lam = schedule(t, tau)
    return schedule_rate(t, tau) / (4.0 * (1.0 - lam) * (J**2 + 4.0 * (lam - 1.0) ** 2 * hz**2))


def _ground(h: np.ndarray) -> np.ndarray:
    return np.linalg.eigh(h)[1][:, 0]


def ideal_cd_fidelity(J: float, hz: float, tau: float, steps: int = IDEAL_CD_SUBSTEPS) -> float:
    """Final ground-state fidelity of a fine midpoint evolution under
    H_a + H_b - i beta [H_a, H_b], with scipy's expm."""
    psi = _ground(sum(ramp_hamiltonians(J, hz, 0.0)))
    dt = tau / steps
    for k in range(steps):
        t = (k + 0.5) * dt
        h_a, h_b = ramp_hamiltonians(J, hz, schedule(t, tau))
        h = h_a + h_b - 1j * cd_weight(J, hz, t, tau) * (h_a @ h_b - h_b @ h_a)
        psi = scipy.linalg.expm(-1j * dt * h) @ psi
    gs = _ground(sum(ramp_hamiltonians(J, hz, 1.0)))
    return float(abs(np.vdot(gs, psi)) ** 2)


def check_ramp(csv_text: str, J: float, hz: float, tau: float, N: int) -> float:
    """Fidelities in [0, 1], CD beats Trotter, beta is the ideal CD weight.

    Returns the final CD fidelity.
    """
    header, rows, _ = parse_csv(csv_text)
    _require(header == ["t", "fidelity_trotter", "fidelity_cd", "beta"], f"unexpected header {header}")
    _require(len(rows) == N + 1, f"{len(rows)} rows for N={N} slices")
    for k, (t, f_tr, f_cd, beta) in enumerate(rows):
        _require(abs(t - k * tau / N) <= 1e-12 * max(1.0, tau), f"row {k}: t={t} is off the grid")
        for name, f in (("trotter", f_tr), ("cd", f_cd)):
            _require(0.0 <= f <= 1.0 + FIDELITY_SLACK, f"row {k}: {name} fidelity {f!r} outside [0, 1]")
        if k < N:
            want = cd_weight(J, hz, t, tau)
            _require(abs(beta - want) <= BETA_REL_TOL * abs(want) + 1e-300,
                     f"row {k}: beta {beta!r}, the CD weight is {want!r}")
        else:
            _require(math.isnan(beta), "last row's beta must be nan")
    f_tr, f_cd = rows[-1][1], rows[-1][2]
    _require(f_cd > f_tr, f"final CD fidelity {f_cd} does not beat Trotter {f_tr}")
    return f_cd


def check_cd_limit(f_cd: float, ideal: float) -> None:
    """The ideal counterdiabatic evolution reaches fidelity 1 and bounds F_CD.

    `ideal` is ideal_cd_fidelity of the ramp that gave the final CD
    fidelity `f_cd`.
    """
    _require(abs(1.0 - ideal) <= IDEAL_CD_TOL, f"ideal CD evolution reaches only {ideal!r}")
    _require(f_cd <= ideal + FIDELITY_SLACK, f"F_CD={f_cd!r} is above the ideal limit {ideal!r}")


def check_cd_convergence(coarse: tuple[int, float], fine: tuple[int, float]) -> None:
    """1 - F_CD shrinks as the step count N of one ramp grows.

    `coarse` and `fine` are (N, final CD fidelity) at two step counts.
    """
    (n1, f1), (n2, f2) = coarse, fine
    shrink = (1.0 - f1) / (1.0 - f2)
    _require(shrink >= (n2 / n1) ** CD_MIN_ORDER,
             f"1-F_CD shrank only {shrink:.3g}x from N={n1} to N={n2}")


# ---------------------------------------------------------------- lattice

def check_lattice(csv_text: str, gates_per_step: int) -> None:
    """Errors fall as n grows, with a refitted slope of -1."""
    header, rows, footer = parse_csv(csv_text)
    _require(header == ["n", "error", "gates"], f"unexpected header {header}")
    ns = [r[0] for r in rows]
    errs = [r[1] for r in rows]
    _require(all(e > 0.0 for e in errs), "non-positive simulation error")
    _require(all(b < a for a, b in zip(errs, errs[1:])), "errors do not fall as n grows")
    slope = loglog_slope(ns, errs)
    _require(abs(slope + 1.0) <= LATTICE_SLOPE_TOL,
             f"refitted slope {slope:.4f} is not -1 within {LATTICE_SLOPE_TOL}")
    _require("slope" in footer and abs(float(footer["slope"]) - slope) <= FIT_AGREE_TOL,
             f"printed slope {footer.get('slope')} differs from the refit {slope:.9f}")
    for n, _, gates in rows:
        _require(int(gates) == gates_per_step * int(n), f"n={int(n)}: {int(gates)} gates printed")
