"""The three workloads: their operations, warm-ups and output checks.

Each workload is built from a seed into a fixed list of operations (one
pass). An operation is either one `trotterion.cli.main(argv)` call that
writes its result to an `--out` file, or one call of a public library
function that has no subcommand. The checks in `checks.py` then test the
outputs of a pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

# Recursive schemes built by `certify`: name -> (build arguments, gates, order).
# Gate counts are the paper's (Q5 21, W5 26, V5 32, G5 56, V4t 22).
LIBRARY = {
    "S3": (["--base", "s3"], 6, 3),
    "V4t": (["--base", "s2", "--scheme", "cw-sqrt6"], 22, 4),
    "Q5": (["--base", "s3", "--scheme", "q4"], 21, 5),
    "W5": (["--base", "s3", "--scheme", "w5"], 26, 5),
    "V5": (["--base", "s3", "--scheme", "v6"], 32, 5),
    "G5": (["--base", "s3", "--scheme", "g10"], 56, 5),
}
FIFTH_ORDER = ("Q5", "W5", "V5", "G5")
GATES_XS = "0.1:0.3:0.1"
GATES_EPS = 1e-8
SQRT4_ORDERS = (3, 5, 7, 9, 11)
SQRT4_PER_PASS = 3
EXACT_STEP_R = (4.0, 8.0)

# Short ramps: J, hz and N drawn from these ranges at tau = 1. J stays
# negative: for J > 0 the final ground state lies in the other parity
# sector, which no evolution from the initial ground state reaches.
RAMP_J = (-2.0, -0.5)
RAMP_HZ = (1.0, 6.0)
RAMP_N = (12, 30)
RAMP_TAU = 1.0
# Every short ramp has exactly one slice whose per-slice weight
# R = beta / dt lies in RESCUE_WINDOW, where the solve from the closed-form
# seed stalls and the 40-draw multistart takes over, and no other slice
# within RESCUE_MARGIN of it. Otherwise a ramp costs 0, 1 or 2 rescues
# (20 ms against 0.8 or 1.6 s) by the luck of the draw, and a pass's time
# would say more about the seed than about the program.
RESCUE_WINDOW = (0.36, 0.62)
RESCUE_MARGIN = (0.25, 0.75)
# The ramps come from a fixed catalogue, drawn once from the ranges above
# with generator seed 0; the run's seed picks SHORT_RAMPS of them and their
# order. Every catalogue ramp runs at the commit that defined the
# benchmark. Ramps drawn straight from the ranges are not kept: about one
# rescued slice in 250 lands on an R where every multistart draw fails,
# and `cd` exits 3 on some seeds only.
CATALOGUE_SEED = 0
CATALOGUE_SIZE = 40
# The catalogue ramps whose one rescue made within 5% of the catalogue's
# median number of residual evaluations (48.8k) at the commit that defined
# the benchmark. The whole catalogue spans 38k to 59k, which moves the
# median operation of a 4-ramp pass by about 7% between seeds (IQR over
# median); within this band it moves by about 3%.
CATALOGUE_BAND = (1, 2, 4, 5, 8, 13, 18, 19, 23, 27, 28, 29, 30, 35, 36, 39)
# A pass is SHORT_RAMPS short ramps and the README ramp, about 9 s, so a
# 30 s run holds three or four passes, not one.
SHORT_RAMPS = 4
README_RAMP = (-1.0, 5.0, 1.0, 100)
COARSE_N = 25

KM_SIZES = (4, 6, 8)
CHAIN_SIZES = (16, 32, 64)
# The README's parameters. The seed draws the signs of the chain's
# amplitudes: they change the matrices but none of their norms, so not the
# scaling-and-squaring depth of expm either. Magnitudes drawn from ranges
# moved a pass's cost by up to 25% between seeds under single-threaded BLAS.
# The flux lattice keeps J and phi positive: km rejects a negative coupling.
KM_PARAMS = {"J": 1.0, "phi": math.pi / 2, "T": 1.0}
CHAIN_PARAMS = {"t1": 1.0, "t2": 0.5, "T": 1.0}


@dataclass
class Op:
    """One operation. `argv` ops run the CLI; `call` ops a library function."""

    name: str
    argv: list[str] | None = None
    out: Path | None = None
    call: Callable[[], object] | None = None


@dataclass
class Workload:
    ops: list[Op]
    warmups: list[Op]
    # check(outputs, run) raises checks.CheckFailed; `outputs` maps op name
    # to its output, `run(argv)` runs one more CLI command for a check.
    check: Callable[[dict, Callable], None]
    inputs: dict


def _cli(name: str, work: Path, argv: list[str], suffix: str = ".csv") -> Op:
    out = work / f"{name.replace(':', '_')}{suffix}"
    return Op(name, argv + ["--out", str(out)], out)


def _f(v: float) -> str:
    return repr(float(v))


def certify(seed: int, work: Path, smoke: bool, package) -> Workload:
    rng = np.random.default_rng(seed)
    R = float(rng.uniform(*EXACT_STEP_R))
    orders = sorted(int(n) for n in rng.choice(SQRT4_ORDERS, SQRT4_PER_PASS, replace=False))
    names = ["G5"] if smoke else list(LIBRARY)
    fifth = ["G5"] if smoke else list(FIFTH_ORDER)
    if smoke:
        orders = orders[:1]

    exact = work / "fR_exact.json"
    exact.write_text(checks.exact_step_formula(R), encoding="utf-8")
    gens = package.GeneratorPair(checks.PAULI_A, checks.PAULI_B)
    formula_path = {name: work / f"{name}.json" for name in names}

    def bch(name: str) -> Op:
        path = formula_path[name]
        return Op(f"bch:{name}", call=lambda: package.extract_bch(
            package.from_json(path.read_text(encoding="utf-8")), gens))

    ops = [Op(f"build:{n}", ["build", *LIBRARY[n][0], "--out", str(formula_path[n])],
              formula_path[n]) for n in names]
    ops += [_cli(f"scan:{n}", work, ["scan", "--formula", str(formula_path[n])]) for n in names]
    if not smoke:
        ops.append(_cli("scan:fR*", work, ["scan", "--formula", str(exact),
                                          "--target", "sum-commutator", "--R", _f(R)]))
    ops += [_cli(f"gates:{n}", work, ["gates", "--formula", str(formula_path[n]),
                                     "--xs", GATES_XS, "--eps", _f(GATES_EPS)]) for n in fifth]
    ops += [_cli(f"sqrt4:{n}", work, ["solve", "--sqrt4", str(n)]) for n in orders]
    ops += [bch(n) for n in names]

    warm_build = _cli("warm:build", work, ["build", "--base", "s3"], ".json")
    warm_json = warm_build.out
    warmups = [
        warm_build,
        _cli("warm:scan", work, ["scan", "--formula", str(warm_json)]),
        _cli("warm:gates", work, ["gates", "--formula", str(warm_json), "--xs", "0.1:0.1:0.1",
                                  "--eps", "1e-4"]),
        _cli("warm:sqrt4", work, ["solve", "--sqrt4", "3"]),
        Op("warm:bch", call=lambda: package.extract_bch(
            package.from_json(warm_json.read_text(encoding="utf-8")), gens)),
    ]

    def check(outputs: dict, run) -> None:
        for n in names:
            formula = outputs[f"build:{n}"]
            _, gates, order = LIBRARY[n]
            checks.check_build(formula, gates, order)
            checks.check_scan(formula, outputs[f"scan:{n}"], checks.commutator_target)
            result = outputs[f"bch:{n}"]
            checks.check_bch(result.order1, result.order2)
        if not smoke:
            checks.check_scan(exact.read_text(encoding="utf-8"), outputs["scan:fR*"],
                              checks.sum_commutator_target(R))
            checks.check_gate_gain(outputs["gates:G5"], outputs["gates:Q5"])
        for n in fifth:
            checks.check_gates(outputs[f"build:{n}"], outputs[f"gates:{n}"], GATES_EPS)
        for n in orders:
            checks.check_sqrt4(outputs[f"sqrt4:{n}"])

    return Workload(ops, warmups, check, {"R": R, "sqrt4_n": orders, "formulas": names,
                                          "gates_xs": GATES_XS, "gates_eps": GATES_EPS})


def rescued_slices(J: float, hz: float, tau: float, N: int, window) -> int:
    """Slices of a ramp whose weight R = beta/dt falls inside `window`."""
    dt = tau / N
    lo, hi = window
    return sum(1 for k in range(N) if lo < checks.cd_weight(J, hz, k * dt, tau) / dt < hi)


def draw_ramps(rng, count: int) -> list[tuple[float, float, float, int]]:
    """Short ramps with one rescued slice each; see RESCUE_WINDOW."""
    ramps = []
    while len(ramps) < count:
        J = float(rng.uniform(*RAMP_J))
        hz = float(rng.uniform(*RAMP_HZ))
        N = int(rng.integers(RAMP_N[0], RAMP_N[1] + 1))
        if (rescued_slices(J, hz, RAMP_TAU, N, RESCUE_MARGIN) == 1
                and rescued_slices(J, hz, RAMP_TAU, N, RESCUE_WINDOW) == 1):
            ramps.append((J, hz, RAMP_TAU, N))
    return ramps


def _cd_argv(J: float, hz: float, tau: float, N: int) -> list[str]:
    return ["cd", "--J", _f(J), "--hz", _f(hz), "--tau", _f(tau), "--N", str(N), "--exact-pr"]


def ramp(seed: int, work: Path, smoke: bool, package) -> Workload:
    catalogue = draw_ramps(np.random.default_rng(CATALOGUE_SEED), CATALOGUE_SIZE)
    picks = np.random.default_rng(seed).choice(CATALOGUE_BAND, 1 if smoke else SHORT_RAMPS,
                                               replace=False)
    ramps = [catalogue[i] for i in picks]
    if not smoke:
        ramps.append(README_RAMP)
    ops = [_cli(f"cd:{i}", work, _cd_argv(*r)) for i, r in enumerate(ramps)]
    warmups = [_cli("warm:cd", work, _cd_argv(-1.0, 1.0, 1.0, 10))]

    def check(outputs: dict, run) -> None:
        final = []
        for i, (J, hz, tau, N) in enumerate(ramps):
            final.append(checks.check_ramp(outputs[f"cd:{i}"], J, hz, tau, N))
            checks.check_cd_limit(final[-1], checks.ideal_cd_fidelity(J, hz, tau))
        if not smoke:
            J, hz, tau, N = README_RAMP
            coarse = _cli("cd:coarse", work, _cd_argv(J, hz, tau, COARSE_N))
            run(coarse.argv)
            text = coarse.out.read_text(encoding="utf-8")
            f_coarse = checks.check_ramp(text, J, hz, tau, COARSE_N)
            checks.check_cd_convergence((COARSE_N, f_coarse), (N, final[-1]))

    return Workload(ops, warmups, check, {"ramps": ramps})


def lattice(seed: int, work: Path, smoke: bool, package) -> Workload:
    rng = np.random.default_rng(seed)
    p = CHAIN_PARAMS
    chain = [(L, float(rng.choice((-1.0, 1.0))) * p["t1"], float(rng.choice((-1.0, 1.0))) * p["t2"],
              p["T"]) for L in CHAIN_SIZES]
    km = [(L, KM_PARAMS["J"], KM_PARAMS["phi"], KM_PARAMS["T"]) for L in KM_SIZES]
    if smoke:
        km, chain = km[:1], chain[:1]

    def km_argv(L, J, phi, T):
        return ["km", "--Lx", str(L), "--Ly", str(L), "--J", _f(J), "--phi", _f(phi), "--T", _f(T)]

    def chain_argv(L, t1, t2, T):
        return ["chain", "--L", str(L), "--t1", _f(t1), "--t2", _f(t2), "--T", _f(T)]

    # Sizes interleave from small to large: OpenBLAS threads still spinning
    # after a 64-dimensional operation slow the one that follows it, so only
    # the first operation of the next pass pays for that.
    ops = []
    for k, c in zip(km, chain):
        ops += [_cli(f"km:{k[0]}x{k[0]}", work, km_argv(*k)), _cli(f"chain:{c[0]}", work, chain_argv(*c))]
    warmups = [_cli("warm:km", work, km_argv(*km[-1]) + ["--n", "8"]),
               _cli("warm:chain", work, chain_argv(*chain[-1]) + ["--n", "8"])]

    def check(outputs: dict, run) -> None:
        for k in km:
            checks.check_lattice(outputs[f"km:{k[0]}x{k[0]}"], 7)
        for c in chain:
            checks.check_lattice(outputs[f"chain:{c[0]}"], 3 * c[0])

    return Workload(ops, warmups, check, {"km": km, "chain": chain})


WORKLOADS = {"certify": certify, "ramp": ramp, "lattice": lattice}
