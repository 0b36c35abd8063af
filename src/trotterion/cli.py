"""Command-line front end.

Builds formulas from recipes, runs error scans and accuracy searches,
solves the coefficient systems, runs the application simulators, and
emits deterministic CSV (17 significant digits, no timestamps).

Exit codes: 0 success, 2 usage or configuration error, 3 numeric or
solver failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
import warnings
from typing import Iterable, Sequence

import numpy as np

from .apps.cd import SIGMA_X, SIGMA_Z, CDConfig, cd_run
from .apps.chain import ChainConfig, chain_gate_count, chain_simulate
from .apps.km import BOUNDARIES, KMConfig, km_gate_count, km_simulate
from .bases import AccuracyWarning, f_r, s2, s3
from .certify import error_scan, fit_loglog, gates_to_accuracy
from .errors import (BudgetExceededError, DegenerateScanError, DomainError,
                     InvalidInputError, SolverError)
from .formula import GeneratorPair, ProductFormula, from_json, to_json
from .recursion import SCHEMES, apply_scheme
from .solver import solve_p_of_r, solve_sqrt4


def _csv(header: str, rows: Iterable[Sequence], slope: float | None = None,
         window: tuple[float, float] | None = None) -> str:
    """Header, one line per row, and a slope footer when a fit exists.

    Float cells get 17 significant digits; other cells, including
    strings formatted by the caller, are written with str().
    """
    lines = [header] + [",".join(f"{v:.17g}" if isinstance(v, float) else str(v)
                                 for v in row) for row in rows]
    text = "\n".join(lines) + "\n"
    if slope is not None and window is not None:
        text += f"# slope={slope:.12g} window=[{window[0]:.12g},{window[1]:.12g}]\n"
    return text


def default_generators() -> GeneratorPair:
    """The standard desk-scale test pair, with a zero third generator."""
    return GeneratorPair(-1j * SIGMA_X, -1j * SIGMA_Z,
                         np.zeros((2, 2), dtype=complex))


# Largest --xs grid: the default scan has 20 points. On a 2-vCPU Xeon a
# scan of the 56-gate G5 on 2x2 generators costs about 0.12 ms a point
# (1.2 s for a full grid), and its gates search at eps = 1e-8 about
# 1.5 ms a point at x in [0.1, 0.5] (15 s for a full grid).
MAX_GRID_POINTS = 10_000


def _parse_grid(text: str) -> list[float]:
    """LO:HI:STEP inclusive linear grid."""
    try:
        lo_s, hi_s, step_s = text.split(":")
        lo, hi, step = float(lo_s), float(hi_s), float(step_s)
    except ValueError:
        raise argparse.ArgumentTypeError("grid must look like LO:HI:STEP")
    if not (math.isfinite(lo) and math.isfinite(hi) and 0.0 < step < math.inf and lo <= hi):
        raise argparse.ArgumentTypeError("grid needs finite LO <= HI and finite STEP > 0")
    # HI is in when within the rounding of the points, which scales with the
    # grid, and never a half STEP past it, which would count a point beyond HI
    last = hi + min(1e-12 * max(abs(lo), abs(hi)), step / 2)
    # the points lo + k * step up to `last`, counted before any is made
    if not (last - lo) / step < MAX_GRID_POINTS:
        raise argparse.ArgumentTypeError(f"grid must have at most {MAX_GRID_POINTS} points")
    out = [lo + k * step for k in range(int((last - lo) / step) + 2)]
    while out[-1] > last:
        out.pop()
    if any(b <= a for a, b in zip(out, out[1:])):
        raise argparse.ArgumentTypeError("grid points must increase: STEP is below "
                                         "the spacing of doubles at LO")
    return out


def _parse_window(text: str) -> tuple[float, float]:
    try:
        lo_s, hi_s = text.split(":")
        return float(lo_s), float(hi_s)
    except ValueError:
        raise argparse.ArgumentTypeError("window must look like LO:HI")


def _parse_counts(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError("step counts must be comma-separated integers")


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _read_text(path: str, what: str) -> str:
    """The text of a UTF-8 file; one error naming the file if it is unreadable."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InvalidInputError(f"cannot read {what}: {exc}")
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"cannot read {what}: {path!r} is not UTF-8 text: {exc}")


def _load_formula(path: str) -> ProductFormula:
    return from_json(_read_text(path, "formula file"))


def _cmd_build(args) -> int:
    if args.base == "s2":
        f = s2()
    elif args.base == "s3":
        f = s3()
    else:
        if args.R is None:
            raise InvalidInputError("--base fr needs --R")
        # f_r's accuracy warning as one `warning:` line, which names no
        # source file; the filters in force still decide whether it shows
        with warnings.catch_warnings(record=True) as caught:
            f = f_r(args.R)
        for w in caught:
            print(f"warning: {w.message}", file=sys.stderr)
    for name in args.scheme or []:
        f = apply_scheme(name, f)
    payload = to_json(f) + "\n"
    _write(payload, args.out)
    order = "none" if f.claimed_order is None else str(f.claimed_order)
    print(f"gates={f.gate_count()} order={order} label={f.label}", file=sys.stderr)
    return 0


GNUPLOT_TEMPLATE = """set datafile separator ','
set logscale xy
set xlabel 'x'
set ylabel 'error'
plot '{csv}' using 1:2 with linespoints title '{title}'
"""


def _cmd_scan(args) -> int:
    if args.gnuplot is not None and args.out is None:
        raise InvalidInputError("--gnuplot needs --out so the script can "
                                "reference the CSV file")
    f = _load_formula(args.formula)
    gens = default_generators()
    result = error_scan(f, gens, xs=args.xs, target=args.target, R=args.R,
                        window=args.window)
    if args.window is not None and result.slope is None:
        raise DegenerateScanError("fewer than two usable points in the window")
    _write(_csv("x,error", result.rows, result.slope, result.fit_window), args.out)
    if args.gnuplot is not None:
        _write(GNUPLOT_TEMPLATE.format(csv=args.out, title=f.label or "formula"), args.gnuplot)
    return 0


def _cmd_fit(args) -> int:
    rows = []
    for line in _read_text(args.csv, "CSV").split("\n"):
        try:
            x, err = line.split(",")[:2]
            rows.append((float(x), float(err)))
        except ValueError:
            continue  # header, comment, blank line or stray text
    slope, intercept = fit_loglog(rows, args.window)
    if slope is None:
        raise DegenerateScanError("fewer than two usable points in the window")
    window = args.window
    if window is None:
        xs = [x for x, _ in rows]
        window = (min(xs), max(xs))
    sys.stdout.write(
        f"slope={slope:.12g} intercept={intercept:.12g} "
        f"window=[{window[0]:.12g},{window[1]:.12g}]\n")
    return 0


def _cmd_gates(args) -> int:
    f = _load_formula(args.formula)
    gens = default_generators()
    rows = [(x, *gates_to_accuracy(f, gens, x, args.eps)) for x in args.xs]
    _write(_csv("x,r,gates", rows), args.out)
    return 0


def _cmd_solve(args) -> int:
    # Solver CSV uses 12 significant digits, unlike the 17 of scan data.
    if args.sqrt4 is not None:
        sol = solve_sqrt4(args.sqrt4)
        values = (sol.a, sol.b, sol.c, sol.d, sol.signed_sum)
        text = _csv("n,a,b,c,d,signed_sum", [(sol.n, *(f"{v:.12g}" for v in values))])
    else:
        result = solve_p_of_r(args.pr)
        values = (args.pr, *result.params.as_tuple(), result.max_residual)
        text = _csv("R,p1,p2,p3,p4,p5,p6,max_residual", [[f"{v:.12g}" for v in values]])
    _write(text, args.out)
    return 0


def _cmd_cd(args) -> int:
    cfg = CDConfig(J=args.J, hz=args.hz, tau=args.tau, n_steps=args.N)
    rows = [(p.t, p.fidelity_trotter, p.fidelity_cd, p.beta)
            for p in cd_run(cfg, exact_coefficients=args.exact_pr)]
    _write(_csv("t,fidelity_trotter,fidelity_cd,beta", rows), args.out)
    return 0


def _write_n_steps(result, gate_count, out: str | None) -> None:
    """The n,error,gates CSV of a simulator's step-count scan, with its
    slope footer; gate_count(n) is the gates of n steps."""
    rows = [(int(n), err, gate_count(int(n))) for n, err in result.rows]
    _write(_csv("n,error,gates", rows, result.slope, result.fit_window), out)


def _step_counts(args) -> list[int] | None:
    """The step-count grid: --n N as the grid [N], else --ns; not both."""
    if args.n is not None and args.ns is not None:
        raise InvalidInputError("give --n or --ns, not both")
    return args.ns if args.n is None else [args.n]


def _cmd_chain(args) -> int:
    cfg = ChainConfig(L=args.L, t1=args.t1, t2=args.t2, T=args.T)
    _write_n_steps(chain_simulate(cfg, ns=_step_counts(args)),
                   functools.partial(chain_gate_count, cfg), args.out)
    return 0


def _cmd_km(args) -> int:
    cfg = KMConfig(Lx=args.Lx, Ly=args.Ly, J=args.J, phi=args.phi, T=args.T,
                   boundary=args.boundary)
    _write_n_steps(km_simulate(cfg, ns=_step_counts(args)),
                   functools.partial(km_gate_count, cfg), args.out)
    return 0


def _cmd_trajectory(args) -> int:
    f = _load_formula(args.formula)
    sums = f.trajectory(args.gen)
    _write(_csv("step,partial_sum", enumerate(sums, start=1)), args.out)
    return 0


class _Parser(argparse.ArgumentParser):
    """Reads a negative float in any form (-1e-3, -inf) as a value, where
    argparse alone knows only -5 and -0.5; subparsers take this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process: parsing leaves
    it unchanged, and building it would add about 1 ms to every main()."""
    parser = _Parser(
        prog="trotterion",
        description="Product formulas for exponentials of commutators.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="build a formula from a recipe")
    p_build.add_argument("--base", choices=("s2", "s3", "fr"), required=True)
    p_build.add_argument("--R", type=float, default=None,
                         help="commutator weight for --base fr")
    p_build.add_argument("--scheme", action="append",
                         choices=list(SCHEMES),
                         help="recursion scheme, repeatable, applied in order")
    p_build.add_argument("--out", default=None, help="write formula JSON here")
    p_build.set_defaults(handler=_cmd_build)

    p_scan = sub.add_parser("scan", help="error scan of a formula file")
    p_scan.add_argument("--formula", required=True)
    p_scan.add_argument("--target", choices=("commutator", "sum-commutator"),
                        default="commutator")
    p_scan.add_argument("--R", type=float, default=None)
    p_scan.add_argument("--xs", type=_parse_grid, default=None,
                        help="LO:HI:STEP grid (default: 20 log-spaced in [0.01, 0.1])")
    p_scan.add_argument("--window", type=_parse_window, default=None)
    p_scan.add_argument("--out", default=None)
    p_scan.add_argument("--gnuplot", default=None,
                        help="also write a companion gnuplot script here")
    p_scan.set_defaults(handler=_cmd_scan)

    p_fit = sub.add_parser("fit", help="log-log fit of an existing scan CSV")
    p_fit.add_argument("--csv", required=True)
    p_fit.add_argument("--window", type=_parse_window, default=None)
    p_fit.set_defaults(handler=_cmd_fit)

    p_gates = sub.add_parser("gates", help="repetitions and gates to reach an accuracy")
    p_gates.add_argument("--formula", required=True)
    p_gates.add_argument("--eps", type=float, required=True)
    p_gates.add_argument("--xs", type=_parse_grid, required=True)
    p_gates.add_argument("--out", default=None)
    p_gates.set_defaults(handler=_cmd_gates)

    p_solve = sub.add_parser("solve", help="run a coefficient solver")
    group = p_solve.add_mutually_exclusive_group(required=True)
    group.add_argument("--sqrt4", type=int, default=None,
                       help="4-copy boundary solve at this odd order")
    group.add_argument("--pr", type=float, default=None,
                       help="exact 6-gate coefficients at weight R, smallest over a gauge set")
    p_solve.add_argument("--out", default=None)
    p_solve.set_defaults(handler=_cmd_solve)

    p_cd = sub.add_parser("cd", help="counterdiabatic driving comparison run")
    p_cd.add_argument("--J", type=float, required=True)
    p_cd.add_argument("--hz", type=float, required=True)
    p_cd.add_argument("--tau", type=float, required=True)
    p_cd.add_argument("--N", type=int, required=True)
    p_cd.add_argument("--exact-pr", action="store_true", dest="exact_pr",
                      help="exact per-step coefficients, as solve --pr, not the closed form")
    p_cd.add_argument("--out", default=None)
    p_cd.set_defaults(handler=_cmd_cd)

    p_chain = sub.add_parser("chain", help="hopping-chain simulation errors")
    p_chain.add_argument("--L", type=int, required=True)
    p_chain.add_argument("--t1", type=float, required=True)
    p_chain.add_argument("--t2", type=float, required=True)
    p_chain.add_argument("--T", type=float, required=True)
    p_chain.add_argument("--n", type=int, default=None)
    p_chain.add_argument("--ns", type=_parse_counts, default=None,
                         help="comma-separated step counts")
    p_chain.add_argument("--out", default=None)
    p_chain.set_defaults(handler=_cmd_chain)

    p_km = sub.add_parser("km", help="flux-lattice simulation errors")
    p_km.add_argument("--Lx", type=int, required=True)
    p_km.add_argument("--Ly", type=int, required=True)
    p_km.add_argument("--J", type=float, required=True)
    p_km.add_argument("--phi", type=float, required=True)
    p_km.add_argument("--T", type=float, required=True)
    p_km.add_argument("--n", type=int, default=None)
    p_km.add_argument("--ns", type=_parse_counts, default=None)
    p_km.add_argument("--boundary", choices=BOUNDARIES, default="auto")
    p_km.add_argument("--out", default=None)
    p_km.set_defaults(handler=_cmd_km)

    p_traj = sub.add_parser("trajectory", help="partial coefficient sums of one generator")
    p_traj.add_argument("--formula", required=True)
    p_traj.add_argument("--gen", choices=("A", "B", "C"), required=True)
    p_traj.add_argument("--out", default=None)
    p_traj.set_defaults(handler=_cmd_trajectory)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (InvalidInputError, DomainError, AccuracyWarning, OSError) as exc:
        # an AccuracyWarning is raised, not shown, where warnings are errors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, DegenerateScanError, BudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
