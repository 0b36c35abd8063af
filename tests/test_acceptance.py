"""Acceptance suite: one test per release criterion.

Each test prints the measured quantities next to the accepted bounds so
a verbose run doubles as a results table.
"""

import math

import numpy as np

from trotterion.apps import (CDConfig, ChainConfig, KMConfig, cd_run,
                             chain_hoppings, chain_simulate,
                             km_commutator_check, km_simulate,
                             phases_wrap_consistently)
from trotterion.apps.cd import EXPONENTIALS_PER_STEP
from trotterion.bases import SixGateParams, reparam, s3
from trotterion.certify import error_scan, extract_bch, gates_to_accuracy
from trotterion.formula import GeneratorPair, ProductFormula, word_sums
from trotterion.matcore import commutator, expm, logm_near_identity, spectral_norm
from trotterion.recursion import build_g, build_w, pure_commutator_library
from trotterion.solver import solve_sqrt4

from conftest import PAULI_PAIR


def random_anti_hermitian(rng, dim, norm=None):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g - g.conj().T
    if norm is not None:
        m = m * (norm / spectral_norm(m))
    return m


def test_criterion_01_six_gate_base_order_fit():
    result = error_scan(s3(), PAULI_PAIR, window=(2e-2, 1e-1))
    print(f"slope={result.slope:.4f} accepted=4.001 +/- 0.05")
    assert abs(result.slope - 4.001) <= 0.05


def test_criterion_02_fifth_order_family_slopes():
    lib = pure_commutator_library()
    printed = {"G5": 6.001, "V5": 5.958, "Q5": 6.371, "V4t": 4.920}
    for name, want in printed.items():
        slope = error_scan(lib[name], PAULI_PAIR, window=(0.05, 0.1)).slope
        print(f"{name}: slope={slope:.4f} accepted={want} +/- 0.3")
        assert abs(slope - want) <= 0.3
    w_slope = error_scan(lib["W5"], PAULI_PAIR, window=(0.05, 0.1)).slope
    # two different values appear in print for this series; the fit here
    # lands on 5.967, the other being 5.867
    nearest = min((5.967, 5.867), key=lambda v: abs(w_slope - v))
    print(f"W5: slope={w_slope:.4f} accepted in [5.8, 6.1], nearest printed "
          f"value {nearest}")
    assert 5.8 <= w_slope <= 6.1


def test_criterion_03_four_copy_boundary_table():
    printed = {
        3: (1.982590733, -0.8190978288, 0.2597447625),
        5: (1.996950166, -0.8642318466, None),
        7: (1.999411381, -0.8911860667, 0.2034332678),
        9: (1.999880034, -0.9091844711, 0.1729037481),
        11: (1.999974677, -0.9220693131, 0.1496868917),
    }
    for n, (c, d, signed) in printed.items():
        sol = solve_sqrt4(n)
        if signed is None:
            # this row's published digit string for the signed sum is
            # inconsistent with its own c and d entries by 2.7e-7, so the
            # value implied by the row itself is the one checked
            signed = 1.0 - 4.0 + c**2 - d**2
        print(f"n={n}: c err={abs(sol.c - c):.2e} d err={abs(sol.d - d):.2e} "
              f"sum err={abs(sol.signed_sum - signed):.2e} accepted<=5e-9")
        assert abs(sol.c - c) <= 5e-9
        assert abs(sol.d - d) <= 5e-9
        assert abs(sol.signed_sum - signed) <= 5e-9


def test_criterion_04_gate_count_recurrences():
    lib = pure_commutator_library()
    counts = {name: f.gate_count() for name, f in lib.items()}
    print(f"counts={counts}")
    assert counts["Q5"] == 21
    assert counts["W5"] == 26
    assert counts["V5"] == 32
    assert counts["G5"] == 56
    assert counts["V4t"] == 22
    w_chain = [s3(), lib["W5"], build_w(lib["W5"])]
    g_chain = [s3(), lib["G5"], build_g(lib["G5"])]
    for k in (1, 2, 3):
        want_w = 5**k + 1
        want_g = (5 * 10**k + 4) // 9
        got_w = w_chain[k - 1].gate_count()
        got_g = g_chain[k - 1].gate_count()
        print(f"k={k}: 5-copy {got_w} (want {want_w}), "
              f"10-copy {got_g} (want {want_g})")
        assert got_w == want_w
        assert got_g == want_g


def test_criterion_05_log_coefficients_match_closed_forms():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        params = SixGateParams(*rng.uniform(-1.5, 1.5, size=6))
        f = params.as_formula(label="sample", claimed_order=None)
        ga = random_anti_hermitian(rng, 3, norm=1.0)
        gb = random_anti_hermitian(rng, 3, norm=1.0)
        gens = GeneratorPair(ga, gb, np.zeros((3, 3), dtype=complex))
        bch = extract_bch(f, gens)
        rp = reparam(params)
        want1 = rp.l * ga + rp.m * gb
        want2 = 0.5 * (rp.l * rp.m - 2.0 * rp.q) * commutator(ga, gb)
        want3 = ((rp.l**2 * rp.m / 2.0 - 3.0 * rp.r) / 6.0
                 * commutator(ga, commutator(ga, gb))
                 + (rp.m**2 * rp.l / 2.0 - 3.0 * rp.s) / 6.0
                 * commutator(gb, commutator(gb, ga)))
        for got, want in ((bch.order1, want1), (bch.order2, want2),
                          (bch.order3, want3)):
            rel = spectral_norm(got - want) / max(spectral_norm(want), 1e-6)
            worst = max(worst, rel)
    print(f"worst relative deviation={worst:.3e} accepted<=1e-6")
    assert worst <= 1e-6


def test_criterion_06_word_sums():
    w = word_sums(s3())
    print(f"base: a={w.a:.1e} b={w.b:.1e} ba={w.ba:.12f} aba={w.aba:.1e} "
          f"bab={w.bab:.1e}")
    assert abs(w.a) <= 1e-12
    assert abs(w.b) <= 1e-12
    assert abs(w.ba + 1.0) <= 1e-12
    assert abs(w.aba) <= 1e-12
    assert abs(w.bab) <= 1e-12
    for name, f in pure_commutator_library().items():
        wf = word_sums(f)
        print(f"{name}: a={wf.a:.1e} b={wf.b:.1e}")
        assert abs(wf.a) <= 1e-12
        assert abs(wf.b) <= 1e-12


def test_criterion_07_gate_budget_comparison():
    lib = pure_commutator_library()
    for x in (0.10, 0.15, 0.20, 0.25, 0.30):
        r, gates = gates_to_accuracy(lib["G5"], PAULI_PAIR, x, 1e-4)
        print(f"x={x:.2f}: r={r} gates={gates}")
        assert r == 1
        assert gates == 56
    _, baseline = gates_to_accuracy(lib["V4t"], PAULI_PAIR, 0.3, 1e-4)
    print(f"baseline at x=0.30 needs {baseline} gates")
    assert 56 <= baseline


def test_criterion_08_counterdiabatic_fidelity():
    n_steps = 100
    points = cd_run(CDConfig(J=-1.0, hz=5.0, tau=1.0, n_steps=n_steps))
    min_cd = min(p.fidelity_cd for p in points)
    print(f"min corrected fidelity={min_cd:.6f} accepted>=0.99; "
          f"final corrected={points[-1].fidelity_cd:.6f} "
          f"final splitting={points[-1].fidelity_trotter:.6f}")
    assert min_cd >= 0.99
    assert points[-1].fidelity_cd > points[-1].fidelity_trotter
    total = EXPONENTIALS_PER_STEP * n_steps
    print(f"exponentials per protocol={total}")
    assert total == 600


def test_criterion_09_lattice_identities_and_slopes():
    chain_cfg = ChainConfig(L=6, t1=1.0, t2=0.5, T=1.0)
    h0, h1 = chain_hoppings(chain_cfg)
    c = 1j * commutator(h0, h1)
    assert abs(c[0, 2] - 1j) <= 1e-12
    assert abs(c[1, 3] + 1j) <= 1e-12
    for j in range(6):
        for k in range(6):
            if min((j - k) % 6, (k - j) % 6) != 2:
                assert abs(c[j, k]) <= 1e-12
    chain_res = chain_simulate(chain_cfg)
    print(f"chain slope={chain_res.slope:.4f} accepted=-1 +/- 0.15")
    assert abs(chain_res.slope - (-1.0)) <= 0.15

    km_cfg = KMConfig(Lx=4, Ly=4, J=1.0, phi=math.pi / 2, T=1.0)
    assert phases_wrap_consistently(km_cfg.Ly, km_cfg.phi)
    deviation = km_commutator_check(km_cfg)
    km_res = km_simulate(km_cfg)
    print(f"lattice identity deviation={deviation:.2e} accepted<=1e-12; "
          f"slope={km_res.slope:.4f} accepted=-1 +/- 0.15")
    assert deviation <= 1e-12
    assert abs(km_res.slope - (-1.0)) <= 0.15


def test_criterion_10_algebra_property_sweep():
    rng = np.random.default_rng(31337)
    checked = 0
    for _ in range(100):
        dim = int(rng.integers(2, 5))
        gens = GeneratorPair(random_anti_hermitian(rng, dim),
                             random_anti_hermitian(rng, dim),
                             random_anti_hermitian(rng, dim))
        n_steps = int(rng.integers(2, 9))
        steps = tuple((("A", "B", "C")[int(rng.integers(0, 3))],
                       float(rng.uniform(-2.0, 2.0)))
                      for _ in range(n_steps))
        f = ProductFormula(steps)
        x = float(rng.uniform(0.05, 0.3))
        u = f.evaluate(gens, x)
        eye = np.eye(dim)
        assert spectral_norm(u.conj().T @ u - eye) <= 1e-11
        v = f.inverse().evaluate(gens, x)
        assert spectral_norm(v @ u - eye) <= 1e-11
        w = f.simplify().evaluate(gens, x)
        assert spectral_norm(w - u) <= 1e-12
        m = random_anti_hermitian(rng, dim, norm=float(rng.uniform(0.01, 0.2)))
        assert spectral_norm(logm_near_identity(expm(m)) - m) <= 1e-10
        checked += 1
    print(f"instances checked={checked} (unitarity, inverse, simplify, "
          f"log/exp round trip)")
    assert checked >= 100
