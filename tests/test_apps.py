"""Tests for the three application simulators."""

import json
import math
import pathlib
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

from trotterion.apps import (CDConfig, ChainConfig, KMConfig,
                             cd_beta, cd_hamiltonians, cd_run,
                             chain_gate_count, chain_heff, chain_hoppings,
                             chain_simulate, flat_band_coupling,
                             km_commutator_check, km_gate_count, km_hoppings,
                             km_nnn_identities, km_simulate,
                             phases_wrap_consistently, schedule,
                             schedule_rate)
from trotterion import certify, matcore, solve_p_of_r, solver
from trotterion.apps import cd as cd_module
from trotterion.apps.cd import GAP_TOL, MAX_SLICES, TROTTER_STEP
from trotterion.bases import AccuracyWarning, f_r, f_r_params, f_r_signed
from trotterion.errors import DomainError, InvalidInputError, TrotterionError
from trotterion.formula import EVALUATION_BYTES, GeneratorPair
from trotterion.matcore import commutator, eigh, spectral_norm


# ---------------------------------------------------------------- ramp driving

def test_schedule_endpoints_and_midpoint():
    assert schedule(0.0, 1.0) == 0.0
    assert abs(schedule(1.0, 1.0) - 1.0) <= 1e-15
    # nested sin^2 ramp passes through 1/2 exactly at mid-ramp
    assert abs(schedule(0.5, 1.0) - 0.5) <= 1e-15
    grid = np.linspace(0.0, 1.0, 101)
    vals = [schedule(t, 1.0) for t in grid]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_schedule_rate_matches_finite_difference():
    tau = 1.7
    h = 1e-6
    for t in (0.1, 0.33, 0.5, 0.77, 1.2, 1.6):
        fd = (schedule(t + h, tau) - schedule(t - h, tau)) / (2.0 * h)
        assert abs(schedule_rate(t, tau) - fd) <= 1e-6
    # both endpoint rates vanish, so the ramp turns on and off smoothly
    assert schedule_rate(0.0, tau) == 0.0
    assert abs(schedule_rate(tau, tau)) <= 1e-12


def test_schedule_rate_is_symmetric_near_the_endpoints():
    # schedule(tau - t) = 1 - schedule(t), so the rate at tau - delta is
    # the rate at delta; near tau a sine taken close to pi would cancel
    for tau in (1.0, 1.7, 3e-3):
        for delta0 in (tau / 2e4, tau / 1e5):
            delta = tau - (tau - delta0)
            want = schedule_rate(delta, tau)
            assert want > 0.0
            assert abs(schedule_rate(tau - delta, tau) - want) <= 1e-13 * want


def test_cd_hamiltonians_structure():
    cfg = CDConfig(J=-1.0, hz=5.0, tau=1.0, n_steps=10)
    h_a, h_b = cd_hamiltonians(cfg, 1.0)
    assert np.allclose(h_a, 0.0)
    h_a, h_b = cd_hamiltonians(cfg, 0.3)
    assert np.allclose(h_a, h_a.conj().T)
    assert np.allclose(h_b, h_b.conj().T)
    vals = np.linalg.eigvalsh(h_b)
    assert np.allclose(vals, [-2.0, 0.0, 0.0, 2.0], atol=1e-12)
    assert spectral_norm(commutator(h_a, h_b)) > 0.1


def test_cd_beta_on_the_sample_grid():
    cfg = CDConfig(J=-1.0, hz=5.0, tau=1.0, n_steps=100)
    assert cd_beta(cfg, 0.0) == 0.0
    dt = cfg.tau / cfg.n_steps
    betas = [cd_beta(cfg, k * dt) for k in range(cfg.n_steps)]
    assert all(math.isfinite(b) for b in betas)
    # the weight turns on, peaks inside the ramp, and is tiny near the end
    assert max(betas) > 1e-3
    with pytest.raises(DomainError):
        cd_beta(cfg, cfg.tau)
    with pytest.raises(DomainError):
        cd_beta(cfg, -0.01)


def test_cd_beta_on_the_last_slice_of_long_ramps():
    # 1 - schedule(t) rounds to 0 there; the weight is taken without it
    for n_steps in (20_000, MAX_SLICES):
        cfg = CDConfig(J=-1.0, hz=5.0, tau=1.0, n_steps=n_steps)
        beta = cd_beta(cfg, (n_steps - 1) * (cfg.tau / n_steps))
        assert math.isfinite(beta) and beta > 0.0


def test_trotter_step_matches_scipy_splitting():
    cfg = CDConfig(J=-1.0, hz=5.0, tau=1.0, n_steps=20)
    dt = cfg.tau / cfg.n_steps
    h_a, h_b = cd_hamiltonians(cfg, schedule(0.5 * cfg.tau, cfg.tau))
    pair = scipy.linalg.expm(-1j * h_a * (dt / 3.0)) @ scipy.linalg.expm(-1j * h_b * (dt / 3.0))
    got = TROTTER_STEP.evaluate(GeneratorPair(-1j * h_a, -1j * h_b), dt)
    assert spectral_norm(got - pair @ pair @ pair) <= 1e-12
    # built on the corrected step's tags, it is still three (A, 1/3)(B, 1/3) pairs
    assert TROTTER_STEP.steps == (("A", 1.0 / 3.0), ("B", 1.0 / 3.0)) * 3


def test_cd_run_fidelity_properties():
    n_steps = 20
    cfg = CDConfig(J=-1.0, hz=5.0, tau=1.0, n_steps=n_steps)
    points = cd_run(cfg)
    assert len(points) == n_steps + 1
    for fidelities in ([p.fidelity_cd for p in points], [p.fidelity_trotter for p in points]):
        assert fidelities[0] == 1.0
        assert all(-1e-10 <= f <= 1.0 + 1e-10 for f in fidelities)
    assert not any(p.degenerate for p in points)
    ts = [p.t for p in points]
    assert np.allclose(ts, np.linspace(0.0, 1.0, n_steps + 1))
    # each row carries the weight of the slice that starts there
    assert [p.beta for p in points[:-1]] == [cd_beta(cfg, p.t) for p in points[:-1]]
    assert math.isnan(points[-1].beta)
    assert points[-1].fidelity_cd > points[-1].fidelity_trotter
    assert points[-1].fidelity_cd > 0.9


def test_cd_step_product_is_unitary():
    # accumulate the corrected-protocol step matrices over a full ramp and
    # confirm the overall evolution preserves norm
    cfg = CDConfig(J=-1.0, hz=5.0, tau=1.0, n_steps=100)
    dt = cfg.tau / cfg.n_steps
    total = np.eye(4, dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AccuracyWarning)
        for k in range(cfg.n_steps):
            h_a, h_b = cd_hamiltonians(cfg, schedule(k * dt, cfg.tau))
            R = cd_beta(cfg, k * dt) / dt
            gens = GeneratorPair(-1j * h_a, -1j * h_b)
            total = f_r(R).evaluate(gens, dt) @ total
    assert spectral_norm(total.conj().T @ total - np.eye(4)) <= 1e-10


def test_cd_exact_coefficients_agree_with_closed_form():
    cfg = CDConfig(J=-1.0, hz=5.0, tau=1.0, n_steps=10)
    closed = cd_run(cfg)
    solved = cd_run(cfg, exact_coefficients=True)
    # at dt = 0.1 the per-step weight is large, so the closed form is
    # already near the solved coefficients
    for p, q in zip(closed, solved):
        assert abs(p.fidelity_cd - q.fidelity_cd) <= 1e-2
        # the splitting takes no coefficients, so it is the same run
        assert p.fidelity_trotter == q.fidelity_trotter


def _reference_cd_run(cfg, exact_coefficients):
    """cd_run slice by slice from the scalar API: each slice's own
    GeneratorPair, coefficients and evaluations, and one eigensolve per
    ground state."""
    dt = cfg.tau / cfg.n_steps

    def ground_state(t):
        vals, vecs = eigh(sum(cd_hamiltonians(cfg, schedule(t, cfg.tau))))
        return vecs[:, 0], float(vals[1] - vals[0]) < GAP_TOL

    psi_tr, degenerate = ground_state(0.0)
    psi_cd = psi_tr
    t, fid_tr, fid_cd = 0.0, 1.0, 1.0
    points = []
    for k in range(cfg.n_steps):
        beta = cd_beta(cfg, t)
        points.append((t, fid_tr, fid_cd, beta, degenerate))
        gens = GeneratorPair(*(-1j * h for h in cd_hamiltonians(cfg, schedule(t, cfg.tau))))
        psi_tr = TROTTER_STEP.evaluate(gens, dt) @ psi_tr
        if exact_coefficients:
            step = solve_p_of_r(beta / dt).params.as_formula()
        else:
            step = f_r_params(beta / dt).as_formula()
        psi_cd = step.evaluate(gens, dt) @ psi_cd
        t = (k + 1) * dt
        gs, degenerate = ground_state(t)
        fid_tr = float(abs(np.vdot(gs, psi_tr)) ** 2)
        fid_cd = float(abs(np.vdot(gs, psi_cd)) ** 2)
    points.append((t, fid_tr, fid_cd, math.nan, degenerate))
    return points


# (J, hz, tau, N): the README ramp, one whose last chunk is ragged, a
# degenerate start (hz = 0 keeps the field off), and three that fail: at
# J = 0, hz = 1e-152 the weight R = beta/dt passes the exact solve's cap from
# slice 1 and overflows on slice 8, and beta overflows on slice 9. At
# J = hz = 3e-154 the exact solve fails on slice 1, but the closed form only
# on slice 37, after the first chunk has run.
REFERENCE_RAMPS = [(-1.0, 5.0, 1.0, 100), (0.7, 2.3, 1.0, 3 * cd_module._slices_per_chunk() + 1),
                   (1.0, 0.0, 1.0, 7), (0.0, 1e-152, 1.0, 10), (1e-5, 1e-5, 1.0, 10),
                   (3e-154, 3e-154, 1.0, 100)]


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("ramp", REFERENCE_RAMPS)
def test_cd_run_matches_the_per_slice_reference(ramp, exact):
    cfg = CDConfig(*ramp)
    # numpy scalars run as the Python numbers they hold, with no numpy warning
    configs = (cfg, CDConfig(*map(np.float64, ramp[:3]), np.int64(ramp[3])))
    try:
        want = _reference_cd_run(cfg, exact)
    except TrotterionError as exc:
        for c in configs:
            with pytest.raises(type(exc)) as caught:
                cd_run(c, exact_coefficients=exact)
            assert str(caught.value) == str(exc)
        return
    for c in configs:
        got = cd_run(c, exact_coefficients=exact)
        assert len(got) == len(want)
        for p, q in zip(got, want):
            assert (p.t, p.degenerate) == (q[0], q[4])
            assert p.beta == q[3] or math.isnan(p.beta) and math.isnan(q[3])
            assert abs(p.fidelity_trotter - q[1]) <= 1e-12
            assert abs(p.fidelity_cd - q[2]) <= 1e-12


def test_cd_run_builds_two_spectra_and_one_eigensolve_a_chunk(monkeypatch):
    counts = {"spectra": 0, "eigh": 0}
    spectrum_init, numpy_eigh = matcore.SkewSpectrum.__init__, np.linalg.eigh

    def counted_init(self, h):
        counts["spectra"] += 1
        spectrum_init(self, h)

    def counted_eigh(a, *args, **kwargs):
        counts["eigh"] += 1
        return numpy_eigh(a, *args, **kwargs)

    monkeypatch.setattr(matcore.SkewSpectrum, "__init__", counted_init)
    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    n_steps = 20
    chunks = -(-n_steps // cd_module._slices_per_chunk())
    for exact in (False, True):
        counts.update(spectra=0, eigh=0)
        cd_run(CDConfig(J=-1.0, hz=5.0, tau=1.0, n_steps=n_steps), exact_coefficients=exact)
        # the spectra of FIELD and COUPLING, the start's ground state, and
        # one stacked eigensolve of each chunk's ground states
        assert counts == {"spectra": 2, "eigh": 3 + chunks}


def test_exact_ramp_memory_is_its_points_plus_a_quarter_of_the_cap():
    cfg = CDConfig(J=-1.0, hz=5.0, tau=10.0, n_steps=20_000)
    tracemalloc.start()
    try:
        points = cd_run(cfg, exact_coefficients=True)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    point_bytes = sys.getsizeof(points[0]) + sum(sys.getsizeof(v) for v in points[0][:4])
    assert peak <= EVALUATION_BYTES + sys.getsizeof(points) + len(points) * point_bytes
    # beyond the points it returns, the run holds one chunk's arrays, which
    # _slices_per_chunk keeps within a quarter of the cap
    assert peak - held <= EVALUATION_BYTES // 4


def test_cd_config_validation():
    with pytest.raises(InvalidInputError):
        CDConfig(J=1.0, hz=1.0, tau=0.0, n_steps=10)
    with pytest.raises(InvalidInputError):
        CDConfig(J=1.0, hz=1.0, tau=math.inf, n_steps=10)
    with pytest.raises(InvalidInputError):
        CDConfig(J=1.0, hz=1.0, tau=1.0, n_steps=0)
    # J*tau can be small while J alone overflows its square
    for J, hz, tau in ((math.inf, 1.0, 1.0), (1.0, math.nan, 1.0), (1.0, 1e200, 1.0),
                       (1e200, 5.0, 1e-200), (0.0, 0.0, 1.0)):
        with pytest.raises(InvalidInputError):
            CDConfig(J=J, hz=hz, tau=tau, n_steps=10)


def test_cd_config_accepts_the_slice_cap():
    # one slice more exits 2: see the cd rows of the CLI's malformed inputs
    assert CDConfig(J=-1.0, hz=5.0, tau=1.0, n_steps=MAX_SLICES).n_steps == MAX_SLICES


# ---------------------------------------------------------------- hopping chain

def test_chain_hoppings_structure():
    cfg = ChainConfig(L=4, t1=1.0, t2=0.5, T=1.0)
    h0, h1 = chain_hoppings(cfg)
    want0 = np.zeros((4, 4))
    want0[0, 1] = want0[1, 0] = want0[2, 3] = want0[3, 2] = 1.0
    assert np.array_equal(h0.real, want0)
    assert np.array_equal(h0.imag, np.zeros((4, 4)))
    # the odd half carries the periodic wrap bond
    assert h1[3, 0] == 1.0 and h1[0, 3] == 1.0
    assert h1[1, 2] == 1.0
    # disjoint 2x2 bond blocks square to the identity
    assert np.allclose(h0 @ h0, np.eye(4))
    assert np.allclose(h1 @ h1, np.eye(4))


def test_chain_commutator_is_nnn_only():
    cfg = ChainConfig(L=6, t1=1.0, t2=0.5, T=1.0)
    h0, h1 = chain_hoppings(cfg)
    c = 1j * commutator(h0, h1)
    assert c[0, 2] == 1j
    assert c[1, 3] == -1j
    for j in range(6):
        for k in range(6):
            dist = min((j - k) % 6, (k - j) % 6)
            if dist != 2:
                assert abs(c[j, k]) <= 1e-14


def test_chain_heff_properties():
    cfg = ChainConfig(L=6, t1=1.3, t2=0.5, T=1.0)
    heff = chain_heff(cfg)
    assert np.allclose(heff, heff.conj().T, atol=1e-14)
    flat = chain_heff(ChainConfig(L=6, t1=1.3, t2=0.0, T=1.0))
    h0, h1 = chain_hoppings(cfg)
    assert np.array_equal(flat, 1.3 * (h0 + h1))


def test_chain_target_is_the_heff_evolution(monkeypatch):
    # the target chain_simulate's scan hands to power_errors
    cfg = ChainConfig(L=8, t1=1.3, t2=0.7, T=1.1)
    passed = []

    def record(gens, steps, xs, powers, target):
        passed.append(target)
        return [1.0 / n for n in powers], [None] * len(powers)

    monkeypatch.setattr(certify, "power_errors", record)
    chain_simulate(cfg)
    want = scipy.linalg.expm(-1j * cfg.T * chain_heff(cfg))
    assert spectral_norm(passed[0] - want) <= 1e-12


def test_chain_simulate_slope_and_decay():
    cfg = ChainConfig(L=6, t1=1.0, t2=0.5, T=1.0)
    res = chain_simulate(cfg)
    assert abs(res.slope - (-1.0)) <= 0.15
    errs = [e for _, e in res.rows]
    assert all(b <= a * 1.05 or a < 1e-8 for a, b in zip(errs, errs[1:]))
    # decay consistent with 1/n on the default grid
    assert errs[-1] <= errs[0] * (res.rows[0][0] / res.rows[-1][0]) * 1.5


def test_chain_gate_count_and_single_n():
    cfg = ChainConfig(L=6, t1=1.0, t2=0.5, T=1.0)
    assert chain_gate_count(cfg, 16) == 3 * 16 * 6
    res = chain_simulate(cfg, ns=(16,))
    assert len(res.rows) == 1
    assert res.rows[0][0] == 16.0
    assert res.rows[0][1] == pytest.approx(chain_simulate(cfg, ns=(8, 16)).rows[1][1], rel=1e-12)


def test_chain_negative_weight_uses_reflected_step():
    # flipping the sign of the diagonal amplitude sends the per-step weight
    # through the reflected branch and the run still converges
    cfg = ChainConfig(L=6, t1=1.0, t2=-0.5, T=1.0)
    res = chain_simulate(cfg, ns=(8, 16, 32, 64))
    assert abs(res.slope - (-1.0)) <= 0.2
    errs = [e for _, e in res.rows]
    assert errs[-1] < errs[0]


def test_chain_config_validation():
    with pytest.raises(InvalidInputError):
        ChainConfig(L=5, t1=1.0, t2=0.5, T=1.0)
    with pytest.raises(InvalidInputError):
        ChainConfig(L=2, t1=1.0, t2=0.5, T=1.0)
    with pytest.raises(InvalidInputError):
        ChainConfig(L=6, t1=0.0, t2=0.5, T=1.0)
    with pytest.raises(InvalidInputError):
        ChainConfig(L=6, t1=1.0, t2=0.5, T=-1.0)
    cfg = ChainConfig(L=6, t1=1.0, t2=0.5, T=1.0)
    with pytest.raises(InvalidInputError):
        chain_simulate(cfg, ns=(0,))
    with pytest.raises(InvalidInputError):
        chain_simulate(cfg, ns=(16, 8))
    with pytest.raises(InvalidInputError):
        chain_simulate(cfg, ns=())
    with pytest.raises(InvalidInputError):
        chain_simulate(cfg, ns=(0, 8))


def test_f_r_signed_branches():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AccuracyWarning)
        assert f_r_signed(0.3).steps == f_r(0.3).steps
        neg = f_r_signed(-1.0)
        pos = f_r(1.0)
    assert neg.steps == tuple(reversed(pos.steps))
    # the reflected step keeps the third-order defect of the original
    a = -1j * np.array([[0, 1], [1, 0]], dtype=complex)
    b = -1j * np.array([[1, 0], [0, -1]], dtype=complex)
    pair = GeneratorPair(a, b, np.zeros((2, 2), dtype=complex))
    comm = a @ b - b @ a

    def err(x):
        want = scipy.linalg.expm(x * (a + b) - x**2 * comm)
        return spectral_norm(neg.evaluate(pair, x) - want)

    ratio = err(2e-3) / err(1e-3)
    assert 6.0 <= ratio <= 10.0


# ---------------------------------------------------------------- flux lattice

def test_km_bond_partition_covers_hopping():
    cfg = KMConfig(Lx=4, Ly=4, J=1.5, phi=0.0, T=1.0, boundary="torus")
    h1, h2, h3, h4 = km_hoppings(cfg)
    # zero flux: the four colors sum to -J times the plain torus adjacency
    adj = np.zeros((16, 16))
    for m in range(4):
        for n in range(4):
            i = m * 4 + n
            adj[((m + 1) % 4) * 4 + n, i] += 1.0
            adj[i, ((m + 1) % 4) * 4 + n] += 1.0
            adj[m * 4 + (n + 1) % 4, i] += 1.0
            adj[i, m * 4 + (n + 1) % 4] += 1.0
    assert np.allclose(h1 + h2 + h3 + h4, -1.5 * adj)
    # each bond lives in exactly one color
    for x, y in ((h1, h2), (h1, h3), (h1, h4), (h2, h3), (h2, h4), (h3, h4)):
        assert np.all((np.abs(x) > 0) + (np.abs(y) > 0) < 2)


def test_km_open_boundary_keeps_only_bonds_inside_the_lattice():
    Lx, Ly, J, phi = 5, 4, -0.8, 0.7
    cfg = KMConfig(Lx=Lx, Ly=Ly, J=J, phi=phi, T=1.0, boundary="open")
    h1, h2, h3, h4 = km_hoppings(cfg)

    def site(m, n):
        return m * Ly + n

    def bonds(pairs, value):
        # the matrix with value(m, n) at [to, from] of each bond and its conjugate
        out = np.zeros((Lx * Ly, Lx * Ly), dtype=complex)
        for (m, n), to, frm in pairs:
            out[to, frm] = value(m, n)
            out[frm, to] = np.conj(value(m, n))
        return out

    def cells(dm, dn):
        return [(m, n) for m in range(Lx - dm) for n in range(Ly - dn)]

    horizontal = bonds([((m, n), site(m + 1, n), site(m, n)) for m, n in cells(1, 0)],
                       lambda m, n: -J * np.exp(-1j * n * phi))
    vertical = bonds([((m, n), site(m, n + 1), site(m, n)) for m, n in cells(0, 1)],
                     lambda m, n: -J)
    assert np.count_nonzero(horizontal) == 2 * Ly * (Lx - 1)
    assert np.count_nonzero(vertical) == 2 * Lx * (Ly - 1)
    for got, want in ((h1 + h2, horizontal), (h3 + h4, vertical)):
        assert np.array_equal(got != 0, want != 0)
        assert np.allclose(got, want, rtol=0.0, atol=1e-15)
    ur = bonds([((m, n), site(m + 1, n + 1), site(m, n)) for m, n in cells(1, 1)], lambda m, n: 1)
    dr = bonds([((m, n), site(m + 1, n), site(m, n + 1)) for m, n in cells(1, 1)], lambda m, n: 1)
    assert np.count_nonzero(ur) == np.count_nonzero(dr) == 2 * (Lx - 1) * (Ly - 1)
    support = {"h1h3": ur, "h1h4": dr, "h2h3": dr, "h2h4": ur, "combined": ur + dr}
    for key, (lhs, rhs) in km_nnn_identities(cfg).items():
        assert np.array_equal(rhs != 0, support[key] != 0), key
        assert spectral_norm(lhs - rhs) <= 1e-14, key


def test_km_vertical_bonds_are_real():
    cfg = KMConfig(Lx=4, Ly=4, J=1.0, phi=np.pi / 4, T=1.0, boundary="torus")
    _, _, h3, h4 = km_hoppings(cfg)
    assert np.allclose(h3.imag, 0.0)
    assert np.allclose(h4.imag, 0.0)


def test_km_diagonal_bond_identities():
    cfg = KMConfig(Lx=4, Ly=4, J=1.0, phi=np.pi / 4, T=1.0, boundary="torus")
    assert km_commutator_check(cfg) <= 1e-12
    idents = km_nnn_identities(cfg)
    assert set(idents) == {"h1h3", "h1h4", "h2h3", "h2h4", "combined"}
    for lhs, rhs in idents.values():
        assert spectral_norm(lhs - rhs) <= 1e-12
        assert np.allclose(lhs, lhs.conj().T, atol=1e-12)
    # identities also hold with open boundaries at arbitrary flux
    open_cfg = KMConfig(Lx=5, Ly=4, J=0.8, phi=0.7, T=1.0, boundary="open")
    assert km_commutator_check(open_cfg) <= 1e-12


def test_km_zero_flux_kills_diagonal_bonds():
    cfg = KMConfig(Lx=4, Ly=4, J=1.0, phi=0.0, T=1.0, boundary="torus")
    h1, h2, h3, h4 = km_hoppings(cfg)
    assert spectral_norm(-1j * commutator(h1 - h2, h3 - h4)) <= 1e-12


def test_km_identities_scale_as_j_squared():
    base = KMConfig(Lx=4, Ly=4, J=1.0, phi=np.pi / 4, T=1.0, boundary="torus")
    doubled = KMConfig(Lx=4, Ly=4, J=2.0, phi=np.pi / 4, T=1.0,
                       boundary="torus")
    for key, (lhs1, _) in km_nnn_identities(base).items():
        lhs2, rhs2 = km_nnn_identities(doubled)[key]
        assert np.allclose(lhs2, 4.0 * lhs1, atol=1e-12)
        assert np.allclose(rhs2, 4.0 * lhs1, atol=1e-12)


def test_flat_band_coupling_value_and_domain():
    got = flat_band_coupling(1.0, math.pi / 4)
    assert abs(got - 0.33053365722755496) <= 1e-15
    want = math.exp(0.25 * math.pi / 4 - 0.5 * math.pi) / (
        2.0 * math.sin(math.pi / 8))
    assert abs(got - want) <= 1e-15
    with pytest.raises(InvalidInputError):
        flat_band_coupling(1.0, 0.0)
    with pytest.raises(InvalidInputError):
        flat_band_coupling(1.0, 4.0 * math.pi)
    with pytest.raises(InvalidInputError):
        flat_band_coupling(0.0, math.pi / 4)


def test_phase_wrap_predicate_and_auto_boundary():
    assert phases_wrap_consistently(8, math.pi / 4)
    assert not phases_wrap_consistently(4, math.pi / 4)
    assert phases_wrap_consistently(3, 2.0 * math.pi / 3)
    # auto resolves to torus exactly when the row phases close
    closed = KMConfig(Lx=3, Ly=8, J=1.0, phi=math.pi / 4, T=1.0)
    torus = KMConfig(Lx=3, Ly=8, J=1.0, phi=math.pi / 4, T=1.0,
                     boundary="torus")
    for got, want in zip(km_hoppings(closed), km_hoppings(torus)):
        assert np.array_equal(got, want)
    clipped = KMConfig(Lx=3, Ly=4, J=1.0, phi=math.pi / 4, T=1.0)
    opened = KMConfig(Lx=3, Ly=4, J=1.0, phi=math.pi / 4, T=1.0,
                      boundary="open")
    for got, want in zip(km_hoppings(clipped), km_hoppings(opened)):
        assert np.array_equal(got, want)


def test_km_simulate_slope_and_gates():
    cfg = KMConfig(Lx=4, Ly=4, J=1.0, phi=np.pi / 4, T=1.0, boundary="torus")
    res = km_simulate(cfg)
    assert abs(res.slope - (-1.0)) <= 0.15
    errs = [e for _, e in res.rows]
    assert all(b <= a * 1.05 or a < 1e-8 for a, b in zip(errs, errs[1:]))
    assert km_gate_count(cfg, 32) == 7 * 32


def test_km_config_validation():
    with pytest.raises(InvalidInputError):
        KMConfig(Lx=2, Ly=4, J=1.0, phi=1.0, T=1.0)
    with pytest.raises(InvalidInputError):
        KMConfig(Lx=4, Ly=4, J=1.0, phi=1.0, T=0.0)
    with pytest.raises(InvalidInputError):
        KMConfig(Lx=4, Ly=4, J=1.0, phi=1.0, T=1.0, boundary="klein")
    cfg = KMConfig(Lx=4, Ly=4, J=1.0, phi=np.pi / 4, T=1.0, boundary="torus")
    with pytest.raises(InvalidInputError):
        km_simulate(cfg, ns=(0,))
    with pytest.raises(InvalidInputError):
        km_simulate(cfg, ns=(32, 16))


# float.hex of every row (n, error) and slope over the default step grid,
# recorded before the n-step scan moved into certify.step_count_scan. The
# chain cases take both tag orders of f_r_signed (t2 > 0 gives a negative
# weight), the lattice cases a torus, an open 4x4 lattice and a 5x3 one.
# The errors go through BLAS products and an SVD, so a BLAS with other
# kernels may round them differently; they were recorded with x86-64
# OpenBLAS under numpy 2.
STEP_SCAN_BITS = pathlib.Path(__file__).resolve().parent / "data" / "step_scans.json"


def test_step_scans_keep_the_recorded_bits():
    cases = {f"chain L={L} t2={t2:g}": (chain_simulate, ChainConfig(L=L, t1=1.0, t2=t2, T=1.0))
             for L in (6, 16) for t2 in (0.5, -0.5, 2.0)}
    for Lx, Ly, boundary in ((4, 4, "auto"), (4, 4, "open"), (5, 3, "auto")):
        cfg = KMConfig(Lx=Lx, Ly=Ly, J=1.0, phi=math.pi / 2, T=1.0, boundary=boundary)
        cases[f"km {Lx}x{Ly} {boundary}"] = (km_simulate, cfg)
    recorded = json.loads(STEP_SCAN_BITS.read_text(encoding="utf-8"))
    assert sorted(recorded) == sorted(cases)
    for label, pin in recorded.items():
        simulate, cfg = cases[label]
        result = simulate(cfg)
        assert [[n.hex(), e.hex()] for n, e in result.rows] == pin["rows"], label
        assert result.slope.hex() == pin["slope"], label


# ---------------------------------------------------------------- warning state

def test_runs_leave_the_warning_state_alone():
    # a run at small R neither shows nor silences the accuracy warning, and
    # leaves the filters as it found them: a filter change makes Python
    # forget which "default" warnings it has shown, and show them again
    runs = (lambda: chain_simulate(ChainConfig(L=6, t1=1.0, t2=0.5, T=1.0), ns=[8, 16]),
            lambda: km_simulate(KMConfig(Lx=3, Ly=4, J=1.0, phi=1.0, T=1.0), ns=[8, 16]),
            lambda: cd_run(CDConfig(J=-1.0, hz=5.0, tau=1.0, n_steps=10)))
    for run in runs:  # imports warmed
        run()

    def warn():
        warnings.warn("shown once", UserWarning)

    with warnings.catch_warnings(record=True) as shown:
        warnings.simplefilter("default")
        filters = list(warnings.filters)
        warn()
        for run in runs:
            run()
            warn()
        assert warnings.filters == filters
    assert [str(w.message) for w in shown] == ["shown once"]
