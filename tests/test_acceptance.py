"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
are produced. Every tolerance is stated inline next to its assertion.
"""

import contextlib
import json
import time

import numpy as np
import pytest

import susyqm.operators as ops
from susyqm import engine
from susyqm.cli import main
from susyqm.engine import (algebra_residuals, detect_pairing, eq5_action_table,
                           ground_state_check, numeric_spectrum)
from susyqm.grid import build_grid
from susyqm.models import (delta_well_even_continuum, jump_condition_residual,
                           sec_squared_potential)
from susyqm.partner import box_to_free_scan


@contextlib.contextmanager
def verdict(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d}: FAIL - {title}")
        raise
    print(f"criterion {number:2d}: PASS - {title}")


def test_criterion_01_box_spectrum():
    with verdict(1, "box lowest 4 levels within 1e-4 of {0.5, 2, 4.5, 8} in < 5 s"):
        t0 = time.perf_counter()
        grid = build_grid(np.pi / 2, 2001, "dirichlet")
        h = ops.hamiltonian(grid, lambda x: 0.0)
        spec = numeric_spectrum(h, ops.parity_operator(grid), 4)
        np.testing.assert_allclose(spec.eigenvalues, [0.5, 2.0, 4.5, 8.0], rtol=1e-4)
        assert time.perf_counter() - t0 < 5.0


def test_criterion_02_partner_isospectrality():
    with verdict(2, "sec^2 partner matches box levels 2..4, ground level missing"):
        grid = build_grid(np.pi / 2, 2001, "dirichlet")
        par = ops.parity_operator(grid)
        h_partner = ops.hamiltonian(grid, sec_squared_potential(np.pi))
        partner = numeric_spectrum(h_partner, par, 3)
        np.testing.assert_allclose(partner.eigenvalues, [2.0, 4.5, 8.0], rtol=1e-4)
        # exactly one box level below the partner ground: the missing n=1
        box = numeric_spectrum(ops.hamiltonian(grid, lambda x: 0.0), par, 4)
        below = np.sum(box.eigenvalues < partner.eigenvalues[0] * (1 - 1e-6))
        assert below == 1


def test_criterion_03_delta_well_bound_state_convergence():
    with verdict(3, "delta well ground within 1e-2 of -0.5 at h=1e-3; halving h "
                    "at least halves the error; banded solve in < 30 s"):
        t0 = time.perf_counter()
        errors = []
        for h_target in (1e-3, 5e-4):
            n = int(round(40.0 / h_target)) - 1
            grid = build_grid(20.0, n, "dirichlet")
            ham = ops.delta_well_hamiltonian(grid, 1.0)
            spec = numeric_spectrum(ham, ops.parity_operator(grid), 1)
            errors.append(abs(float(spec.eigenvalues[0]) + 0.5))
        assert errors[0] < 1e-2
        assert errors[1] <= errors[0] / 2.0
        assert time.perf_counter() - t0 < 30.0


def test_criterion_04_algebra_identities():
    with verdict(4, "[H,Q] and {Q,Qdag}/2 - H residuals <= 1e-12 on 512 points"):
        grid = build_grid(np.pi, 512, "periodic")
        p = ops.momentum(grid)
        par = ops.parity_operator(grid)
        charges = ops.supercharge_Q(p, par, 1.0)
        h = ops.momentum_squared_hamiltonian(p, 1.0)
        res = algebra_residuals(h, charges)
        assert res.comm_HQ <= 1e-12
        assert res.comm_HQdag <= 1e-12
        assert res.anticomm_minus_H <= 1e-12


def test_criterion_05_nilpotency():
    with verdict(5, "||q^2|| <= 1e-12 ||p||^2 and the (q, qdag) identities hold"):
        grid = build_grid(np.pi, 512, "periodic")
        p = ops.momentum(grid)
        par = ops.parity_operator(grid)
        q, qdag = ops.supercharge_q_pair(p, par, 1.0)
        p_norm = ops.frobenius_norm(p)
        assert ops.frobenius_norm(ops.compose(q.action, q.action)) <= 1e-12 * p_norm ** 2
        assert ops.frobenius_norm(ops.compose(qdag.action, qdag.action)) \
            <= 1e-12 * p_norm ** 2
        h = ops.momentum_squared_hamiltonian(p, 1.0)
        res = algebra_residuals(h, (q, qdag))
        assert res.comm_HQ <= 1e-12 and res.comm_HQdag <= 1e-12
        assert res.anticomm_minus_H <= 1e-12


def test_criterion_06_action_table():
    with verdict(6, "action-table residuals <= 1e-12 with dispersion substitution; "
                    "measured convergence order 2.0 +- 0.1 without it"):
        grid = build_grid(np.pi, 512, "periodic")
        rows = eq5_action_table(grid, engine.commensurate_wavenumbers(grid))
        assert max(r.max_deviation for r in rows) <= 1e-12
        devs = []
        for n in (128, 256, 512):
            g = build_grid(np.pi, n, "periodic")
            devs.append(eq5_action_table(g, [4.0], substitute_dispersion=False)[0]
                        .max_deviation)
        for a, b in zip(devs, devs[1:]):
            assert np.log2(a / b) == pytest.approx(2.0, abs=0.1)


def test_criterion_07_ground_state_uniqueness():
    with verdict(7, "single |E| <= 1e-10 level, constant eigenvector, annihilated "
                    "by Q, q, qdag to 1e-10"):
        grid = build_grid(np.pi, 512, "periodic")
        p = ops.momentum(grid)
        par = ops.parity_operator(grid)
        h = ops.hamiltonian(grid, lambda x: 0.0)
        spec = numeric_spectrum(h, par, grid.n_points)
        assert int(np.sum(np.abs(spec.eigenvalues) <= 1e-10)) == 1
        v = spec.eigenvectors[:, 0]
        constant = np.full_like(v, np.mean(v))
        assert np.linalg.norm(v - constant) / np.linalg.norm(v) <= 1e-8
        q_big = ops.supercharge_Q(p, par, 1.0)
        q, qdag = ops.supercharge_q_pair(p, par, 1.0)
        for rec in (ground_state_check(spec, q_big), ground_state_check(spec, (q, qdag))):
            assert max(rec.annihilation_residuals.values()) <= 1e-10


def test_criterion_08_rotor():
    with verdict(8, "rotor spectrum m^2/2 with (m, -m) pairs, lone m=0; "
                    "-Q^2 = H and [H,Q] = 0 exactly; Q annihilates m=0"):
        m_max = 8
        lz, t, h = ops.rotor_basis_operators(m_max, 1.0)
        spec = numeric_spectrum(h, ops.LinearOperator(t.antilinear_matrix), 2 * m_max + 1)
        expected = sorted(m ** 2 / 2.0 for m in range(-m_max, m_max + 1))
        np.testing.assert_array_equal(spec.eigenvalues, expected)
        pairing = detect_pairing(spec)
        assert len(pairing.pairs) == m_max and pairing.unpaired == [0]
        q, _ = ops.supercharge_Q(lz, t, 1.0)
        qq = ops.compose(q.action, q.action)
        np.testing.assert_allclose(-qq.to_dense(), h.to_dense(), atol=1e-15)
        assert ops.frobenius_norm(ops.commutator(h, q.action)) == 0.0
        m0 = np.zeros(2 * m_max + 1, dtype=complex)
        m0[m_max] = 1.0
        assert np.linalg.norm(q.apply(m0)) == 0.0


def test_criterion_09_delta_well_continuum():
    with verdict(9, "jump condition exactly zero on a 10-point sample; amplitude "
                    "<= 2e-3 at k=1e-3; lambda -> 0 limit recovers cos to 1e-12"):
        rng = np.random.default_rng(7)
        for lam, k in zip(rng.uniform(0.1, 5.0, 10), rng.uniform(0.1, 5.0, 10)):
            assert jump_condition_residual(float(lam), float(k)) == 0.0
        xs = np.linspace(-1.0, 1.0, 201)
        amp = np.max(np.abs(delta_well_even_continuum(1.0, 1e-3).evaluate(xs)))
        assert amp <= 2e-3
        k = 1.7
        xs = np.linspace(-5.0, 5.0, 101)
        state = delta_well_even_continuum(1e-14, k)
        np.testing.assert_allclose(state.evaluate(xs), np.cos(k * xs), atol=1e-12)


def test_criterion_10_widening_box_scan():
    with verdict(10, "E1 * L^2 within 1e-3 of pi^2/2 = 4.9348 for L = pi..8pi; "
                     "partner pairing preserved at every L"):
        lengths = [np.pi, 2 * np.pi, 4 * np.pi, 8 * np.pi]
        rows = box_to_free_scan(lengths, 300.0, n_levels=4)
        target = np.pi ** 2 / 2.0
        assert target == pytest.approx(4.9348, abs=5e-5)
        for row in rows:
            assert abs(row.e1_times_l_squared - target) / target <= 1e-3
            assert row.pairs_matched == 4


def test_criterion_11_verdict_table_via_cli(tmp_path):
    with verdict(11, "cmd_check exit codes: all four (model, charge) combos pass "
                     "with criterion 5 failing by design for the Q charges"):
        combos = [("free", "Q", True), ("free", "q", False),
                  ("rotor", "Q", True), ("rotor", "q", False)]
        for model, charge, by_design in combos:
            out = tmp_path / f"{model}_{charge}.json"
            code = main(["check", "--model", model, "--charge", charge,
                         "--out", str(out)])
            assert code == 0
            report = json.loads(out.read_text())
            v5 = report["verdict_per_criterion"]["5"]
            assert v5["by_design_failure"] is by_design
            assert v5["satisfied"] is (not by_design)
            for n in ("1", "2", "3", "4", "6"):
                assert report["verdict_per_criterion"][n]["satisfied"] is True
        # a Dirichlet model is refused with the configuration exit code
        assert main(["check", "--model", "box", "--charge", "Q",
                     "--out", str(tmp_path / "box.json")]) == 2
