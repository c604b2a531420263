import dataclasses
import json
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import eigh_tridiagonal

import susyqm.operators as ops
from susyqm import engine, partner
from susyqm.cli import main
from susyqm.engine import (Spectrum, algebra_residuals, build_check,
                           detect_pairing, eq5_action_table, ground_state_check,
                           numeric_spectrum)
from susyqm.errors import DirichletAlgebraError, NumericalContractError, ParameterError
from susyqm.grid import build_grid, parity_permutation
from susyqm.models import (DeltaWell, FreeParticle, ParticleInBox, PlanarRotor,
                           SecSquaredPartner, box_energy, box_levels, sec_squared_potential,
                           three_point_levels)
from susyqm.partner import box_to_free_scan, partner_potential


def _tridiag(diag, offdiag) -> ops.LinearOperator:
    """Real symmetric tridiagonal operator from its diagonal and off-diagonal."""
    return ops.LinearOperator(sp.diags_array([offdiag, diag, offdiag], offsets=[-1, 0, 1],
                                             format="csr"))


@pytest.fixture(scope="module")
def free_setup():
    grid = build_grid(np.pi, 512, "periodic")
    p = ops.momentum(grid)
    par = ops.parity_operator(grid)
    h_spec = ops.hamiltonian(grid, lambda x: 0.0)
    h_alg = ops.momentum_squared_hamiltonian(p, 1.0)
    return grid, p, par, h_spec, h_alg


@pytest.fixture(scope="module")
def rotor_setup():
    lz, t, h = ops.rotor_basis_operators(3, 1.0)
    return lz, t, h


# ---------------------------------------------------------------------------
# numeric_spectrum

def test_box_spectrum_converges():
    grid = build_grid(np.pi / 2, 2001, "dirichlet")
    h = ops.hamiltonian(grid, lambda x: 0.0)
    spec = numeric_spectrum(h, ops.parity_operator(grid), 4)
    np.testing.assert_allclose(spec.eigenvalues, [0.5, 2.0, 4.5, 8.0], rtol=1e-4)
    assert spec.parity_labels == ["even", "odd", "even", "odd"]


def test_free_periodic_zero_simple_positive_doubly_degenerate(free_setup):
    grid, _, par, h_spec, _ = free_setup
    spec = numeric_spectrum(h_spec, par, grid.n_points)
    vals = spec.eigenvalues
    assert np.sum(np.abs(vals) < 1e-10) == 1
    # below the Nyquist mode every positive level comes in an exact pair
    interior = vals[1:-1]
    np.testing.assert_allclose(interior[0::2], interior[1::2], rtol=1e-10)


def test_rotor_spectrum_exact():
    _, t, h = ops.rotor_basis_operators(3, 1.0)
    spec = numeric_spectrum(h, ops.LinearOperator(t.antilinear_matrix), 7)
    np.testing.assert_allclose(spec.eigenvalues, [0, .5, .5, 2, 2, 4.5, 4.5], atol=1e-14)


def test_numeric_spectrum_rejects_non_hermitian():
    bad = ops.LinearOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))
    ident = ops.from_permutation([0, 1])
    with pytest.raises(NumericalContractError):
        numeric_spectrum(bad, ident, 2)


def test_degenerate_eigenvectors_get_definite_parity(free_setup):
    grid, _, par, h_spec, _ = free_setup
    spec = numeric_spectrum(h_spec, par, 9)
    for i in range(9):
        v = spec.eigenvectors[:, i]
        s = abs(np.vdot(v, par.apply(v)).real)
        assert s >= 1.0 - 1e-8
        assert spec.parity_labels[i] in ("even", "odd")


def _assert_exact_parity(spec, perm):
    for i, label in enumerate(spec.parity_labels):
        v = spec.eigenvectors[:, i]
        sign = {"even": 1.0, "odd": -1.0}[label]
        np.testing.assert_array_equal(v[perm], sign * v)


@settings(deadline=None, max_examples=60)
@given(boundary=st.sampled_from(["dirichlet", "periodic"]),
       half_points=st.integers(min_value=2, max_value=20),
       half_width=st.floats(min_value=0.5, max_value=5.0),
       coeffs=st.lists(st.floats(min_value=-20.0, max_value=20.0), min_size=1, max_size=4),
       data=st.data())
def test_sector_solve_matches_dense_eigvalsh(boundary, half_points, half_width, coeffs, data):
    n = 2 * half_points + (boundary == "dirichlet" and half_points % 2)
    grid = build_grid(half_width, n, boundary)
    # a potential sampled from |x| is bit-exactly even on the symmetric grid
    h = ops.hamiltonian(grid, lambda x: np.polyval(coeffs, abs(x)))
    n_levels = data.draw(st.integers(min_value=1, max_value=n))
    spec = numeric_spectrum(h, ops.parity_operator(grid), n_levels)
    dense = h.to_dense()
    scale = np.max(np.abs(np.linalg.eigvalsh(dense)))
    np.testing.assert_allclose(spec.eigenvalues, np.linalg.eigvalsh(dense)[:n_levels],
                               rtol=0, atol=1e-9 * scale)
    # the full-space vectors are unfolded here, on first read
    vecs = spec.eigenvectors
    assert spec.eigenvectors is vecs
    resid = dense @ vecs - vecs * spec.eigenvalues
    assert np.max(np.abs(resid)) <= 1e-9 * scale
    np.testing.assert_allclose(vecs.conj().T @ vecs, np.eye(n_levels), rtol=0, atol=1e-9)
    _assert_exact_parity(spec, parity_permutation(grid))


def _spy_solves(monkeypatch):
    """Record the keyword arguments of every eigh_tridiagonal call the engine makes."""
    calls = []
    solve = engine.eigh_tridiagonal

    def spy(d, e, **kwargs):
        calls.append(kwargs)
        return solve(d, e, **kwargs)

    monkeypatch.setattr(engine, "eigh_tridiagonal", spy)
    return calls


def _assert_vectors_only_from_whole_blocks(calls):
    """Every eigh_tridiagonal call that computes vectors solves a whole block (no select)."""
    assert all(c.get("eigvals_only") or not c.get("select") for c in calls)


def _spy_krylov(monkeypatch):
    """Record the level count of every truncated-sector Krylov solve the engine makes."""
    asked = []
    solve = engine._krylov_levels

    def spy(sector, k, vectors):
        asked.append(k)
        return solve(sector, k, vectors)

    monkeypatch.setattr(engine, "_krylov_levels", spy)
    return asked


def _double_well(grid):
    return ops.hamiltonian(grid, lambda x: 400.0 * (x ** 2 - 1.0) ** 2)


@pytest.mark.parametrize("name,n_levels", [
    ("box", 1), ("box", 7), ("box", 8),
    ("double_well", 3), ("double_well", 5), ("double_well", 7),
    ("periodic", 5), ("lopsided", 9), ("all_fixed", 11), ("rotor", 6),
    ("split_triples", 8), ("deep_odd", 1),
])
def test_exact_size_requests_return_the_lowest_levels(monkeypatch, name, n_levels):
    if name == "rotor":  # a diagonal H: sorted diagonals and unit vectors, no solve
        _, t, h = ops.rotor_basis_operators(8, 1.0)
        parity = ops.LinearOperator(t.antilinear_matrix)
    elif name == "split_triples":
        # triply degenerate levels coupled only by off-diagonals far below
        # bisection's split threshold: inverse iteration on the unsplit block
        # would return vectors that are neither orthogonal nor eigenvectors
        h = _tridiag(np.repeat(np.arange(1.0, 11.0), 3),
                     np.where(np.arange(29) % 3, 1e-300, 1e-20))
        parity = ops.from_permutation(np.arange(30))
    elif name == "deep_odd":
        # the middle pair's coupling cancels its diagonal in the even block and
        # doubles it in the odd one, so the lowest level lies in the odd sector,
        # which is first asked for none, far below the even block's whole range
        h = _tridiag([0.0, 0.0, -500.0, -500.0, 0.0, 0.0], [0.1, 0.1, 500.0, 0.1, 0.1])
        parity = ops.from_permutation(np.arange(6)[::-1])
    elif name in ("box", "double_well"):
        grid = build_grid(2.0, 201, "dirichlet")
        h = _double_well(grid) if name == "double_well" else ops.hamiltonian(grid, lambda x: 0.0)
        parity = ops.parity_operator(grid)
    elif name == "periodic":  # an even sector one larger than the odd one
        grid = build_grid(np.pi, 200, "periodic")
        h = ops.hamiltonian(grid, lambda x: np.cos(x) ** 2)
        parity = ops.parity_operator(grid)
    else:
        # 34 fixed points carry a coupled chain far below six mirrored points,
        # so the even sector holds every one of the lowest levels
        chain = np.r_[np.arange(34.0) / 10, np.full(6, 100.0)]
        coupling = np.r_[np.full(33, -0.5), 0.0, np.full(5, -0.5)]
        h = _tridiag(chain, coupling)
        perm = np.arange(40) if name == "all_fixed" else np.r_[np.arange(34), np.arange(39, 33, -1)]
        parity = ops.from_permutation(perm)
    calls = _spy_solves(monkeypatch)
    asked = _spy_krylov(monkeypatch)
    spec = numeric_spectrum(h, parity, n_levels)
    exact = np.linalg.eigvalsh(h.to_dense())
    np.testing.assert_allclose(spec.eigenvalues, exact[:n_levels], rtol=0,
                               atol=1e-9 * np.max(np.abs(exact)))
    # a sector asks for its share only, and grows only when the Sturm count says so
    if name == "box":
        assert sum(asked) == n_levels
    if name in ("lopsided", "all_fixed"):
        assert spec.parity_labels == ["even"] * n_levels
    # eigh_tridiagonal solves whole blocks or counts; a truncated block is never bisected
    assert all(not c or (c.get("select") == "v" and c.get("eigvals_only")) for c in calls)
    # vectors read afterwards belong to exactly these levels
    vecs = spec.eigenvectors
    resid = h.to_dense() @ vecs - vecs * spec.eigenvalues
    assert np.max(np.abs(resid)) <= 1e-9 * np.max(np.abs(exact))
    np.testing.assert_allclose(vecs.conj().T @ vecs, np.eye(n_levels), rtol=0, atol=1e-9)


def _unfold_reference(sector, u, out, cols):
    """The two-branch unfold that the one gather replaced, kept as its reference.

    Writes the full-space vectors of block eigenvectors u into out[:, cols]:
    a CSC u writes its one or two nonzero entries per column, so out must
    hold zeros; a dense u is written column by column.
    """
    sqrt2 = np.sqrt(2.0)
    fixed = sector.perm[sector.reps] == sector.reps
    if sp.issparse(u):
        rows, x = sector.reps[u.indices], u.data
        col = np.repeat(np.asarray(cols), np.diff(u.indptr))
        paired = ~fixed[u.indices]
        x = np.where(paired, x / sqrt2, x)
        out[rows, col] = x
        out[sector.perm[rows[paired]], col[paired]] = sector.sign * x[paired]
        return
    at_fixed = np.flatnonzero(fixed)
    paired = np.flatnonzero(~fixed)
    fixed_points = sector.reps[at_fixed]
    a = sector.reps[paired]
    mirror = sector.perm[a]
    for col, vec in zip(cols, np.ascontiguousarray(u.T)):
        v = out[:, col]
        v[fixed_points] = vec[at_fixed]
        w = vec[paired] / sqrt2
        v[a] = w
        v[mirror] = w if sector.sign > 0 else -w


@pytest.mark.parametrize("whole", [True, False])
@pytest.mark.parametrize("name", ["dirichlet_odd", "dirichlet_even", "periodic", "rotor"])
def test_gather_unfold_matches_the_two_branch_reference(monkeypatch, name, whole):
    if name == "rotor":  # diagonal blocks: unit vectors in CSC form
        _, t, h = ops.rotor_basis_operators(100, 1.0)
        parity = ops.LinearOperator(t.antilinear_matrix)
    else:
        boundary, n = {"dirichlet_odd": ("dirichlet", 201), "dirichlet_even": ("dirichlet", 200),
                       "periodic": ("periodic", 200)}[name]
        grid = build_grid(2.0, n, boundary)
        h = ops.hamiltonian(grid, lambda x: np.polyval([3.0, -1.0, 2.0], abs(x)))
        parity = ops.parity_operator(grid)
    n_levels = h.dimension if whole else 9
    calls = _spy_solves(monkeypatch)
    asked = _spy_krylov(monkeypatch)
    spec = numeric_spectrum(h, parity, n_levels)
    # truncated grid spectra take Lanczos' dense vectors, whole ones stevd's
    assert bool(asked) == (name != "rotor" and not whole)
    assert sp.issparse(spec.sectors[0].vectors) == (name == "rotor")
    reference = np.zeros((h.dimension, n_levels))
    for i, s in enumerate(spec.sectors):
        cols = np.flatnonzero(spec.sector_of == i)
        if len(cols):
            _unfold_reference(s, s.vectors, reference, cols)
    vecs = spec.eigenvectors
    np.testing.assert_array_equal(vecs, reference)
    for i in (0, 1, n_levels - 1):
        np.testing.assert_array_equal(spec.vector(i), reference[:, i])
    # every vector has its parity exactly: v[pi] == +v or -v
    sign = np.where(np.array(spec.parity_labels) == "even", 1.0, -1.0)
    np.testing.assert_array_equal(vecs[parity.linear_matrix.indices], vecs * sign)
    _assert_vectors_only_from_whole_blocks(calls)


def _traced_peak(run):
    """run()'s result, and the peak of Python-traced memory (numpy arrays included) meanwhile."""
    tracemalloc.start()
    try:
        result = run()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("dim,admitted", [(8193, True), (11585, True), (11586, False),
                                          (16385, False)])
def test_whole_block_solves_stop_at_a_fixed_ceiling(monkeypatch, dim, admitted):
    # 16 * dim^2 bytes against 2^31: 8193 rows (16384 points) in, 16385 rows
    # (32768 points) out, and the ceiling between 11585 and 11586 rows
    calls = []
    monkeypatch.setattr(engine, "eigh_tridiagonal",
                        lambda d, e, **kw: calls.append(kw) or (d, np.zeros((len(d), 1))))
    sector = engine._Sector(sign=1.0, reps=np.arange(dim), perm=np.arange(dim),
                            diag=np.zeros(dim), offdiag=np.ones(dim - 1))
    if admitted:
        engine._lowest_levels(sector, dim, vectors=True)
        assert calls == [{}]
    else:
        with pytest.raises(ParameterError, match=f"whole parity block of {dim} rows"):
            engine._lowest_levels(sector, dim, vectors=True)
        assert not calls


@pytest.mark.parametrize("argv", [
    ["check", "--model", "free", "--charge", "q", "--points", "32768"],
    ["spectrum", "--model", "box", "--points", "32769", "--levels", "32769"],
])
def test_a_whole_block_over_the_ceiling_is_refused_in_one_line_before_its_solve(
        monkeypatch, tmp_path, capsys, argv):
    def refuse(*args, **kwargs):  # a solve here would allocate the 4.3 GB
        raise AssertionError("the block was solved")

    monkeypatch.setattr(engine, "eigh_tridiagonal", refuse)
    code, peak = _traced_peak(lambda: main([*argv, "--out", str(tmp_path / "x")]))
    assert code == 2
    assert capsys.readouterr().err == (
        "configuration error: a whole parity block of 16385 rows needs about 4.3 GB of "
        "eigenvectors and solver workspace, above the whole-block limit of 2.1 GB; "
        "ask for fewer levels or points\n")
    # what was built before the refusal, under 1% of the 4.3 GB refused
    assert peak < 2 ** 25


def test_a_whole_eigenvector_read_peaks_near_its_output_with_the_same_bits():
    grid = build_grid(np.pi, 2048, "periodic")
    spec = numeric_spectrum(ops.hamiltonian(grid, lambda x: 0.0), ops.parity_operator(grid),
                            2048)
    vecs, peak = _traced_peak(lambda: spec.eigenvectors)
    # unfolded a bounded number of columns at a time, never a whole sector beside the output
    assert peak <= 1.1 * vecs.nbytes
    for i, s in enumerate(spec.sectors):  # a sector's levels are its block columns, in order
        at = np.flatnonzero(spec.sector_of == i)
        np.testing.assert_array_equal(vecs[:, at], s.unfold(np.arange(len(at))))


# The rotor's blocks are diagonal: their levels are read off and their vectors are
# unit vectors, where one dense block of vectors at m_max 50000 would take 20 GB.
# Peaks measured 55 MB for the check and 16 MB for the spectrum; 128 MiB is under 1%
# of one dense block.
_ROTOR_PEAK = 2 ** 27


def test_rotor_spectrum_at_m_max_50000_is_exact_in_linear_memory(monkeypatch, tmp_path):
    calls = _spy_solves(monkeypatch)
    asked = _spy_krylov(monkeypatch)
    out = tmp_path / "spectrum.csv"
    argv = ["spectrum", "--model", "rotor", "--m-max", "50000", "--levels", "65"]
    code, peak = _traced_peak(lambda: main([*argv, "--out", str(out)]))
    assert code == 0 and peak < _ROTOR_PEAK
    # diagonal blocks are solved and counted exactly: no LAPACK call at all
    assert not calls and not asked
    energies = [float(row.split(",")[1]) for row in out.read_text().splitlines()[-65:]]
    assert energies == [m * m / 2.0 for m in range(33) for _ in range(1 + (m > 0))][:65]


def test_rotor_check_at_m_max_50000_passes_in_linear_memory(monkeypatch, tmp_path):
    calls = _spy_solves(monkeypatch)
    asked = _spy_krylov(monkeypatch)
    # diagonal blocks never reach _lowest_levels, so its whole-block ceiling never applies
    reached = []
    lowest = engine._lowest_levels
    monkeypatch.setattr(engine, "_lowest_levels", lambda *a: reached.append(a) or lowest(*a))
    out = tmp_path / "check.json"
    assert main(["check", "--model", "rotor", "--charge", "q", "--m-max", "50000",
                 "--out", str(out)]) == 0
    assert not calls and not asked and not reached
    report = json.loads(out.read_text())
    assert report["all_applicable_pass"]
    assert report["pair_invariance_residual"] == 0.0
    assert report["ground"]["degeneracy_count"] == 1
    assert len(report["pairs"]) == 50000
    # the report's text is not the engine's: trace the check alone
    assert _traced_peak(lambda: build_check(PlanarRotor(1.0, 50000), "q"))[1] < _ROTOR_PEAK


def test_unit_vector_leakage_is_summed_off_the_partner_row():
    # a charge leaking 1e-9 of each image to the neighbouring m: image^2 - coef^2
    # would cancel to rounding (about 1e-8 after the square root), not 1e-9
    lz, t, h = ops.rotor_basis_operators(40, 1.0)
    spec = numeric_spectrum(h, ops.LinearOperator(t.antilinear_matrix), h.dimension)
    assert sp.issparse(spec.sectors[1].vectors)
    shift = sp.diags_array([np.ones(80), np.ones(80)], offsets=[-1, 1], format="csr")
    # Lz is odd under m -> -m and the shift even, so their product is odd
    action = ops.LinearOperator(lz.linear_matrix + 1e-9 * (lz.linear_matrix @ shift))
    charge = ops.Supercharge(action, "C", nilpotent_by_design=False)
    pairing = detect_pairing(spec)
    leak = engine._pair_invariance(spec, pairing, (charge, charge))
    expected = _pair_invariance_loop(spec, pairing, [action])
    assert 1e-10 < expected < 1e-8
    assert leak == pytest.approx(expected, rel=1e-6)


def _krylov_block(name):
    """A sector block for the truncated-sector solver, from a Hamiltonian and its parity."""
    if name == "folded_even":  # a fixed middle point: sqrt(2) couplings in the even block
        grid = build_grid(2.0, 201, "dirichlet")
        h, perm = ops.hamiltonian(grid, lambda x: 0.0), parity_permutation(grid)
    elif name == "delta_spike":
        grid = build_grid(20.0, 401, "dirichlet")
        h, perm = ops.delta_well_hamiltonian(grid, 2.0), parity_permutation(grid)
    elif name == "diagonal":  # the rotor's H
        _, t, h = ops.rotor_basis_operators(40, 1.0)
        perm = t.antilinear_matrix.indices
    elif name == "split":  # triples coupled far below any split threshold
        h = _tridiag(np.repeat(np.arange(1.0, 11.0), 3),
                     np.where(np.arange(29) % 3, 1e-300, 1e-20))
        perm = np.arange(30)
    elif name == "near_degenerate":  # pairs 1e-9 apart within one block
        h = _tridiag(np.repeat(np.arange(1.0, 21.0), 2) + np.tile([0.0, 1e-9], 20),
                     np.where(np.arange(39) % 2, 1e-3, 0.0))
        perm = np.arange(40)
    else:  # deep_odd: the odd block's lowest level far below the even block
        h = _tridiag([0.0, 0.0, -500.0, -500.0, 0.0, 0.0], [0.1, 0.1, 500.0, 0.1, 0.1])
        perm = np.arange(6)[::-1]
    even, odd = engine._sectors(h, perm)
    return odd if name == "deep_odd" else even


@pytest.mark.parametrize("name", ["folded_even", "delta_spike", "diagonal", "split",
                                  "near_degenerate", "deep_odd"])
def test_krylov_solver_matches_dense_eigvalsh(name):
    block = _krylov_block(name)
    dense = np.diag(block.diag) + np.diag(block.offdiag, 1) + np.diag(block.offdiag, -1)
    exact = np.linalg.eigvalsh(dense)
    norm = engine._tridiag_norm1(block.diag, block.offdiag)
    for k in (1, 2, 5, 8):
        if k >= block.dim:
            continue
        found = engine._krylov_levels(block, k, True)
        if found is None:
            # the second level lies within rounding (split) or 1e-6 (near_degenerate)
            # of the lowest, so sigma does too, and (T - sigma)^-1 amplifies the
            # rounding of the levels a spacing of 1 above past the residual bound:
            # Lanczos gives up rather than return them, and a truncated block's
            # fallback, bisection and inverse iteration, must meet the same bounds
            assert name in ("split", "near_degenerate") and k > 2
            found = engine.eigh_tridiagonal(block.diag, block.offdiag, select="i",
                                            select_range=(0, k - 1))
        vals, vecs = found
        # within a few eps * ||T||_1 of the dense solve, as bisection was
        np.testing.assert_allclose(vals, exact[:k], rtol=0, atol=4 * np.finfo(float).eps * norm)
        resid = np.linalg.norm(dense @ vecs - vecs * vals, axis=0)
        assert np.all(resid <= engine._residual_bound(block))
        np.testing.assert_allclose(vecs.T @ vecs, np.eye(k), rtol=0, atol=1e-12)


def test_a_solve_that_skips_a_level_is_caught_by_the_sector_count(monkeypatch):
    _assert_a_skipped_level_is_caught(monkeypatch, vectors=True)


def test_a_values_only_solve_that_skips_a_level_is_caught_by_the_sector_count(monkeypatch):
    _assert_a_skipped_level_is_caught(monkeypatch, vectors=False)


def _assert_a_skipped_level_is_caught(monkeypatch, vectors):
    grid = build_grid(2.0, 401, "dirichlet")
    h = _double_well(grid)
    parity = ops.parity_operator(grid)
    exact = np.linalg.eigvalsh(h.to_dense())[:6]
    solve = engine._krylov_levels
    asked, first = [], []

    def skipping(sector, k, vectors):
        # solve for one level more and drop the second one, as a solve whose
        # start vector barely held that level would
        asked.append(k)
        if k + 1 >= sector.dim:
            return solve(sector, k, vectors)
        vals, vecs = solve(sector, k + 1, vectors)
        keep = np.r_[0, 2:k + 1]
        first.append(vals[keep])
        return vals[keep], None if vecs is None else vecs[:, keep]

    monkeypatch.setattr(engine, "_krylov_levels", skipping)
    spec = numeric_spectrum(h, parity, 6, vectors=vectors)
    # the mutant's first answer was wrong, and the count made the sectors regrow
    assert not np.allclose(np.sort(np.concatenate(first[:2]))[:6], exact, rtol=1e-6)
    assert max(asked) > 3
    np.testing.assert_allclose(spec.eigenvalues, exact, rtol=0, atol=1e-9 * np.max(np.abs(exact)))


def test_truncated_solves_are_repeatable_bit_for_bit():
    grid = build_grid(20.0, 2001, "dirichlet")
    h = ops.delta_well_hamiltonian(grid, 1.5)
    parity = ops.parity_operator(grid)
    state = np.random.get_state()
    first = numeric_spectrum(h, parity, 12)
    # the solver's start vectors are its own: the global generator is not drawn from
    after = np.random.get_state()
    np.testing.assert_array_equal(after[1], state[1])
    assert after[2] == state[2]
    second = numeric_spectrum(h, parity, 12)
    np.testing.assert_array_equal(first.eigenvalues, second.eigenvalues)
    np.testing.assert_array_equal(first.eigenvectors, second.eigenvectors)


def _bisection_levels(h, parity, n_levels):
    """The lowest levels by bisection (stebz) on each parity block: the former solver, as oracle."""
    even, odd = engine._sectors(h, engine._involution(parity, h.dimension))
    vals = [eigh_tridiagonal(s.diag, s.offdiag, eigvals_only=True, select="i",
                             select_range=(0, min(n_levels, s.dim) - 1))
            for s in (even, odd) if s.dim]
    return np.sort(np.concatenate(vals))[:n_levels]


# |E - E_bisection| <= c * eps * ||H||_1. At 20001 points they agreed to 0.47 (box, sec^2
# and both partners at L = 2, 4.2 and 6; the delta well at lambda = 0.5, 1.3 and 2)
_BISECTION_EPS_FACTOR = 2.0


def _assert_near_bisection(values, h, parity):
    oracle = _bisection_levels(h, parity, len(values))
    bound = _BISECTION_EPS_FACTOR * np.finfo(float).eps * engine._norm1(h)
    np.testing.assert_allclose(values, oracle, rtol=0, atol=bound)


def _delta_well_lanczos_cannot_resolve():
    # a deep bound state under a dense continuum: (T - sigma)^-1 separates the
    # top wanted even levels by relative gaps far too small for the basis cap
    grid = build_grid(100.0, 2001, "dirichlet")
    return ops.delta_well_hamiltonian(grid, 5.0), ops.parity_operator(grid)


@pytest.mark.parametrize("vectors", [False, True])
def test_a_block_lanczos_cannot_resolve_is_bisected(monkeypatch, vectors):
    h, parity = _delta_well_lanczos_cannot_resolve()
    calls = _spy_solves(monkeypatch)
    asked = _spy_krylov(monkeypatch)
    spec = numeric_spectrum(h, parity, 32, vectors=vectors)
    # the even block's Lanczos gave up and the block was bisected, for either
    # kind of caller; no block was solved whole
    assert asked and any(c.get("select") == "i" for c in calls)
    assert all(c.get("select") for c in calls)
    _assert_near_bisection(spec.eigenvalues, h, parity)
    if not vectors:
        # a spectrum of energies alone keeps no sectors, and a read makes no solve
        assert spec.sectors == ()
        with pytest.raises(ParameterError, match="no eigenvectors"):
            spec.eigenvectors
        assert all(c.get("eigvals_only") for c in calls)
        return
    # with vectors, inverse iteration gave every bisected level its vector
    dense = h.to_dense()
    for i, energy in enumerate(spec.eigenvalues):
        v = spec.vector(i)
        assert np.linalg.norm(dense @ v - energy * v) <= 1e-9 * engine._norm1(h)


def test_a_bisected_block_of_50001_rows_keeps_its_vectors_in_bounded_memory(monkeypatch):
    # the case of _krylov_levels' docstring: solved whole, its even block's vectors
    # and stevd's workspace would take 20 GB. The request measured a traced peak of
    # 72 MiB, most of it the 32 MiB Lanczos basis reserve and 25 MiB of vectors
    grid = build_grid(200.0, 100001, "dirichlet")
    h, parity = ops.delta_well_hamiltonian(grid, 5.0), ops.parity_operator(grid)
    calls = _spy_solves(monkeypatch)
    spec, peak = _traced_peak(lambda: numeric_spectrum(h, parity, 32))
    assert peak < 2 ** 27
    assert any(c.get("select") == "i" and not c.get("eigvals_only") for c in calls)
    assert all(c.get("select") for c in calls)
    _assert_near_bisection(spec.eigenvalues, h, parity)
    # stein's residuals measured up to 14 eps * ||T||_1 here (see _lowest_levels)
    for i, s in enumerate(spec.sectors):
        rows = s.vectors.T
        assert rows.shape == (np.count_nonzero(spec.sector_of == i), s.dim)
        resid = (engine._tridiag_apply(s.diag, s.offdiag, rows)
                 - rows * spec.eigenvalues[spec.sector_of == i][:, None])
        assert np.all(np.linalg.norm(resid, axis=1) <= 2 * engine._residual_bound(s))
    assert all(spec.vector(i).shape == (grid.n_points,) for i in range(32))


def test_a_basis_over_the_memory_limit_is_bisected_without_vectors(monkeypatch):
    # 10^5 box points fold into blocks of 50001 rows. 16 levels of one block (a
    # basis of 128 vectors, as the benchmark's delta well asks) fit under the
    # limit; 32 levels (192 vectors, as 64 box levels ask) do not
    grid = build_grid(2.0, 100001, "dirichlet")
    even, _ = engine._sectors(ops.hamiltonian(grid, lambda x: 0.0),
                              parity_permutation(grid))
    assert engine._basis_cap(16) * even.dim <= engine._KRYLOV_BASIS_LIMIT
    assert engine._basis_cap(32) * even.dim > engine._KRYLOV_BASIS_LIMIT
    asked = _spy_krylov(monkeypatch)
    lanczos, vecs = engine._lowest_levels(even, 16, False)
    assert asked == [16] and vecs is None
    bisected, vecs = engine._lowest_levels(even, 32, False)
    assert asked == [16] and vecs is None
    bound = 4 * np.finfo(float).eps * engine._tridiag_norm1(even.diag, even.offdiag)
    np.testing.assert_allclose(lanczos, bisected[:16], rtol=0, atol=bound)
    # a request for vectors takes its Lanczos basis at any size
    with_vectors, vecs = engine._lowest_levels(even, 32, True)
    assert asked == [16, 32] and vecs.shape == (even.dim, 32)
    np.testing.assert_allclose(with_vectors, bisected, rtol=0, atol=bound)


def test_a_request_for_vectors_never_reads_the_memory_limit(monkeypatch):
    monkeypatch.setattr(engine, "_KRYLOV_BASIS_LIMIT", 0)
    grid = build_grid(2.0, 2001, "dirichlet")
    calls = _spy_solves(monkeypatch)
    asked = _spy_krylov(monkeypatch)
    spec = numeric_spectrum(ops.hamiltonian(grid, lambda x: 0.0), ops.parity_operator(grid), 8)
    assert asked and all(c.get("select") == "v" for c in calls)
    assert spec.eigenvectors.shape == (2001, 8)


# The solver calls of values-only requests, which alone read the basis limit:
# (solver, block rows, level count or bisection's index range), "count" being
# a Sturm count. Requests for vectors take other paths and must leave these as
# they are.
_VALUES_ONLY_CALLS = [
    ((1.0, 1001, "dirichlet", None, 1001), [("stevd", 501, None), ("stevd", 500, None)]),
    ((2.0, 100001, "dirichlet", None, 16),
     [("lanczos", 50001, 8), ("lanczos", 50000, 8), ("count", 50001, None),
      ("count", 50000, None)]),
    ((2.0, 100001, "dirichlet", None, 64),
     [("stebz", 50001, (0, 31)), ("stebz", 50000, (0, 31)), ("count", 50001, None),
      ("count", 50000, None)]),
    ((100.0, 2001, "dirichlet", 5.0, 32),
     [("lanczos", 1001, 16), ("stebz", 1001, (0, 15)), ("lanczos", 1000, 16),
      ("count", 1001, None), ("count", 1000, None)]),
    ((np.pi, 4096, "periodic", None, 8),
     [("lanczos", 2049, 4), ("lanczos", 2047, 4), ("count", 2049, None),
      ("count", 2047, None), ("lanczos", 2049, 5), ("count", 2049, None),
      ("count", 2047, None)]),
]


def test_values_only_requests_make_the_solver_calls_they_made_before(monkeypatch):
    made = []
    solve, krylov = engine.eigh_tridiagonal, engine._krylov_levels

    def spy_solve(d, e, **kwargs):
        kind = {"i": "stebz", "v": "count"}.get(kwargs.get("select"), "stevd")
        made.append((kind, len(d), kwargs["select_range"] if kind == "stebz" else None))
        return solve(d, e, **kwargs)

    def spy_krylov(sector, k, vectors):
        made.append(("lanczos", sector.dim, k))
        return krylov(sector, k, vectors)

    monkeypatch.setattr(engine, "eigh_tridiagonal", spy_solve)
    monkeypatch.setattr(engine, "_krylov_levels", spy_krylov)
    for (half_width, n, boundary, coupling, n_levels), expected in _VALUES_ONLY_CALLS:
        grid = build_grid(half_width, n, boundary)
        h = (ops.delta_well_hamiltonian(grid, coupling) if coupling
             else ops.hamiltonian(grid, lambda x: 0.0))
        made.clear()
        numeric_spectrum(h, ops.parity_operator(grid), n_levels, vectors=False)
        assert made == expected


def _bisected_double_well(monkeypatch):
    """The lowest 6 levels of a double well, both sectors bisected, and its Hamiltonian."""
    grid = build_grid(2.0, 401, "dirichlet")
    h = _double_well(grid)
    monkeypatch.setattr(engine, "_KRYLOV_BASIS_LIMIT", 0)
    return numeric_spectrum(h, ops.parity_operator(grid), 6, vectors=False), h


def test_bisected_sectors_hold_no_vectors(monkeypatch):
    calls = _spy_solves(monkeypatch)
    asked = _spy_krylov(monkeypatch)
    spec, h = _bisected_double_well(monkeypatch)
    assert not asked
    assert all(c.get("eigvals_only") for c in calls)
    exact = np.linalg.eigvalsh(h.to_dense())[:6]
    np.testing.assert_allclose(spec.eigenvalues, exact, rtol=0, atol=1e-9 * engine._norm1(h))
    assert spec.sectors == ()
    # a read is refused, not answered by a solve
    with pytest.raises(ParameterError, match="no eigenvectors"):
        spec.vector(0)
    assert all(c.get("eigvals_only") for c in calls)


@pytest.mark.parametrize("source", ["bisected", "energies_only", "asked_without_vectors"])
def test_reading_a_vector_no_solve_made_is_refused(monkeypatch, source):
    if source == "bisected":
        spec = _bisected_double_well(monkeypatch)[0]
    elif source == "asked_without_vectors":
        grid = build_grid(2.0, 401, "dirichlet")
        spec = numeric_spectrum(_double_well(grid), ops.parity_operator(grid), 6, vectors=False)
    else:
        spec = _analytic_spectrum([0.0, 1.0, 1.0], ["even", "even", "odd"])
    grid = build_grid(np.pi, 8, "periodic")
    charges = ops.supercharge_Q(ops.momentum(grid), ops.parity_operator(grid), 1.0)
    labels = spec.parity_labels
    pairing = engine.PairingMap(pairs=[(labels.index("even"), labels.index("odd"), 0.0)],
                                unpaired=[])
    for read in (lambda: spec.eigenvectors, lambda: spec.vector(0),
                 lambda: ground_state_check(spec, charges),
                 lambda: engine._pair_invariance(spec, pairing, charges)):
        with pytest.raises(ParameterError, match="no eigenvectors"):
            read()


# Every solver path against the exact levels of the three-point stencil
# (models.three_point_levels); see _assert_near_oracle for the bounds
_WHOLE_EPS_FACTOR = 8.0
_TRUNCATED_EPS_FACTOR = 2.0


def _assert_near_oracle(spec, grid, h, factor):
    """|E - E_exact| <= c * eps * ||H||_1 for every level, c = factor.

    Whole blocks (stevd) measured up to 5.5 over 80 box and periodic grids
    of 129 to 4096 points and lengths 0.05 to 20, so c = _WHOLE_EPS_FACTOR
    = 8. Truncated blocks at 2 * 10^4 to 10^5 points, 1 to 48 levels,
    measured up to 0.53 by bisection, 0.16 by Lanczos without vectors (its
    Ritz values) and 0.0 with them (Rayleigh quotients of refined vectors),
    so c = _TRUNCATED_EPS_FACTOR = 2; a Ritz value returned before the
    stopping rule certifies it lies far outside that.
    """
    exact = three_point_levels(grid)[:len(spec)]
    bound = factor * np.finfo(float).eps * engine._norm1(h)
    np.testing.assert_allclose(spec.eigenvalues, exact, rtol=0, atol=bound)


@pytest.mark.parametrize("length", [1e-60, 1e-40, 1e40, 1e60])
@pytest.mark.parametrize("vectors", [False, True])
def test_lanczos_meets_the_exact_levels_at_any_scale_of_h(monkeypatch, length, vectors):
    # ||H||_1 is about 1e128 at length 1e-60 and 1e-112 at 1e60; Lanczos solves
    # each truncated block scaled by a power of two, so the scale does not matter
    grid = build_grid(length, 4001, "dirichlet")
    h = ops.hamiltonian(grid, lambda x: 0.0)
    asked, calls = _spy_krylov(monkeypatch), _spy_solves(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec = numeric_spectrum(h, ops.parity_operator(grid), 33, vectors=vectors)
    # Lanczos solved both blocks: eigh_tridiagonal only counted
    assert asked and all(c.get("select") == "v" for c in calls)
    _assert_near_oracle(spec, grid, h, _TRUNCATED_EPS_FACTOR)


# sin of the angle between a computed and an exact eigenvector, at most
# c * eps * ||H||_1 / gap; see _assert_near_exact_vectors
_VECTOR_EPS_FACTOR = 1.0


def _assert_near_exact_vectors(spec, grid, h):
    """Every level's vector within c * eps * ||H||_1 / gap_j of the exact one, c = 1.

    Between Dirichlet walls the stencil's level j = 1..n has the exact
    vector sin(j pi (i + 1) / (n + 1)), i = 0..n-1, and gap_j is the
    distance from its level to the nearest other one (Davis & Kahan,
    SIAM J. Numer. Anal. 7 (1970)). sin(angle) is ||u - (u.v) v|| for unit
    u and v: sqrt(1 - (u.v)^2) would cancel to about 1e-8, 10^4 in these
    units at 10^5 points. It measured up to 0.43 eps * ||H||_1 / gap_j for
    whole blocks (stevd, 1001 points), 0.15 for Lanczos and 0.09 for
    bisection with inverse iteration (10^5 points, 16 and 64 levels), so
    c = _VECTOR_EPS_FACTOR = 1.
    """
    n = grid.n_points
    levels = three_point_levels(grid)
    gaps = np.diff(levels)
    gap = np.minimum(np.r_[np.inf, gaps], np.r_[gaps, np.inf])
    i = np.arange(1, n + 1)
    bound = _VECTOR_EPS_FACTOR * np.finfo(float).eps * engine._norm1(h)
    for j in range(1, len(spec) + 1):
        # the phase j (i + 1) / (n + 1) in half turns, reduced exactly below 2
        exact = np.sin(np.pi * ((j * i) % (2 * (n + 1))) / (n + 1))
        exact /= np.linalg.norm(exact)
        u = spec.vector(j - 1)
        sin_angle = np.linalg.norm(u - (u @ exact) * exact)
        assert sin_angle <= bound / gap[j - 1]


@pytest.mark.parametrize("path,boundary,n_points,n_levels,vectors", [
    ("whole", "dirichlet", 1001, 1001, True),
    ("whole", "dirichlet", 1001, 1001, False),
    ("whole", "periodic", 1024, 1024, True),
    ("whole", "periodic", 1024, 1024, False),
    ("lanczos", "dirichlet", 100001, 16, True),
    ("lanczos", "dirichlet", 100001, 16, False),
    ("lanczos", "periodic", 100000, 33, False),
    ("lanczos", "dirichlet", 20001, 1, False),
    ("bisection", "dirichlet", 100001, 16, False),
    ("bisection", "dirichlet", 100001, 16, True),
    # over the memory limit of energy-only requests, which a request for vectors never reads
    ("lanczos", "dirichlet", 100001, 64, True),
])
def test_every_solver_path_meets_the_exact_discrete_levels(monkeypatch, path, boundary,
                                                            n_points, n_levels, vectors):
    grid = build_grid(2.0 if boundary == "dirichlet" else 4.71, n_points, boundary)
    h = ops.hamiltonian(grid, lambda x: 0.0)
    if path == "bisection" and vectors:  # as if Lanczos did not converge
        monkeypatch.setattr(engine, "_krylov_levels", lambda *args: None)
    elif path == "bisection":
        monkeypatch.setattr(engine, "_KRYLOV_BASIS_LIMIT", 0)
    if not vectors:
        monkeypatch.setattr(engine, "_refine", lambda *args: pytest.fail("refined vectors"))
    calls = _spy_solves(monkeypatch)
    asked = _spy_krylov(monkeypatch)
    spec = numeric_spectrum(h, ops.parity_operator(grid), n_levels, vectors=vectors)
    # the path under test is the one that ran
    solves = [c for c in calls if c.get("select") != "v"]
    if path == "whole":
        assert not asked and solves and all("select" not in c for c in solves)
    elif path == "lanczos":
        assert asked and not solves
    else:
        assert bool(asked) == vectors and solves
        assert all(c.get("select") == "i" for c in solves)
    # a whole block is solved with its vectors either way (see _lowest_levels)
    assert all(bool(c.get("eigvals_only")) == (path == "bisection" and not vectors)
               for c in solves)
    # a spectrum of energies alone keeps no sectors; with vectors every level has one
    assert len(spec.sectors) == (2 if vectors else 0)
    if vectors:
        assert spec.eigenvectors.shape == (n_points, n_levels)
        assert all(spec.vector(i).shape == (n_points,) for i in range(n_levels))
    if vectors and boundary == "dirichlet":
        _assert_near_exact_vectors(spec, grid, h)
    if vectors and path == "lanczos":
        for i, s in enumerate(spec.sectors):
            rows = s.vectors.T
            resid = (engine._tridiag_apply(s.diag, s.offdiag, rows)
                     - rows * spec.eigenvalues[spec.sector_of == i][:, None])
            assert np.all(np.linalg.norm(resid, axis=1) <= engine._residual_bound(s))
    factor = _WHOLE_EPS_FACTOR if path == "whole" else _TRUNCATED_EPS_FACTOR
    _assert_near_oracle(spec, grid, h, factor)


@pytest.mark.parametrize("vectors", [True, False])
def test_the_diagonal_path_meets_the_exact_discrete_levels(monkeypatch, vectors):
    # the periodic stencil in its Fourier basis: mode m has level
    # 2 sin^2(pi m / n) / h^2, and parity maps m to n - m
    grid = build_grid(4.71, 4096, "periodic")
    m = np.arange(grid.n_points)
    half_angle = np.minimum(m, grid.n_points - m) * (np.pi / grid.n_points)
    h = ops.from_diagonal(2.0 * np.sin(half_angle) ** 2 / grid.spacing ** 2)
    calls = _spy_solves(monkeypatch)
    asked = _spy_krylov(monkeypatch)
    spec = numeric_spectrum(h, ops.parity_operator(grid), grid.n_points, vectors=vectors)
    assert not calls and not asked
    assert len(spec.sectors) == (2 if vectors else 0)
    assert all(s.vectors is not None for s in spec.sectors)
    _assert_near_oracle(spec, grid, ops.hamiltonian(grid, lambda x: 0.0), _TRUNCATED_EPS_FACTOR)


def test_spectrum_partner_and_scan_energies_match_bisection():
    points, length = 20001, 4.2
    grid = build_grid(length / 2.0, points, "dirichlet")
    parity = ops.parity_operator(grid)
    for h, n_levels in ((ops.hamiltonian(grid, lambda x: 0.0), 16),
                        (ops.hamiltonian(grid, sec_squared_potential(length)), 16)):
        _assert_near_bisection(numeric_spectrum(h, parity, n_levels).eigenvalues, h, parity)
    delta_grid = build_grid(20.0, points, "dirichlet")
    h = ops.delta_well_hamiltonian(delta_grid, 1.3)
    delta_parity = ops.parity_operator(delta_grid)
    _assert_near_bisection(numeric_spectrum(h, delta_parity, 32).eigenvalues, h, delta_parity)

    ground = box_levels(length, 1)[0]
    result = partner_potential(ground, ground.energy, grid, n_levels=8)
    for samples, spec in ((result.v_plus_samples, result.spectrum_plus),
                          (result.v_minus_samples, result.spectrum_minus)):
        _assert_near_bisection(spec.eigenvalues, ops.hamiltonian(grid, samples), parity)

    per_length = points / 4.0
    for row in box_to_free_scan([4.0, 8.0], per_length, n_levels=4):
        scan_grid = build_grid(row.length / 2.0, row.n_points, "dirichlet")
        h = ops.hamiltonian(scan_grid, lambda x: 0.0)
        oracle = _bisection_levels(h, ops.parity_operator(scan_grid), 2)
        bound = _BISECTION_EPS_FACTOR * np.finfo(float).eps * engine._norm1(h)
        assert abs(row.e1 - oracle[0]) <= bound
        assert abs(row.gap - (oracle[1] - oracle[0])) <= 2 * bound


def test_double_well_near_degenerate_pairs_split_by_parity():
    grid = build_grid(2.0, 201, "dirichlet")
    h = _double_well(grid)
    spec = numeric_spectrum(h, ops.parity_operator(grid), 6)
    # tunnelling splits each pair by far less than the gap between pairs
    assert spec.parity_labels == ["even", "odd"] * 3
    splitting = spec.eigenvalues[1] - spec.eigenvalues[0]
    assert 0 < splitting < 1e-3 * (spec.eigenvalues[2] - spec.eigenvalues[1])


def test_periodic_full_spectrum_sector_counts(monkeypatch):
    grid = build_grid(np.pi, 1024, "periodic")
    h = ops.hamiltonian(grid, lambda x: 0.0)
    calls = _spy_solves(monkeypatch)
    spec = numeric_spectrum(h, ops.parity_operator(grid), 1024)
    # one full solve per sector, though ceil(1024/2) = 512 < 513: no partial
    # request, no Sturm count
    assert calls == [{}, {}]
    assert spec.parity_labels.count("even") == 513
    assert spec.parity_labels.count("odd") == 511
    _assert_exact_parity(spec, parity_permutation(grid))


@pytest.mark.parametrize("boundary,n", [("dirichlet", 51), ("periodic", 50)])
def test_odd_potential_is_refused(boundary, n):
    grid = build_grid(1.0, n, boundary)
    h = ops.hamiltonian(grid, lambda x: x)
    with pytest.raises(ParameterError, match="even under parity"):
        numeric_spectrum(h, ops.parity_operator(grid), 4)


def test_non_involution_parity_is_refused():
    grid = build_grid(1.0, 5, "dirichlet")
    h = ops.hamiltonian(grid, lambda x: 0.0)
    cycle = ops.from_permutation([1, 2, 3, 4, 0])
    with pytest.raises(ParameterError, match="involution"):
        numeric_spectrum(h, cycle, 2)


def test_non_tridiagonal_sector_is_refused():
    # a coupling to the second neighbour survives the fold off the tridiagonal band
    d2 = np.diag(np.full(6, 2.0)) + np.diag(np.ones(4), 2) + np.diag(np.ones(4), -2)
    h = ops.LinearOperator(d2)
    with pytest.raises(ParameterError, match="not tridiagonal"):
        numeric_spectrum(h, ops.from_permutation(np.arange(6)[::-1]), 2)


def _cancelling_hamiltonian(perm, pairs, n):
    """2 I plus, for each (a, b) in pairs, entries 1 at (a, b) and -1 at (a, perm[b]), with
    their mirror images under perm and the transposes of all: even, symmetric, and
    wider than tridiagonal, with every even-block sum at (a, b) cancelling to zero."""
    rows, cols, vals = [], [], []
    for a, b in pairs:
        for r, c, v in ((a, b, 1.0), (a, perm[b], -1.0)):
            for rr, cc in ((r, c), (perm[r], perm[c])):
                rows += [rr, cc]
                cols += [cc, rr]
                vals += [v, v]
    m = sp.csr_array((vals, (rows, cols)), shape=(n, n)) + 2.0 * sp.eye_array(n, format="csr")
    return ops.LinearOperator(m.tocsr())


def test_a_block_that_cancels_to_tridiagonal_is_read_by_its_nonzero_entries():
    # under the reversal on 6 points, entry (0, 2) of the even block is H[0, 2] + H[0, 3] = 0,
    # but the odd block's H[0, 2] - H[0, 3] = 2 sits two places off its diagonal. H is also
    # made non-Hermitian (H[0, 1] and its mirror image doubled): the refusal of the odd block
    # comes first
    perm = np.arange(6)[::-1]
    h = _cancelling_hamiltonian(perm, [(0, 2)], 6)
    m = h.linear_matrix + sp.csr_array(([1.0, 1.0], ([0, 5], [1, 4])), shape=(6, 6))
    with pytest.raises(Exception) as refused:
        numeric_spectrum(ops.LinearOperator(m), ops.from_permutation(perm), 2)
    assert type(refused.value) is ParameterError
    assert str(refused.value) == (
        "a parity block of the Hamiltonian is not tridiagonal; the sector eigensolve "
        "needs a three-point stencil or a diagonal Hamiltonian")
    # under 0 <-> 3, 2 <-> 4 with 1 fixed, the odd sector has no row for 1, so its entry
    # for (0, 2) lands beside the diagonal; the even block's cancelling sum couples
    # nothing, so both blocks are tridiagonal and h is solved
    perm = np.array([3, 1, 4, 0, 2])
    h = _cancelling_hamiltonian(perm, [(0, 4)], 5)
    spec = numeric_spectrum(h, ops.from_permutation(perm), 5)
    np.testing.assert_allclose(spec.eigenvalues, np.linalg.eigvalsh(h.to_dense()),
                               rtol=0, atol=1e-14)


def _box_hamiltonian_and_parity():
    grid = build_grid(1.0, 101, "dirichlet")
    return ops.hamiltonian(grid, lambda x: 0.0), ops.parity_operator(grid)


def _with_entry(m, value):
    """A copy of a CSR matrix whose first stored entry is value."""
    m = m.copy()
    m.data = m.data.astype(np.result_type(m.data, value))
    m.data[0] = value
    return m


@pytest.mark.parametrize("case,message", [
    ("too_many_levels", "n_levels 102 exceeds dimension 101"),
    ("scaled_parity", "parity must be a linear 101x101 permutation matrix"),
    ("antilinear", "needs a complex-linear Hamiltonian"),
    ("imaginary_entry", "needs a real Hamiltonian"),
    ("non_finite_entry", "the Hamiltonian has a non-finite entry"),
])
def test_numeric_spectrum_refuses_what_it_cannot_fold(case, message):
    h, parity = _box_hamiltonian_and_parity()
    n_levels = 102 if case == "too_many_levels" else 4
    if case == "scaled_parity":  # twice a permutation matrix
        parity = ops.LinearOperator(2.0 * parity.linear_matrix)
    elif case == "antilinear":
        h = ops.AntilinearOperator(h)
    elif case == "imaginary_entry":
        h = ops.LinearOperator(_with_entry(h.linear_matrix, 1.0 + 1e-3j))
    elif case == "non_finite_entry":
        h = ops.LinearOperator(_with_entry(h.linear_matrix, np.inf))
    with pytest.raises(ParameterError, match=message):
        numeric_spectrum(h, parity, n_levels)


def test_a_complex_hamiltonian_with_real_entries_and_explicit_zeros_folds_as_its_real_part():
    h, parity = _box_hamiltonian_and_parity()
    expected = numeric_spectrum(h, parity, 8)
    # complex entries whose imaginary parts are all zero are taken as real
    as_complex = numeric_spectrum(ops.LinearOperator(h.linear_matrix.astype(complex)), parity, 8)
    np.testing.assert_array_equal(as_complex.eigenvalues, expected.eigenvalues)
    # explicit zeros two places off the diagonal couple nothing: they do not
    # make the blocks look wider than tridiagonal
    with_zeros = numeric_spectrum(_padded_with_zeros(h), parity, 8)
    np.testing.assert_array_equal(with_zeros.eigenvalues, expected.eigenvalues)


def _padded_with_zeros(h):
    """h with an explicit zero stored at every place two off the diagonal."""
    m = h.linear_matrix.tocoo()
    far = np.arange(m.shape[0] - 2)
    rows, cols = np.r_[m.row, far, far + 2], np.r_[m.col, far + 2, far]
    padded = sp.csr_array((np.r_[m.data, np.zeros(2 * len(far))], (rows, cols)), shape=m.shape)
    assert padded.nnz == m.nnz + 2 * len(far)
    return ops.LinearOperator(padded)


def _entry_fold(monkeypatch, h, perm):
    """The sectors of h by the entry fold, the reference that the band fold must match.

    band_diagonals finds no band in h itself, which sends h to the entry fold;
    the fold's blocks, each smaller than h, are still read back through it.
    """
    band = ops.band_diagonals
    with monkeypatch.context() as m:
        m.setattr(ops, "band_diagonals", lambda a: None if a.shape[0] == len(perm) else band(a))
        calls = _fold_calls(m)
        sectors = engine._sectors(h, perm)
    assert calls == ["_fold"]
    return sectors


def _fold_calls(monkeypatch):
    """A list that records each "_band_blocks" and "_fold" call, in order."""
    calls = []
    for name in ("_band_blocks", "_fold"):
        _spy(monkeypatch, engine, name, calls)
    return calls


def _hamiltonians_of(monkeypatch, call):
    """The (h, parity) of every numeric_spectrum call that call() makes through partner."""
    seen = []
    solve = partner.numeric_spectrum
    monkeypatch.setattr(partner, "numeric_spectrum",
                        lambda h, parity, *a, **kw: seen.append((h, parity)) or
                        solve(h, parity, *a, **kw))
    call()
    monkeypatch.undo()
    return seen


def _scan_lengths():
    # the benchmark's scan: five doublings at 1000 points per unit length from pi,
    # 3141 to 50264 points
    return [np.pi * 2 ** k for k in range(5)]


def _band_csr(d, u, l, dtype=float):
    """The CSR matrix with diagonals l, d, u, every place of the band stored, zeros too."""
    n = len(d)
    rows = np.repeat(np.arange(n), 3)
    cols = rows + np.tile([-1, 0, 1], n)
    vals = np.column_stack([np.r_[0.0, l], d, np.r_[u, 0.0]]).ravel()
    inside = (cols >= 0) & (cols < n)
    m = sp.csr_array((vals[inside].astype(dtype), (rows[inside], cols[inside])), shape=(n, n))
    assert m.nnz == 3 * n - 2 and m.has_canonical_format
    return m


def _random_band_hamiltonians(n):
    """Real symmetric banded H even under the reversal, with explicit zeros, as float and
    as complex with zero imaginary parts."""
    rng = np.random.default_rng(n)
    found = []
    for _ in range(8):
        d = rng.integers(-3, 4, n) * rng.choice([1.0, 0.1, 1e-3]) + rng.standard_normal(n)
        d = np.where(rng.random(n) < 0.3, 0.0, d)
        d = (d + d[::-1]) / 2.0
        u = np.where(rng.random(n - 1) < 0.3, 0.0, rng.standard_normal(n - 1))
        u = u + u[::-1]  # a palindrome: l = u is then both u reversed and u itself
        found += [ops.LinearOperator(_band_csr(d, u, u, dtype)) for dtype in (float, complex)]
    return found


_MODELS = {"box": lambda size: ParticleInBox(3.0), "sec2": lambda size: SecSquaredPartner(3.0),
           "delta": lambda size: DeltaWell(2.0, 40.0), "free": lambda size: FreeParticle(3.0),
           "rotor": lambda size: PlanarRotor(0.7, size)}


def _model_case(case):
    """(h, parity) of the catalog model named "<model>-<points, or m_max for the rotor>"."""
    name, size = case.split("-")
    n_points = None if name == "rotor" else int(size)
    return engine.model_operators(_MODELS[name](int(size)), n_points)[:2]


def _band_fold_cases(monkeypatch, case):
    if case in ("scan", "partner"):
        ground = box_levels(3.0, 1)[0]
        call = ((lambda: box_to_free_scan(_scan_lengths(), 1000.0, n_levels=4)) if case == "scan"
                else lambda: partner_potential(ground, ground.energy,
                                               build_grid(1.5, 100001, "dirichlet")))
        return _hamiltonians_of(monkeypatch, call)
    if case == "box-zeros":
        h, parity = _model_case("box-100001")
        return [(_padded_with_zeros(h), parity)]
    if case.startswith("random"):
        n = int(case.split("-")[1])
        return [(h, ops.from_permutation(np.arange(n)[::-1])) for h in _random_band_hamiltonians(n)]
    return [_model_case(case)]


@pytest.mark.parametrize("case", [
    "box-100001", "box-100000", "sec2-100001", "sec2-100000", "delta-100001", "box-zeros",
    "scan", "partner", "rotor-1", "rotor-384",
    "random-3", "random-4", "random-5", "random-8", "random-11", "random-12",
])
def test_the_band_fold_matches_the_entry_fold_bit_for_bit(monkeypatch, case):
    hamiltonians = _band_fold_cases(monkeypatch, case)
    # the box and the partner at each of the scan's five lengths; V_plus and V_minus
    assert len(hamiltonians) == {"scan": 10, "partner": 2}.get(case, len(hamiltonians))
    for h, parity in hamiltonians:
        perm = engine._involution(parity, h.dimension)
        calls = _fold_calls(monkeypatch)
        got = engine._sectors(h, perm)
        assert calls == ["_band_blocks"]
        monkeypatch.undo()
        want = _entry_fold(monkeypatch, h, perm)
        for g, w in zip(got, want):
            assert g.sign == w.sign and g.perm is w.perm
            for name in ("diag", "offdiag", "reps"):
                x, y = getattr(g, name), getattr(w, name)
                assert (x.dtype, x.shape) == (y.dtype, y.shape), name
                assert x.tobytes() == y.tobytes(), name


@pytest.mark.parametrize("case,path", [
    ("box-101", "band"), ("box-100", "band"), ("sec2-101", "band"), ("delta-101", "band"),
    ("rotor-1", "band"), ("rotor-384", "band"), ("free-64", "entries"), ("free-100", "entries"),
    ("box-identity", "entries"),
])
def test_each_hamiltonian_takes_its_fold(monkeypatch, case, path):
    if case == "box-identity":  # even under any involution; the identity is not the reversal
        h, parity = _model_case("box-101")[0], ops.from_permutation(np.arange(101))
    else:
        h, parity = _model_case(case)
    calls = _fold_calls(monkeypatch)
    numeric_spectrum(h, parity, 2, vectors=False)
    assert calls == (["_band_blocks"] if path == "band" else ["_fold"])


def _refusal_input(case, system, n):
    """A Hamiltonian with the fault case on n points, and its parity."""
    grid = build_grid(1.0, n, system)
    h, parity = ops.hamiltonian(grid, lambda x: 0.0), ops.parity_operator(grid)
    m = h.linear_matrix
    if case == "antilinear":
        return ops.AntilinearOperator(h), parity
    if case in ("imaginary_entry", "non_finite_entry"):
        return ops.LinearOperator(_with_entry(m, 1.0 + 1e-3j if case == "imaginary_entry"
                                              else np.inf)), parity
    if case == "not_even":
        return ops.hamiltonian(grid, lambda x: x), parity
    if case == "non_finite_and_not_even":  # the first refusal in the order wins
        return ops.LinearOperator(_with_entry(ops.hamiltonian(grid, lambda x: x).linear_matrix,
                                              np.nan)), parity
    if case in ("overflowing", "vanishing"):
        return ops.LinearOperator(m * (1e200 if case == "overflowing" else 1e-200)), parity
    assert case == "non_hermitian"
    # not Hermitian, yet even: H[0, 1] and its mirror image both doubled, H[1, 0] kept
    perm = parity.linear_matrix.indices
    bump = sp.csr_array(([m[0, 1], m[0, 1]], ([0, perm[0]], [1, perm[1]])), shape=m.shape)
    return ops.LinearOperator(m + bump), parity


@pytest.mark.parametrize("case,error,message", [
    ("antilinear", ParameterError, "numeric_spectrum needs a complex-linear Hamiltonian"),
    ("non_finite_entry", ParameterError, "the Hamiltonian has a non-finite entry"),
    ("imaginary_entry", ParameterError, "numeric_spectrum needs a real Hamiltonian"),
    ("not_even", ParameterError,
     "the Hamiltonian is not bit-exactly even under parity (P H P != H); "
     "the parity-sector eigensolve needs a reflection-symmetric potential"),
    ("non_finite_and_not_even", ParameterError, "the Hamiltonian has a non-finite entry"),
    ("overflowing", ParameterError,
     "the Hamiltonian's entries are out of range: their squares overflow or "
     "vanish in double precision"),
    ("vanishing", ParameterError,
     "the Hamiltonian's entries are out of range: their squares overflow or "
     "vanish in double precision"),
    ("non_hermitian", NumericalContractError, "numeric_spectrum requires a Hermitian matrix"),
])
@pytest.mark.parametrize("system,n,fold", [("dirichlet", 101, "_band_blocks"),
                                           ("dirichlet", 100, "_band_blocks"),
                                           ("periodic", 100, "_fold")])
def test_both_folds_refuse_a_hamiltonian_alike(monkeypatch, case, error, message, system, n,
                                               fold):
    h, parity = _refusal_input(case, system, n)
    with pytest.raises(Exception) as refused:
        numeric_spectrum(h, parity, 4)
    assert type(refused.value) is error
    assert str(refused.value) == message
    # the same Hamiltonian without its fault takes the fold named
    calls = _fold_calls(monkeypatch)
    grid = build_grid(1.0, n, system)
    numeric_spectrum(ops.hamiltonian(grid, lambda x: 0.0), ops.parity_operator(grid), 4)
    assert calls == [fold]


@pytest.mark.parametrize("perm", [
    np.arange(40),                              # every point fixed: one sector holds all
    np.r_[np.arange(34), np.arange(40, 34, -1) - 1],  # six mirrored points above 34 fixed ones
])
def test_lopsided_sectors_regrow_their_request(perm):
    # the lowest k levels lie far more than ceil(k/2) + 1 deep in the even sector
    d = np.r_[np.arange(34.0), np.full(6, 100.0)]
    h = _tridiag(d, np.zeros(39))
    spec = numeric_spectrum(h, ops.from_permutation(perm), 20)
    np.testing.assert_array_equal(spec.eigenvalues, np.arange(20.0))
    assert spec.parity_labels == ["even"] * 20
    # with a coupling the blocks stay tridiagonal and the levels still match
    grid = build_grid(1.0, 40, "dirichlet")
    h = ops.hamiltonian(grid, lambda x: 0.0)
    spec = numeric_spectrum(h, ops.from_permutation(np.arange(40)), 12)
    np.testing.assert_allclose(spec.eigenvalues, np.linalg.eigvalsh(h.to_dense())[:12],
                               rtol=1e-12)


def test_two_to_the_sixteen_periodic_levels_stay_sparse():
    grid = build_grid(np.pi, 2 ** 16, "periodic")
    h = ops.hamiltonian(grid, lambda x: 0.0)
    par = ops.parity_operator(grid)
    t0 = time.perf_counter()
    spec = numeric_spectrum(h, par, 8)
    elapsed = time.perf_counter() - t0
    # a dense solve would need a 2^16 x 2^16 complex matrix (68 GB)
    assert elapsed < 10.0
    modes = np.array([0, 1, 1, 2, 2, 3, 3, 4])
    h_norm = 2.0 / grid.spacing ** 2
    exact = h_norm * np.sin(np.pi * modes / grid.n_points) ** 2
    # the solver's absolute error is a few eps * ||H||, about 1e-8 here
    np.testing.assert_allclose(spec.eigenvalues, exact, rtol=0, atol=1e-13 * h_norm)
    labels = spec.parity_labels
    assert labels[0] == "even"
    assert all({labels[i], labels[i + 1]} == {"even", "odd"} for i in (1, 3, 5))


@pytest.mark.parametrize("n", [4096, 8192])
def test_exact_zero_mode_is_solved_by_lanczos(monkeypatch, n):
    # the block image of the constant function is the free particle's ground
    # state, so the first lower bound is the lowest level itself; a shift that
    # close would leave Lanczos unable to separate the levels above it
    grid = build_grid(np.pi, n, "periodic")
    h = ops.hamiltonian(grid, lambda x: 0.0)
    calls = _spy_solves(monkeypatch)
    spec = numeric_spectrum(h, ops.parity_operator(grid), 8)
    # counts only: no block fell back to bisection or was solved in full
    assert all(c.get("select") == "v" for c in calls)
    modes = np.array([0, 1, 1, 2, 2, 3, 3, 4])
    exact = 2.0 / grid.spacing ** 2 * np.sin(np.pi * modes / n) ** 2
    np.testing.assert_allclose(spec.eigenvalues, exact, rtol=0,
                               atol=4 * np.finfo(float).eps * engine._norm1(h))


def test_box_eigenvectors_match_independent_solver_oracle():
    oracle = np.loadtxt(Path(__file__).parent / "data" / "box_eigenvectors_l1_n999.txt")
    grid = build_grid(0.5, 999, "dirichlet")
    # the shift by 0.5 rounds once: half an ulp of 1
    np.testing.assert_allclose(oracle[:, 0], grid.points + 0.5, rtol=0,
                               atol=np.finfo(float).eps / 2)
    h = ops.hamiltonian(grid, lambda x: 0.0)
    spec = numeric_spectrum(h, ops.parity_operator(grid), 3)
    assert not np.any(spec.eigenvectors.imag)
    for k in range(3):
        ref = oracle[:, k + 1] / np.linalg.norm(oracle[:, k + 1])
        v = spec.eigenvectors[:, k].real
        v = v * np.sign(v @ ref)
        np.testing.assert_allclose(v, ref, rtol=0, atol=1e-10)


@pytest.mark.parametrize("argv", [
    ["spectrum", "--model", "box", "--points", "401", "--levels", "7"],
    ["spectrum", "--model", "sec2", "--points", "401", "--levels", "8"],
    ["spectrum", "--model", "delta", "--points", "401", "--levels", "9"],
    ["spectrum", "--model", "free", "--points", "64", "--levels", "9"],
    ["spectrum", "--model", "rotor", "--m-max", "8", "--levels", "6"],
    ["partner", "--model", "box", "--points", "401"],
    ["scan", "--L-values", "3,6", "--points-per-length", "300"],
])
def test_energy_only_commands_compute_no_eigenvectors(monkeypatch, tmp_path, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("an energy-only command computed eigenvectors")

    monkeypatch.setattr(engine._Sector, "unfold", refuse)
    monkeypatch.setattr(engine, "_refine", refuse)
    calls = _spy_solves(monkeypatch)
    asked = _spy_krylov(monkeypatch)
    made = _spy_spectra(monkeypatch)
    assert main([*argv, "--out", str(tmp_path / "out.txt")]) == 0
    # the rotor's diagonal blocks are solved and counted with no solver call at all
    assert (not calls and not asked) if "rotor" in argv else (calls or asked)
    # truncated sectors go through the Krylov solver, which stops at its Ritz
    # values (no _refine); eigh_tridiagonal only solves whole blocks or counts,
    # and solves whole blocks only where the basis cap covers them (64 points)
    assert all(not c or (c.get("select") == "v" and c.get("eigvals_only")) for c in calls)
    assert any(not c for c in calls) == ("64" in argv)
    # no spectrum keeps sectors, so no vector can be read
    assert made and all(spec.sectors == () for spec in made)


def _spy_spectra(monkeypatch):
    """Record every Spectrum the engine builds."""
    made = []
    init = Spectrum.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(Spectrum, "__init__", spy)
    return made


def test_the_check_reads_vectors_that_its_solves_made(monkeypatch, tmp_path):
    made = _spy_spectra(monkeypatch)
    for argv in (["--model", "free", "--points", "64", "--charge", "Q"],
                 ["--model", "rotor", "--m-max", "6", "--charge", "q"]):
        assert main(["check", *argv, "--out", str(tmp_path / "check.json")]) == 0
    assert len(made) == 2
    assert all(s.vectors is not None for spec in made for s in spec.sectors)


# ---------------------------------------------------------------------------
# pairing

def test_parity_is_stored_once_as_the_sector_index():
    grid = build_grid(np.pi, 64, "periodic")
    spec = numeric_spectrum(ops.hamiltonian(grid, lambda x: 0.0), ops.parity_operator(grid), 64)
    assert "parity_labels" not in vars(spec)
    assert spec.parity_labels == [("even", "odd")[i] for i in spec.sector_of]

    class Unlabelled(Spectrum):
        @property
        def parity_labels(self):
            raise AssertionError("pairing read the labels, not the sector indices")

    unlabelled = Unlabelled(spec.eigenvalues, spec.sector_of)
    pairing = detect_pairing(spec)
    assert detect_pairing(unlabelled) == pairing
    assert len(pairing.pairs) == 31 and pairing.unpaired == [0, 63]
    assert all(spec.sector_of[i] == 0 and spec.sector_of[j] == 1 for i, j, _ in pairing.pairs)
    # the sectors were built with their vectors, and no field changes afterwards
    assert "fixed" not in [f.name for f in dataclasses.fields(engine._Sector)]
    assert all(s.vectors is not None for s in spec.sectors)
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.sectors[0].vectors = None


def _analytic_spectrum(energies, parities):
    """A Spectrum of energies alone, each level in the sector its parity label names."""
    sector_of = np.array([["even", "odd"].index(p) for p in parities], dtype=int)
    return Spectrum(np.asarray(energies, dtype=float), sector_of)


def test_rotor_pairing():
    _, t, h = ops.rotor_basis_operators(4, 1.0)
    spec = numeric_spectrum(h, ops.LinearOperator(t.antilinear_matrix), 9)
    pm = detect_pairing(spec)
    assert len(pm.pairs) == 4
    assert pm.unpaired == [0]


def test_box_partner_merged_spectrum_pairing():
    # merged box + partner ladders: every E_n (n >= 2) pairs across models,
    # the box ground E_1 stays alone
    length = np.pi
    energies, parities = [], []
    for n in range(1, 6):
        energies.append(box_energy(length, n))
        parities.append("even" if n % 2 == 1 else "odd")
    for n in range(2, 6):
        energies.append(box_energy(length, n))
        parities.append("even" if n % 2 == 0 else "odd")
    order = np.argsort(energies)
    spec = _analytic_spectrum(np.asarray(energies)[order],
                              [parities[i] for i in order])
    pm = detect_pairing(spec)
    assert len(pm.pairs) == 4
    assert pm.unpaired == [0]


def test_single_level_spectrum():
    pm = detect_pairing(_analytic_spectrum([1.0], ["even"]))
    assert pm.pairs == [] and pm.unpaired == [0]


def test_triple_degeneracy_flagged():
    pm = detect_pairing(_analytic_spectrum([1.0, 1.0, 1.0], ["even", "odd", "even"]))
    assert pm.triple_degeneracy_flag
    assert pm.unpaired == [0, 1, 2]


def test_triple_with_unequal_rounding_gaps_flagged():
    # splittings of rounding size chain whatever their order, as equal ones do
    pm = detect_pairing(_analytic_spectrum([1.0, 1.0 + 1e-13, 1.0 + 2.5e-13, 2.0],
                                           ["even", "odd", "even", "odd"]))
    assert pm.triple_degeneracy_flag
    assert pm.pairs == [] and pm.unpaired == [0, 1, 2, 3]


def test_pairs_closer_than_pair_tol_to_their_neighbours_stay_pairs():
    # near Nyquist on a fine grid the relative spacing between pairs falls below
    # pair_tol, while each pair's splitting stays far below the gaps around it
    energies = 1000.0 * np.array([1.0, 1.0 + 1e-15, 1.0000004, 1.0000004 + 1e-15, 1.0000006])
    pm = detect_pairing(_analytic_spectrum(energies, ["even", "odd", "odd", "even", "even"]))
    assert [(i, j) for i, j, _ in pm.pairs] == [(0, 1), (3, 2)]
    assert pm.unpaired == [4] and not pm.triple_degeneracy_flag


@settings(deadline=None, max_examples=50)
@given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=20),
       st.randoms())
def test_pairing_stable_under_resorting(base, rng):
    # duplicating levels (with flipped parity) then shuffling and re-sorting
    # yields the identical pair multiset
    energies, parities = [], []
    for i, e in enumerate(base):
        energies += [e, e]
        parities += ["even", "odd"]
    idx = list(range(len(energies)))
    rng.shuffle(idx)
    shuffled = [energies[i] for i in idx]
    shuf_par = [parities[i] for i in idx]
    order = np.argsort(shuffled, kind="stable")
    spec1 = _analytic_spectrum(np.asarray(shuffled)[order], [shuf_par[i] for i in order])
    order0 = np.argsort(energies, kind="stable")
    spec0 = _analytic_spectrum(np.asarray(energies)[order0], [parities[i] for i in order0])
    pm0, pm1 = detect_pairing(spec0), detect_pairing(spec1)

    def multiset(pm, spec):
        return sorted((round(float(spec.eigenvalues[i]), 9),
                       round(float(spec.eigenvalues[j]), 9)) for i, j, _ in pm.pairs)

    assert multiset(pm0, spec0) == multiset(pm1, spec1)
    assert len(pm0.unpaired) == len(pm1.unpaired)


def _detect_pairing_loop(spectrum, pair_tol=engine.PAIR_TOL):
    """The per-level form of engine.detect_pairing, kept as its reference."""
    vals = spectrum.eigenvalues
    gaps = np.diff(vals)
    median_gap = float(np.median(gaps)) if len(gaps) else 0.0
    pairs, unpaired, triple = [], [], False

    def linked(j):
        scale = max(abs(vals[j]), abs(vals[j + 1]), median_gap)
        if scale > 0 and gaps[j] > pair_tol * scale:
            return False
        if gaps[j] <= engine.MACHINE_TOL * scale:
            return True
        return (j == 0 or gaps[j] <= gaps[j - 1]) and (j + 1 == len(gaps) or gaps[j] <= gaps[j + 1])

    i, n = 0, len(vals)
    while i < n:
        j = i
        while j + 1 < n and linked(j):
            j += 1
        cluster = list(range(i, j + 1))
        if len(cluster) == 1:
            unpaired.append(cluster[0])
        elif len(cluster) == 2:
            a, b = cluster
            la, lb = spectrum.parity_labels[a], spectrum.parity_labels[b]
            if {la, lb} == {"even", "odd"}:
                even_idx, odd_idx = (a, b) if la == "even" else (b, a)
                pairs.append((even_idx, odd_idx, float(abs(vals[b] - vals[a]))))
            else:
                unpaired.extend(cluster)
        else:
            triple = True
            unpaired.extend(cluster)
        i = j + 1
    return engine.PairingMap(pairs=pairs, unpaired=unpaired, triple_degeneracy_flag=triple)


# clusters of one to four levels: a base level, then splittings that are exact,
# of rounding size, equal, or drawn at random
_SPLITTING = st.one_of(st.sampled_from([0.0, 1e-13, 2.5e-13, 1e-9, 1e-7, 1e-3]),
                       st.floats(min_value=0.0, max_value=2.0))
_CLUSTERS = st.lists(st.tuples(st.floats(min_value=-50.0, max_value=1e4),
                               st.lists(_SPLITTING, min_size=0, max_size=3)),
                     min_size=0, max_size=12)


@settings(deadline=None, max_examples=200)
@given(clusters=_CLUSTERS, pair_tol=st.sampled_from([1e-12, 1e-6, 1e-3, 0.5]), data=st.data())
@example(clusters=[(1.0, [1e-13, 1.5e-13]), (2.0, [])], pair_tol=1e-6, data=None)  # rounding triple
@example(clusters=[(1.0, [1e-7, 1e-7]), (3.0, [1e-7])], pair_tol=1e-6, data=None)  # equal splittings
def test_vectorized_pairing_matches_per_level_loop(clusters, pair_tol, data):
    energies = np.sort([base + sum(splits[:k]) for base, splits in clusters
                        for k in range(len(splits) + 1)])
    labels = (["even", "odd", "odd", "even"] * len(energies))[:len(energies)]
    if data is not None:
        labels = data.draw(st.lists(st.sampled_from(["even", "odd"]), min_size=len(energies),
                                    max_size=len(energies)))
    spec = _analytic_spectrum(energies, labels)
    assert detect_pairing(spec, pair_tol) == _detect_pairing_loop(spec, pair_tol)


# ---------------------------------------------------------------------------
# algebra residuals

def test_free_Q_algebra(free_setup):
    _, p, par, _, h_alg = free_setup
    charges = ops.supercharge_Q(p, par, 1.0)
    res = algebra_residuals(h_alg, charges)
    assert res.comm_HQ <= 1e-12
    assert res.comm_HQdag <= 1e-12
    assert res.anticomm_minus_H <= 1e-12
    assert res.nilpotency_q is None and res.nilpotency_qdag is None


def test_free_q_pair_algebra(free_setup):
    _, p, par, _, h_alg = free_setup
    pair = ops.supercharge_q_pair(p, par, 1.0)
    res = algebra_residuals(h_alg, pair)
    assert res.nilpotency_q <= 1e-12
    assert res.nilpotency_qdag <= 1e-12
    assert res.comm_HQ <= 1e-12 and res.anticomm_minus_H <= 1e-12


@pytest.mark.parametrize("charge", ["Q", "q"])
@pytest.mark.parametrize("model", ["free", "rotor"])
def test_algebra_residuals_compose_each_charge_square_once(monkeypatch, free_setup,
                                                          rotor_setup, model, charge):
    if model == "free":
        _, g, s, _, h = free_setup
    else:
        g, s, h = rotor_setup
    charges = (ops.supercharge_Q(g, s, 1.0) if charge == "Q"
               else ops.supercharge_q_pair(g, s, 1.0))
    calls = []
    compose = ops.compose
    monkeypatch.setattr(ops, "compose", lambda x, y: calls.append(x is y) or compose(x, y))
    res = algebra_residuals(h, charges)
    # two products each for [H, C], [H, Cdag] and {C, Cdag}, and one per square,
    # read by both nilpotency (criterion 5) and closure (criterion 6)
    assert len(calls) == 8 and sum(calls) == 2
    assert (res.nilpotency_q is None) == (charge == "Q")


def test_rotor_Q_algebra(rotor_setup):
    lz, t, h = rotor_setup
    q, qdag = ops.supercharge_Q(lz, t, 1.0)
    res = algebra_residuals(h, (q, qdag))
    assert res.comm_HQ == 0.0
    assert res.anticomm_minus_H <= 1e-15  # only the 1/2 scaling rounds
    # -Q.Q = H exactly on the basis (up to signed zeros)
    qq = ops.compose(q.action, q.action)
    np.testing.assert_allclose(-qq.to_dense(), h.to_dense(), atol=1e-15)


def test_closure_residual_projects_a_linear_part_off_span_h_and_one(rotor_setup):
    # a square whose linear part has a component outside span{H, 1}: skipping
    # its projection would return 0.0
    _, _, h = rotor_setup
    rng = np.random.default_rng(7)
    a = rng.standard_normal((7, 7)) * (rng.random((7, 7)) < 0.5)
    a = a + a.T + 3.0 * h.to_dense() + 2.0 * np.eye(7)
    resid = engine._closure_residual(h, ops.LinearOperator(sp.csr_array(a)))
    basis = np.column_stack([h.to_dense().ravel(), np.eye(7).ravel()])
    coef = np.linalg.lstsq(basis, 2.0 * a.ravel(), rcond=None)[0]
    reference = np.linalg.norm(2.0 * a.ravel() - basis @ coef) / np.linalg.norm(h.to_dense())
    assert reference > 1.0
    assert resid == pytest.approx(reference, rel=1e-12)


def test_closure_residual_of_the_nilpotent_squares_is_exactly_zero(free_setup, rotor_setup):
    _, p, par, _, h_alg = free_setup
    lz, t, h = rotor_setup
    for g, s, hm in ((p, par, h_alg), (lz, t, h)):
        for c in ops.supercharge_q_pair(g, s, 1.0):
            assert engine._closure_residual(hm, ops.compose(c.action, c.action)) == 0.0


def _closure_residual_of_the_doubled_square(h, square):
    """The closure residual projected from 2 C^2 = ops.scale(square, 2.0), kept as its reference."""
    anti = ops.scale(square, 2.0)
    a, b = anti.linear_matrix, anti.antilinear_matrix
    hm = h.linear_matrix
    resid_sq = 0.0
    if b is not None:
        resid_sq += float(np.sum(np.abs(b.data) ** 2))
    if a is not None and a.nnz:
        n = hm.shape[0]
        tr_h = hm.diagonal().sum()
        g = np.array([[np.sum(np.abs(hm.data) ** 2), np.conj(tr_h)], [tr_h, n]])
        rhs = np.array([hm.conj().multiply(a).sum(), a.diagonal().sum()])
        coef = np.linalg.solve(g, rhs)
        eye = ops.from_diagonal(np.ones(n)).linear_matrix
        resid = a - coef[0] * hm - coef[1] * eye
        resid_sq += float(np.sum(np.abs(resid.data) ** 2))
    return float(np.sqrt(resid_sq) / ops.frobenius_norm(h))


@pytest.mark.parametrize("model", [FreeParticle(2 * np.pi), PlanarRotor(0.7, 40)])
@pytest.mark.parametrize("charge", ["Q", "q"])
def test_closure_residual_doubles_the_projection_of_the_square_bit_for_bit(model, charge):
    # doubling is exact in binary floating point: projecting C^2 and doubling the
    # distance gives the projection of 2 C^2 to the last bit
    if isinstance(model, PlanarRotor):
        g, s, h = ops.rotor_basis_operators(model.m_max, model.inertia)
        mu = model.inertia
    else:
        _, s, grid = engine.model_operators(model, 128)
        g, mu = ops.momentum(grid), 1.0
        h = ops.momentum_squared_hamiltonian(g, mu)
    charges = ops.supercharge_Q(g, s, mu) if charge == "Q" else ops.supercharge_q_pair(g, s, mu)
    c, cdag = (x.action for x in charges)
    # a square with a linear part off span{H, 1} and an antilinear part, so that
    # every term of the residual is nonzero
    rng = np.random.default_rng(13)
    n = h.dimension
    off = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.05)
    squares = [ops.compose(c, c), ops.compose(cdag, cdag),
               ops.MixedOperator(sp.csr_array(off + 1j * off.T), sp.csr_array(off))]
    resids = [engine._closure_residual(h, sq) for sq in squares]
    assert resids == [_closure_residual_of_the_doubled_square(h, sq) for sq in squares]
    assert resids[2] > 0.0


def _random_csr(dtype):
    rng = np.random.default_rng(11)
    m = rng.standard_normal((97, 97)) * (rng.random((97, 97)) < 0.1)
    if dtype == complex:
        m = m + 1j * rng.standard_normal((97, 97)) * (m != 0)
    return ops.LinearOperator(sp.csr_array(m))


@pytest.mark.parametrize("make", [
    lambda: ops.rotor_basis_operators(384, 0.7)[2],
    lambda: ops.hamiltonian(build_grid(4.0, 1024, "periodic"), lambda x: 0.0),
    lambda: ops.hamiltonian(build_grid(1.5, 1001, "dirichlet"), sec_squared_potential(3.0)),
    lambda: ops.momentum_squared_hamiltonian(ops.momentum(build_grid(4.0, 1024, "periodic")),
                                             1.0),
    lambda: _random_csr(float),
    lambda: _random_csr(complex),
], ids=["rotor", "periodic", "dirichlet", "complex_p2", "random", "random_complex"])
def test_norm1_matches_the_sparse_column_sum_bit_for_bit(make):
    h = make()
    assert engine._norm1(h) == float(np.max(abs(h.linear_matrix).sum(axis=0)))


# ---------------------------------------------------------------------------
# ground state

def test_free_ground_state(free_setup):
    grid, p, par, h_spec, _ = free_setup
    charges = ops.supercharge_Q(p, par, 1.0)
    spec = numeric_spectrum(h_spec, par, 8)
    rec = ground_state_check(spec, charges)
    assert rec.degeneracy_count == 1
    assert abs(rec.energy) < 1e-10
    assert max(rec.annihilation_residuals.values()) < 1e-10


def test_delta_well_ground_with_zero_point_reset():
    grid = build_grid(20.0, 3999, "dirichlet")
    h = ops.delta_well_hamiltonian(grid, 1.0)
    par = ops.parity_operator(grid)
    spec = numeric_spectrum(h, par, 4)
    p = ops.momentum(grid)
    charges = ops.supercharge_Q(p, par, 1.0)
    rec = ground_state_check(spec, charges, energy_shift=float(spec.eigenvalues[0]))
    assert rec.raw_energy == pytest.approx(-0.5, abs=1e-2)
    assert rec.energy == 0.0
    assert rec.degeneracy_count == 1


def test_rotor_ground_state(rotor_setup):
    lz, t, h = rotor_setup
    charges = ops.supercharge_Q(lz, t, 1.0)
    spec = numeric_spectrum(h, ops.LinearOperator(t.antilinear_matrix), 7)
    rec = ground_state_check(spec, charges)
    assert rec.degeneracy_count == 1 and rec.energy == 0.0
    assert max(rec.annihilation_residuals.values()) == 0.0


def test_ground_cluster_ends_at_the_solver_accuracy_not_the_top_level():
    # the ground's degeneracy must not depend on the top of the spectrum: a gap
    # tolerance of 1e-8 * max |E| = 10 merged every level below 1e9 with the ground
    lz, t, _ = ops.rotor_basis_operators(4, 1.0)
    h = ops.LinearOperator(sp.diags_array([1e9, 2.0, 1.0, 0.5, 0.0, 0.5, 1.0, 2.0, 1e9],
                                          format="csr"))
    spec = numeric_spectrum(h, ops.LinearOperator(t.antilinear_matrix), 9)
    np.testing.assert_array_equal(spec.eigenvalues, [0, .5, .5, 1, 1, 2, 2, 1e9, 1e9])
    rec = ground_state_check(spec, ops.supercharge_Q(lz, t, 1.0))
    assert rec.degeneracy_count == 1 and rec.energy == 0.0
    # gaps within the tolerance chain: 0, .5, .5, 1 and 1 share the cluster
    assert ground_state_check(spec, ops.supercharge_Q(lz, t, 1.0), tol=0.5).degeneracy_count == 5


# ---------------------------------------------------------------------------
# action table

def test_action_table_all_commensurate_wavenumbers():
    grid = build_grid(np.pi, 128, "periodic")
    ks = engine.commensurate_wavenumbers(grid)
    rows = eq5_action_table(grid, ks)
    assert max(r.max_deviation for r in rows) <= 1e-12


def test_action_table_k0_gives_zero():
    grid = build_grid(np.pi, 64, "periodic")
    row = eq5_action_table(grid, [0.0])[0]
    assert row.max_deviation == 0.0


def test_action_table_rejects_incommensurate():
    grid = build_grid(np.pi, 64, "periodic")
    with pytest.raises(ParameterError, match="commensurate"):
        eq5_action_table(grid, [1.05])


def test_action_table_unsubstituted_second_order():
    k = 4.0 * 2 * np.pi / (2 * np.pi)  # mode 4 on L = 2 pi
    devs = []
    for n in (128, 256, 512):
        grid = build_grid(np.pi, n, "periodic")
        row = eq5_action_table(grid, [k], substitute_dispersion=False)[0]
        devs.append(row.max_deviation)
    order = np.log2(devs[0] / devs[1])
    assert order == pytest.approx(2.0, abs=0.1)
    order = np.log2(devs[1] / devs[2])
    assert order == pytest.approx(2.0, abs=0.1)


def _eq5_action_table_loop(grid, k_list, mass=1.0, *, substitute_dispersion=True):
    """The per-row form of engine.eq5_action_table, kept as its reference."""
    length = grid.length
    p = ops.momentum(grid)
    par = ops.parity_operator(grid)
    q, qdag = ops.supercharge_q_pair(p, par, mass)
    rows = []
    for k in k_list:
        k = float(k)
        mode = k * length / (2.0 * np.pi)
        kd = np.sin(k * grid.spacing) / grid.spacing if substitute_dispersion else k
        n = grid.n_points
        phase = (round(mode) % n * (np.arange(n) - n // 2)) % n
        theta = 2.0 * np.pi * phase / n
        c = np.cos(theta)
        s = np.sin(theta)
        denom = max(abs(kd), 1.0) * max(np.linalg.norm(c), np.linalg.norm(s))
        rows.append(engine.ActionTableRow(
            k=k, k_discrete=float(kd),
            dev_q_cos=float(np.linalg.norm(q.apply(c) - 1j * kd * s) / denom),
            dev_q_sin=float(np.linalg.norm(q.apply(s)) / denom),
            dev_qdag_sin=float(np.linalg.norm(qdag.apply(s) + 1j * kd * c) / denom),
            dev_qdag_cos=float(np.linalg.norm(qdag.apply(c)) / denom)))
    return rows


@pytest.mark.parametrize("substitute", [True, False])
@pytest.mark.parametrize("n", [14, 64, 1000, 1024])
def test_batched_action_table_matches_per_row_loop(n, substitute):
    grid = build_grid(np.e, n, "periodic")
    default = engine.commensurate_wavenumbers(grid)
    if n >= 1000:
        assert len(default) > engine._eq5_block(n)  # more than one block
    # unsorted, with duplicates, negative modes, 0, Nyquist and an aliased mode
    modes = [7, -3, 0, n // 2, 7, 1, -(n // 2), n - 1, 3 * n + 2, 2]
    user = [2.0 * np.pi * m / grid.length for m in modes]
    eps = np.finfo(float).eps
    for ks in (default, user):
        rows = eq5_action_table(grid, ks, substitute_dispersion=substitute)
        expected = _eq5_action_table_loop(grid, ks, substitute_dispersion=substitute)
        assert len(rows) == len(expected) == len(ks)
        for row, ref in zip(rows, expected):
            assert (row.k, row.k_discrete) == (ref.k, ref.k_discrete)
            for name in ("dev_q_cos", "dev_q_sin", "dev_qdag_sin", "dev_qdag_cos"):
                got, want = getattr(row, name), getattr(ref, name)
                # the squared norms sum n terms in another order than BLAS does:
                # within 1e-15 for the substituted deviations (at most 1e-12), and
                # within n * eps relative for the O(1) unsubstituted ones
                assert abs(got - want) <= 1e-15 + n * eps * abs(want), (row.k, name)


def test_action_table_allocates_nothing_of_size_n_squared():
    n = 4096
    grid = build_grid(np.pi, n, "periodic")
    ks = engine.commensurate_wavenumbers(grid)
    tracemalloc.start()
    try:
        eq5_action_table(grid, ks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one n x (n/2) float64 table of samples would take 67 MB; a block takes 1 MB
    assert peak < n * (n // 2) * 8 / 4


@pytest.mark.parametrize("n", [4, 14, 1024, 20000])
@pytest.mark.parametrize("length", [1e-5, 2 * np.pi, 1e5])
def test_every_action_table_charge_is_i_times_a_real_matrix(n, length):
    # eq5_action_table applies each charge as the imaginary part of its CSR
    # matrix alone, dropping no zero: that is the whole charge, with no idle
    # entry, only if it is linear, its real part is zero and it stores no zero
    grid = build_grid(length, n, "periodic")
    for charge in ops.supercharge_q_pair(ops.momentum(grid), ops.parity_operator(grid), 1.0):
        assert charge.action.antilinear_matrix is None
        m = charge.action.linear_matrix
        assert m.nnz > 0 and not np.any(m.data.real)
        assert np.all(m.data.imag)


def test_action_table_validates_every_wavenumber_first(monkeypatch):
    grid = build_grid(np.pi, 64, "periodic")

    def refuse(*args, **kwargs):
        raise AssertionError("the charges were built before the wavenumbers were checked")

    monkeypatch.setattr(engine.ops, "supercharge_q_pair", refuse)
    ks = [0.0, 1.0, 1.05, 1e300]  # the first bad value is reported
    with pytest.raises(ParameterError, match="wavenumber 1.05 is not commensurate"):
        eq5_action_table(grid, ks)
    with pytest.raises(ParameterError, match="wavenumber 1e\\+300 is too large"):
        eq5_action_table(grid, ks[::-1])


# ---------------------------------------------------------------------------
# full verdicts

@pytest.mark.parametrize("model,charge,crit5_by_design", [
    (FreeParticle(2 * np.pi), "Q", True),
    (FreeParticle(2 * np.pi), "q", False),
    (PlanarRotor(1.0, 8), "Q", True),
    (PlanarRotor(1.0, 8), "q", False),
])
def test_verdict_table(model, charge, crit5_by_design):
    report = build_check(model, charge)
    assert report.all_applicable_pass
    for n in (1, 2, 3, 4, 6):
        assert report.verdicts[n].satisfied, report.verdicts[n].detail
    assert report.verdicts[5].by_design_failure == crit5_by_design
    assert report.verdicts[5].satisfied == (not crit5_by_design)


def test_nyquist_mode_flagged_and_excluded():
    report = build_check(FreeParticle(2 * np.pi), "Q", n_points=128)
    assert report.artifact_indices == [127]
    assert 127 in report.pairing.unpaired
    assert report.verdicts[2].satisfied


def _pair_invariance_loop(spectrum, pairing, actions):
    """The per-vector form of engine._pair_invariance, kept as its reference."""
    worst = 0.0
    for i, j, _ in pairing.pairs:
        block = spectrum.eigenvectors[:, [i, j]]
        for v in block.T:
            for action in actions:
                w = action.apply(v)
                wn = np.linalg.norm(w)
                if wn <= 1e-10 * (1.0 + np.sqrt(abs(spectrum.eigenvalues[i]))):
                    continue
                leak = w - block @ (block.conj().T @ w)
                worst = max(worst, float(np.linalg.norm(leak) / wn))
    return worst


def _random_even_system(model, charge, rng):
    """Sector eigenpairs of a random even Hamiltonian, and charges that do not commute with it."""
    if model == "free":
        grid = build_grid(np.pi, 96, "periodic")
        coeffs = rng.uniform(-20.0, 20.0, 4)
        # a potential sampled from |x| is bit-exactly even on the symmetric grid
        h = ops.hamiltonian(grid, lambda x: np.polyval(coeffs, abs(x)))
        g, s, mu = ops.momentum(grid), ops.parity_operator(grid), 1.0
        parity = s
    else:
        g, s, _ = ops.rotor_basis_operators(40, 0.7)
        mu = 0.7
        m = np.abs(np.arange(-40, 41))
        # a diagonal h (rotor_diagonal) has unit block vectors
        e = np.zeros(40) if model == "rotor_diagonal" else rng.uniform(-1.0, 1.0, 40)
        # couplings symmetric under m -> -m keep h even and its blocks tridiagonal
        h = _tridiag(rng.uniform(0.0, 50.0, 41)[m], np.r_[e, e[::-1]])
        parity = ops.LinearOperator(s.antilinear_matrix)
    q, qdag = (ops.supercharge_Q if charge == "Q" else ops.supercharge_q_pair)(g, s, mu)
    return numeric_spectrum(h, parity, h.dimension), q, qdag


@pytest.mark.parametrize("charge", ["Q", "q"])
def test_batched_pair_invariance_matches_per_vector_loop(charge):
    # parity-definite eigenvectors of random even Hamiltonians, paired by hand across
    # levels, leak at O(1), so the comparison is not rounding noise
    rng = np.random.default_rng(3)
    for model in ("free", "rotor", "rotor_diagonal"):
        spec, q, qdag = _random_even_system(model, charge, rng)
        assert sp.issparse(spec.sectors[0].vectors) == (model == "rotor_diagonal")
        actions = [q.action, qdag.action]
        # the one-column unfold of the ground state, before any full unfold
        charges = (q, qdag)
        ground = ground_state_check(spec, charges)
        even = rng.permutation([i for i, s in enumerate(spec.parity_labels) if s == "even"])
        odd = rng.permutation([i for i, s in enumerate(spec.parity_labels) if s == "odd"])
        pairing = engine.PairingMap(pairs=[(int(i), int(j), 0.0) for i, j in zip(even, odd)],
                                    unpaired=[])
        assert len(pairing.pairs) > engine._PAIR_CHUNK  # more than one batch
        folded = engine._pair_invariance(spec, pairing, charges)
        vecs = spec.eigenvectors
        assert vecs.dtype == np.float64
        expected = _pair_invariance_loop(spec, pairing, actions)
        assert expected > 0.1
        assert folded == pytest.approx(expected, rel=1e-12)
        for label, action in zip(ground.annihilation_residuals, actions):
            reference = np.linalg.norm(action.apply(vecs[:, 0]))
            assert ground.annihilation_residuals[label] == pytest.approx(reference, rel=0,
                                                                         abs=1e-12)


@pytest.mark.parametrize("model", [FreeParticle(2 * np.pi), PlanarRotor(1.0, 8)])
@pytest.mark.parametrize("charge", ["Q", "q"])
def test_check_never_unfolds_the_spectrum(monkeypatch, model, charge):
    def refuse(*args, **kwargs):
        raise AssertionError("build_check unfolded every eigenvector")

    widths = []
    unfold = engine._Sector.unfold

    def one_column(self, cols):
        widths.append(len(cols))
        return unfold(self, cols)

    monkeypatch.setattr(engine.Spectrum, "eigenvectors", property(refuse))
    monkeypatch.setattr(engine._Sector, "unfold", one_column)
    report = build_check(model, charge, n_points=128)
    assert report.all_applicable_pass
    assert widths == [1]  # the ground state, for the annihilation residuals


def test_charge_that_is_not_parity_odd_is_refused(rotor_setup):
    lz, t, h = rotor_setup
    spec = numeric_spectrum(h, ops.LinearOperator(t.antilinear_matrix), h.dimension)
    pairing = detect_pairing(spec)
    # even; and a sum whose parts are not odd, though A + B is
    for action in (h, ops.MixedOperator(lz.linear_matrix - h.linear_matrix, h.linear_matrix)):
        charge = ops.Supercharge(action, "C", nilpotent_by_design=False)
        with pytest.raises(ParameterError, match="odd under parity"):
            engine._pair_invariance(spec, pairing, (charge, charge))


def _sector_basis(sector):
    """The full-space vectors of a sector's basis, n x dim."""
    return dataclasses.replace(sector, vectors=np.eye(sector.dim)).unfold(np.arange(sector.dim))


@pytest.mark.parametrize("system", ["rotor", "periodic"])
def test_a_mixed_charge_whose_parts_share_entries_folds_as_their_sum(system):
    # the rotor's reversal has one fixed point, a periodic grid's reflection two
    if system == "rotor":
        _, t, h = ops.rotor_basis_operators(6, 1.0)
        parity = ops.LinearOperator(t.antilinear_matrix)
    else:
        grid = build_grid(np.pi, 14, "periodic")
        h, parity = ops.hamiltonian(grid, lambda x: 0.0), ops.parity_operator(grid)
    even, odd = numeric_spectrum(h, parity, h.dimension).sectors
    perm = even.perm
    rng = np.random.default_rng(5)
    n = len(perm)
    mask = rng.random((n, n)) < 0.5

    def odd_part():
        # m - P m P over 2 is bit-exactly odd under parity
        m = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) * mask
        return (m - m[np.ix_(perm, perm)]) / 2

    a, b = odd_part(), odd_part()  # one mask: the parts share their places
    assert np.count_nonzero((a != 0) & (b != 0)) > n
    charge = ops.MixedOperator(sp.csr_array(a), sp.csr_array(b))
    for block, source, target in zip(engine._fold_charge(charge, even, odd),
                                     (even, odd), (odd, even)):
        real, imag = block  # the nonzero real and the nonzero imaginary entries
        x = rng.standard_normal((source.dim, 3))
        # on real vectors A v + B conj(v) = (A + B) v
        reference = _sector_basis(target).T @ ((a + b) @ (_sector_basis(source) @ x))
        np.testing.assert_allclose(real @ x + 1j * (imag @ x), reference, rtol=0, atol=1e-13)


def _spy(monkeypatch, module, name, calls):
    real = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)


def test_fold_charge_reads_each_part_once_and_folds_once(monkeypatch, free_setup, rotor_setup):
    grid, p, par, h_spec, _ = free_setup
    lz, t, h = rotor_setup
    calls = []
    _spy(monkeypatch, engine, "_entries", calls)
    _spy(monkeypatch, engine, "_fold", calls)
    reversal = ops.LinearOperator(t.antilinear_matrix)
    for (g, s, hm, parity), parts in (((lz, t, h, reversal), {"Q": 1, "q": 2}),
                                      ((p, par, h_spec, par), {"Q": 1, "q": 1})):
        even, odd = numeric_spectrum(hm, parity, hm.dimension).sectors
        for charge, count in parts.items():
            charges = (ops.supercharge_Q(g, s, 1.0) if charge == "Q"
                       else ops.supercharge_q_pair(g, s, 1.0))
            for c in charges:
                calls.clear()
                engine._fold_charge(c.action, even, odd)
                assert calls == ["_entries"] * count + ["_fold"], charge


@pytest.mark.parametrize("model,charge,labels", [
    (FreeParticle(2 * np.pi), "Q", ["Q_eq3", "Q_eq3_adjoint"]),
    (FreeParticle(2 * np.pi), "q", ["q_eq4", "qdag_eq4"]),
    (PlanarRotor(1.0, 8), "Q", ["Q_eq7", "Q_eq7_adjoint"]),
    (PlanarRotor(1.0, 8), "q", ["q_rotor", "qdag_rotor"]),
])
def test_charge_labels_name_the_papers_equations(model, charge, labels):
    # parity (linear) gives eqs. 3 and 4, time reversal (antilinear) eq. 7 and the rotor pair
    report = build_check(model, charge, n_points=64)
    assert list(report.ground.annihilation_residuals) == labels


@pytest.mark.parametrize("charge", ["Q", "q"])
@pytest.mark.parametrize("model", [FreeParticle(2 * np.pi), PlanarRotor(1.0, 8)],
                         ids=["free", "rotor"])
def test_every_catalog_charge_set_is_a_labelled_pair(monkeypatch, model, charge):
    # build_check's charge set, as its constructor returns it, then with the
    # nilpotent_by_design flag of the first or the second charge flipped
    name = "supercharge_Q" if charge == "Q" else "supercharge_q_pair"
    make = getattr(ops, name)
    built, flip = [], []

    def spy(*args):
        charges = tuple(dataclasses.replace(c, nilpotent_by_design=not c.nilpotent_by_design)
                        if i in flip else c for i, c in enumerate(make(*args)))
        built.append(charges)
        return charges

    monkeypatch.setattr(ops, name, spy)
    report = build_check(model, charge, n_points=64)
    (charges,) = built
    assert type(charges) is tuple and len(charges) == 2
    assert all(isinstance(c, ops.Supercharge) for c in charges)
    assert [c.label for c in charges] == list(report.ground.annihilation_residuals)
    assert [c.nilpotent_by_design for c in charges] == [charge == "q"] * 2
    # the first charge's flag decides criterion 5; the second's is never read
    for flipped, nilpotent in (([0], charge != "q"), ([1], charge == "q")):
        flip[:] = flipped
        verdict = build_check(model, charge, n_points=64).verdicts[5]
        assert verdict.by_design_failure == (not nilpotent)
        assert verdict.satisfied == (nilpotent and charge == "q")


def test_model_operators_build_each_catalog_model():
    for model, grid, hamiltonian in (
            (ParticleInBox(2.0), build_grid(1.0, 63, "dirichlet"),
             lambda g: ops.hamiltonian(g, lambda x: 0.0)),
            (SecSquaredPartner(2.0), build_grid(1.0, 63, "dirichlet"),
             lambda g: ops.hamiltonian(g, sec_squared_potential(2.0))),
            (DeltaWell(1.5, 8.0), build_grid(4.0, 63, "dirichlet"),
             lambda g: ops.delta_well_hamiltonian(g, 1.5)),
            (FreeParticle(2.0), build_grid(1.0, 64, "periodic"),
             lambda g: ops.hamiltonian(g, lambda x: 0.0))):
        h, parity, built = engine.model_operators(model, grid.n_points)
        assert built == grid
        np.testing.assert_array_equal(h.to_dense(), hamiltonian(grid).to_dense())
        np.testing.assert_array_equal(parity.to_dense(), ops.parity_operator(grid).to_dense())
    # the rotor's basis has no grid, and its parity is the time reversal's matrix
    _, t, h_rotor = ops.rotor_basis_operators(4, 0.5)
    h, parity, grid = engine.model_operators(PlanarRotor(0.5, 4), None)
    assert grid is None
    np.testing.assert_array_equal(h.to_dense(), h_rotor.to_dense())
    np.testing.assert_array_equal(parity.to_dense(), t.antilinear_matrix.toarray())
    with pytest.raises(ParameterError, match="unsupported model"):
        engine.model_operators("box", 63)


def test_build_check_refuses_an_unknown_charge():
    with pytest.raises(ParameterError, match="charge must be 'Q' or 'q', got 'x'"):
        build_check(FreeParticle(2 * np.pi), "x", n_points=16)


def test_ground_state_check_refuses_an_empty_spectrum():
    empty = Spectrum(np.empty(0), np.empty(0, dtype=int))
    with pytest.raises(ParameterError, match="spectrum is empty"):
        ground_state_check(empty, charges=None)


def test_the_action_table_is_refused_on_a_dirichlet_grid():
    with pytest.raises(ParameterError, match="periodic grids"):
        eq5_action_table(build_grid(1.0, 11, "dirichlet"), [0.0])


def test_pair_invariance_without_pairs_is_zero_and_reads_no_vector():
    # a spectrum of energies alone refuses every vector read: none is made
    spec = _analytic_spectrum([0.0, 1.0, 2.0], ["even", "even", "odd"])
    grid = build_grid(np.pi, 8, "periodic")
    charges = ops.supercharge_Q(ops.momentum(grid), ops.parity_operator(grid), 1.0)
    pairing = engine.PairingMap(pairs=[], unpaired=[0, 1, 2])
    assert engine._pair_invariance(spec, pairing, charges) == 0.0


def test_pair_invariance_refuses_a_charge_with_a_non_finite_entry():
    grid = build_grid(np.pi, 64, "periodic")
    parity = ops.parity_operator(grid)
    spec = numeric_spectrum(ops.hamiltonian(grid, lambda x: 0.0), parity, grid.n_points)
    q, qdag = ops.supercharge_q_pair(ops.momentum(grid), parity, 1.0)
    bad = dataclasses.replace(q, action=ops.LinearOperator(_with_entry(q.action.linear_matrix,
                                                                          np.inf)))
    with pytest.raises(ParameterError, match="^the charge has a non-finite entry$"):
        engine._pair_invariance(spec, detect_pairing(spec), (bad, qdag))


def test_build_check_refuses_dirichlet_models():
    with pytest.raises(DirichletAlgebraError):
        build_check(ParticleInBox(np.pi), "Q")


def test_zero_point_reset_is_logged():
    report = build_check(FreeParticle(2 * np.pi), "Q", zero_point_reset=True)
    assert report.zero_point_reset
    assert report.energy_shift == report.ground.raw_energy
    assert report.ground.energy == 0.0
