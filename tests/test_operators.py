import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import susyqm.operators as ops
from susyqm.engine import numeric_spectrum
from susyqm.errors import NumericalContractError, ParameterError, PotentialEvaluationError
from susyqm.grid import build_grid
from susyqm.models import box_levels, sec_squared_potential
from susyqm.partner import partner_potential


@pytest.fixture(scope="module")
def periodic_grid():
    return build_grid(np.pi, 64, "periodic")


def fro(op):
    return ops.frobenius_norm(op)


# ---------------------------------------------------------------------------
# second derivative

def test_second_derivative_plane_wave_eigenvalue(periodic_grid):
    # substituting exp(ikx) into the stencil gives -(2/h^2)(1 - cos kh)
    g = periodic_grid
    d2 = ops.second_derivative(g)
    k = 2 * np.pi * 3 / g.length
    wave = np.exp(1j * k * g.points)
    expected = -(2.0 / g.spacing ** 2) * (1.0 - np.cos(k * g.spacing))
    np.testing.assert_allclose(d2.apply(wave), expected * wave, atol=1e-10)


def test_second_derivative_kills_constant(periodic_grid):
    d2 = ops.second_derivative(periodic_grid)
    np.testing.assert_allclose(d2.apply(np.ones(periodic_grid.n_points)), 0.0, atol=1e-12)


def test_second_derivative_dirichlet_three_points():
    g = build_grid(1.0, 3, "dirichlet")  # h = 0.5
    m = ops.second_derivative(g).to_dense()
    np.testing.assert_allclose(m, [[-8, 4, 0], [4, -8, 4], [0, 4, -8]])


# ---------------------------------------------------------------------------
# momentum

def test_momentum_plane_wave_eigenvalue(periodic_grid):
    g = periodic_grid
    p = ops.momentum(g)
    k = 2 * np.pi * 5 / g.length
    wave = np.exp(1j * k * g.points)
    np.testing.assert_allclose(p.apply(wave), (np.sin(k * g.spacing) / g.spacing) * wave,
                               atol=1e-10)


def test_momentum_kills_constant(periodic_grid):
    p = ops.momentum(periodic_grid)
    np.testing.assert_allclose(p.apply(np.ones(periodic_grid.n_points)), 0.0, atol=1e-14)


def test_momentum_exactly_hermitian_on_periodic(periodic_grid):
    m = ops.momentum(periodic_grid).to_dense()
    assert np.max(np.abs(m - m.conj().T)) == 0.0


# ---------------------------------------------------------------------------
# parity

def test_parity_preserves_cos_negates_sin(periodic_grid):
    g = periodic_grid
    par = ops.parity_operator(g)
    k = 2 * np.pi * 2 / g.length
    c, s = np.cos(k * g.points), np.sin(k * g.points)
    np.testing.assert_allclose(par.apply(c), c, atol=1e-12)
    np.testing.assert_allclose(par.apply(s), -s, atol=1e-12)


def test_parity_squares_to_identity_exactly(periodic_grid):
    p2 = ops.compose(ops.parity_operator(periodic_grid), ops.parity_operator(periodic_grid))
    assert np.array_equal(p2.to_dense(), np.eye(periodic_grid.n_points))


# ---------------------------------------------------------------------------
# Hamiltonians

def test_constant_potential_shifts_spectrum():
    g = build_grid(np.pi, 32, "periodic")
    h0 = np.linalg.eigvalsh(ops.hamiltonian(g, lambda x: 0.0).to_dense())
    hc = np.linalg.eigvalsh(ops.hamiltonian(g, lambda x: 3.25).to_dense())
    np.testing.assert_allclose(hc, h0 + 3.25, atol=1e-10)


def test_hamiltonian_rejects_nonfinite_potential():
    g = build_grid(1.0, 5, "dirichlet")
    with pytest.raises(PotentialEvaluationError) as err:
        ops.hamiltonian(g, lambda x: np.where(x == 0, np.inf, 0.0))
    assert "0.0" in str(err.value)


@settings(deadline=None, max_examples=60)
@given(length=st.floats(min_value=1e-3, max_value=1e3),
       n_points=st.integers(min_value=3, max_value=4000))
def test_array_evaluated_sec_squared_hamiltonian_stays_even(length, n_points):
    # the potential is evaluated once on the whole point array; the values at
    # x and -x must still agree bit for bit, or the sector solve refuses H
    grid = build_grid(length / 2.0, n_points, "dirichlet")
    h = ops.hamiltonian(grid, sec_squared_potential(length))
    d = h.linear_matrix.diagonal()
    np.testing.assert_array_equal(d, d[::-1])
    numeric_spectrum(h, ops.parity_operator(grid), 1)


def test_delta_well_zero_coupling_is_free():
    g = build_grid(5.0, 101, "dirichlet")
    free = ops.hamiltonian(g, lambda x: 0.0)
    well = ops.delta_well_hamiltonian(g, 0.0)
    np.testing.assert_array_equal(well.to_dense(), free.to_dense())


def _band_hamiltonian(grid, diag_shift):
    """-1/2 second_derivative's bands plus a diagonal, assembled by scipy: the reference.

    Built from (row, column, value) triplets, so an entry that sums to an
    exact zero stays stored, as in the stencil.
    """
    d2 = ops.second_derivative(grid).linear_matrix
    e, d = -0.5 * d2.diagonal(1), -0.5 * d2.diagonal()
    j = np.arange(grid.n_points)
    rows, cols = np.r_[j[1:], j, j[:-1]], np.r_[j[:-1], j, j[1:]]
    return sp.coo_array((np.r_[e, d + diag_shift, e], (rows, cols)),
                        shape=(len(j), len(j))).tocsr()


def _assert_same_csr(op, ref):
    a = op.linear_matrix
    # scipy picks its own index dtype for the reference, so indices compare by value
    assert np.array_equal(a.indptr, ref.indptr) and np.array_equal(a.indices, ref.indices)
    assert a.data.dtype == ref.data.dtype == np.float64
    assert a.data.tobytes() == ref.data.tobytes()


@pytest.mark.parametrize("n_points,length", [
    (7, 1e-3), (101, 1.0), (2001, np.pi), (4001, 40.0), (100001, 5.3), (999, 1e3)])
def test_sampled_hamiltonians_match_the_band_construction(n_points, length):
    # the partner's H_+ and H_- and the delta well, from ops.hamiltonian with
    # samples, are the band construction -1/2 D2 + V bit for bit; at n = 999,
    # L = 1e3 (h = 1) the well's lambda = 1 puts an exact zero on the diagonal
    grid = build_grid(length / 2.0, n_points, "dirichlet")
    ground = box_levels(length, 1)[0]
    result = partner_potential(ground, ground.energy, grid, n_levels=2)
    for v in (result.v_plus_samples, result.v_minus_samples):
        _assert_same_csr(ops.hamiltonian(grid, v), _band_hamiltonian(grid, v))
    for lam in (0.0, 0.37, 1.0, 1e3):
        shift = np.zeros(n_points)
        shift[grid.zero_index] -= lam / grid.spacing
        _assert_same_csr(ops.delta_well_hamiltonian(grid, lam), _band_hamiltonian(grid, shift))


def test_delta_well_requires_zero_point():
    g = build_grid(5.0, 100, "dirichlet")  # even count, no x = 0 point
    with pytest.raises(ParameterError, match="odd"):
        ops.delta_well_hamiltonian(g, 1.0)


@pytest.mark.parametrize("call,message", [
    (lambda: ops.MixedOperator(None, None), "an operator needs at least one part"),
    (lambda: ops.rotor_basis_operators(2, 1.0)[1].to_dense(),
     "an operator with an antilinear part has no complex matrix"),
    (lambda: ops.delta_well_hamiltonian(build_grid(5.0, 101, "dirichlet"), -1.0),
     "delta-well coupling must be non-negative, got -1.0"),
    (lambda: ops.delta_well_hamiltonian(build_grid(5.0, 100, "periodic"), 1.0),
     "delta well is discretized on a Dirichlet grid"),
])
def test_an_operator_that_cannot_be_built_or_densified_is_refused(call, message):
    with pytest.raises(ParameterError, match=message):
        call()


# ---------------------------------------------------------------------------
# supercharges on the periodic grid

def test_Q_maps_cos_to_sin(periodic_grid):
    g = periodic_grid
    q, _ = ops.supercharge_Q(ops.momentum(g), ops.parity_operator(g), 1.0)
    k = 2 * np.pi * 2 / g.length
    c, s = np.cos(k * g.points), np.sin(k * g.points)
    # Q cos(kx) = (ik/sqrt(2)) sin(kx) up to O(h^2)
    err = np.linalg.norm(q.apply(c) - (1j * k / np.sqrt(2)) * s) / np.linalg.norm(k * s)
    assert err < (k * g.spacing) ** 2


def test_Q_annihilates_constant(periodic_grid):
    q, _ = ops.supercharge_Q(ops.momentum(periodic_grid),
                             ops.parity_operator(periodic_grid), 1.0)
    assert np.linalg.norm(q.apply(np.ones(periodic_grid.n_points))) < 1e-13


def test_Q_squared_is_minus_free_hamiltonian(periodic_grid):
    g = periodic_grid
    p = ops.momentum(g)
    q, _ = ops.supercharge_Q(p, ops.parity_operator(g), 1.0)
    h = ops.momentum_squared_hamiltonian(p, 1.0)
    resid = fro(ops.add(ops.compose(q.action, q.action), h)) / fro(h)
    assert resid < 1e-13


def test_q_pair_actions_match_dispersion(periodic_grid):
    g = periodic_grid
    q, qdag = ops.supercharge_q_pair(ops.momentum(g), ops.parity_operator(g), 1.0)
    k = 2 * np.pi * 4 / g.length
    kd = np.sin(k * g.spacing) / g.spacing
    c, s = np.cos(k * g.points), np.sin(k * g.points)
    scale = kd * np.linalg.norm(c)
    assert np.linalg.norm(q.apply(c) - 1j * kd * s) / scale < 1e-13
    assert np.linalg.norm(q.apply(s)) / scale < 1e-13
    assert np.linalg.norm(qdag.apply(s) + 1j * kd * c) / scale < 1e-13
    assert np.linalg.norm(qdag.apply(c)) / scale < 1e-13


@pytest.mark.parametrize("model", ["free", "rotor"])
def test_Q_comes_with_its_negation_as_its_labelled_adjoint(periodic_grid, model):
    if model == "free":
        g, s = ops.momentum(periodic_grid), ops.parity_operator(periodic_grid)
    else:
        g, s, _ = ops.rotor_basis_operators(4, 1.0)
    q, qdag = ops.supercharge_Q(g, s, 1.0)
    assert qdag.label == q.label + "_adjoint"
    assert not q.nilpotent_by_design and not qdag.nilpotent_by_design
    assert fro(ops.add(q.action, qdag.action)) == 0.0
    assert fro(ops.subtract(q.action.adjoint(), qdag.action)) <= 1e-15 * fro(q.action)


def test_q_pair_are_adjoints(periodic_grid):
    q, qdag = ops.supercharge_q_pair(ops.momentum(periodic_grid),
                                     ops.parity_operator(periodic_grid), 1.0)
    assert fro(ops.subtract(q.action.adjoint(), qdag.action)) == 0.0


def test_parity_anticommutes_with_momentum(periodic_grid):
    p = ops.momentum(periodic_grid)
    par = ops.parity_operator(periodic_grid)
    anti = ops.anticommutator(par, p)
    assert fro(anti) / fro(p) < 1e-15


def test_supercharge_dimension_mismatch():
    g1 = build_grid(np.pi, 16, "periodic")
    g2 = build_grid(np.pi, 32, "periodic")
    with pytest.raises(ParameterError, match="mismatch"):
        ops.supercharge_Q(ops.momentum(g1), ops.parity_operator(g2), 1.0)


@pytest.mark.parametrize("model", ["free", "rotor"])
def test_supercharge_Q_refuses_an_involution_that_commutes_with_the_generator(
        periodic_grid, model):
    # s = 1 on the grid, or plain complex conjugation of the m coefficients on
    # the rotor: either commutes with G, so G s / sqrt(2) has adjoint +Q, not -Q
    if model == "free":
        g, label = ops.momentum(periodic_grid), "Q_eq3"
        s = ops.from_permutation(np.arange(periodic_grid.n_points))
    else:
        g, _, _ = ops.rotor_basis_operators(3, 1.0)
        label = "Q_eq7"
        s = ops.AntilinearOperator(ops.from_permutation(np.arange(7)))
    with pytest.raises(NumericalContractError, match=label):
        ops.supercharge_Q(g, s, 1.0)


@pytest.mark.parametrize("values", [
    np.arange(-3.0, 4.0),
    np.array([0.0, -0.0, 2.5, 0.0, -1.0]),
    np.zeros(5),
    np.array([7.0]),
    np.array([-0.0]),
    np.array([1.0 - 2.0j, 0.0, 3.0j]),
], ids=["range", "signed_zeros", "all_zero", "single", "single_zero", "complex"])
def test_from_diagonal_matches_diags_array(values):
    built = ops.from_diagonal(values).linear_matrix
    reference = sp.diags_array(values, format="csr")
    assert built.shape == reference.shape and built.data.dtype == reference.data.dtype
    for field in ("data", "indices", "indptr"):
        np.testing.assert_array_equal(getattr(built, field), getattr(reference, field))
    assert built.indices.dtype == built.indptr.dtype == np.int32


def test_combine_takes_a_part_of_y_alone_as_is_or_exactly_negated():
    g = ops.LinearOperator(sp.csr_array(np.array([[0.0, 2.0], [1.0, 0.0]])))
    y = ops.AntilinearOperator(ops.LinearOperator(sp.csr_array(
        np.array([[0.0, -2.0j], [complex(-0.0, 1.0), 0.0]]))))
    b = y.antilinear_matrix
    assert ops.add(g, y).antilinear_matrix is b
    neg = ops.subtract(g, y).antilinear_matrix
    # -v, with every zero part's sign flipped too (-1.0 * v would not flip them all)
    np.testing.assert_array_equal(np.signbit(neg.data.real), ~np.signbit(b.data.real))
    np.testing.assert_array_equal(neg.data, -b.data)


# ---------------------------------------------------------------------------
# rotor basis

# which parts an operator has, (linear, antilinear): the kind of the map
LINEAR, ANTILINEAR = (True, False), (False, True)


def _parts(op) -> tuple[bool, bool]:
    return op.linear_matrix is not None, op.antilinear_matrix is not None


def test_rotor_hamiltonian_eigenvalues():
    _, _, h = ops.rotor_basis_operators(2, 1.0)
    np.testing.assert_allclose(sorted(np.diag(h.to_dense())), [0, 0.5, 0.5, 2, 2])


def test_time_reversal_squares_to_identity():
    _, t, _ = ops.rotor_basis_operators(3, 1.0)
    tt = ops.compose(t, t)
    assert _parts(tt) == LINEAR
    np.testing.assert_array_equal(tt.to_dense(), np.eye(7))


def test_lz_is_diagonal_in_m():
    lz, _, _ = ops.rotor_basis_operators(4, 1.0)
    v = np.zeros(9)
    v[-1] = 1.0  # m = +4 basis vector
    np.testing.assert_allclose(lz.apply(v), 4.0 * v)


def test_rotor_supercharge_flips_m():
    lz, t, _ = ops.rotor_basis_operators(4, 1.0)
    q, _ = ops.supercharge_Q(lz, t, 1.0)
    v = np.zeros(9, dtype=complex)
    v[4 + 3] = 1.0  # m = 3
    out = q.apply(v)
    expected = np.zeros(9, dtype=complex)
    expected[4 - 3] = -3.0 / np.sqrt(2)  # lands on m = -3
    np.testing.assert_allclose(out, expected, atol=1e-15)


def test_rotor_supercharge_annihilates_m0():
    lz, t, _ = ops.rotor_basis_operators(2, 1.0)
    q, _ = ops.supercharge_Q(lz, t, 1.0)
    v = np.zeros(5, dtype=complex)
    v[2] = 1.0
    assert np.linalg.norm(q.apply(v)) == 0.0


def test_rotor_minus_q_squared_is_hamiltonian():
    lz, t, h = ops.rotor_basis_operators(5, 2.0)
    q, _ = ops.supercharge_Q(lz, t, 2.0)
    qq = ops.compose(q.action, q.action)
    assert _parts(qq) == LINEAR
    np.testing.assert_allclose(-qq.to_dense(), h.to_dense(), atol=1e-15)


def test_rotor_nilpotent_pair_squares_to_zero():
    lz, t, _ = ops.rotor_basis_operators(4, 1.0)
    q, qdag = ops.supercharge_q_pair(lz, t, 1.0)
    assert fro(ops.compose(q.action, q.action)) < 1e-15
    assert fro(ops.compose(qdag.action, qdag.action)) < 1e-15


@settings(deadline=None)
@given(st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False),
       st.integers(min_value=1, max_value=6))
def test_antilinearity(alpha, m_max):
    _, t, _ = ops.rotor_basis_operators(m_max, 1.0)
    rng = np.random.default_rng(m_max)
    v = rng.standard_normal(2 * m_max + 1) + 1j * rng.standard_normal(2 * m_max + 1)
    np.testing.assert_allclose(t.apply(alpha * v), np.conj(alpha) * t.apply(v), atol=1e-12)


# ---------------------------------------------------------------------------
# generic algebra

def test_commutator_with_self_is_zero(periodic_grid):
    p = ops.momentum(periodic_grid)
    assert fro(ops.commutator(p, p)) == 0.0


def test_compose_antilinear_with_linear_kinds():
    lz, t, _ = ops.rotor_basis_operators(2, 1.0)
    assert _parts(ops.compose(t, lz)) == ANTILINEAR
    assert _parts(ops.compose(lz, t)) == ANTILINEAR
    assert _parts(ops.compose(t, t)) == LINEAR


def test_antilinear_composition_conjugates():
    # (T . A)(v) = conj(A) T(v) for linear A: check on a complex diagonal
    n = 5
    reversal = ops.from_permutation(np.arange(n)[::-1])
    t = ops.AntilinearOperator(reversal)
    a = ops.LinearOperator(np.diag(1j * np.arange(1, n + 1)))
    rng = np.random.default_rng(0)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    np.testing.assert_allclose(ops.compose(t, a).apply(v), t.apply(a.apply(v)), atol=1e-12)
    np.testing.assert_allclose(ops.compose(a, t).apply(v), a.apply(t.apply(v)), atol=1e-12)


# ---------------------------------------------------------------------------
# sparse storage against a dense reference

def _random_part(rng, n):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return m * (rng.random((n, n)) < 0.5)


def _random_operator(rng, n, kind):
    """(operator, dense A or None, dense B or None) for v -> A v + B conj(v)."""
    a = _random_part(rng, n) if kind in ("linear", "mixed") else None
    b = _random_part(rng, n) if kind in ("antilinear", "mixed") else None
    if kind == "linear":
        return ops.LinearOperator(a), a, b
    if kind == "antilinear":
        return ops.AntilinearOperator(ops.LinearOperator(b)), a, b
    return ops.MixedOperator(a, b), a, b


def _dense_apply(a, b, v):
    out = np.zeros(len(v), dtype=complex)
    if a is not None:
        out += a @ v
    if b is not None:
        out += b @ np.conj(v)
    return out


_KINDS = st.sampled_from(["linear", "antilinear", "mixed"])


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6), _KINDS, _KINDS,
       st.floats(-3.0, 3.0, allow_nan=False))
def test_sparse_algebra_matches_dense_reference(seed, n, kind_x, kind_y, c):
    rng = np.random.default_rng(seed)
    x, xa, xb = _random_operator(rng, n, kind_x)
    y, ya, yb = _random_operator(rng, n, kind_y)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    w = rng.standard_normal(n) + 1j * rng.standard_normal(n)

    def close(op, expected):
        np.testing.assert_allclose(op.apply(v), expected, atol=1e-12)

    close(x, _dense_apply(xa, xb, v))
    # an antilinear factor conjugates every matrix to its right
    zero = np.zeros((n, n))
    xa0, xb0, ya0, yb0 = (zero if m is None else m for m in (xa, xb, ya, yb))
    ca = xa0 @ ya0 + xb0 @ np.conj(yb0)
    cb = xa0 @ yb0 + xb0 @ np.conj(ya0)
    xy = ops.compose(x, y)
    close(xy, _dense_apply(ca, cb, v))
    close(xy, x.apply(y.apply(v)))
    # a product has a linear part where two factors' parts of one kind meet, and an
    # antilinear part where parts of different kinds meet
    lin_x, anti_x, lin_y, anti_y = (m is not None for m in (xa, xb, ya, yb))
    assert _parts(xy) == ((lin_x and lin_y) or (anti_x and anti_y),
                          (lin_x and anti_y) or (anti_x and lin_y))
    close(ops.add(x, y), x.apply(v) + y.apply(v))
    close(ops.subtract(x, y), x.apply(v) - y.apply(v))
    close(ops.scale(x, c), c * x.apply(v))
    # the real-linear adjoint: Re<w, X v> = Re<X^+ w, v>
    lhs = np.vdot(w, x.apply(v)).real
    rhs = np.vdot(x.adjoint().apply(w), v).real
    assert lhs == pytest.approx(rhs, abs=1e-10)
    expected_norm = np.sqrt(sum(np.sum(np.abs(m) ** 2) for m in (xa, xb) if m is not None))
    assert fro(x) == pytest.approx(expected_norm, rel=1e-12, abs=1e-300)


def test_q_pair_algebra_at_two_to_the_sixteen_points():
    from susyqm.engine import MACHINE_TOL, algebra_residuals

    g = build_grid(np.pi, 2 ** 16, "periodic")
    p = ops.momentum(g)
    pair = ops.supercharge_q_pair(p, ops.parity_operator(g), 1.0)
    res = algebra_residuals(ops.momentum_squared_hamiltonian(p, 1.0), pair)
    worst = max(res.comm_HQ, res.comm_HQdag, res.anticomm_minus_H,
                res.nilpotency_q, res.nilpotency_qdag, res.closure)
    assert worst <= MACHINE_TOL
