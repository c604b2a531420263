import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from susyqm.engine import Spectrum, detect_pairing
from susyqm.errors import ParameterError
from susyqm.grid import build_grid
from susyqm.partner import box_to_free_scan
from susyqm import models


_ENERGIES_ONLY = Spectrum(np.array([0.0, 1.0, 1.0]), np.array([0, 0, 1]))


@pytest.mark.parametrize("name,make", [
    ("L", models.FreeParticle), ("L", models.ParticleInBox), ("L", models.SecSquaredPartner),
    ("lambda", lambda v: models.DeltaWell(v, 1.0)),
    ("L_box", lambda v: models.DeltaWell(1.0, v)),
    ("I", lambda v: models.PlanarRotor(v, 4)),
    ("lambda", models.delta_well_bound_state),
    ("half_width", lambda v: build_grid(v, 11, "dirichlet")),
    ("pair_tol", lambda v: detect_pairing(_ENERGIES_ONLY, v)),
    # before any length's point count, which a negative density would make
    # positive for a negative length
    ("points_per_length", lambda v: box_to_free_scan([-3.0, -2.0], v)),
])
@pytest.mark.parametrize("value", [0.0, -2.5, float("inf"), float("nan")])
def test_a_parameter_not_positive_and_finite_is_refused_with_one_message(name, make, value):
    with pytest.raises(ParameterError) as refused:
        make(value)
    assert str(refused.value) == f"{name} must be positive and finite, got {value!r}"


def test_length_models_share_one_validated_length():
    records = [cls(2.0) for cls in (models.FreeParticle, models.ParticleInBox,
                                    models.SecSquaredPartner)]
    assert [r.length for r in records] == [2.0] * 3
    assert records[0] != records[1]  # same length, different models
    assert records[0] == models.FreeParticle(2.0)


@pytest.mark.parametrize("boundary,n", [("dirichlet", 3), ("dirichlet", 4), ("dirichlet", 65),
                                        ("periodic", 4), ("periodic", 64)])
def test_three_point_levels_are_the_stencil_spectrum(boundary, n):
    grid = build_grid(1.7, n, boundary)
    inv_h2 = grid.spacing ** -2
    # the stencil -1/2 D2 itself, wrapped on a periodic grid; its ||.||_1 is 2 / h^2
    dense = inv_h2 * (np.eye(n) - 0.5 * (np.eye(n, k=1) + np.eye(n, k=-1)))
    if boundary == "periodic":
        dense[0, -1] = dense[-1, 0] = -0.5 * inv_h2
    levels = models.three_point_levels(grid)
    assert np.all(np.diff(levels) >= 0)
    np.testing.assert_allclose(levels, np.linalg.eigvalsh(dense), rtol=0,
                               atol=8 * np.finfo(float).eps * 2 * inv_h2)


def test_three_point_levels_are_accurate_relative_to_each_level():
    # 1 - cos(theta) would lose all but a few digits of the lowest levels here
    mpmath = pytest.importorskip("mpmath")
    grid = build_grid(0.5, 10 ** 6 - 1, "dirichlet")
    levels = models.three_point_levels(grid)
    with mpmath.workdps(40):
        for j in (1, 2, 3, 1000):
            exact = (1 - mpmath.cos(j * mpmath.pi / 10 ** 6)) / mpmath.mpf(grid.spacing) ** 2
            assert abs(levels[j - 1] - float(exact)) <= 4 * np.finfo(float).eps * levels[j - 1]


def test_box_energies_for_pi_length():
    levels = models.box_levels(np.pi, 4)
    np.testing.assert_allclose([s.energy for s in levels], [0.5, 2.0, 4.5, 8.0],
                               rtol=1e-14)


def test_box_ground_state_at_origin():
    ground = models.box_levels(np.pi, 1)[0]
    assert ground.evaluate(0.0) == 1.0


def test_box_parities_alternate():
    levels = models.box_levels(2.0, 5)
    assert [s.parity for s in levels] == ["even", "odd", "even", "odd", "even"]


def test_partner_lowest_two_energies():
    levels = models.sec_squared_partner_levels(np.pi, 3)
    np.testing.assert_allclose([s.energy for s in levels], [2.0, 4.5], rtol=1e-14)
    assert levels[0].parity == "even"
    assert levels[1].parity == "odd"


@pytest.mark.parametrize("n", [2, 3])
def test_partner_states_solve_schrodinger_symbolically(n):
    # independent oracle: differentiate the closed forms with sympy and
    # evaluate the Schrodinger residual pointwise away from the walls
    length = np.pi
    x = sympy.symbols("x")
    a = sympy.pi / length
    psi_expr = sympy.cos(a * x) ** 2 if n == 2 else sympy.cos(a * x) ** 2 * sympy.sin(a * x)
    v_expr = a ** 2 / sympy.cos(a * x) ** 2
    energy = models.box_energy(length, n)
    resid_expr = -sympy.Rational(1, 2) * sympy.diff(psi_expr, x, 2) + v_expr * psi_expr \
        - energy * psi_expr
    resid = sympy.lambdify(x, resid_expr, "numpy")
    xs = np.linspace(-length / 2 * 0.98, length / 2 * 0.98, 301)
    assert np.max(np.abs(resid(xs))) < 1e-8


@pytest.mark.parametrize("state,potential,h", [
    (models.box_levels(np.pi, 3)[2], lambda x: 0.0, 1e-3),
    (models.sec_squared_partner_levels(np.pi, 2)[0],
     models.sec_squared_potential(np.pi), 1e-3),
])
def test_catalog_states_have_small_fd_residual(state, potential, h):
    xs = np.linspace(-np.pi / 2 * 0.9, np.pi / 2 * 0.9, 101)
    psi = state.evaluate
    lap = (psi(xs + h) - 2 * psi(xs) + psi(xs - h)) / h ** 2
    v = np.array([potential(xi) for xi in xs])
    resid = -0.5 * lap + v * psi(xs) - state.energy * psi(xs)
    assert np.max(np.abs(resid)) / abs(state.energy) < 1e-6


def test_delta_bound_state_values():
    bound = models.delta_well_bound_state(1.0)
    assert bound.energy == pytest.approx(-0.5)
    assert bound.evaluate(0.0) == pytest.approx(1.0)
    assert bound.parity == "even"


def test_delta_bound_state_fd_residual_away_from_kink():
    bound = models.delta_well_bound_state(1.3)
    xs = np.linspace(0.5, 4.0, 50)
    h = 1e-4
    psi = bound.evaluate
    lap = (psi(xs + h) - 2 * psi(xs) + psi(xs - h)) / h ** 2
    resid = -0.5 * lap - bound.energy * psi(xs)
    assert np.max(np.abs(resid)) < 1e-6


def test_even_continuum_reduces_to_cos_as_coupling_vanishes():
    k = 1.7
    xs = np.linspace(-5, 5, 101)
    state = models.delta_well_even_continuum(1e-14, k)
    np.testing.assert_allclose(state.evaluate(xs), np.cos(k * xs), atol=1e-12)


def test_even_continuum_vanishes_linearly_at_small_k():
    # on a fixed window the amplitude scales linearly with k
    xs = np.linspace(-1, 1, 201)
    amp = [np.max(np.abs(models.delta_well_even_continuum(1.0, k).evaluate(xs)))
           for k in (1e-3, 5e-4)]
    assert amp[0] <= 2e-3
    assert amp[1] / amp[0] == pytest.approx(0.5, rel=1e-2)


@pytest.mark.parametrize("lam,k", [(1.0, 1.0), (0.5, 2.3), (3.0, 0.1), (1e-3, 7.0)])
def test_jump_condition_residual_is_exactly_zero(lam, k):
    assert models.jump_condition_residual(lam, k) == 0.0


def test_jump_condition_zero_coupling():
    assert models.jump_condition_residual(0.0, 2.0) == 0.0


def test_even_continuum_orthogonal_to_bound_state():
    lam, k = 1.0, 1.4
    bound = models.delta_well_bound_state(lam)
    cont = models.delta_well_even_continuum(lam, k)

    def overlap(cut):
        val, _ = quad(lambda x: bound.evaluate(x) * cont.evaluate(x), -cut, cut, limit=200)
        return abs(val)

    vals = [overlap(c) for c in (5.0, 10.0, 20.0)]
    assert vals[1] < vals[0]
    assert vals[2] < 1e-6


def test_delta_well_states_counts():
    bound, even, odd = models.delta_well_states(1.0, [0.0, 1.0, 2.0])
    assert len(even) == 2 and len(odd) == 2  # k = 0 absent in both sectors
    assert bound.energy < 0


def test_free_particle_standing_k0_single_even_state():
    states = models.free_particle_states("standing", [0.0])
    assert len(states) == 1
    assert states[0].parity == "even"


def test_free_particle_traveling_k0_single_state():
    assert len(models.free_particle_states("traveling", [0.0])) == 1


def test_free_particle_traveling_positive_k_gives_two_waves_of_no_parity():
    k = 1.5
    forward, backward = models.free_particle_states("traveling", [k])
    assert (forward.label, backward.label) == ("exp(+ik x) k=1.5", "exp(-ik x) k=1.5")
    assert forward.energy == backward.energy == 0.5 * k ** 2
    assert forward.parity == backward.parity == models.NO_PARITY
    x = np.linspace(-3.0, 3.0, 13)
    np.testing.assert_array_equal(backward.evaluate(x), np.exp(-1j * k * x))
    # each wave is the other's mirror image, and together they span the standing pair
    np.testing.assert_array_equal(backward.evaluate(x), forward.evaluate(-x))
    cos, sin = models.free_particle_states("standing", [k])
    np.testing.assert_allclose((forward.evaluate(x) + backward.evaluate(x)) / 2,
                               cos.evaluate(x), rtol=0, atol=1e-15)
    np.testing.assert_allclose((forward.evaluate(x) - backward.evaluate(x)) / 2j,
                               sin.evaluate(x), rtol=0, atol=1e-15)


def test_free_particle_positive_k_pairs():
    states = models.free_particle_states("standing", [1.0])
    assert len(states) == 2
    assert {s.parity for s in states} == {"even", "odd"}
    assert all(s.energy == pytest.approx(0.5) for s in states)


def test_rotor_state_energies():
    states = models.rotor_states(1.0, 1)
    np.testing.assert_allclose(sorted(s.energy for s in states), [0.0, 0.5, 0.5])


def test_rotor_unique_zero_energy_state():
    states = models.rotor_states(2.0, 5)
    zero = [s for s in states if s.energy == 0.0]
    assert len(zero) == 1
    assert zero[0].label == "rotor m=0"


def test_rotor_energy_symmetric_in_m():
    states = {s.label: s.energy for s in models.rotor_states(1.5, 4)}
    for m in range(1, 5):
        assert states[f"rotor m={m}"] == states[f"rotor m={-m}"]


@settings(deadline=None, max_examples=25)
@given(st.floats(min_value=0.05, max_value=8.0), st.integers(min_value=1, max_value=6))
def test_parity_labels_match_samples(x, n):
    for state in models.box_levels(np.pi, n) + [models.delta_well_bound_state(1.0)]:
        if state.parity == "even":
            assert state.evaluate(-x) == pytest.approx(state.evaluate(x), abs=1e-12)
        elif state.parity == "odd":
            assert state.evaluate(-x) == pytest.approx(-state.evaluate(x), abs=1e-12)


@pytest.mark.parametrize("call,message", [
    (lambda: models.box_levels(1.0, 0), "n_max must be at least 1, got 0"),
    (lambda: models.sec_squared_partner_levels(1.0, 1), "n_max must be at least 2, got 1"),
    (lambda: models.free_particle_states("bogus", [1.0]), "unknown representation 'bogus'"),
    (lambda: models.rotor_states(1.0, -1), "m_max must be non-negative, got -1"),
])
def test_catalog_refuses_a_level_count_or_representation_it_has_no_states_for(call, message):
    with pytest.raises(ParameterError, match=message):
        call()


def test_negative_wavenumber_rejected():
    with pytest.raises(ParameterError):
        models.free_particle_states("standing", [-1.0])
    with pytest.raises(ParameterError):
        models.delta_well_states(1.0, [-0.5])
