import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from susyqm.errors import ParameterError
from susyqm.grid import build_grid
from susyqm.models import (AnalyticState, box_energy, box_levels,
                           delta_well_bound_state, sec_squared_potential)
from susyqm import partner
from susyqm.partner import box_to_free_scan, partner_potential, superpotential


@pytest.fixture(scope="module")
def box_grid():
    return build_grid(np.pi / 2, 2001, "dirichlet")


@pytest.fixture(scope="module")
def box_ground():
    return box_levels(np.pi, 1)[0]


# ---------------------------------------------------------------------------
# superpotential

def test_box_ground_gives_tangent(box_grid, box_ground):
    # W = -psi0'/psi0 = (pi/L) tan(pi x / L) for psi0 = cos(pi x / L)
    w = superpotential(box_ground, box_grid)
    np.testing.assert_allclose(w, np.tan(box_grid.points), rtol=1e-12)


def test_delta_bound_gives_sign_step():
    grid = build_grid(5.0, 200, "dirichlet")  # even count: no x = 0 sample
    w = superpotential(delta_well_bound_state(1.7), grid)
    np.testing.assert_allclose(w, 1.7 * np.sign(grid.points), rtol=1e-12)


def test_scale_invariance_bit_for_bit(box_grid, box_ground):
    w_ref = superpotential(box_ground, box_grid)
    for c in (4.0, 0.125, 3.0):
        scaled = AnalyticState(
            energy=box_ground.energy, parity=box_ground.parity,
            evaluate=(lambda x, c=c: c * box_ground.evaluate(x)),
            derivative=(lambda x, c=c: c * box_ground.derivative(x)))
        w = superpotential(scaled, box_grid)
        if c in (4.0, 0.125):
            # power-of-two scaling is exact in binary floating point
            np.testing.assert_array_equal(w, w_ref)
        else:
            np.testing.assert_allclose(w, w_ref, rtol=1e-15)


def test_sampled_psi0_matches_analytic_away_from_walls(box_grid, box_ground):
    samples = box_ground.evaluate(box_grid.points)
    w = superpotential(samples, box_grid)
    exact = np.tan(box_grid.points)
    interior = np.abs(box_grid.points) < 0.9 * box_grid.half_width
    assert np.max(np.abs(w[interior] - exact[interior])) < 1e-3


def test_oracle_ground_state_through_sampled_superpotential():
    # psi0 from an independent solver on the box (0, 1); on the centered grid it is
    # cos(pi x), so W = pi tan(pi x). The central difference of exact samples gives
    # pi tan(pi x) sin(pi h) / (pi h), off by (pi h)^2 / 6 relative; the bound allows
    # twice that, plus 1e-8 for the oracle's own solver error (about 1e-12 in psi0)
    oracle = np.loadtxt(Path(__file__).parent / "data" / "box_eigenvectors_l1_n999.txt")
    grid = build_grid(0.5, 999, "dirichlet")
    w = superpotential(oracle[:, 1], grid)
    x, h = grid.points, grid.spacing
    exact = np.pi * np.tan(np.pi * x)
    away = np.abs(x) <= 0.45  # 50 cells or more from either wall
    bound = (np.pi * h) ** 2 / 3 * np.abs(exact[away]) + 1e-8
    assert np.all(np.abs(w[away] - exact[away]) <= bound)


def test_node_raises_with_location(box_grid):
    first_excited = box_levels(np.pi, 2)[1]  # sin has a node at x = 0
    with pytest.raises(ParameterError, match="node|vanishes"):
        superpotential(first_excited, box_grid)


def test_off_grid_node_reports_the_interval():
    grid = build_grid(np.pi / 2, 2000, "dirichlet")  # even count: node off-grid
    first_excited = box_levels(np.pi, 2)[1]
    with pytest.raises(ParameterError, match="node between"):
        superpotential(first_excited, grid)


def test_sample_count_mismatch(box_grid):
    with pytest.raises(ParameterError, match="sample count"):
        superpotential(np.ones(7), box_grid)


# ---------------------------------------------------------------------------
# partner potential

@pytest.fixture(scope="module")
def box_partner(box_grid, box_ground):
    return partner_potential(box_ground, box_ground.energy, box_grid)


def test_v_minus_is_sec_squared(box_grid, box_partner):
    v_exact = np.array([sec_squared_potential(np.pi)(x) for x in box_grid.points])
    dev = np.abs(box_partner.v_minus_samples - v_exact)[box_partner.wall_mask]
    assert np.max(dev) < 1e-6


def test_v_plus_round_trips_to_box(box_partner):
    # the original potential is zero inside the box
    assert np.max(np.abs(box_partner.v_plus_samples)) < 1e-9


def test_partner_misses_the_ground_level(box_partner):
    assert box_partner.spectrum_minus.eigenvalues[0] == pytest.approx(
        box_energy(np.pi, 2), rel=1e-4)


def test_partner_levels_pair_with_shifted_box(box_partner):
    assert max(box_partner.pair_deviations) < 1e-4


def test_partner_parities_interleave(box_partner):
    assert box_partner.spectrum_plus.parity_labels[:4] == ["even", "odd", "even", "odd"]
    assert box_partner.spectrum_minus.parity_labels[:4] == ["even", "odd", "even", "odd"]


def test_sampled_psi0_round_trip(box_grid, box_ground):
    samples = box_ground.evaluate(box_grid.points)
    result = partner_potential(samples, box_ground.energy, box_grid)
    interior = np.abs(box_grid.points) < 0.8 * box_grid.half_width
    assert np.max(np.abs(result.v_plus_samples[interior])) < 1e-3
    assert max(result.pair_deviations) < 1e-3


def test_partner_refuses_a_grid_with_no_points_off_the_wall_mask(box_ground):
    grid = build_grid(np.pi / 2, 6, "dirichlet")
    with pytest.raises(ParameterError, match="more than 6 grid points, got 6"):
        partner_potential(box_ground, box_ground.energy, grid)


def test_an_analytic_ground_state_without_a_derivative_is_refused(box_grid, box_ground):
    samples_only = AnalyticState(energy=box_ground.energy, parity=box_ground.parity,
                                 evaluate=box_ground.evaluate)
    with pytest.raises(ParameterError, match="needs evaluate and derivative"):
        superpotential(samples_only, box_grid)


def test_a_sampled_state_whose_square_overflows_is_refused_without_warnings():
    # W is about -2.5e301 at the sample of 1e-300: W^2 overflows, and the
    # finiteness check refuses V_minus with no numpy warning first
    grid = build_grid(1.0, 101, "dirichlet")
    samples = np.cos(grid.points)
    samples[50], samples[51] = 1e-300, 2.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match="partner potential is not finite"):
            partner_potential(samples, 0.5, grid)


def test_partner_refuses_periodic_grid(box_ground):
    grid = build_grid(np.pi / 2, 64, "periodic")
    with pytest.raises(ParameterError, match="Dirichlet"):
        partner_potential(box_ground, box_ground.energy, grid)


@settings(deadline=None, max_examples=10)
@given(st.floats(min_value=1.0, max_value=6.0))
def test_partner_energies_scale_with_length(length):
    grid = build_grid(length / 2, 801, "dirichlet")
    ground = box_levels(length, 1)[0]
    result = partner_potential(ground, ground.energy, grid, n_levels=3)
    np.testing.assert_allclose(result.spectrum_minus.eigenvalues,
                               [box_energy(length, n) for n in (2, 3, 4)], rtol=1e-3)


# ---------------------------------------------------------------------------
# widening-box scan

def test_scan_e1_scales_as_inverse_length_squared():
    rows = box_to_free_scan([4.0, 8.0, 16.0], 200.0, n_levels=4)
    assert rows[1].e1 / rows[0].e1 == pytest.approx(0.25, abs=1e-3)
    assert rows[2].e1 / rows[1].e1 == pytest.approx(0.25, abs=1e-3)
    for row in rows:
        assert row.e1_times_l_squared == pytest.approx(np.pi ** 2 / 2, rel=1e-3)


def test_scan_pairing_survives_widening():
    rows = box_to_free_scan([4.0, 8.0], 200.0, n_levels=4)
    assert all(row.pairs_matched == 4 for row in rows)
    assert all(row.worst_pair_deviation < 1e-4 for row in rows)


def test_scan_rejects_non_increasing_lengths():
    with pytest.raises(ParameterError, match="increasing"):
        box_to_free_scan([4.0, 4.0], 100.0)


def test_scan_refuses_a_length_with_fewer_points_than_its_levels():
    # a length of 1 at 1 point per unit length gets the 3-point minimum, where the
    # box must give n_levels + 1 = 5 levels
    message = "length 1.0 gets 3 grid points, fewer than the 5 box levels a scan of 4 levels needs"
    with pytest.raises(ParameterError, match=message):
        box_to_free_scan([1.0, 2.0], 1.0, n_levels=4)
    # the same grid is enough for 2 levels
    assert [row.n_points for row in box_to_free_scan([1.0, 2.0], 1.0, n_levels=2)] == [3, 3]


@pytest.mark.parametrize("lengths,per_length,message", [
    ([1e300, 2e300], 1e300,
     "length 1e+300 at 1e+300 points per unit length gives no finite, positive point count"),
    ([5e-324, 1.0], 1e300,
     "length 5e-324 is too small for a grid: its half width rounds to zero"),
], ids=["no-point-count", "half-underflows"])
def test_scan_refuses_a_first_length_in_its_own_words_before_any_grid(monkeypatch, lengths,
                                                                      per_length, message):
    def refuse(*args, **kwargs):
        raise AssertionError("the scan built a grid before refusing a length")

    monkeypatch.setattr(partner, "model_operators", refuse)
    with pytest.raises(ParameterError, match=re.escape(message)):
        box_to_free_scan(lengths, per_length, n_levels=2)
