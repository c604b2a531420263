import numpy as np
import pytest
from hypothesis import given, strategies as st

from susyqm.errors import ParameterError
from susyqm.grid import build_grid, parity_permutation


def test_dirichlet_three_points():
    g = build_grid(1.0, 3, "dirichlet")
    assert g.spacing == pytest.approx(0.5)
    np.testing.assert_allclose(g.points, [-0.5, 0.0, 0.5])


def test_periodic_four_points():
    g = build_grid(1.0, 4, "periodic")
    assert g.spacing == pytest.approx(0.5)
    np.testing.assert_allclose(g.points, [-1.0, -0.5, 0.0, 0.5])


def test_dirichlet_spacing_formula():
    g = build_grid(np.pi / 2, 2000, "dirichlet")
    assert g.spacing == pytest.approx(np.pi / 2001, rel=1e-15)


@pytest.mark.parametrize("half_width,n,boundary", [
    (0.0, 5, "dirichlet"),
    (-1.0, 5, "dirichlet"),
    (1.0, 2, "dirichlet"),
    (1.0, 5, "periodic"),  # odd periodic count
    (1.0, 5, "neumann"),
    (np.inf, 5, "dirichlet"),
    (np.nan, 5, "dirichlet"),
    (5e-301, 64, "periodic"),  # 1/h^2 overflows
    (1e300, 101, "dirichlet"),  # 1/h^2 underflows to zero
])
def test_build_grid_rejects_bad_parameters(half_width, n, boundary):
    with pytest.raises(ParameterError):
        build_grid(half_width, n, boundary)


def test_parity_permutation_dirichlet_is_reversal():
    g = build_grid(1.0, 5, "dirichlet")
    np.testing.assert_array_equal(parity_permutation(g), [4, 3, 2, 1, 0])


def test_parity_permutation_periodic_four_points():
    g = build_grid(1.0, 4, "periodic")
    # j = 0 maps to itself: -(-1) = 1 is -1 modulo the period 2
    np.testing.assert_array_equal(parity_permutation(g), [0, 3, 2, 1])


@given(st.floats(min_value=0.1, max_value=50.0),
       st.integers(min_value=3, max_value=200),
       st.sampled_from(["dirichlet", "periodic"]))
def test_parity_permutation_is_involution(half_width, n, boundary):
    if boundary == "periodic" and n % 2 == 1:
        n += 1
    g = build_grid(half_width, n, boundary)
    perm = parity_permutation(g)
    np.testing.assert_array_equal(perm[perm], np.arange(n))


@given(st.floats(min_value=0.1, max_value=50.0),
       st.integers(min_value=3, max_value=200))
def test_dirichlet_permutation_negates_points(half_width, n):
    g = build_grid(half_width, n, "dirichlet")
    perm = parity_permutation(g)
    np.testing.assert_array_equal(g.points[perm], -g.points)


@given(st.floats(min_value=0.1, max_value=50.0),
       st.integers(min_value=2, max_value=100))
def test_periodic_permutation_negates_points_mod_period(half_width, n_half):
    g = build_grid(half_width, 2 * n_half, "periodic")
    perm = parity_permutation(g)
    length = g.length
    diff = (g.points[perm] + g.points) % length
    diff = np.minimum(diff, length - diff)
    np.testing.assert_allclose(diff, 0.0, atol=1e-12 * length)


def test_zero_index():
    assert build_grid(1.0, 5, "dirichlet").zero_index == 2
    assert build_grid(1.0, 4, "dirichlet").zero_index is None
    g = build_grid(1.0, 4, "periodic")
    assert g.points[g.zero_index] == 0.0
