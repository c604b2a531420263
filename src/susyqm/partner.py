"""Superpotential and partner potential from a nodeless ground state.

W = -psi0'/psi0 and V_minus = (W^2 + W')/2 + E0, with the round trip
V_plus = (W^2 - W')/2 + E0 reproducing the input potential. For the
particle in a box this yields the sec^2 partner sharing every eigenvalue
except the missing ground level.

Eigenvalues are kept unshifted: E0 is added back explicitly instead of
resetting the partner ground to zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import operators as ops
from .engine import Spectrum, model_operators, numeric_spectrum
from .errors import ParameterError, require_positive
from .grid import DIRICHLET, MAX_POINTS, Grid1D
from .models import AnalyticState, ParticleInBox, SecSquaredPartner

WALL_MASK_CELLS = 3  # V_minus residuals are not meaningful within 3h of a wall


def superpotential(psi0, grid: Grid1D) -> np.ndarray:
    """W = -psi0'/psi0 sampled on the grid; scale invariant in psi0.

    psi0 may be an AnalyticState carrying a derivative closure (exact
    differentiation) or an array of samples (central differences, with
    one-sided stencils at the first and last interior points).
    """
    x = grid.points
    if isinstance(psi0, AnalyticState):
        if psi0.evaluate is None or psi0.derivative is None:
            raise ParameterError("analytic ground state needs evaluate and derivative")
        vals = np.asarray(psi0.evaluate(x), dtype=float)
        _require_nodeless(vals, x)
        return -np.asarray(psi0.derivative(x), dtype=float) / vals
    vals = np.asarray(psi0, dtype=float)
    if len(vals) != grid.n_points:
        raise ParameterError("sample count does not match the grid")
    _require_nodeless(vals, x)
    return -np.gradient(vals, grid.spacing, edge_order=1) / vals


def _require_nodeless(vals: np.ndarray, x: np.ndarray):
    sign_change = np.flatnonzero(vals[:-1] * vals[1:] < 0)
    if sign_change.size:
        j = int(sign_change[0])
        raise ParameterError(
            f"ground state has a node between x = {x[j]:.6g} and x = {x[j + 1]:.6g}; "
            "the superpotential needs a nodeless state")
    if np.any(vals == 0.0):
        j = int(np.flatnonzero(vals == 0.0)[0])
        raise ParameterError(f"ground state vanishes at the grid point x = {x[j]:.6g}")


@dataclass
class PartnerResult:
    w_samples: np.ndarray
    v_minus_samples: np.ndarray
    v_plus_samples: np.ndarray
    e0: float
    spectrum_plus: Spectrum  # energies only: reading a vector is refused
    spectrum_minus: Spectrum
    pair_deviations: list[float]  # |E_minus[n] - E_plus[n+1]| / E_plus[n+1]
    wall_mask: np.ndarray  # True where V_minus residual checks are meaningful


def partner_potential(psi0, e0: float, grid: Grid1D, *,
                      n_levels: int = 8) -> PartnerResult:
    """Construct W, V_minus, V_plus and diagonalize both partners on the grid.

    For analytic input with a second-derivative closure, W' is taken
    exactly as -psi0''/psi0 + W^2; sampled input falls back to central
    differences of W.
    """
    if grid.boundary != DIRICHLET:
        raise ParameterError("partner construction expects a Dirichlet grid")
    if grid.n_points <= 2 * WALL_MASK_CELLS:
        raise ParameterError(
            f"partner construction needs more than {2 * WALL_MASK_CELLS} grid points, "
            f"got {grid.n_points}")
    x = grid.points
    w = superpotential(psi0, grid)
    if isinstance(psi0, AnalyticState) and psi0.second_derivative is not None:
        vals = np.asarray(psi0.evaluate(x), dtype=float)
        wprime = -np.asarray(psi0.second_derivative(x), dtype=float) / vals + w ** 2
    else:
        wprime = np.gradient(w, grid.spacing, edge_order=1)
    # a steep sampled state overflows W^2: the finiteness checks refuse it, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        v_minus = 0.5 * (w ** 2 + wprime) + e0
        v_plus = 0.5 * (w ** 2 - wprime) + e0
    if not np.all(np.isfinite(v_minus)):
        raise ParameterError("partner potential is not finite at an interior point")

    h_plus = ops.hamiltonian(grid, v_plus)
    h_minus = ops.hamiltonian(grid, v_minus)
    par = ops.parity_operator(grid)
    n_levels = min(n_levels, grid.n_points)
    spectrum_plus = numeric_spectrum(h_plus, par, n_levels, vectors=False)
    spectrum_minus = numeric_spectrum(h_minus, par, n_levels, vectors=False)
    deviations = _pair_deviations(spectrum_plus, spectrum_minus, n_levels - 1)

    mask = np.ones(grid.n_points, dtype=bool)
    mask[:WALL_MASK_CELLS] = False
    mask[-WALL_MASK_CELLS:] = False
    return PartnerResult(w_samples=w, v_minus_samples=v_minus, v_plus_samples=v_plus,
                         e0=float(e0), spectrum_plus=spectrum_plus,
                         spectrum_minus=spectrum_minus, pair_deviations=deviations,
                         wall_mask=mask)


def _pair_deviations(plus: Spectrum, minus: Spectrum, count: int) -> list[float]:
    """|E_minus[k] - E_plus[k + 1]| / |E_plus[k + 1]| for k < count: the partner
    rule, H_minus holding every level of H_plus but its ground level."""
    e_plus, e_minus = plus.eigenvalues[1:count + 1], minus.eigenvalues[:count]
    return (np.abs(e_minus - e_plus) / np.abs(e_plus)).tolist()


@dataclass(frozen=True)
class ScanRow:
    length: float
    n_points: int
    e1: float
    gap: float
    e1_times_l_squared: float
    pairs_matched: int
    worst_pair_deviation: float


def box_to_free_scan(lengths, points_per_unit_length: float, *,
                     n_levels: int = 6, pair_rel_tol: float = 1e-4) -> list[ScanRow]:
    """Track the box and its sec^2 partner as the box widens.

    Per length: the box ground energy E1 (which scales as pi^2/2L^2),
    the gap to E2, and how many of the lowest partner levels match the
    box levels shifted by one index within pair_rel_tol. Every length's
    point count is checked, up to grid.MAX_POINTS, before the first solve.
    """
    lengths = [float(v) for v in lengths]
    if len(lengths) < 2 or any(b <= a for a, b in zip(lengths, lengths[1:])):
        raise ParameterError("need at least two strictly increasing lengths")
    require_positive("points_per_length", points_per_unit_length)
    counts = []
    for length in lengths:
        points = length * points_per_unit_length
        if not 0 < points < np.inf:
            raise ParameterError(
                f"length {length!r} at {points_per_unit_length!r} points per unit "
                "length gives no finite, positive point count")
        # only the least length, the first, can be positive with a half that rounds to 0
        if not length / 2 > 0:
            raise ParameterError(
                f"length {length!r} is too small for a grid: its half width rounds to zero")
        n_points = max(3, int(round(points)) - 1)
        if n_points > MAX_POINTS:
            raise ParameterError(
                f"length {length:g} at {points_per_unit_length:g} points per unit length "
                f"gives more than the {MAX_POINTS} points a grid may have")
        if n_levels + 1 > n_points:
            raise ParameterError(
                f"length {length!r} gets {n_points} grid points, fewer than the "
                f"{n_levels + 1} box levels a scan of {n_levels} levels needs")
        counts.append(n_points)
    rows = []
    for length, n_points in zip(lengths, counts):
        h_box, par, _ = model_operators(ParticleInBox(length), n_points)
        h_partner = model_operators(SecSquaredPartner(length), n_points)[0]  # on the same grid
        box = numeric_spectrum(h_box, par, n_levels + 1, vectors=False)
        part = numeric_spectrum(h_partner, par, n_levels, vectors=False)
        deviations = _pair_deviations(box, part, n_levels)
        matched = sum(1 for d in deviations if d <= pair_rel_tol)
        e1 = float(box.eigenvalues[0])
        rows.append(ScanRow(length=length, n_points=n_points, e1=e1,
                            gap=float(box.eigenvalues[1] - e1),
                            e1_times_l_squared=e1 * length ** 2,
                            pairs_matched=matched,
                            worst_pair_deviation=float(max(deviations))))
    return rows
