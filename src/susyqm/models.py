"""Catalog of physical systems with their analytic spectra and wavefunctions.

The closed forms here are the oracles the grid computations are checked
against: box levels n^2 pi^2 / 2L^2, the sec^2 partner with its missing
ground level, the delta well's single bound state and deformed even
continuum, free-particle standing/traveling waves, and the planar rotor.
Beside them, the exact levels of the grids' own three-point stencil, the
oracle for the eigensolvers at any point count. All in hbar = m = 1 units.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ParameterError, require_positive
from .grid import DIRICHLET, Grid1D

EVEN = "even"
ODD = "odd"
NO_PARITY = "none"


@dataclass(frozen=True)
class AnalyticState:
    """A closed-form eigenstate; evaluate is None for energy-only entries."""

    energy: float
    parity: str
    evaluate: Callable[[np.ndarray], np.ndarray] | None
    label: str = ""
    derivative: Callable[[np.ndarray], np.ndarray] | None = None
    second_derivative: Callable[[np.ndarray], np.ndarray] | None = None


# ---------------------------------------------------------------------------
# model parameter records

@dataclass(frozen=True)
class _LengthModel:
    length: float

    def __post_init__(self):
        require_positive("L", self.length)


class FreeParticle(_LengthModel):
    """The free particle on a periodic domain of length L."""


class ParticleInBox(_LengthModel):
    """The particle in a box of length L."""


class SecSquaredPartner(_LengthModel):
    """The sec^2 partner of the box, sharing its length L."""


@dataclass(frozen=True)
class DeltaWell:
    coupling: float
    box_length: float

    def __post_init__(self):
        require_positive("lambda", self.coupling)
        require_positive("L_box", self.box_length)


@dataclass(frozen=True)
class PlanarRotor:
    inertia: float
    m_max: int

    def __post_init__(self):
        require_positive("I", self.inertia)
        if self.m_max < 1:
            raise ParameterError(f"m_max must be at least 1, got {self.m_max}")
        if not np.isfinite(self.m_max ** 2 / (2.0 * self.inertia)):
            raise ParameterError(
                f"I={self.inertia!r} is too small: the top rotor level m_max^2/(2I) overflows")


ModelSpec = FreeParticle | ParticleInBox | SecSquaredPartner | DeltaWell | PlanarRotor


# ---------------------------------------------------------------------------
# particle in a box and its partner

def box_energy(length: float, n: int) -> float:
    return n ** 2 * np.pi ** 2 / (2.0 * length ** 2)


def box_levels(length: float, n_max: int) -> list[AnalyticState]:
    """Levels n = 1..n_max: cos(n pi x / L) for odd n, sin for even n."""
    if n_max < 1:
        raise ParameterError(f"n_max must be at least 1, got {n_max}")
    a = np.pi / length
    states = []
    for n in range(1, n_max + 1):
        k = n * a
        if n % 2 == 1:
            psi = (lambda x, k=k: np.cos(k * x))
            dpsi = (lambda x, k=k: -k * np.sin(k * x))
            d2psi = (lambda x, k=k: -k * k * np.cos(k * x))
            parity = EVEN
        else:
            psi = (lambda x, k=k: np.sin(k * x))
            dpsi = (lambda x, k=k: k * np.cos(k * x))
            d2psi = (lambda x, k=k: -k * k * np.sin(k * x))
            parity = ODD
        states.append(AnalyticState(
            energy=box_energy(length, n), parity=parity, evaluate=psi, label=f"box n={n}",
            derivative=dpsi, second_derivative=d2psi))
    return states


def three_point_levels(grid: Grid1D) -> np.ndarray:
    """Every level of the grid's three-point -1/2 D2 (no potential), ascending, exactly.

    The discrete sine and cosine transforms diagonalize the stencil
    (Strang, SIAM Review 41 (1999)): with n points of spacing h, the levels
    are (1 - cos(j pi / (n + 1))) / h^2, j = 1..n, between Dirichlet walls,
    and (1 - cos(2 pi j / n)) / h^2, j = 0..n-1, on a periodic grid. Each
    is evaluated as 2 sin^2(theta / 2) / h^2, the same number without the
    cancellation of 1 - cos(theta) at small theta, and with theta / 2 at
    most pi / 2 (j and n - j give one periodic level, bit for bit), so
    every level is accurate to a few eps relative to itself, where the
    continuum levels differ from the grid's by O(h^2).
    """
    n = grid.n_points
    j = np.arange(n)
    if grid.boundary == DIRICHLET:
        half_angle = (j + 1) * (np.pi / (2 * (n + 1)))
    else:
        half_angle = np.minimum(j, n - j) * (np.pi / n)
    return np.sort(2.0 * np.sin(half_angle) ** 2 / grid.spacing ** 2)


def sec_squared_potential(length: float) -> Callable[[float], float]:
    """V(x) = (pi/L)^2 sec^2(pi x / L), diverging at the +-L/2 walls."""
    a = np.pi / length

    def v(x):
        return a ** 2 / np.cos(a * x) ** 2

    return v


def sec_squared_partner_levels(length: float, n_max: int) -> list[AnalyticState]:
    """Partner levels share the box energies for n >= 2; n = 1 is missing.

    The two lowest wavefunctions have closed forms: cos^2(pi x/L) (even)
    and cos^2(pi x/L) sin(pi x/L) (odd); higher entries are energy-only.
    """
    if n_max < 2:
        raise ParameterError(f"n_max must be at least 2, got {n_max}")
    a = np.pi / length
    states = []
    for n in range(2, n_max + 1):
        parity = EVEN if n % 2 == 0 else ODD
        psi = None
        if n == 2:
            psi = (lambda x: np.cos(a * x) ** 2)
        elif n == 3:
            psi = (lambda x: np.cos(a * x) ** 2 * np.sin(a * x))
        states.append(AnalyticState(
            energy=box_energy(length, n), parity=parity, evaluate=psi,
            label=f"partner n={n}"))
    return states


# ---------------------------------------------------------------------------
# delta well

def delta_well_bound_state(coupling: float) -> AnalyticState:
    """The single bound state: energy -lambda^2/2, sqrt(lambda) exp(-lambda |x|)."""
    lam = coupling
    require_positive("lambda", lam)
    root = np.sqrt(lam)
    return AnalyticState(
        energy=-0.5 * lam ** 2, parity=EVEN,
        evaluate=(lambda x: root * np.exp(-lam * np.abs(x))), label="delta bound",
        derivative=(lambda x: -lam * root * np.sign(x) * np.exp(-lam * np.abs(x))))


def delta_well_even_continuum(coupling: float, k: float) -> AnalyticState:
    """(k cos kx - lambda sin k|x|) / sqrt(k^2 + lambda^2), energy k^2/2."""
    lam = coupling
    norm = np.sqrt(k ** 2 + lam ** 2)

    def psi(x):
        return (k * np.cos(k * x) - lam * np.sin(k * np.abs(x))) / norm

    return AnalyticState(energy=0.5 * k ** 2, parity=EVEN, evaluate=psi,
                         label=f"delta even k={k:g}")


def delta_well_states(coupling: float, k_list) -> tuple[AnalyticState, list, list]:
    """Bound state plus even/odd continuum states for each k > 0.

    k = 0 contributes nothing: the deformed even state vanishes
    identically there and sin(0 x) is no state at all.
    """
    ks = [float(k) for k in k_list]
    if any(k < 0 for k in ks):
        raise ParameterError("wavenumbers must be non-negative")
    bound = delta_well_bound_state(coupling)
    even = [delta_well_even_continuum(coupling, k) for k in ks if k > 0]
    odd = [AnalyticState(energy=0.5 * k ** 2, parity=ODD,
                         evaluate=(lambda x, k=k: np.sin(k * x)),
                         label=f"delta odd k={k:g}")
           for k in ks if k > 0]
    return bound, even, odd


def jump_condition_residual(coupling: float, k: float) -> float:
    """|psi'(0+) - psi'(0-) + 2 lambda psi(0)| for the deformed even state.

    Evaluated from the closed form, so the cancellation is exact.
    """
    lam = coupling
    norm = np.sqrt(k ** 2 + lam ** 2)
    psi0 = k / norm
    dpsi_right = -lam * psi0  # derivative of (k cos kx - lam sin kx)/norm at 0+
    dpsi_left = +lam * psi0
    return abs((dpsi_right - dpsi_left) + 2.0 * lam * psi0)


# ---------------------------------------------------------------------------
# free particle and rotor

def free_particle_states(representation: str, k_list) -> list[AnalyticState]:
    """Standing-wave (cos/sin) or traveling-wave (exp(+-ikx)) continuum samples.

    Exactly one state at k = 0: the constant, in the even sector for
    standing waves and as the single non-propagating traveling wave.
    """
    ks = sorted({float(k) for k in k_list})
    if any(k < 0 for k in ks):
        raise ParameterError("wavenumbers must be non-negative")
    states = []
    for k in ks:
        e = 0.5 * k ** 2
        if representation == "standing":
            states.append(AnalyticState(
                energy=e, parity=EVEN, evaluate=(lambda x, k=k: np.cos(k * x)),
                label=f"cos k={k:g}"))
            if k > 0:
                states.append(AnalyticState(
                    energy=e, parity=ODD, evaluate=(lambda x, k=k: np.sin(k * x)),
                    label=f"sin k={k:g}"))
        elif representation == "traveling":
            states.append(AnalyticState(
                energy=e, parity=EVEN if k == 0 else NO_PARITY,
                evaluate=(lambda x, k=k: np.exp(1j * k * x)), label=f"exp(+ik x) k={k:g}"))
            if k > 0:
                states.append(AnalyticState(
                    energy=e, parity=NO_PARITY,
                    evaluate=(lambda x, k=k: np.exp(-1j * k * x)),
                    label=f"exp(-ik x) k={k:g}"))
        else:
            raise ParameterError(f"unknown representation {representation!r}")
    return states


def rotor_states(inertia: float, m_max: int) -> list[AnalyticState]:
    """exp(i m phi) states, m = -m_max..m_max, energy m^2 / 2I."""
    if m_max < 0:
        raise ParameterError(f"m_max must be non-negative, got {m_max}")
    states = []
    for m in range(-m_max, m_max + 1):
        states.append(AnalyticState(
            energy=m ** 2 / (2.0 * inertia),
            parity=EVEN if m == 0 else NO_PARITY,
            evaluate=(lambda phi, m=m: np.exp(1j * m * phi)), label=f"rotor m={m}"))
    return states


