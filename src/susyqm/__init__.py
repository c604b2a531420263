"""Numerical workbench for graded supersymmetry in simple quantum systems.

Builds supercharges from space-time symmetries (parity, time reversal)
for the free particle, particle in a box with its sec^2 partner, the
attractive delta well, and the planar rotor, and machine-checks the
SUSY criteria: unique zero-energy ground state, paired excited spectrum,
and the mixed commutator/anticommutator algebra.
"""

from .engine import (AlgebraResiduals, PairingMap, Spectrum, SusyReport,
                     algebra_residuals, build_check, detect_pairing,
                     eq5_action_table, ground_state_check, numeric_spectrum)
from .errors import (DirichletAlgebraError, NumericalContractError,
                     ParameterError, PotentialEvaluationError, SusyqmError)
from .grid import Grid1D, build_grid, parity_permutation
from .models import (AnalyticState, DeltaWell, FreeParticle, ParticleInBox,
                     PlanarRotor, SecSquaredPartner, box_levels,
                     delta_well_states, free_particle_states,
                     jump_condition_residual, rotor_states,
                     sec_squared_partner_levels)
from .operators import (AntilinearOperator, LinearOperator, MixedOperator,
                        Supercharge, anticommutator, commutator, compose,
                        delta_well_hamiltonian, hamiltonian, momentum,
                        parity_operator, rotor_basis_operators,
                        second_derivative, supercharge_Q, supercharge_q_pair)
from .partner import PartnerResult, box_to_free_scan, partner_potential, superpotential

__version__ = "0.1.0"
