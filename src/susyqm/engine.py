"""SUSY criteria checker: spectra, pairing maps, algebra residuals, verdicts.

The six criteria checked against a (Hamiltonian, supercharge, spectrum)
bundle:

1. zero-energy non-degenerate ground state,
2. pairs of degenerate excited states,
3. the charges carry pair partners into one another and annihilate the
   ground state,
4. [H, Q] = [H, Qdag] = 0 and H = {Q, Qdag} / 2,
5. nilpotency {Q, Q} = {Qdag, Qdag} = 0,
6. the generators close under mixed commutators and anticommutators.

Algebra residuals are only meaningful on periodic grids (or the rotor
basis); Dirichlet models get spectral checks instead and a refusal on
the algebra entry points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal

from . import operators as ops
from .errors import DirichletAlgebraError, NumericalContractError, ParameterError
from .grid import DIRICHLET, PERIODIC, Grid1D, build_grid
from .models import (DeltaWell, FreeParticle, ModelSpec, ParticleInBox,
                     PlanarRotor, SecSquaredPartner)

MACHINE_TOL = 1e-12      # identities that hold exactly in the discretization
CONVERGENCE_TOL = 1e-4   # grid eigenvalues against analytic values, relative
PAIR_TOL = 1e-6          # default relative degeneracy tolerance
_CLUSTER_TOL = 1e-8      # relative gap below which levels share a cluster
_MIXED_PARITY_TOL = 1e-6


@dataclass
class Spectrum:
    """Sorted eigenvalues with parity-labeled eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # columns, unit norm
    parity_labels: list[str]
    source: str  # grid_eigensolve | analytic
    artifact_indices: list[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.eigenvalues)


def numeric_spectrum(h: ops.LinearOperator, parity: ops.LinearOperator,
                     n_levels: int) -> Spectrum:
    """Lowest n_levels eigenpairs with definite-parity eigenvectors.

    A real symmetric tridiagonal h goes to the tridiagonal solver; any
    other h is densified for a full Hermitian eigensolve. Within
    degenerate clusters the raw eigenvectors are re-mixed to diagonalize
    the parity operator before labeling.
    """
    n = h.dimension
    if n_levels < 1:
        raise ParameterError(f"n_levels must be at least 1, got {n_levels}")
    if n_levels > n:
        raise ParameterError(f"n_levels {n_levels} exceeds dimension {n}")
    bands = h.tridiag_bands
    if bands is not None:
        d, e = bands
        vals, vecs = eigh_tridiagonal(d, e, select="i", select_range=(0, n_levels - 1))
    else:
        m = h.to_dense()
        scale = np.linalg.norm(m)
        if scale > 0 and np.linalg.norm(m - m.conj().T) > 1e-8 * scale:
            raise NumericalContractError("numeric_spectrum requires a Hermitian matrix")
        vals, vecs = np.linalg.eigh((m + m.conj().T) / 2.0)
        vals, vecs = vals[:n_levels], vecs[:, :n_levels]
    vecs = np.asfortranarray(vecs, dtype=complex)  # columns are read one at a time
    _remix_degenerate(vals, vecs, parity)
    labels = [_parity_label(vecs[:, i], parity) for i in range(len(vals))]
    return Spectrum(eigenvalues=vals, eigenvectors=vecs, parity_labels=labels,
                    source="grid_eigensolve")


def _cluster_slices(vals: np.ndarray, rel_tol: float = _CLUSTER_TOL):
    scale = max(1.0, float(np.max(np.abs(vals))) if len(vals) else 1.0)
    start = 0
    for i in range(1, len(vals) + 1):
        if i == len(vals) or vals[i] - vals[i - 1] > rel_tol * scale:
            yield slice(start, i)
            start = i


def _remix_degenerate(vals: np.ndarray, vecs: np.ndarray, parity: ops.LinearOperator):
    for sl in _cluster_slices(vals):
        if sl.stop - sl.start < 2:
            continue
        block = vecs[:, sl]
        pb = np.column_stack([parity.apply(block[:, i]) for i in range(block.shape[1])])
        overlap = block.conj().T @ pb
        overlap = (overlap + overlap.conj().T) / 2.0
        _, rot = np.linalg.eigh(overlap)
        vecs[:, sl] = block @ rot


def _parity_label(vec: np.ndarray, parity: ops.LinearOperator) -> str:
    s = np.vdot(vec, parity.apply(vec)).real / (np.vdot(vec, vec).real)
    if abs(s) < 1.0 - _MIXED_PARITY_TOL:
        return "mixed"
    return "even" if s > 0 else "odd"


# ---------------------------------------------------------------------------
# pairing

@dataclass(frozen=True)
class PairingMap:
    pairs: list[tuple[int, int, float]]  # (index_even, index_odd, |dE|)
    unpaired: list[int]
    triple_degeneracy_flag: bool = False


def detect_pairing(spectrum: Spectrum, pair_tol: float = PAIR_TOL) -> PairingMap:
    """Match adjacent near-degenerate levels of opposite parity into pairs.

    Degeneracy clusters of three or more are reported unpaired with a
    diagnostic flag. Stable under re-sorting: depends only on the sorted
    eigenvalue/parity sequence.
    """
    if pair_tol <= 0:
        raise ParameterError(f"pair_tol must be positive, got {pair_tol!r}")
    vals = spectrum.eigenvalues
    gaps = np.diff(vals)
    median_gap = float(np.median(gaps)) if len(gaps) else 0.0
    pairs: list[tuple[int, int, float]] = []
    unpaired: list[int] = []
    triple = False

    def close(i, j):
        scale = max(abs(vals[i]), abs(vals[j]), median_gap)
        return abs(vals[j] - vals[i]) <= pair_tol * scale if scale > 0 else True

    # chain indices into degeneracy clusters first
    i = 0
    n = len(vals)
    while i < n:
        j = i
        while j + 1 < n and close(j, j + 1):
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
    return PairingMap(pairs=pairs, unpaired=unpaired, triple_degeneracy_flag=triple)


# ---------------------------------------------------------------------------
# algebra residuals

@dataclass(frozen=True)
class AlgebraResiduals:
    """Frobenius residuals normalized by ||H||_F; None when not applicable."""

    comm_HQ: float
    comm_HQdag: float
    anticomm_minus_H: float
    nilpotency_q: float | None
    nilpotency_qdag: float | None
    closure: float


def _charges_of(charges) -> tuple[ops.Supercharge, ops.Supercharge | None]:
    if isinstance(charges, ops.Supercharge):
        return charges, None
    q, qdag = charges
    return q, qdag


def algebra_residuals(h: ops.LinearOperator, charges, *,
                      boundary: str = PERIODIC) -> AlgebraResiduals:
    """Residuals of the commutation, anticommutation, and nilpotency identities.

    Antilinear charges are handled by action composition; products mixing
    linear and antilinear parts conjugate the matrices they pass through.
    """
    if boundary == DIRICHLET:
        raise DirichletAlgebraError(
            "algebra residuals are refused on Dirichlet grids: truncated boundary "
            "stencils break the exact anticommutation of momentum and parity")
    q, qdag = _charges_of(charges)
    qdag_action = qdag.action if qdag is not None else q.adjoint_action
    hn = ops.frobenius_norm(h)
    comm_hq = ops.frobenius_norm(ops.commutator(h, q.action)) / hn
    comm_hqdag = ops.frobenius_norm(ops.commutator(h, qdag_action)) / hn
    half_anti = ops.scale(ops.anticommutator(q.action, qdag_action), 0.5)
    anti = ops.frobenius_norm(ops.subtract(half_anti, h)) / hn
    nil_q = nil_qdag = None
    if q.nilpotent_by_design:
        nil_q = ops.frobenius_norm(ops.compose(q.action, q.action)) / hn
        nil_qdag = ops.frobenius_norm(ops.compose(qdag_action, qdag_action)) / hn
    closure = max(_closure_residual(h, q.action), _closure_residual(h, qdag_action))
    return AlgebraResiduals(comm_HQ=comm_hq, comm_HQdag=comm_hqdag,
                            anticomm_minus_H=anti, nilpotency_q=nil_q,
                            nilpotency_qdag=nil_qdag, closure=closure)


def _closure_residual(h: ops.LinearOperator, charge_action) -> float:
    """Distance of {C, C} from span{H, 1}, relative to ||H||_F.

    {Q, Q} = -2H for the parity/time-reversal charges and 0 for the
    nilpotent pairs; either way the anticommutator must not leave the
    algebra generated by H. The projection uses sparse Frobenius inner
    products, so it costs O(nnz).
    """
    anti = ops.scale(ops.compose(charge_action, charge_action), 2.0)
    a, b = anti.linear_matrix, anti.antilinear_matrix
    hm = h.linear_matrix
    resid_sq = 0.0
    if b is not None:
        resid_sq += float(np.sum(np.abs(b.data) ** 2))
    if a is not None:
        # Gram matrix and right-hand side of <u, v> = sum(conj(u) * v) on {H, 1}
        n = hm.shape[0]
        tr_h = hm.diagonal().sum()
        g = np.array([[np.sum(np.abs(hm.data) ** 2), np.conj(tr_h)], [tr_h, n]])
        rhs = np.array([hm.conj().multiply(a).sum(), a.diagonal().sum()])
        coef = np.linalg.solve(g, rhs)
        resid = a - coef[0] * hm - coef[1] * sp.eye_array(n, format="csr")
        resid_sq += float(np.sum(np.abs(resid.data) ** 2))
    return float(np.sqrt(resid_sq) / ops.frobenius_norm(h))


# ---------------------------------------------------------------------------
# ground state

@dataclass(frozen=True)
class GroundRecord:
    energy: float  # after any zero-point shift
    raw_energy: float
    degeneracy_count: int
    annihilation_residuals: dict[str, float]


def ground_state_check(spectrum: Spectrum, charges, zero_tol: float = 1e-10,
                       energy_shift: float = 0.0) -> GroundRecord:
    """Lowest-level degeneracy and relative annihilation norms per charge."""
    if len(spectrum) == 0:
        raise ParameterError("spectrum is empty")
    vals = spectrum.eigenvalues
    first_cluster = next(iter(_cluster_slices(vals)))
    degeneracy = first_cluster.stop - first_cluster.start
    psi0 = spectrum.eigenvectors[:, 0]
    norm0 = np.linalg.norm(psi0)
    q, qdag = _charges_of(charges)
    residuals = {}
    for label, action in _charge_actions(q, qdag):
        residuals[label] = float(np.linalg.norm(action.apply(psi0)) / norm0)
    return GroundRecord(energy=float(vals[0] - energy_shift), raw_energy=float(vals[0]),
                        degeneracy_count=degeneracy, annihilation_residuals=residuals)


def _charge_actions(q: ops.Supercharge, qdag: ops.Supercharge | None):
    yield q.label, q.action
    if qdag is not None:
        yield qdag.label, qdag.action
    else:
        yield q.label + "_adjoint", q.adjoint_action


# ---------------------------------------------------------------------------
# Eq.-of-motion action table on standing waves

@dataclass(frozen=True)
class ActionTableRow:
    k: float
    k_discrete: float
    dev_q_cos: float
    dev_q_sin: float
    dev_qdag_sin: float
    dev_qdag_cos: float

    @property
    def max_deviation(self) -> float:
        return max(self.dev_q_cos, self.dev_q_sin, self.dev_qdag_sin, self.dev_qdag_cos)


def eq5_action_table(grid: Grid1D, k_list, mass: float = 1.0, *,
                     substitute_dispersion: bool = True) -> list[ActionTableRow]:
    """Deviations of the nilpotent charge actions on sampled cos/sin waves.

    q cos(kx) must give i*k*sin(kx), q sin(kx) zero, and the adjoint the
    reverse, with k replaced by the discrete dispersion sin(kh)/h when
    substitute_dispersion is set (machine-exact); without substitution
    the deviation is the O(h^2) discretization error.
    """
    if grid.boundary != PERIODIC:
        raise ParameterError("the action table is defined on periodic grids")
    length = grid.length
    p = ops.momentum(grid)
    par = ops.parity_operator(grid)
    q, qdag = ops.supercharge_q_pair(p, par, mass)
    rows = []
    for k in k_list:
        k = float(k)
        mode = k * length / (2.0 * np.pi)
        if abs(mode - round(mode)) > 1e-9:
            raise ParameterError(
                f"wavenumber {k!r} is not commensurate with the grid; allowed values "
                f"are 2*pi*n/{length:g} for integer n (e.g. "
                + ", ".join(f"{2 * np.pi * n / length:.6g}" for n in range(4)) + ", ...)")
        kd = np.sin(k * grid.spacing) / grid.spacing if substitute_dispersion else k
        # sample by modular phase: k*x_j = 2 pi * mode * (j - n/2) / n up to whole
        # turns, so reducing the integer phase keeps every argument below 2 pi
        # and the samples accurate to machine epsilon even near Nyquist
        n = grid.n_points
        phase = (round(mode) * (np.arange(n) - n // 2)) % n
        theta = 2.0 * np.pi * phase / n
        c = np.cos(theta)
        s = np.sin(theta)
        # residuals relative to the scale of the action itself
        denom = max(abs(kd), 1.0) * max(np.linalg.norm(c), np.linalg.norm(s))
        rows.append(ActionTableRow(
            k=k, k_discrete=float(kd),
            dev_q_cos=float(np.linalg.norm(q.apply(c) - 1j * kd * s) / denom),
            dev_q_sin=float(np.linalg.norm(q.apply(s)) / denom),
            dev_qdag_sin=float(np.linalg.norm(qdag.apply(s) + 1j * kd * c) / denom),
            dev_qdag_cos=float(np.linalg.norm(qdag.apply(c)) / denom)))
    return rows


def commensurate_wavenumbers(grid: Grid1D, n_max: int | None = None) -> np.ndarray:
    """All grid wavenumbers 2*pi*n/L, n = 0..n_max (default up to Nyquist)."""
    if n_max is None:
        n_max = grid.n_points // 2
    return 2.0 * np.pi * np.arange(n_max + 1) / grid.length


# ---------------------------------------------------------------------------
# full six-criteria report

@dataclass(frozen=True)
class CriterionVerdict:
    satisfied: bool
    by_design_failure: bool = False
    detail: str = ""


@dataclass
class SusyReport:
    model: str
    charge: str
    zero_point_reset: bool
    energy_shift: float
    ground: GroundRecord
    pairing: PairingMap
    artifact_indices: list[int]
    algebra: AlgebraResiduals
    pair_invariance_residual: float
    verdicts: dict[int, CriterionVerdict]

    @property
    def all_applicable_pass(self) -> bool:
        return all(v.satisfied or v.by_design_failure for v in self.verdicts.values())

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "charge": self.charge,
            "zero_point_reset": self.zero_point_reset,
            "energy_shift": self.energy_shift,
            "ground": {
                "energy": self.ground.energy,
                "raw_energy": self.ground.raw_energy,
                "degeneracy_count": int(self.ground.degeneracy_count),
                "annihilation_residuals": {k: float(v) for k, v
                                           in self.ground.annihilation_residuals.items()},
            },
            "pairs": [{"index_even": int(i), "index_odd": int(j), "abs_delta_e": float(d)}
                      for i, j, d in self.pairing.pairs],
            "unpaired": [int(i) for i in self.pairing.unpaired],
            "artifact_indices": [int(i) for i in self.artifact_indices],
            "algebra": {
                "comm_HQ": float(self.algebra.comm_HQ),
                "comm_HQdag": float(self.algebra.comm_HQdag),
                "anticomm_minus_H": float(self.algebra.anticomm_minus_H),
                "nilpotency_q": None if self.algebra.nilpotency_q is None else float(self.algebra.nilpotency_q),
                "nilpotency_qdag": None if self.algebra.nilpotency_qdag is None else float(self.algebra.nilpotency_qdag),
                "closure": float(self.algebra.closure),
            },
            "pair_invariance_residual": float(self.pair_invariance_residual),
            "verdict_per_criterion": {
                str(n): {"satisfied": bool(v.satisfied),
                         "by_design_failure": bool(v.by_design_failure),
                         "detail": v.detail}
                for n, v in sorted(self.verdicts.items())
            },
            "all_applicable_pass": bool(self.all_applicable_pass),
        }


def _pair_invariance(spectrum: Spectrum, pairing: PairingMap, q, qdag) -> float:
    """Worst relative leakage of the charge images out of their pair subspaces."""
    worst = 0.0
    actions = [a for _, a in _charge_actions(*_charges_of((q, qdag) if qdag else q))]
    for i, j, _ in pairing.pairs:
        block = spectrum.eigenvectors[:, [i, j]]
        for v_idx in (0, 1):
            v = block[:, v_idx]
            e = abs(spectrum.eigenvalues[i])
            for action in actions:
                w = action.apply(v)
                wn = np.linalg.norm(w)
                if wn <= 1e-10 * (1.0 + np.sqrt(e)):
                    continue  # annihilated, consistent with one-way nilpotent action
                leak = w - block @ (block.conj().T @ w)
                worst = max(worst, float(np.linalg.norm(leak) / wn))
    return worst


def build_check(model: ModelSpec, charge: str, *, n_points: int = 512,
                zero_point_reset: bool = False, machine_tol: float = MACHINE_TOL,
                pair_tol: float = PAIR_TOL, zero_tol: float = 1e-10) -> SusyReport:
    """Run the full six-criteria check for a periodic free particle or rotor.

    Dirichlet-grid models (box, sec^2 partner, delta well) are refused:
    their verdicts are spectral-only and live in the spectrum/partner
    commands instead.
    """
    if charge not in ("Q", "q"):
        raise ParameterError(f"charge must be 'Q' or 'q', got {charge!r}")
    if isinstance(model, FreeParticle):
        grid = build_grid(model.length / 2.0, n_points, PERIODIC)
        p = ops.momentum(grid)
        par = ops.parity_operator(grid)
        h_spec = ops.hamiltonian(grid, lambda x: 0.0)
        h_alg = ops.momentum_squared_hamiltonian(p, 1.0)
        if charge == "Q":
            q, qdag = ops.supercharge_Q(p, par, 1.0), None
        else:
            q, qdag = ops.supercharge_q_pair(p, par, 1.0)
        spectrum = numeric_spectrum(h_spec, par, grid.n_points)
        artifacts = [grid.n_points - 1] if grid.n_points % 2 == 0 else []
        model_name = f"free_particle(L={model.length:g})"
    elif isinstance(model, PlanarRotor):
        lz, t, h = ops.rotor_basis_operators(model.m_max, model.inertia)
        reversal = t.linear_part
        if charge == "Q":
            q, qdag = ops.rotor_supercharge(lz, t, model.inertia), None
        else:
            q, qdag = ops.rotor_supercharge_pair(lz, t, model.inertia)
        h_spec = h_alg = h
        spectrum = numeric_spectrum(h, reversal, h.dimension)
        artifacts = []
        model_name = f"planar_rotor(I={model.inertia:g}, m_max={model.m_max})"
    elif isinstance(model, (ParticleInBox, SecSquaredPartner, DeltaWell)):
        raise DirichletAlgebraError(
            f"{type(model).__name__} lives on a Dirichlet grid; the six-criteria "
            "algebra check is only run for periodic (free) or rotor models")
    else:
        raise ParameterError(f"unsupported model {model!r}")

    charges = q if qdag is None else (q, qdag)
    shift = float(spectrum.eigenvalues[0]) if zero_point_reset else 0.0
    ground = ground_state_check(spectrum, charges, zero_tol=zero_tol, energy_shift=shift)
    pairing = detect_pairing(spectrum, pair_tol)
    algebra = algebra_residuals(h_alg, charges, boundary=PERIODIC)
    invariance = _pair_invariance(spectrum, pairing, q, qdag)

    unpaired_excited = [i for i in pairing.unpaired if i != 0 and i not in artifacts]
    ann_tol = 1e-10
    verdicts = {
        1: CriterionVerdict(
            satisfied=(ground.degeneracy_count == 1 and abs(ground.energy) <= zero_tol),
            detail=f"E0={ground.energy:.3e}, degeneracy={ground.degeneracy_count}"),
        2: CriterionVerdict(
            satisfied=not unpaired_excited and not pairing.triple_degeneracy_flag,
            detail=f"{len(pairing.pairs)} pairs, stray unpaired={unpaired_excited}"),
        3: CriterionVerdict(
            satisfied=(max(ground.annihilation_residuals.values()) <= ann_tol
                       and invariance <= 1e-8),
            detail=f"annihilation={max(ground.annihilation_residuals.values()):.3e}, "
                   f"pair leakage={invariance:.3e}"),
        4: CriterionVerdict(
            satisfied=(algebra.comm_HQ <= machine_tol and algebra.comm_HQdag <= machine_tol
                       and algebra.anticomm_minus_H <= machine_tol),
            detail=f"[H,Q]={algebra.comm_HQ:.3e}, "
                   f"{{Q,Qdag}}/2-H={algebra.anticomm_minus_H:.3e}"),
        6: CriterionVerdict(
            satisfied=algebra.closure <= machine_tol,
            detail=f"closure residual={algebra.closure:.3e}"),
    }
    if q.nilpotent_by_design:
        nil = max(algebra.nilpotency_q, algebra.nilpotency_qdag)
        verdicts[5] = CriterionVerdict(satisfied=nil <= machine_tol,
                                       detail=f"||q^2||={nil:.3e}")
    else:
        verdicts[5] = CriterionVerdict(
            satisfied=False, by_design_failure=True,
            detail="not satisfied (by design): the parity/time-reversal charge squares "
                   "to the Hamiltonian, not zero")

    return SusyReport(model=model_name, charge=charge,
                      zero_point_reset=zero_point_reset, energy_shift=shift,
                      ground=ground, pairing=pairing, artifact_indices=artifacts,
                      algebra=algebra, pair_invariance_residual=invariance,
                      verdicts=verdicts)
