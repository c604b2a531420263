"""Discrete operators and the supercharge constructions.

Every operator is one real-linear map v -> A v + B conj(v), with A and B
held as scipy.sparse CSR matrices, or None when a part is absent.
Complex-linear operators (LinearOperator) have B = None; antilinear ones
(AntilinearOperator, such as time reversal) have A = None; sums of the
two (MixedOperator) carry both. Stencils, parity and the rotor basis are
built directly in CSR, so composing and applying them costs O(nnz), and
nothing is densified unless an eigensolver needs a full matrix.

Supercharges built here:

* Q = p P / sqrt(2 m)        -- momentum times parity (anti-Hermitian)
* q = (p + p P) / sqrt(4 m)  -- nilpotent pair together with its adjoint
* Q = L_z T / sqrt(2 I)      -- angular momentum times time reversal
  plus the analogous nilpotent pair (L_z +/- L_z T) / sqrt(4 I).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import NumericalContractError, ParameterError, PotentialEvaluationError
from .grid import DIRICHLET, PERIODIC, Grid1D, parity_permutation

LINEAR = "linear"
ANTILINEAR = "antilinear"
MIXED = "mixed"

_HERMITIAN_TOL = 1e-12


def _csr(m):
    if m is None:
        return None
    return m.tocsr() if sp.issparse(m) else sp.csr_array(np.asarray(m))


def _matvec(m: sp.csr_array, v: np.ndarray) -> np.ndarray:
    if np.iscomplexobj(v) and not np.iscomplexobj(m.data):
        # a real matrix maps real and imaginary parts separately; as one real
        # product on the interleaved parts this runs several times faster than
        # scipy's mixed real/complex product
        x = np.ascontiguousarray(v, dtype=complex)
        return (m @ x.view(float).reshape(len(x), -1)).view(complex).reshape(x.shape)
    return m @ v


class MixedOperator:
    """Real-linear operator v -> A v + B conj(v) with sparse CSR parts.

    Arises from sums of linear and antilinear operators (the rotor's
    nilpotent charge pair) and from closing the algebra under
    composition; linear and antilinear operators are the B = None and
    A = None special cases.
    """

    def __init__(self, linear_matrix=None, antilinear_matrix=None):
        if linear_matrix is None and antilinear_matrix is None:
            raise ParameterError("an operator needs at least one part")
        self.linear_matrix = _csr(linear_matrix)
        self.antilinear_matrix = _csr(antilinear_matrix)

    @property
    def dimension(self) -> int:
        part = self.linear_matrix if self.linear_matrix is not None else self.antilinear_matrix
        return part.shape[0]

    @property
    def tridiag_bands(self):
        """(diagonal, off-diagonal) of a real symmetric tridiagonal operator, else None.

        O(nnz): the operator must be linear with real entries, every
        nonzero within one diagonal of the main one, and equal
        sub- and super-diagonals.
        """
        a = self.linear_matrix
        if a is None or self.antilinear_matrix is not None:
            return None
        if np.iscomplexobj(a.data) and np.any(a.data.imag):
            return None
        rows = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
        if np.any(np.abs(a.indices - rows) > 1):
            return None
        e = a.diagonal(1).real
        if not np.array_equal(e, a.diagonal(-1).real):
            return None
        return a.diagonal().real, e

    @property
    def storage(self) -> str:
        return "tridiag" if self.tridiag_bands is not None else "csr"

    def apply(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v)
        out = 0
        if self.linear_matrix is not None:
            out = _matvec(self.linear_matrix, v)
        if self.antilinear_matrix is not None:
            out = out + _matvec(self.antilinear_matrix, np.conj(v))
        return out

    def to_dense(self) -> np.ndarray:
        """Dense matrix of a complex-linear operator."""
        if self.antilinear_matrix is not None:
            raise ParameterError("an operator with an antilinear part has no complex matrix")
        return self.linear_matrix.toarray()

    def adjoint(self) -> "MixedOperator":
        # <A^+ w, v> = <A v, w> forces the transpose (not conjugate transpose)
        # on the antilinear part.
        a, b = self.linear_matrix, self.antilinear_matrix
        return _wrap(None if a is None else a.conj().T, None if b is None else b.T)

    def __call__(self, v):
        return self.apply(v)


class LinearOperator(MixedOperator):
    """Complex-linear operator: the B = None case."""

    def __init__(self, matrix):
        super().__init__(matrix, None)

    @classmethod
    def from_dense(cls, matrix, hermitian_hint: bool = False) -> "LinearOperator":
        a = np.asarray(matrix)
        if hermitian_hint:
            scale_ = np.max(np.abs(a))
            if scale_ > 0 and np.max(np.abs(a - a.conj().T)) > _HERMITIAN_TOL * scale_:
                raise NumericalContractError("hermitian_hint set on a non-Hermitian matrix")
        return cls(a)

    @classmethod
    def from_tridiag(cls, diag, offdiag) -> "LinearOperator":
        """Real symmetric tridiagonal matrix from its diagonal and off-diagonal."""
        # row j holds offdiag[j - 1] left of the diagonal and offdiag[j] right of it
        e = np.append(np.asarray(offdiag, dtype=float), 0.0)
        return cls(_stencil(len(e), np.roll(e, 1), np.asarray(diag, dtype=float), e, False))

    @classmethod
    def from_permutation(cls, perm) -> "LinearOperator":
        """Permutation matrix acting as v -> v[perm]."""
        perm = np.asarray(perm, dtype=int)
        n = len(perm)
        return cls(sp.csr_array((np.ones(n), perm, np.arange(n + 1)), shape=(n, n)))


class AntilinearOperator(MixedOperator):
    """Action v -> linear_part(conj(v)); A(alpha v) = conj(alpha) A(v) by construction."""

    def __init__(self, linear_part: LinearOperator):
        super().__init__(None, linear_part.linear_matrix)

    @property
    def linear_part(self) -> LinearOperator:
        return LinearOperator(self.antilinear_matrix)


Operator = MixedOperator


def _wrap(a, b) -> Operator:
    if b is None:
        return LinearOperator(a)
    if a is None:
        return AntilinearOperator(LinearOperator(b))
    return MixedOperator(a, b)


def _check_dims(x: Operator, y: Operator):
    if x.dimension != y.dimension:
        raise ParameterError(
            f"operator dimension mismatch: {x.dimension} vs {y.dimension}")


def compose(x: Operator, y: Operator) -> Operator:
    """Operator product x . y, honoring antilinearity.

    An antilinear factor conjugates every matrix to its right:
    antilinear . antilinear is linear, antilinear . linear stays antilinear.
    """
    _check_dims(x, y)
    xa, xb = x.linear_matrix, x.antilinear_matrix
    ya, yb = y.linear_matrix, y.antilinear_matrix
    a = b = None
    if xa is not None and ya is not None:
        a = xa @ ya
    if xb is not None and yb is not None:
        t = xb @ yb.conj(copy=False)
        a = t if a is None else a + t
    if xa is not None and yb is not None:
        b = xa @ yb
    if xb is not None and ya is not None:
        t = xb @ ya.conj(copy=False)
        b = t if b is None else b + t
    return _wrap(a, b)


def _combine(x: Operator, y: Operator, sign: float) -> Operator:
    _check_dims(x, y)

    def merge(u, v):
        if u is None and v is None:
            return None
        if u is None:
            return sign * v
        if v is None:
            return u
        return u + sign * v

    return _wrap(merge(x.linear_matrix, y.linear_matrix),
                 merge(x.antilinear_matrix, y.antilinear_matrix))


def add(x: Operator, y: Operator) -> Operator:
    return _combine(x, y, +1.0)


def subtract(x: Operator, y: Operator) -> Operator:
    return _combine(x, y, -1.0)


def scale(x: Operator, c: float) -> Operator:
    xa, xb = x.linear_matrix, x.antilinear_matrix
    return _wrap(None if xa is None else c * xa, None if xb is None else c * xb)


def commutator(x: Operator, y: Operator) -> Operator:
    return subtract(compose(x, y), compose(y, x))


def anticommutator(x: Operator, y: Operator) -> Operator:
    return add(compose(x, y), compose(y, x))


def frobenius_norm(op: Operator) -> float:
    total = 0.0
    for part in (op.linear_matrix, op.antilinear_matrix):
        if part is not None:
            total += float(np.sum(np.abs(part.data) ** 2))
    return float(np.sqrt(total))


# ---------------------------------------------------------------------------
# grid operators

def _stencil(n: int, lower, diag, upper, periodic: bool) -> sp.csr_array:
    """Three-point stencil in CSR: lower, diag and upper on diagonals -1, 0 and +1.

    Each band is a scalar or one value per row; diag=None leaves the main
    diagonal empty. The first row's lower and the last row's upper entry
    fall off a Dirichlet grid and wrap into the corners of a periodic one.
    """
    bands = [lower, upper] if diag is None else [lower, diag, upper]
    width = len(bands)
    cols = np.arange(n)[:, None] + np.array([-1, 1] if diag is None else [-1, 0, 1])
    vals = np.column_stack([np.broadcast_to(band, (n,)) for band in bands])
    if periodic:
        m = sp.csr_array((vals.ravel(), (cols % n).ravel(), width * np.arange(n + 1)),
                         shape=(n, n))
        m.sort_indices()
        return m
    indptr = np.clip(width * np.arange(n + 1) - 1, 0, width * n - 2)
    return sp.csr_array((vals.ravel()[1:-1], cols.ravel()[1:-1], indptr), shape=(n, n))


def second_derivative(grid: Grid1D) -> LinearOperator:
    """Three-point stencil (f_{j-1} - 2 f_j + f_{j+1}) / h^2.

    Dirichlet drops the out-of-range neighbors (wavefunction pinned to
    zero at the walls); periodic wraps into a circulant.
    """
    h2 = grid.spacing ** 2
    return LinearOperator(_stencil(grid.n_points, 1.0 / h2, -2.0 / h2, 1.0 / h2,
                                   grid.boundary == PERIODIC))


def momentum(grid: Grid1D) -> LinearOperator:
    """p = -i D1 with the central difference (f_{j+1} - f_{j-1}) / 2h."""
    inv2h = 1.0 / (2.0 * grid.spacing)
    return LinearOperator(_stencil(grid.n_points, 1j * inv2h, None, -1j * inv2h,
                                   grid.boundary == PERIODIC))


def parity_operator(grid: Grid1D) -> LinearOperator:
    """Permutation matrix realizing x -> -x; squares to the identity exactly."""
    return LinearOperator.from_permutation(parity_permutation(grid))


def hamiltonian(grid: Grid1D, potential) -> LinearOperator:
    """H = -1/2 second_derivative + diag(V(x_j)); real symmetric."""
    x = grid.points
    v = np.asarray([float(potential(xi)) for xi in x])
    bad = np.flatnonzero(~np.isfinite(v))
    if bad.size:
        j = int(bad[0])
        raise PotentialEvaluationError(float(x[j]), float(v[j]))
    h2 = grid.spacing ** 2
    return LinearOperator(_stencil(grid.n_points, -0.5 / h2, 1.0 / h2 + v, -0.5 / h2,
                                   grid.boundary == PERIODIC))


def delta_well_hamiltonian(grid: Grid1D, lam: float) -> LinearOperator:
    """Free Hamiltonian minus lam/h at the single x = 0 grid point."""
    if lam < 0:
        raise ParameterError(f"delta-well coupling must be non-negative, got {lam!r}")
    if grid.boundary != DIRICHLET:
        raise ParameterError("delta well is discretized on a Dirichlet grid")
    j0 = grid.zero_index
    if j0 is None or abs(grid.points[j0]) > 1e-12 * grid.spacing:
        raise ParameterError(
            "grid has no x = 0 point; use an odd Dirichlet point count")
    h = hamiltonian(grid, lambda x: 0.0)
    d, e = h.tridiag_bands
    d[j0] -= lam / grid.spacing
    return LinearOperator.from_tridiag(d, e)


# ---------------------------------------------------------------------------
# supercharges

Q_EQ3 = "Q_eq3"
Q_EQ4 = "q_eq4"
QDAG_EQ4 = "qdag_eq4"
Q_EQ7 = "Q_eq7"
Q_ROTOR_NILPOTENT = "q_rotor"
QDAG_ROTOR_NILPOTENT = "qdag_rotor"


@dataclass(frozen=True)
class Supercharge:
    """A supercharge together with its adjoint action and provenance label."""

    kind: str  # linear | antilinear | mixed
    action: Operator
    adjoint_action: Operator
    mass_or_inertia: float
    label: str
    nilpotent_by_design: bool

    @property
    def dimension(self) -> int:
        return self.action.dimension

    def apply(self, v):
        return self.action.apply(v)

    def apply_adjoint(self, v):
        return self.adjoint_action.apply(v)


def _assert_anti_self_adjoint(op: Operator, label: str):
    resid = frobenius_norm(add(op.adjoint(), op))
    scale_ = frobenius_norm(op)
    if scale_ > 0 and resid > 1e-12 * scale_:
        raise NumericalContractError(
            f"{label}: expected the adjoint to equal the negated charge "
            f"(relative residual {resid / scale_:.2e})")


def supercharge_Q(p: LinearOperator, P: LinearOperator, mass: float) -> Supercharge:
    """Q = p P / sqrt(2 m); the adjoint P p / sqrt(2 m) equals -Q."""
    _check_dims(p, P)
    action = scale(compose(p, P), 1.0 / np.sqrt(2.0 * mass))
    _assert_anti_self_adjoint(action, "supercharge Q = pP")
    return Supercharge(kind=LINEAR, action=action, adjoint_action=scale(action, -1.0),
                       mass_or_inertia=mass, label=Q_EQ3, nilpotent_by_design=False)


def supercharge_q_pair(p: LinearOperator, P: LinearOperator,
                       mass: float) -> tuple[Supercharge, Supercharge]:
    """Nilpotent pair q = (p + pP)/sqrt(4m), qdag = (p - pP)/sqrt(4m)."""
    _check_dims(p, P)
    pref = 1.0 / np.sqrt(4.0 * mass)
    pP = compose(p, P)
    q_act = scale(add(p, pP), pref)
    qdag_act = scale(subtract(p, pP), pref)
    q = Supercharge(kind=LINEAR, action=q_act, adjoint_action=qdag_act,
                    mass_or_inertia=mass, label=Q_EQ4, nilpotent_by_design=True)
    qdag = Supercharge(kind=LINEAR, action=qdag_act, adjoint_action=q_act,
                       mass_or_inertia=mass, label=QDAG_EQ4, nilpotent_by_design=True)
    return q, qdag


def rotor_basis_operators(m_max: int, inertia: float):
    """Angular momentum, time reversal, and Hamiltonian on exp(i m phi), m = -m_max..m_max."""
    if m_max < 1:
        raise ParameterError(f"m_max must be at least 1, got {m_max}")
    m = np.arange(-m_max, m_max + 1, dtype=float)
    lz = LinearOperator(sp.diags_array(m, format="csr"))
    h = LinearOperator(sp.diags_array(m ** 2 / (2.0 * inertia), format="csr"))
    reversal = np.arange(len(m))[::-1].copy()  # exp(i m phi) -> exp(-i m phi)
    t = AntilinearOperator(LinearOperator.from_permutation(reversal))
    return lz, t, h


def rotor_supercharge(lz: LinearOperator, t: AntilinearOperator,
                      inertia: float) -> Supercharge:
    """Antilinear Q = L_z T / sqrt(2 I); adjoint T L_z / sqrt(2 I) = -Q."""
    _check_dims(lz, t)
    action = scale(compose(lz, t), 1.0 / np.sqrt(2.0 * inertia))
    _assert_anti_self_adjoint(action, "rotor supercharge Q = Lz T")
    return Supercharge(kind=ANTILINEAR, action=action, adjoint_action=scale(action, -1.0),
                       mass_or_inertia=inertia, label=Q_EQ7, nilpotent_by_design=False)


def rotor_supercharge_pair(lz: LinearOperator, t: AntilinearOperator,
                           inertia: float) -> tuple[Supercharge, Supercharge]:
    """Nilpotent rotor pair (L_z +/- L_z T) / sqrt(4 I), mixing linear and antilinear parts."""
    _check_dims(lz, t)
    pref = 1.0 / np.sqrt(4.0 * inertia)
    lzt = compose(lz, t)
    q_act = scale(add(lz, lzt), pref)
    qdag_act = scale(subtract(lz, lzt), pref)
    q = Supercharge(kind=MIXED, action=q_act, adjoint_action=qdag_act,
                    mass_or_inertia=inertia, label=Q_ROTOR_NILPOTENT,
                    nilpotent_by_design=True)
    qdag = Supercharge(kind=MIXED, action=qdag_act, adjoint_action=q_act,
                       mass_or_inertia=inertia, label=QDAG_ROTOR_NILPOTENT,
                       nilpotent_by_design=True)
    return q, qdag


def momentum_squared_hamiltonian(p: LinearOperator, mass: float) -> LinearOperator:
    """H = p^2 / 2m built from the same discrete momentum as the charges.

    The algebra identities H = {Q, Qdag}/2 and Q^2 = -H hold at machine
    precision only against this form; the three-point stencil Hamiltonian
    differs from it at O(h^2) and is used for spectral checks instead.
    """
    return LinearOperator(compose(p, p).linear_matrix / (2.0 * mass))
