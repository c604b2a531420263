"""Discrete operators and the supercharge construction.

Every operator is one class, MixedOperator (alias Operator): the
real-linear map v -> A v + B conj(v), with A and B held as scipy.sparse
CSR matrices, or None when a part is absent. LinearOperator(matrix)
builds a complex-linear one (B = None) and AntilinearOperator(linear)
an antilinear one such as time reversal (A = None); sums and products
carry whichever parts arise. Stencils, parity and the rotor basis are
built directly in CSR, so composing and applying them costs O(nnz), and
nothing is densified unless an eigensolver needs a full matrix.

Every supercharge comes from one construction: a symmetry generator G
and an involution S that anticommutes with it give

* Q = G S / sqrt(2 mu)              -- anti-Hermitian, Q^2 = -H
* q, qdag = (G +/- G S) / sqrt(4 mu) -- a nilpotent pair, each the other's adjoint

with G = p and S = parity (linear) for the free particle, and G = L_z and
S = time reversal (antilinear) for the planar rotor; compose carries the
antilinearity through. Either way a charge set is one labelled pair
(C, C^+): (Q, -Q) or (q, qdag).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import NumericalContractError, ParameterError, PotentialEvaluationError
from .grid import DIRICHLET, PERIODIC, Grid1D, parity_permutation


def _csr(m):
    if m is None:
        return None
    return m.tocsr() if sp.issparse(m) else sp.csr_array(np.asarray(m))


class MixedOperator:
    """Real-linear operator v -> A v + B conj(v) with sparse CSR parts.

    The one operator class: a linear operator has B = None, an antilinear
    one A = None, and sums and products of the two (the rotor's nilpotent
    charge pair, the closed algebra) carry both.
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
    def storage(self) -> str:
        """"tridiag" for a linear, real symmetric tridiagonal operator, else "csr".

        O(nnz): every nonzero must lie within one diagonal of the main one,
        with equal sub- and super-diagonals.
        """
        a = self.linear_matrix
        if a is None or self.antilinear_matrix is not None or np.any(np.imag(a.data)):
            return "csr"
        rows = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
        banded = not np.any(np.abs(a.indices - rows) > 1)
        return "tridiag" if banded and np.array_equal(a.diagonal(1), a.diagonal(-1)) else "csr"

    def apply(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v)
        out = 0
        if self.linear_matrix is not None:
            out = self.linear_matrix @ v
        if self.antilinear_matrix is not None:
            out = out + self.antilinear_matrix @ np.conj(v)
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
        return MixedOperator(None if a is None else a.conj().T, None if b is None else b.T)


Operator = MixedOperator


def LinearOperator(matrix) -> Operator:
    """The complex-linear operator v -> matrix v: the B = None case."""
    return MixedOperator(matrix)


def AntilinearOperator(linear: Operator) -> Operator:
    """v -> linear(conj(v)), the A = None case; A(alpha v) = conj(alpha) A(v) by construction."""
    return MixedOperator(None, linear.linear_matrix)


def from_permutation(perm) -> Operator:
    """Permutation matrix acting as v -> v[perm]."""
    perm = np.asarray(perm, dtype=int)
    n = len(perm)
    return LinearOperator(sp.csr_array((np.ones(n), perm, np.arange(n + 1)), shape=(n, n)))


def from_diagonal(values) -> Operator:
    """diag(values), built straight in CSR with the zero values left out.

    The result equals sp.diags_array(values, format="csr") in data,
    indices (int32 where they fit) and indptr, but skips the DIA
    format that call goes through: about 37 us against 134 us at the
    769 rows of a benchmark rotor.
    """
    values = np.asarray(values)
    n = len(values)
    index = np.int32 if n < 2 ** 31 else np.int64
    cols = np.flatnonzero(values).astype(index)
    indptr = np.zeros(n + 1, dtype=index)
    np.cumsum(values != 0, out=indptr[1:])
    return LinearOperator(sp.csr_array((values[cols], cols, indptr), shape=(n, n)))


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
    return MixedOperator(a, b)


def _combine(x: Operator, y: Operator, sign: float) -> Operator:
    """x + sign * y, part by part, for sign +1 or -1.

    Two present parts are added or subtracted by one sparse call, u + v or
    u - v, never u + sign * v: the scaling by +-1 is a second call (about
    25 us at 769 rows) whose result is known. A part present in y alone is
    taken as it is, or negated. On real data the values are the old ones
    bit for bit; on complex data numpy's -1.0 * v could give a zero real or
    imaginary part the opposite sign, which -v does not, and no check reads
    the sign of a zero.
    """
    _check_dims(x, y)

    def merge(u, v):
        if v is None:
            return u
        if u is None:
            return v if sign > 0 else -v
        return u + v if sign > 0 else u - v

    return MixedOperator(merge(x.linear_matrix, y.linear_matrix),
                         merge(x.antilinear_matrix, y.antilinear_matrix))


def add(x: Operator, y: Operator) -> Operator:
    return _combine(x, y, +1.0)


def subtract(x: Operator, y: Operator) -> Operator:
    return _combine(x, y, -1.0)


def scale(x: Operator, c: float) -> Operator:
    xa, xb = x.linear_matrix, x.antilinear_matrix
    return MixedOperator(None if xa is None else c * xa, None if xb is None else c * xb)


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


def second_derivative(grid: Grid1D) -> Operator:
    """Three-point stencil (f_{j-1} - 2 f_j + f_{j+1}) / h^2.

    Dirichlet drops the out-of-range neighbors (wavefunction pinned to
    zero at the walls); periodic wraps into a circulant.
    """
    h2 = grid.spacing ** 2
    return LinearOperator(_stencil(grid.n_points, 1.0 / h2, -2.0 / h2, 1.0 / h2,
                                   grid.boundary == PERIODIC))


def momentum(grid: Grid1D) -> Operator:
    """p = -i D1 with the central difference (f_{j+1} - f_{j-1}) / 2h."""
    inv2h = 1.0 / (2.0 * grid.spacing)
    return LinearOperator(_stencil(grid.n_points, 1j * inv2h, None, -1j * inv2h,
                                   grid.boundary == PERIODIC))


def parity_operator(grid: Grid1D) -> Operator:
    """Permutation matrix realizing x -> -x; squares to the identity exactly."""
    return from_permutation(parity_permutation(grid))


def hamiltonian(grid: Grid1D, potential) -> Operator:
    """H = -1/2 second_derivative + diag(V(x_j)); real symmetric.

    potential is either its samples V(x_j), one per grid point, or a
    callable, called once on the array of grid points; a scalar result
    (a constant potential such as lambda x: 0.0) is broadcast to every
    point. A non-finite value is refused with a PotentialEvaluationError.
    """
    x = grid.points
    v = potential(x) if callable(potential) else potential
    v = np.broadcast_to(np.asarray(v, dtype=float), x.shape)
    bad = np.flatnonzero(~np.isfinite(v))
    if bad.size:
        j = int(bad[0])
        raise PotentialEvaluationError(float(x[j]), float(v[j]))
    h2 = grid.spacing ** 2
    return LinearOperator(_stencil(grid.n_points, -0.5 / h2, 1.0 / h2 + v, -0.5 / h2,
                                   grid.boundary == PERIODIC))


def delta_well_hamiltonian(grid: Grid1D, lam: float) -> Operator:
    """Free Hamiltonian minus lam/h at the single x = 0 grid point."""
    if lam < 0:
        raise ParameterError(f"delta-well coupling must be non-negative, got {lam!r}")
    if grid.boundary != DIRICHLET:
        raise ParameterError("delta well is discretized on a Dirichlet grid")
    j0 = grid.zero_index
    if j0 is None or abs(grid.points[j0]) > 1e-12 * grid.spacing:
        raise ParameterError(
            "grid has no x = 0 point; use an odd Dirichlet point count")
    v = np.zeros(grid.n_points)
    v[j0] = -lam / grid.spacing
    return hamiltonian(grid, v)


# ---------------------------------------------------------------------------
# supercharges

# labels name the paper's equation, fixed by the kind of involution:
# parity (linear) gives eqs. 3 and 4, time reversal (antilinear) eq. 7
# and the rotor's nilpotent pair
_LABELS = {False: ("Q_eq3", "q_eq4", "qdag_eq4"), True: ("Q_eq7", "q_rotor", "qdag_rotor")}


@dataclass(frozen=True)
class Supercharge:
    """One charge of a charge set, with its provenance label.

    nilpotent_by_design marks the charges of a nilpotent pair, whose
    squares criterion 5 checks against zero.
    """

    action: Operator
    label: str
    nilpotent_by_design: bool

    def apply(self, v):
        return self.action.apply(v)


def supercharge_Q(g: Operator, s: Operator, mu: float) -> tuple[Supercharge, Supercharge]:
    """Q = G S / sqrt(2 mu) and its adjoint S G / sqrt(2 mu) = -Q, labelled <label>_adjoint.

    g is the symmetry generator and s an involution anticommuting with
    it, linear or antilinear. A Q whose adjoint is not -Q is refused with
    a NumericalContractError.
    """
    _check_dims(g, s)
    action = scale(compose(g, s), 1.0 / np.sqrt(2.0 * mu))
    label = _LABELS[s.antilinear_matrix is not None][0]
    resid = frobenius_norm(add(action.adjoint(), action))
    size = frobenius_norm(action)
    if size > 0 and resid > 1e-12 * size:
        raise NumericalContractError(
            f"{label}: expected the adjoint to equal the negated charge "
            f"(relative residual {resid / size:.2e})")
    return (Supercharge(action, label, nilpotent_by_design=False),
            Supercharge(scale(action, -1.0), label + "_adjoint", nilpotent_by_design=False))


def supercharge_q_pair(g: Operator, s: Operator,
                       mu: float) -> tuple[Supercharge, Supercharge]:
    """Nilpotent pair q = (G + G S)/sqrt(4 mu), qdag = (G - G S)/sqrt(4 mu).

    With an antilinear s (time reversal) each charge mixes a linear and
    an antilinear part.
    """
    _check_dims(g, s)
    pref = 1.0 / np.sqrt(4.0 * mu)
    gs = compose(g, s)
    _, q_label, qdag_label = _LABELS[s.antilinear_matrix is not None]
    return (Supercharge(scale(add(g, gs), pref), q_label, nilpotent_by_design=True),
            Supercharge(scale(subtract(g, gs), pref), qdag_label, nilpotent_by_design=True))


def rotor_basis_operators(m_max: int, inertia: float):
    """Angular momentum, time reversal, and Hamiltonian on exp(i m phi), m = -m_max..m_max.

    m_max and inertia are taken as a PlanarRotor validates them. L_z and H
    are diagonal in this basis and are built straight in CSR
    (from_diagonal), so the m = 0 entry of each is left out.
    """
    m = np.arange(-m_max, m_max + 1, dtype=float)
    lz = from_diagonal(m)
    h = from_diagonal(m ** 2 / (2.0 * inertia))
    reversal = np.arange(len(m))[::-1].copy()  # exp(i m phi) -> exp(-i m phi)
    t = AntilinearOperator(from_permutation(reversal))
    return lz, t, h


def momentum_squared_hamiltonian(p: Operator, mass: float) -> Operator:
    """H = p^2 / 2m built from the same discrete momentum as the charges.

    The algebra identities H = {Q, Qdag}/2 and Q^2 = -H hold at machine
    precision only against this form; the three-point stencil Hamiltonian
    differs from it at O(h^2) and is used for spectral checks instead.
    """
    return LinearOperator(compose(p, p).linear_matrix / (2.0 * mass))
