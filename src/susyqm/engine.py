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

Spectra come from one path: every Hamiltonian here commutes with an
exact parity permutation (x -> -x on the grid, m -> -m on the rotor
basis), so numeric_spectrum folds it into an even and an odd block, both
tridiagonal for the three-point stencil and diagonal for the rotor:
sliced from its three diagonals when it is banded under the reversal
j -> n - 1 - j (Dirichlet grids and the rotor), else from its entries.
When both are diagonal they need no eigensolve: their levels are their
sorted diagonals and their vectors unit vectors, kept as one row index
per level. Other blocks are solved by divide and conquer (stevd) when
every level is wanted; otherwise by shift-invert Lanczos for exactly the
levels needed (_krylov_levels), or, where Lanczos does not converge, by
bisection (stebz) and inverse iteration (stein); _lowest_levels states
each path's memory. Parity labels are the block a level came from, and
every eigenvector is real. An energy-only caller asks for no vectors:
its Lanczos stops at the Ritz values, a block whose Lanczos basis would
pass a memory limit is bisected, and its spectrum keeps no sectors.

scipy.linalg is imported on the first solve that needs LAPACK
(_load_lapack), not with this module: the rotor's diagonal blocks, the
charges' folds and the eq5 table need none, and the import costs about
8 MB resident and 40 ms.

Every charge set is a labelled pair (C, C^+), (Q, -Q) or (q, qdag): the
criteria iterate it and read nilpotent_by_design from its first charge.
Criterion 3 is computed in the sector coordinates. Every supercharge is
odd under the same parity, so the entries of its parts fold together, in
one pass, into a block from the even sector to the odd one and a block
back; the pair leakage and the ground-state annihilation need the block
eigenvectors and, for the ground state, one unfolded column, never the
full-space eigenvectors. On unit block vectors the leakage is read off
the folded blocks' entries in O(nnz).

Algebra residuals are only meaningful on periodic grids (or the rotor
basis); Dirichlet models get spectral checks instead, and build_check
refuses them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from . import operators as ops
from .errors import (DirichletAlgebraError, NumericalContractError, ParameterError,
                     require_positive)
from .grid import DIRICHLET, PERIODIC, Grid1D, build_grid
from .models import (EVEN, ODD, DeltaWell, FreeParticle, ModelSpec, ParticleInBox,
                     PlanarRotor, SecSquaredPartner, sec_squared_potential)

MACHINE_TOL = 1e-12      # identities that hold exactly in the discretization
ZERO_TOL = 1e-10         # least |E0| that criterion 1 takes as zero
ANNIHILATION_TOL = 1e-10  # criterion 3: most ||C psi0|| / ||psi0||; not yet scaled with n
PAIR_LEAK_TOL = 1e-8      # criterion 3: most leak of C psi out of its pair; not yet scaled with n
# criterion 3: a pair image ||C psi|| under this times 1 + sqrt|E| counts as
# annihilated and is skipped; not yet scaled with n
ANNIHILATED_IMAGE_TOL = 1e-10
CONVERGENCE_TOL = 1e-4   # grid eigenvalues against analytic values, relative
PAIR_TOL = 1e-6          # default relative degeneracy tolerance

# scipy.linalg's names that the solvers call, bound as module globals on first use
_LAPACK_NAMES = ("eigh", "eigh_tridiagonal", "lapack")


def _load_lapack() -> None:
    """Bind scipy.linalg's eigh, eigh_tridiagonal and lapack here, importing it if need be.

    A name already bound is kept: it may be a wrapper that a tracer or a
    test put in its place, which must go on seeing every call. The
    solvers call the bare global names, so every entry to a LAPACK solve
    runs this first.
    """
    import scipy.linalg
    names = globals()
    for name in _LAPACK_NAMES:
        names.setdefault(name, getattr(scipy.linalg, name))


def __getattr__(name: str):
    # reading engine.eigh_tridiagonal (say, to wrap it) loads the three names first
    if name in _LAPACK_NAMES:
        _load_lapack()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class Spectrum:
    """Sorted eigenvalues, the parity sector of each, and eigenvectors built on first read.

    sector_of, the block each level came from (0 even, 1 odd), is the one
    record of its parity. A spectrum that numeric_spectrum solved with
    vectors also keeps the two parity blocks (sectors, each built with
    the block eigenvectors of its levels); one of energies alone keeps no
    sectors and refuses every vector read. Criterion 3 reads the block
    vectors; the full-space eigenvectors, a real float64 array of unit-norm
    columns, are unfolded from them only when .eigenvectors is first read.
    """

    def __init__(self, eigenvalues: np.ndarray, sector_of: np.ndarray, *, sectors=()):
        self.eigenvalues = eigenvalues
        self.sector_of = sector_of
        self.sectors = sectors

    @property
    def parity_labels(self) -> list[str]:
        return [_SECTOR_LABELS[i] for i in self.sector_of]

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        return _eigenvectors(self, np.arange(len(self)))

    def vector(self, i: int) -> np.ndarray:
        """The full-space eigenvector of level i, unfolding only that column."""
        return _eigenvectors(self, np.array([i]))[:, 0]

    def __len__(self) -> int:
        return len(self.eigenvalues)


def model_operators(model: ModelSpec, n_points: int | None):
    """The Hamiltonian, the parity operator and the grid of a catalog model.

    Box, sec^2 partner and delta well lie on a Dirichlet grid of n_points,
    the free particle on a periodic one. The rotor's basis, m = -m_max..m_max
    with parity m -> -m, has no grid (None) and reads no n_points.
    """
    if isinstance(model, PlanarRotor):
        _, t, h = ops.rotor_basis_operators(model.m_max, model.inertia)
        return h, ops.LinearOperator(t.antilinear_matrix), None
    if isinstance(model, DeltaWell):
        grid = build_grid(model.box_length / 2.0, n_points, DIRICHLET)
        return ops.delta_well_hamiltonian(grid, model.coupling), ops.parity_operator(grid), grid
    if not isinstance(model, (FreeParticle, ParticleInBox, SecSquaredPartner)):
        raise ParameterError(f"unsupported model {model!r}")
    grid = build_grid(model.length / 2.0, n_points,
                      PERIODIC if isinstance(model, FreeParticle) else DIRICHLET)
    potential = (sec_squared_potential(model.length) if isinstance(model, SecSquaredPartner)
                 else lambda x: 0.0)
    return ops.hamiltonian(grid, potential), ops.parity_operator(grid), grid


def numeric_spectrum(h: ops.Operator, parity: ops.Operator,
                     n_levels: int, *, vectors: bool = True) -> Spectrum:
    """Lowest n_levels eigenpairs of h, each of definite parity.

    parity must be a permutation matrix whose permutation pi is an
    involution, and h must be real and commute with it bit for bit
    (P h P == h). Then h folds into an even and an odd block over the
    representatives j <= pi(j); for the three-point stencil on Dirichlet
    and periodic grids both blocks are tridiagonal, and for the rotor's
    diagonal h both are diagonal. Two folds give the same blocks bit for
    bit (_sectors): an h whose three diagonals hold its every nonzero
    entry, under the grid reversal pi(j) = n - 1 - j, as every Dirichlet
    stencil and the rotor's h are, is sliced from them in O(n); any
    other, such as the periodic stencil with its corner entries, is
    folded from its entries in O(nnz). The parity label of every level is the
    block it came from, and every eigenvector is real and satisfies
    v[pi] == +/-v exactly. The Spectrum keeps both blocks, each built
    with the eigenvectors of its levels, from which criterion 3 is
    computed without unfolding. An h that is not even under parity, or
    whose blocks are not tridiagonal, is refused with a ParameterError; a
    non-Hermitian h with a NumericalContractError.

    When both blocks are diagonal their levels are exact: each block's
    diagonal in stable order, each vector a unit vector (_diagonal_levels).
    Otherwise a block whose every level is wanted is solved by divide and
    conquer; a truncated one by shift-invert Lanczos (_krylov_levels),
    values and block vectors together, each value the Rayleigh quotient
    of a vector whose residual is at most c * eps * ||block||_1, or by
    bisection and inverse iteration if Lanczos does not converge
    (_lowest_levels). Every level has its vector.

    With vectors=False, for callers that read energies alone, a
    truncated block's Lanczos stops at its Ritz values, each within half
    the residual bound of an eigenvalue (_lanczos), with no refinement,
    or the block is bisected; the Spectrum keeps no sectors, so every
    vector read is refused. The Sturm counts below certify either way
    that no level was skipped.

    Eigenvalues are accurate to about eps * ||h||_1 in absolute terms
    (eps = 2.2e-16), not relative to each level. On a grid ||h||_1 is
    about 2/h^2, so at 10^5 points on a box of length pi that is 4.5e-7,
    and a low level moves by up to that much between requests for
    different n_levels. The full-space eigenvectors are unfolded from the
    block vectors when .eigenvectors is first read, so callers that need
    only energies never pay for them.
    """
    n = h.dimension
    if n_levels < 1:
        raise ParameterError(f"n_levels must be at least 1, got {n_levels}")
    if n_levels > n:
        raise ParameterError(f"n_levels {n_levels} exceeds dimension {n}")
    perm = _involution(parity, n)
    sectors = _sectors(h, perm)
    # a Hamiltonian diagonal in the parity basis (the rotor's) needs no eigensolve
    solve = _lowest_levels if any(np.any(s.offdiag) for s in sectors) else _diagonal_levels

    # The even sector is asked for ceil(n_levels/2) levels and the odd one
    # for floor(n_levels/2), a sector too small for its share passing the
    # rest to the other, so a whole spectrum is one full solve per sector.
    # A truncated sector then counts its levels at or below the merged
    # n_levels-th level, or at or below its own top level plus the solve's
    # residual bound if that is higher. If it holds more than it solved,
    # either more levels lie below the cut or the solve skipped one, and it
    # solves again for exactly that many; a block whose solves keep
    # skipping levels grows to the full solve.
    dims = [s.dim for s in sectors]
    want = [min(dims[0], max(-(-n_levels // 2), n_levels - dims[1])),
            min(dims[1], max(n_levels // 2, n_levels - dims[0]))]
    solved = [(np.empty(0), np.empty((s.dim, 0))) for s in sectors]
    while True:
        solved = [sol if len(sol[0]) == k else solve(s, k, vectors)
                  for s, k, sol in zip(sectors, want, solved)]
        values = [sol[0] for sol in solved]
        cut = np.sort(np.concatenate(values))[n_levels - 1]
        grown = []
        for s, k, v in zip(sectors, want, values):
            if k < s.dim:
                top = max(cut, v[-1] + _residual_bound(s)) if k else cut
                k = max(k, _count_at_or_below(s, top))
            grown.append(k)
        if grown == want:
            break
        want = grown

    vals = np.concatenate(values)
    order = np.argsort(vals, kind="stable")[:n_levels]
    sector_of = np.repeat([0, 1], [len(v) for v in values])[order]
    if not vectors:
        return Spectrum(vals[order], sector_of)
    # a sector's chosen levels are its lowest ones, in order
    sectors = tuple(replace(s, vectors=u[:, :k]) for s, (_, u), k
                    in zip(sectors, solved, np.bincount(sector_of, minlength=2)))
    return Spectrum(vals[order], sector_of, sectors=sectors)


_SECTOR_LABELS = (EVEN, ODD)
_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class _Sector:
    """One parity block of a folded Hamiltonian, as a symmetric tridiagonal matrix.

    Block row k stands for the basis vector (e_a + sign e_pi(a)) / sqrt(2)
    of representative a = reps[k], or e_a alone when a is a fixed point
    (perm[a] == a). vectors, given at construction, holds the block
    eigenvectors of a spectrum's levels here, dim x levels, as the solve
    made them: dense from stevd, Lanczos or stein, unit CSC columns from
    _diagonal_levels.
    """

    sign: float
    reps: np.ndarray
    perm: np.ndarray
    diag: np.ndarray
    offdiag: np.ndarray
    vectors: np.ndarray | sp.csc_array | None = None

    @property
    def dim(self) -> int:
        return len(self.reps)

    def unfold(self, cols: np.ndarray) -> np.ndarray:
        """The full-space vectors of the block eigenvectors in columns cols, as n x len(cols).

        v[a] = u / sqrt(2) and v[pi(a)] = sign * u / sqrt(2), or v[a] = u at a
        fixed point, so every vector has its parity exactly. One gather over
        the full-space rows: row j reads the block row of its representative
        min(j, pi(j)), divided by 1 at a fixed point, sqrt(2) at a
        representative and sign * sqrt(2) at its mirror. Unit vectors are
        made dense first, in the chosen columns only.
        """
        u = self.vectors
        if sp.issparse(u):
            u, cols = u[:, cols].toarray(), np.arange(len(cols))
        j = np.arange(len(self.perm))
        at_fixed = self.perm == j
        row = np.zeros(len(j), dtype=np.intp)
        row[self.reps] = np.arange(self.dim)
        div = np.where(at_fixed, 1.0, np.where(j < self.perm, _SQRT2, self.sign * _SQRT2))
        v = u[np.ix_(row[np.minimum(j, self.perm)], cols)]
        v /= div[:, None]
        if self.sign < 0:
            v[at_fixed] = 0.0  # the odd sector has no row at a fixed point
        return v


def _involution(parity: ops.Operator, n: int) -> np.ndarray:
    """The permutation pi of a parity operator P v = v[pi], required to be an involution."""
    m = parity.linear_matrix
    if (parity.antilinear_matrix is not None or m.shape != (n, n)
            or not np.array_equal(m.indptr, np.arange(n + 1)) or np.any(m.data != 1)):
        raise ParameterError(
            f"parity must be a linear {n}x{n} permutation matrix to fold the Hamiltonian")
    perm = m.indices
    if not np.array_equal(perm[perm], np.arange(n)):
        raise ParameterError("the parity permutation is not an involution")
    return perm


def _sectors(h: ops.Operator, perm: np.ndarray) -> tuple[_Sector, _Sector]:
    """Even and odd tridiagonal blocks of h, by one of two folds that give the same bits.

    It first refuses, in this order, an h that is not complex-linear,
    has a non-finite entry or is not real, read off its data. The band
    fold (_band_blocks) then takes h straight from its three diagonals by
    slicing, in O(n). It runs when h is float64 (or complex128 with zero
    imaginary parts), the parity is the grid reversal pi(j) = n - 1 - j
    and the three diagonals hold every nonzero entry (ops.band_diagonals):
    every Dirichlet stencil and the rotor's diagonal h. P h P == h is then
    two comparisons of a diagonal with its reverse. Every other h, such as
    the periodic stencil with its corner entries, or any other involution,
    takes the entry fold (_fold), as every charge does: O(nnz), with the
    evenness read off a sort of the mapped entries (_commutes); its blocks
    are read back through ops.band_diagonals too (_tridiagonals), and one
    that is not tridiagonal is refused. On either an explicit zero, or a
    block sum that cancels, couples nothing. Both then refuse, in this
    order and in the same words, an h that is not even, whose entries'
    squares overflow or vanish, or that is not Hermitian to 1e-8 of its
    scale.
    """
    a = h.linear_matrix
    if a is None or h.antilinear_matrix is not None:
        raise ParameterError("numeric_spectrum needs a complex-linear Hamiltonian")
    a = ops.canonical(a)
    if not np.all(np.isfinite(a.data)):
        raise ParameterError("the Hamiltonian has a non-finite entry")
    if np.iscomplexobj(a.data):
        if np.any(a.data.imag):
            raise ParameterError("numeric_spectrum needs a real Hamiltonian")
        a = a.real
    band = (a.dtype == np.float64 and np.array_equal(perm, np.arange(len(perm))[::-1])
            and ops.band_diagonals(a))
    if band:
        d, u, l = band
        vals = a.data
        even = np.array_equal(d, d[::-1]) and np.array_equal(u, l[::-1])
    else:
        rows, cols, vals = _entries(a, "Hamiltonian")
        even = _commutes(perm, rows, cols, vals)
    if not even:
        raise ParameterError(
            "the Hamiltonian is not bit-exactly even under parity (P H P != H); "
            "the parity-sector eigensolve needs a reflection-symmetric potential")
    with np.errstate(over="ignore"):
        scale = np.sqrt(np.dot(vals, vals))
    if np.any(vals) and not 0 < scale < np.inf:
        raise ParameterError(
            "the Hamiltonian's entries are out of range: their squares overflow or "
            "vanish in double precision")
    if band:
        blocks = _band_blocks(d, u, l)
    else:
        blocks = (_tridiagonals(*block) for block in _fold(perm, rows, cols, vals, 1.0))
        del rows, cols, vals  # the fold keeps only their rows on representatives
    # each block's entries are dropped before the fold builds the next
    sectors, asym_sq = zip(*(_sector(sign, perm, *next(blocks)) for sign in (1.0, -1.0)))
    # the fold is orthogonal, so the blocks' asymmetry is that of h itself
    asym = np.sqrt(sum(asym_sq))
    if scale > 0 and asym > 1e-8 * scale:
        raise NumericalContractError("numeric_spectrum requires a Hermitian matrix")
    return sectors


def _entries(m: sp.csr_array, name: str):
    """(row, column, value) of a CSR matrix's nonzero entries, in canonical order.

    Explicit zeros couple nothing and are dropped; a non-finite entry is
    refused.
    """
    m = ops.canonical(m)
    rows = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
    cols, vals = m.indices, m.data
    if not np.all(vals):
        keep = vals != 0
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
    if not np.all(np.isfinite(vals)):
        raise ParameterError(f"the {name} has a non-finite entry")
    return rows, cols, vals


def _band_blocks(d: np.ndarray, u: np.ndarray, l: np.ndarray):
    """The even, then the odd block of a banded h even under the grid reversal, from its diagonals.

    d, u and l are h's main, upper and lower diagonals, u[i] = h[i, i + 1]
    and l[i] = h[i + 1, i]. The representatives j <= n - 1 - j are the
    first rows, so each block is h's top left corner but at the centre:
    at odd n, the fixed point c = (n - 1) / 2 couples to c - 1 by
    sqrt(2) h[c - 1, c] in the even block and is absent from the odd one;
    at even n, the mirror pair c - 1, c = n / 2 adds +h[c - 1, c] to the
    even block's last diagonal entry and -h[c - 1, c] to the odd one's.
    Each entry is the sum or product that _fold and _tridiagonals would
    form from h's entries, so the blocks are the same bit for bit. Each
    block comes as (reps, diag, upper, lower), as from _tridiagonals.
    """
    half = len(d) // 2
    if len(d) % 2:
        upper, lower = u[:half].copy(), l[:half].copy()
        upper[half - 1:] *= _SQRT2
        lower[half - 1:] *= _SQRT2
        yield np.arange(half + 1, dtype=np.intp), d[:half + 1].copy(), upper, lower
        yield np.arange(half, dtype=np.intp), d[:half].copy(), u[:half - 1], l[:half - 1]
        return
    for sign in (1.0, -1.0):
        diag = d[:half].copy()
        diag[-1] += sign * u[half - 1]
        yield np.arange(half, dtype=np.intp), diag, u[:half - 1], l[:half - 1]


def _fold(perm: np.ndarray, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
          sign: float):
    """The two parity blocks of a matrix m with P m P = sign * m, from its entries in O(nnz).

    The even sector's basis is (e_a + e_pi(a)) / sqrt(2) over
    representatives a < pi(a), and e_a at fixed points a = pi(a); the odd
    sector's is (e_a - e_pi(a)) / sqrt(2), with no fixed points. An even
    m (sign +1, the Hamiltonian) maps each sector to itself, and the
    blocks come even->even, then odd->odd; an odd m (sign -1, a
    supercharge) maps each onto the other, and they come even->odd,
    then odd->even. Each block is yielded in turn as the
    representatives of its rows' sector and its entries (block row, block
    column, value), duplicates to be summed.

    Block entry (a, b) is m[a, b] + s m[a, pi(b)], with s the sign of b's
    sector; a fixed point's coupling to another representative gets a
    factor sqrt(2) in place of the sum of its two equal entries, and an
    entry between two fixed points stays m[a, b]. The blocks are built
    entry by entry from these sums, not as U^T m U with 1/sqrt(2)
    factors, so that exactly symmetric m gives exactly symmetric blocks
    and exact entries stay exact.
    """
    j = np.arange(len(perm))
    fixed = perm == j
    is_rep = j <= perm
    # P m P = sign * m makes the rows of non-representatives redundant
    on_rep_row = is_rep[rows]
    rows, cols, vals = rows[on_rep_row], cols[on_rep_row], vals[on_rep_row]
    # block index of each representative in the even and in the odd sector
    pos = (np.cumsum(is_rep) - 1, np.cumsum(is_rep & ~fixed) - 1)
    b = np.minimum(cols, perm[cols])  # the representative of each column
    mirrored = cols != b
    rf, bf = fixed[rows], fixed[b]
    vals = np.where(rf ^ bf, _SQRT2 * vals, vals)
    for row_odd in ((False, True) if sign > 0 else (True, False)):
        col_odd = row_odd != (sign < 0)
        # a fixed row sees b and pi(b) with equal entries: keep one
        keep = ~(rf & mirrored)
        if row_odd:
            keep &= ~rf
        if col_odd:
            keep &= ~bf
        v = vals[keep]
        if col_odd:
            v[mirrored[keep]] *= -1.0
        reps = np.flatnonzero(is_rep & ~fixed if row_odd else is_rep)
        yield reps, pos[row_odd][rows[keep]], pos[col_odd][b[keep]], v


def _commutes(perm: np.ndarray, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
              sign: float = 1.0) -> bool:
    """P m P == sign * m bit for bit, for the entries of m.

    (r, c) -> (pi(r), pi(c)) must map m's entries onto themselves, each
    value times sign. The canonical CSR keys r * n + c ascend; under a
    grid reflection the mapped keys mostly descend, which the stable sort
    handles in O(nnz).
    """
    n = len(perm)
    mapped = perm[rows].astype(np.int64, copy=False)
    mapped *= n
    mapped += perm[cols]
    order = np.argsort(mapped, kind="stable")
    if not np.array_equal(vals[order], sign * vals):
        return False
    key = rows.astype(np.int64)
    key *= n
    key += cols
    return np.array_equal(mapped[order], key)


def _tridiagonals(reps: np.ndarray, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray):
    """(reps, diag, upper, lower) of a folded block of h, from its entries (row, column, value).

    scipy lays the entries out in CSR, duplicates summed, and
    ops.band_diagonals reads the three diagonals back; a block with a
    nonzero entry off them is refused.
    """
    dim = len(reps)
    band = ops.band_diagonals(sp.csr_array((vals, (rows, cols)), shape=(dim, dim)))
    if band is None:
        raise ParameterError(
            "a parity block of the Hamiltonian is not tridiagonal; the sector "
            "eigensolve needs a three-point stencil or a diagonal Hamiltonian")
    return reps, *band


def _sector(sign: float, perm: np.ndarray, reps: np.ndarray, diag: np.ndarray,
            upper: np.ndarray, lower: np.ndarray) -> tuple[_Sector, float]:
    """A sector and ||block - block^T||_F^2, from the block's three diagonals."""
    return (_Sector(sign=sign, reps=reps, perm=perm, diag=diag, offdiag=(upper + lower) / 2.0),
            2.0 * float(np.dot(upper - lower, upper - lower)))


# Most bytes a whole-block solve may take: stevd's dim x dim eigenvectors and
# its workspace of as much again, about 16 * dim^2 bytes. Fixed, not read from
# the machine, so that the exit code does not depend on the host. 2 GiB admits
# the every-level check at 16384 points (even block 8193 rows: 16 * 8193^2 =
# 1.07 GB) and refuses 32768 points (16385 rows: 16 * 16385^2 = 4.30 GB).
_WHOLE_BLOCK_BYTES = 2 ** 31


def _lowest_levels(sector: _Sector, k: int, vectors: bool):
    """The k lowest eigenvalues of a sector block and their block eigenvectors (or None).

    For the blocks of a Hamiltonian that is not diagonal in the parity
    basis (those of one that is go to _diagonal_levels). A full block is
    one eigh_tridiagonal call, whose 'auto' driver is stevd (divide and
    conquer); its backward error puts the eigenvalues within a few
    eps * ||block||_1 of the exact ones. So is a block too small for the
    Lanczos basis of k levels to stay below its dimension (_basis_cap).
    Any other block is truncated: shift-invert Lanczos (_krylov_levels)
    solves it, unless it asks for energies alone and its basis would pass
    _KRYLOV_BASIS_LIMIT. Otherwise, or if Lanczos does not converge, it is
    bisected (stebz) for its k lowest values, as accurate as stevd, and
    with vectors inverse iteration (stein; Parlett, The Symmetric
    Eigenvalue Problem, SIAM 1998) finds each level's vector. stein's
    residuals measured 2 to 5 eps * ||T||_1 at 1001 to 4001 rows and 11 to
    19 at 50001, around _residual_bound, which they are not held to.

    Peak memory for dim rows and k levels: (4k + 64) * dim * 8 bytes for
    the Lanczos basis, and two k x dim arrays more to refine its vectors;
    two k x dim arrays for bisection's vectors, O(dim) without them;
    dim^2 * 8 bytes for a whole block's vectors, and as much for stevd's
    workspace, only where dim <= 4k + 64. So every peak grows with k * dim.
    A whole block over _WHOLE_BLOCK_BYTES is refused before it is solved.

    Without vectors Lanczos stops at its Ritz values, and the vectors of
    a full block are dropped. Such a block is still solved with them:
    stevd for values alone runs sterf, 3 to 6 times faster at 257 to 2049
    rows, but on the sec^2 partner's blocks at 4001 points its values lay
    up to 43 eps * ||H||_1 from bisection's, where stevd's lay within 1.1.
    """
    whole = _basis_cap(k) >= sector.dim
    if whole and (need := 16 * sector.dim ** 2) > _WHOLE_BLOCK_BYTES:
        raise ParameterError(
            f"a whole parity block of {sector.dim} rows needs about {need / 1e9:.1f} GB of "
            "eigenvectors and solver workspace, above the whole-block limit of "
            f"{_WHOLE_BLOCK_BYTES / 1e9:.1f} GB; ask for fewer levels or points")
    _load_lapack()
    if whole:
        vals, vecs = eigh_tridiagonal(sector.diag, sector.offdiag)
        return vals[:k], vecs[:, :k] if vectors else None
    if vectors or _basis_cap(k) * sector.dim <= _KRYLOV_BASIS_LIMIT:
        found = _krylov_levels(sector, k, vectors)
        if found is not None:
            return found
    found = eigh_tridiagonal(sector.diag, sector.offdiag, eigvals_only=not vectors,
                             select="i", select_range=(0, k - 1))
    return found if vectors else (found, None)


def _diagonal_levels(sector: _Sector, k: int, vectors: bool):
    """The k lowest levels of a diagonal sector block, exactly, with unit block vectors.

    The levels are the diagonal in stable order, and level i's vector is
    the unit vector at its row, held as a dim x k CSC array with one
    entry per column: O(dim log dim) time and O(dim) memory, where a
    dense solve would take O(dim^2) memory for the vectors (about 20 GB
    for the rotor at m_max 50000). Without vectors, None.
    """
    rows = np.argsort(sector.diag, kind="stable")[:k]
    if not vectors:
        return sector.diag[rows], None
    return sector.diag[rows], sp.csc_array((np.ones(k), rows, np.arange(k + 1)),
                                           shape=(sector.dim, k))


def _count_at_or_below(sector: _Sector, x: float) -> int:
    """How many eigenvalues of a sector block are <= x, from Sturm counts in O(dim).

    numeric_spectrum counts a truncated sector after each solve, so that a
    level below the cut that the sector was not asked for, or that its
    solve skipped, is found. A diagonal block is counted exactly, with no
    LAPACK call. Otherwise eigh_tridiagonal selecting by value returns
    one estimate per eigenvalue in the window; with a tolerance as wide
    as the window the bisection stops once it has counted at the window's
    ends. The window starts below -||block||_inf, under every eigenvalue.
    numeric_spectrum counts such a block only after _lowest_levels has
    solved one, which loaded LAPACK.
    """
    if not np.any(sector.offdiag):
        return int(np.count_nonzero(sector.diag <= x))
    low = -2.0 * _tridiag_norm1(sector.diag, sector.offdiag) - 1.0
    if x <= low:
        return 0
    return len(eigh_tridiagonal(sector.diag, sector.offdiag, eigvals_only=True,
                                select="v", select_range=(low, x), tol=x - low))


# ---------------------------------------------------------------------------
# truncated sectors: shift-invert Lanczos
#
# Ericsson & Ruhe, "The spectral transformation Lanczos method", Math. Comp.
# 35 (1980); Parlett, The Symmetric Eigenvalue Problem (SIAM, 1998), ch. 13.

_EPS = np.finfo(float).eps
# c of the stopping rule ||T y - rho y|| <= c * eps * ||T||_1. On the benchmark's
# sectors at 10^5 points (box, sec^2 partner, delta well; 8 and 16 levels) the
# returned residuals measured 0.9 to 5.0 eps * ||T||_1, and their rounding floor
# 0.3 to 0.55, so c = 16 stops Lanczos a few steps before that floor.
_RESIDUAL_EPS_FACTOR = 16.0
_SHIFT_STEPS = 6        # most Collatz-Wielandt steps towards the lowest level
_SHIFT_BACKOFF = 0.25   # sigma ends at least this fraction of the gap below the lowest level
_START_SEED = 20040115  # fixed seed of the Lanczos start vectors


# Most float64 entries (64 MiB) that the Lanczos basis of an energy-only
# request may take; a larger request is bisected. A request for vectors takes
# its basis at any size (_lowest_levels). Values only, on one 50001-row box
# block (10^5 points), in single in-process runs on a 2-core x86-64 host, for
# 24 / 32 / 48 / 64 / 128 levels: Lanczos took 128 / 187 / 311 / 512 / 2746 ms
# at traced peaks of 64 / 76 / 101 / 125 / 223 MiB, and bisection 280 / 377 /
# 575 / 779 / 1522 ms in O(dim) memory. The limit admits 24 levels of such a
# block (a basis of 160 vectors) and bisects 32 (192 vectors).
_KRYLOV_BASIS_LIMIT = 2 ** 23


# The basis is taken from one block of at least 32 MiB of address space; its pages
# become resident only as Lanczos writes them. glibc raises its mmap threshold to
# the size of any freed mapped block below 32 MiB, after which freed heap memory
# up to twice that size stays resident: freeing the 30.5 MiB basis of a 4-level
# solve at 10^5 points raised the peak RSS of the dirichlet-spectral workload by
# about 20 MB.
_BASIS_RESERVE = 2 ** 22 + 1  # float64 entries, just over 32 MiB


def _basis_cap(k: int) -> int:
    """Most Lanczos vectors for k levels; on the benchmark's sectors 8 levels took
    21 to 23 and 16 levels 37 to 41."""
    return 4 * k + 64


def _residual_bound(sector: _Sector) -> float:
    """c * eps * ||T||_1: the residual every level of a truncated solve meets."""
    return _RESIDUAL_EPS_FACTOR * _EPS * _tridiag_norm1(sector.diag, sector.offdiag)


def _tridiag_norm1(d: np.ndarray, e: np.ndarray) -> float:
    a = np.abs(e)
    col = np.abs(d)
    col[1:] += a
    col[:-1] += a
    return float(np.max(col, initial=0.0))


def _tridiag_apply(d: np.ndarray, e: np.ndarray, x: np.ndarray) -> np.ndarray:
    """T x for the symmetric tridiagonal T = (d, e), on a vector or on each row of x."""
    y = x * d
    y[..., 1:] += x[..., :-1] * e
    y[..., :-1] += x[..., 1:] * e
    return y


def _krylov_levels(sector: _Sector, k: int, vectors: bool):
    """The k lowest eigenpairs of a sector block T, 0 < k < dim, by shift-invert Lanczos.

    The signature similarity D T D, D = diag(+-1), makes every
    off-diagonal <= 0 without changing the eigenvalues; its vectors are D
    times those of T. _lower_shift finds sigma below the lowest level and
    factors D T D - sigma = L D' L^T once (pttrf), and _lanczos runs on
    (D T D - sigma)^-1, applied by pttrs in O(dim). All of it runs on
    T / 2^p, ||T||_1 / 2^p in [1/2, 1), and the energies are multiplied
    back; both are exact, so the bits are those of a solve on T wherever
    that stays in range (on T, Rayleigh quotients overflowed or vanished
    for boxes of length 1e-40 and 1e40 at 4001 points). Each returned
    energy is the Rayleigh quotient in T of its returned vector, whose
    residual is at most _residual_bound; without vectors, each is a Ritz
    value within half that bound of an eigenvalue, and the vectors are
    None. A solve can still skip a level that its start vector barely holds;
    numeric_spectrum's count finds that and asks again for more levels.

    None if the basis reaches _basis_cap(k) vectors before the k levels
    converge; _lowest_levels then bisects the block. That happens when the
    top wanted levels lie in a dense continuum far above a deep lowest
    level: on a 10^5-point delta well of coupling 5 in a box of length 400
    (lowest level -12.5), (T - sigma)^-1 separates its 32nd and 33rd even
    levels by a relative gap of 5e-4. It happens too when the second level
    lies far closer to the lowest than the levels above do, as in a block
    of triply degenerate levels: sigma then lies as close, and
    (T - sigma)^-1 amplifies the rounding of the upper levels past the
    residual bound.
    """
    _load_lapack()
    p = np.frexp(_tridiag_norm1(sector.diag, sector.offdiag))[1]
    d = np.ldexp(sector.diag, -p)
    e = -np.abs(np.ldexp(sector.offdiag, -p))
    # D[i + 1] is D[i], negated where offdiag[i] > 0: D[i] offdiag[i] D[i + 1] = -|offdiag[i]|
    flip = np.cumprod(np.r_[1.0, np.where(sector.offdiag > 0, -1.0, 1.0)])
    norm = _tridiag_norm1(d, e)
    start = np.random.default_rng(_START_SEED).standard_normal(len(d))
    # the block image of the constant function: a positive vector near the ground state
    fixed = sector.perm[sector.reps] == sector.reps
    sigma, *factors = _lower_shift(d, e, np.where(fixed, 1.0, _SQRT2), start, norm)
    found = _lanczos(d, e, sigma, factors, k, np.ldexp(_residual_bound(sector), -p), start,
                     vectors)
    if found is None:
        return None
    vals, vecs = found
    if vectors:
        vecs *= flip[:, None]
    return np.ldexp(vals, p), vecs


def _lower_shift(d: np.ndarray, e: np.ndarray, x: np.ndarray, start: np.ndarray,
                 norm: float):
    """sigma, certified below T's lowest level, and the LDL^T factors of T - sigma.

    T has off-diagonals <= 0, so for any positive x, min_i (T x)_i / x_i
    is at most its lowest eigenvalue lambda_1 (Collatz-Wielandt). sigma
    starts at that bound for the given x; each step takes
    y = (T - sigma)^-1 x, positive because T - sigma is then an M-matrix,
    raises sigma to the bound of y, and goes on from x = y (inverse
    iteration towards the ground state). A sigma is kept only
    once pttrf factors T - sigma as positive definite (info > 0 means it
    is not, from rounding in the bound): the first bound steps down until
    it does, and a later one ends the steps. A Gershgorin bound would be
    far too low on a folded even block: its sqrt(2) couplings put it at
    -1.3e8 on a 10^5-point box of length 4 whose lowest level is 0.31
    and whose next even level is 2.8; the relative gaps of
    (T - sigma)^-1 are then about 2e-8, far too small for Lanczos.

    The steps stop, after at most _SHIFT_STEPS, once the Rayleigh quotient
    of y, an upper bound on lambda_1, lies within g of sigma, g the gap to
    the next level as estimated by inverse iteration orthogonal to y
    (_next_level). Too close is as bad as too far: with lambda_1 - sigma
    far below g, (T - sigma)^-1 is dominated by the lowest level, and the
    Lanczos recurrence loses the others to its rounding (on the free
    particle's exact zero mode the starting x is the ground state, and its
    bound is lambda_1 itself). So sigma ends at least _SHIFT_BACKOFF * g below
    that Rayleigh quotient.
    """
    sigma, lower, off = _factor_below(d, e, _collatz_wielandt(d, e, x), _EPS * norm)
    lowest, gap = sigma, 0.0
    for step in range(_SHIFT_STEPS + 1):
        y = lapack.dpttrs(lower, off, x)[0]
        if not np.all(y > 0):
            break
        x = y / np.max(y)
        lowest = _rayleigh(d, e, y)
        gap = _next_level(d, e, (lower, off), y, start) - lowest
        bound = _collatz_wielandt(d, e, y)
        if lowest - sigma <= gap or not bound > sigma or step == _SHIFT_STEPS:
            break
        lower_b, off_b, info = lapack.dpttrf(d - bound, e)
        if info:
            break
        sigma, lower, off = bound, lower_b, off_b
    below = lowest - _SHIFT_BACKOFF * gap
    if below < sigma:
        sigma, lower, off = _factor_below(d, e, below, _EPS * norm)
    return sigma, lower, off


def _factor_below(d: np.ndarray, e: np.ndarray, sigma: float, step: float):
    """sigma, stepped down by step, 2 step, 4 step, ... until pttrf factors T - sigma."""
    step = step or np.finfo(float).tiny
    while True:
        lower, off, info = lapack.dpttrf(d - sigma, e)
        if info == 0:
            return sigma, lower, off
        sigma -= step
        step *= 2.0


def _rayleigh(d: np.ndarray, e: np.ndarray, x: np.ndarray) -> float:
    return float(x @ _tridiag_apply(d, e, x) / (x @ x))


def _next_level(d: np.ndarray, e: np.ndarray, factors, ground: np.ndarray,
                start: np.ndarray) -> float:
    """An estimate of T's second level: two steps of inverse iteration orthogonal to ground."""
    unit = ground / np.linalg.norm(ground)
    z = start
    for _ in range(2):
        z = z - unit * (unit @ z)
        z = lapack.dpttrs(*factors, z)[0]
    return _rayleigh(d, e, z - unit * (unit @ z))


def _collatz_wielandt(d: np.ndarray, e: np.ndarray, x: np.ndarray) -> float:
    """min_i (T x)_i / x_i, a lower bound on the lowest level of T for positive x."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        bound = float(np.min(_tridiag_apply(d, e, x) / x))
    return bound if np.isfinite(bound) else -np.inf


def _lanczos(d: np.ndarray, e: np.ndarray, sigma: float, factors, k: int, tol: float,
             start: np.ndarray, vectors: bool):
    """The k lowest eigenpairs of T from Lanczos on A = (T - sigma)^-1, or None.

    Full reorthogonalization: every new direction is orthogonalized
    against the whole basis by classical Gram-Schmidt, a second time when
    the first removed more than 1 - 1/sqrt(2) of it. The start vector is
    a fixed pseudo-random sequence (no global state), so a call is
    repeatable bit for bit; if the Krylov space closes, the next
    direction is drawn from it too. With Ritz pairs (theta, s) of the
    projected tridiagonal matrix and beta the last coupling, applying A
    once more to a Ritz vector y gives A y, whose residual in T for the
    energy sigma + 1/theta is at most |beta s_m| / theta^2. Once that is
    below tol / 2 for the k largest theta, all positive as A is, each such
    energy lies within tol / 2 of an eigenvalue of T; a theta <= 0 is
    rounding, and is never inverted. Without vectors those k energies are
    returned, with None. Otherwise the k Ritz vectors are refined by that
    application and a Rayleigh-Ritz projection of T (_refine), and the
    pairs are returned if every true residual ||T y - rho y|| is at most
    tol. The basis holds at most _basis_cap(k) vectors (or the whole
    block); None if they do not converge by then.
    """
    dim = len(d)
    cap = min(dim, _basis_cap(k))
    rng = np.random.default_rng(_START_SEED + 1)
    basis = np.empty(max(cap * dim, _BASIS_RESERVE))[:cap * dim].reshape(cap, dim)
    alpha, beta = np.zeros(cap), np.zeros(cap)
    scaled = np.empty(dim)  # alpha q and beta q_prev, one at a time
    np.divide(start, np.linalg.norm(start), out=basis[0])
    for m in range(1, cap + 1):
        q = basis[m - 1]
        w = lapack.dpttrs(*factors, q)[0]
        alpha[m - 1] = q @ w
        w -= np.multiply(alpha[m - 1], q, out=scaled)
        if m > 1:
            w -= np.multiply(beta[m - 2], basis[m - 2], out=scaled)
        b = _orthogonalize(basis[:m], w)
        beta[m - 1] = b
        if m >= k:
            # (the wrapper wants at least one off-diagonal, unread when m = 1)
            theta, s = lapack.dstev(alpha[:m], beta[:max(m - 1, 1)], compute_v=1)[:2]
            theta, s = theta[::-1][:k], s[:, ::-1][:, :k]
            if np.all(theta > 0) and np.all(np.abs(b * s[-1]) <= 0.5 * tol * theta ** 2):
                if not vectors:
                    # theta descends, so these ascend
                    return sigma + 1.0 / theta, None
                vals, vecs, residual = _refine(d, e, factors, basis[:m], s)
                if np.all(residual <= tol):
                    return vals, vecs
        if m == cap:
            return None
        if not b > _EPS * np.max(np.abs(alpha[:m])):
            # the Krylov space is (numerically) invariant: go on from a fresh direction
            w = rng.standard_normal(dim)
            b = _orthogonalize(basis[:m], w)
            beta[m - 1] = 0.0
        np.divide(w, b, out=basis[m])


def _orthogonalize(basis: np.ndarray, w: np.ndarray) -> float:
    """Remove from w, in place, its components along the rows of basis; return its norm."""
    before = np.linalg.norm(w)
    w -= (basis @ w) @ basis
    after = np.linalg.norm(w)
    if after < before / _SQRT2:
        w -= (basis @ w) @ basis
        after = np.linalg.norm(w)
    return float(after)


def _refine(d: np.ndarray, e: np.ndarray, factors, basis: np.ndarray, s: np.ndarray):
    """Ritz pairs of T from the Lanczos Ritz vectors basis^T s, after one more application of A.

    A damps the rounding noise that every Lanczos vector carries, which T
    would otherwise amplify in the residual of all but the lowest level
    by (lambda_i - sigma) / (lambda_1 - sigma). A Rayleigh-Ritz projection
    of T on the k refined vectors z = A y makes them orthonormal. Each
    energy is then the Rayleigh quotient in T of its vector, and each
    residual ||T y - rho y|| is computed from a fresh product T y. The
    vectors are rows (k x dim), and products with T are taken one row at
    a time, so the refinement holds two k x dim arrays besides the basis.
    """
    z = lapack.dpttrs(*factors, (s.T @ basis).T, overwrite_b=1)[0].T
    gram = z @ z.T
    proj = np.array([z @ _tridiag_apply(d, e, row) for row in z])
    # A scales the lowest level by far the most: unit rows keep the Gram matrix well conditioned
    unit = 1.0 / np.sqrt(np.diag(gram))
    c = eigh(proj * np.outer(unit, unit), gram * np.outer(unit, unit))[1] * unit[:, None]
    y = c.T @ z
    del z
    vals, residual = np.empty(len(y)), np.empty(len(y))
    for i, row in enumerate(y):
        t = _tridiag_apply(d, e, row)
        vals[i] = (row @ t) / (row @ row)
        t -= vals[i] * row
        residual[i] = np.linalg.norm(t)
    if np.any(np.diff(vals) < 0):
        order = np.argsort(vals, kind="stable")
        vals, y, residual = vals[order], y[order], residual[order]
    return vals, y.T, residual


# most bytes of full-space columns unfolded at once; bounds the temporaries of
# a whole .eigenvectors read to a small share of its output (6 % at 2048 points)
_UNFOLD_BYTES = 2 ** 21


def _eigenvectors(spectrum: Spectrum, levels: np.ndarray) -> np.ndarray:
    """The real full-space eigenvectors of a spectrum's levels, as columns in that order."""
    cols = _block_columns(spectrum, levels)
    sector_of = spectrum.sector_of[levels]
    n = len(spectrum.sectors[0].perm)
    # columns are read one at a time, so the output is column-major
    vecs = np.empty((n, len(levels)), order="F")
    step = max(1, _UNFOLD_BYTES // (8 * n))
    for i, s in enumerate(spectrum.sectors):
        at = np.flatnonzero(sector_of == i)
        for lo in range(0, len(at), step):
            part = at[lo:lo + step]
            vecs[:, part] = s.unfold(cols[part])
    return vecs


def _block_columns(spectrum: Spectrum, levels: np.ndarray) -> np.ndarray:
    """Each level's column among the block eigenvectors of its own sector.

    Every eigenvector read passes here, which refuses every read of a
    Spectrum of energies alone: it keeps no sectors.
    """
    if not spectrum.sectors:
        raise ParameterError("no eigenvectors: the spectrum was built from energies alone")
    of = spectrum.sector_of
    odd_before = np.cumsum(of)  # odd levels up to and including each level
    return np.where(of, odd_before - 1, np.arange(len(of)) - odd_before)[levels]


# ---------------------------------------------------------------------------
# pairing

@dataclass(frozen=True)
class PairingMap:
    pairs: list[tuple[int, int, float]]  # (index_even, index_odd, |dE|)
    unpaired: list[int]
    triple_degeneracy_flag: bool = False


def detect_pairing(spectrum: Spectrum, pair_tol: float = PAIR_TOL) -> PairingMap:
    """Match adjacent near-degenerate levels of opposite parity into pairs.

    Adjacent levels i and i + 1 are linked when their splitting d_i is
    within pair_tol of the scale max(|E_i|, |E_i+1|, the median level
    spacing) and, unless it is within MACHINE_TOL of that scale (a
    degeneracy exact but for rounding), no larger than the gaps to their
    outer neighbours, d_i-1 and d_i+1 (where those exist): a pair is a
    local minimum of the spacing. Runs of linked levels are degeneracy
    clusters. Near the top of a fine grid the relative spacing between
    pairs falls below any fixed pair_tol, about (pi/n)^2 on the free
    particle (6e-7 at n = 4096), but it stays far above the splitting
    within each pair, so the local-minimum condition keeps those pairs
    apart. Clusters of three or more, where splittings of rounding size
    or equal ones chain, are reported unpaired with a diagnostic flag. A
    pair's levels lie in different sectors (sector_of). Stable under
    re-sorting: depends only on the sorted eigenvalue/sector sequence.
    """
    require_positive("pair_tol", pair_tol)
    vals = spectrum.eigenvalues
    n = len(vals)
    gaps = np.diff(vals)
    median_gap = float(np.median(gaps)) if len(gaps) else 0.0
    scale = np.maximum(np.maximum(np.abs(vals[:-1]), np.abs(vals[1:])), median_gap)
    # a gap no larger than its neighbours: the ends compare on one side only
    local_min = np.ones(len(gaps), dtype=bool)
    local_min[1:] &= gaps[1:] <= gaps[:-1]
    local_min[:-1] &= gaps[:-1] <= gaps[1:]
    linked = (~((scale > 0) & (gaps > pair_tol * scale))
              & ((gaps <= MACHINE_TOL * scale) | local_min))
    # degeneracy clusters are the runs of linked levels
    ends = np.append(np.flatnonzero(~linked), n - 1)
    starts = np.r_[0, ends[:-1] + 1]
    size = ends - starts + 1
    of = spectrum.sector_of
    first = starts[size == 2]
    paired = first[of[first] != of[first + 1]]
    even_idx = paired + of[paired]  # the next level when the first is odd
    odd_idx = 2 * paired + 1 - even_idx  # the other member
    pairs = list(zip(even_idx.tolist(), odd_idx.tolist(), np.abs(gaps[paired]).tolist()))
    alone = np.ones(n, dtype=bool)
    alone[paired] = alone[paired + 1] = False
    return PairingMap(pairs=pairs, unpaired=np.flatnonzero(alone).tolist(),
                      triple_degeneracy_flag=bool(np.any(size > 2)))


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


def algebra_residuals(h: ops.Operator, charges) -> AlgebraResiduals:
    """Residuals of the commutation, anticommutation, and nilpotency identities.

    charges is a pair (C, C^+). Antilinear charges are handled by action
    composition; products mixing linear and antilinear parts conjugate the
    matrices they pass through.
    """
    q, qdag = (c.action for c in charges)
    hn = ops.frobenius_norm(h)
    comm_hq = ops.frobenius_norm(ops.commutator(h, q)) / hn
    comm_hqdag = ops.frobenius_norm(ops.commutator(h, qdag)) / hn
    half_anti = ops.scale(ops.anticommutator(q, qdag), 0.5)
    anti = ops.frobenius_norm(ops.subtract(half_anti, h)) / hn
    squares = [ops.compose(q, q), ops.compose(qdag, qdag)]
    nilpotent = charges[0].nilpotent_by_design
    nil_q, nil_qdag = (ops.frobenius_norm(sq) / hn if nilpotent else None for sq in squares)
    closure = max(_closure_residual(h, sq) for sq in squares)
    return AlgebraResiduals(comm_HQ=comm_hq, comm_HQdag=comm_hqdag,
                            anticomm_minus_H=anti, nilpotency_q=nil_q,
                            nilpotency_qdag=nil_qdag, closure=closure)


def _closure_residual(h: ops.Operator, square: ops.Operator) -> float:
    """Distance of {C, C} = 2 C^2 from span{H, 1}, relative to ||H||_F, given C^2.

    {Q, Q} = -2H for the parity/time-reversal charges and 0 for the
    nilpotent pairs; either way the anticommutator must not leave the
    algebra generated by H. The projection uses sparse Frobenius inner
    products, so it costs O(nnz). It is made only when the linear part
    has entries: the nilpotent pairs' squares have none, and projecting
    one (about 10 sparse calls, 0.7 ms at 769 rows) gives an exact 0.0.
    C^2 is projected and its distance doubled, bit for bit that of 2 C^2.
    """
    a, b = square.linear_matrix, square.antilinear_matrix
    hm = h.linear_matrix
    resid_sq = 0.0
    if b is not None:
        resid_sq += float(np.sum(np.abs(b.data) ** 2))
    if a is not None and a.nnz:
        # Gram matrix and right-hand side of <u, v> = sum(conj(u) * v) on {H, 1}
        n = hm.shape[0]
        tr_h = hm.diagonal().sum()
        g = np.array([[np.sum(np.abs(hm.data) ** 2), np.conj(tr_h)], [tr_h, n]])
        rhs = np.array([hm.conj().multiply(a).sum(), a.diagonal().sum()])
        coef = np.linalg.solve(g, rhs)
        eye = ops.from_diagonal(np.ones(n)).linear_matrix
        resid = a - coef[0] * hm - coef[1] * eye
        resid_sq += float(np.sum(np.abs(resid.data) ** 2))
    return 2.0 * float(np.sqrt(resid_sq) / ops.frobenius_norm(h))


# ---------------------------------------------------------------------------
# ground state

@dataclass(frozen=True)
class GroundRecord:
    energy: float  # after any zero-point shift
    raw_energy: float
    degeneracy_count: int
    annihilation_residuals: dict[str, float]


def ground_state_check(spectrum: Spectrum, charges, energy_shift: float = 0.0,
                       tol: float = ZERO_TOL) -> GroundRecord:
    """Lowest-level degeneracy and relative annihilation norms per charge.

    The lowest cluster ends at the first gap above tol, the eigensolver's
    absolute accuracy: build_check passes criterion 1's zero tolerance,
    zero_tolerance(H). A tolerance relative to the top level
    would tie the ground's degeneracy to the top of the spectrum: 1e-8 *
    max |E| merged 27 rotor levels at m_max 50000 (max |E| = 1.25e9).
    """
    if len(spectrum) == 0:
        raise ParameterError("spectrum is empty")
    vals = spectrum.eigenvalues
    degeneracy = 1 + int(np.argmax(np.append(np.diff(vals) > tol, True)))
    psi0 = spectrum.vector(0)
    norm0 = np.linalg.norm(psi0)
    residuals = {c.label: float(np.linalg.norm(c.action.apply(psi0)) / norm0)
                 for c in charges}
    return GroundRecord(energy=float(vals[0] - energy_shift), raw_energy=float(vals[0]),
                        degeneracy_count=degeneracy, annihilation_residuals=residuals)


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


def eq5_action_table(grid: Grid1D, k_list, *,
                     substitute_dispersion: bool = True) -> list[ActionTableRow]:
    """Deviations of the nilpotent charge actions on sampled cos/sin waves.

    q cos(kx) must give i*k*sin(kx), q sin(kx) zero, and the adjoint the
    reverse, with k replaced by the discrete dispersion sin(kh)/h when
    substitute_dispersion is set (machine-exact); without substitution
    the deviation is the O(h^2) discretization error. Each deviation is
    relative to max(|k_discrete|, 1) times the larger of the two wave norms.

    Every wavenumber is validated before any work. The waves are then
    sampled a block of wavenumbers at a time (_eq5_block), as columns
    gathered from one table of cos and sin(2 pi r / n) by the integer
    phase of each point. Built from the purely imaginary momentum and the
    real parity permutation, each charge is i times a real matrix, so it
    acts on a block as the imaginary part of its CSR matrix: real sparse
    products, several times faster than complex ones. The temporaries stay
    O(n * block).
    """
    if grid.boundary != PERIODIC:
        raise ParameterError("the action table is defined on periodic grids")
    ks = [float(k) for k in k_list]
    n = grid.n_points
    modes = np.array([_whole_mode(k, grid.length) % n for k in ks], dtype=np.int64)
    ks = np.array(ks)
    kd = np.sin(ks * grid.spacing) / grid.spacing if substitute_dispersion else ks
    # copied once: every product would copy .imag's strided view of the complex data
    q, qdag = (charge.action.linear_matrix.imag.copy() for charge in
               ops.supercharge_q_pair(ops.momentum(grid), ops.parity_operator(grid), 1.0))
    # sample by modular phase: k*x_j = 2 pi * mode * (j - n/2) / n up to whole
    # turns, so reducing the integer phase keeps every argument below 2 pi
    # and the samples accurate to machine epsilon even near Nyquist
    theta = 2.0 * np.pi * np.arange(n) / n
    cos_table, sin_table = np.cos(theta), np.sin(theta)
    offsets = np.arange(n) - n // 2
    devs = np.empty((4, len(ks)))
    block = _eq5_block(n)
    for start in range(0, len(ks), block):
        cols = slice(start, start + block)
        phase = np.multiply.outer(offsets, modes[cols])
        phase %= n
        c, s = cos_table[phase], sin_table[phase]
        k = kd[cols]
        # residuals relative to the scale of the action itself
        denom = np.maximum(np.abs(k), 1.0) * np.sqrt(np.maximum(_column_sq(c), _column_sq(s)))
        devs[:, cols] = [_action_deviation(q, c, k * s), _action_deviation(q, s),
                         _action_deviation(qdag, s, -k * c), _action_deviation(qdag, c)]
        devs[:, cols] /= denom
    return [ActionTableRow(*row) for row in zip(ks.tolist(), kd.tolist(), *devs.tolist())]


def _eq5_block(n: int) -> int:
    """Wavenumbers per block of the action table, for n grid points.

    Each temporary holds n * block values, kept near 2^17 within 16 to 32
    columns. This bounds memory, not time: 32 columns ran as fast or faster
    from 6000 to 32768 points but held 1.7 times the temporaries. The width
    groups a column's sums, so it can change a row's last digits.
    """
    return max(16, min(32, 2 ** 17 // n))


def _whole_mode(k: float, length: float) -> int:
    """The mode number k L / 2 pi of a wavenumber commensurate with the grid."""
    mode = k * length / (2.0 * np.pi)
    if not abs(mode) < 2.0 ** 53:
        # every float this large is a whole number: commensurability means nothing
        raise ParameterError(
            f"wavenumber {k!r} is too large: its mode number {mode:.3g} is at or "
            "above 2^53, where no float has a fractional part")
    if abs(mode - round(mode)) > 1e-9:
        raise ParameterError(
            f"wavenumber {k!r} is not commensurate with the grid; allowed values "
            f"are 2*pi*n/{length:g} for integer n (e.g. "
            + ", ".join(f"{2 * np.pi * n / length:.6g}" for n in range(4)) + ", ...)")
    return round(mode)


def _column_sq(v: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->j", v, v)


def _action_deviation(imag, v: np.ndarray, target: np.ndarray | None = None) -> np.ndarray:
    """Column norms of C v - i * target on real v, for a charge C = i * imag."""
    w = imag @ v
    if target is not None:
        w -= target
    return np.sqrt(_column_sq(w))


def commensurate_wavenumbers(grid: Grid1D) -> np.ndarray:
    """All grid wavenumbers 2*pi*n/L, n = 0 up to Nyquist."""
    return 2.0 * np.pi * np.arange(grid.n_points // 2 + 1) / grid.length


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
        """The report as JSON data: each field under its own name, each record as its fields.

        The records hold plain Python values, so a shallow copy of each
        record's fields, dict(vars(record)), is JSON-ready; no returned
        dict is a record's own, though lists and dicts inside are shared.
        dataclasses.asdict would deep-copy every pair: 251 ms per rotor
        report at m_max 50000, against 10 ms for the shallow copy. The two
        lists that grow with the level count, pairs (dicts of two int
        indices and a float |dE|) and unpaired (int indices), hold Python
        numbers only; cli.cmd_check writes them column by column.
        """
        out = dict(vars(self), ground=dict(vars(self.ground)),
                   algebra=dict(vars(self.algebra)), pairs=[
                       {"index_even": i, "index_odd": j, "abs_delta_e": d}
                       for i, j, d in self.pairing.pairs],
                   unpaired=self.pairing.unpaired,
                   verdict_per_criterion={n: dict(vars(v)) for n, v in self.verdicts.items()},
                   all_applicable_pass=self.all_applicable_pass)
        del out["pairing"], out["verdicts"]
        return out


# pairs per batched block product, bounding the temporaries at O(dim * _PAIR_CHUNK);
# 24 to 64 ran alike from 1024 to 8192 points, and 128 or more fell out of cache
# (2 to 3 times slower at 4096)
_PAIR_CHUNK = 32


def _pair_invariance(spectrum: Spectrum, pairing: PairingMap, charges) -> float:
    """Worst relative leakage of the charge images out of their pair subspaces.

    Computed in sector coordinates. Every charge C is odd under parity, so
    it folds into a block from the even sector to the odd one and a block
    back (_fold_charge), and for a pair of block eigenvectors (u_e, u_o)
    the leak of C u_e is ||C u_e - (u_o^T C u_e) u_o|| / ||C u_e||, and
    likewise from u_o to u_e (_leaks). Images that the charge (nearly)
    annihilates, ||C u|| <= ANNIHILATED_IMAGE_TOL * (1 + sqrt|E|), are
    skipped, as a nilpotent charge annihilates one member of each pair.
    """
    if not pairing.pairs:
        return 0.0
    pairs = np.array([(i, j) for i, j, _ in pairing.pairs], dtype=int)
    cols = _block_columns(spectrum, pairs)
    even, odd = spectrum.sectors
    folded = [_fold_charge(c.action, even, odd) for c in charges]
    floor = ANNIHILATED_IMAGE_TOL * (1.0 + np.sqrt(np.abs(spectrum.eigenvalues[pairs[:, 0]])))
    worst = 0.0
    for to_odd, to_even in folded:
        for block, u, partner, at in ((to_odd, even.vectors, odd.vectors, cols),
                                      (to_even, odd.vectors, even.vectors, cols[:, ::-1])):
            image, leak = _leaks(block, u, partner, at)
            live = image > floor
            if np.any(live):
                worst = max(worst, float(np.max(leak[live] / image[live])))
    return worst


def _fold_charge(action: ops.Operator, even: _Sector, odd: _Sector):
    """The blocks of a parity-odd charge from the even sector to the odd one, and back.

    A charge with P C P != -C bit for bit, in either part, is refused. On
    real sector vectors A v + B conj(v) = (A + B) v, so the entries of
    both parts fold together, in one pass. Each block is then the list of
    real CSR matrices of its nonzero real and its nonzero imaginary
    entries, whose products are the real and the imaginary part of its
    action: the momentum charges fold to purely imaginary blocks and the
    rotor's to real ones, so each of their lists holds one matrix, laid
    out by scipy as _tridiagonals lays out a Hamiltonian block.
    """
    perm = even.perm
    parts = [_entries(part, "charge")
             for part in (action.linear_matrix, action.antilinear_matrix) if part is not None]
    if not all(_commutes(perm, *part, sign=-1.0) for part in parts):
        raise ParameterError(
            "the charge is not bit-exactly odd under parity (P C P != -C); "
            "criterion 3 needs it to carry each parity sector onto the other")
    folded = _fold(perm, *(np.concatenate(arrays) for arrays in zip(*parts)), -1.0)
    shapes = [(odd.dim, even.dim), (even.dim, odd.dim)]
    return [[sp.csr_array((v[keep], (r[keep], c[keep])), shape=shape)
             for v in (vals.real, vals.imag) if np.any(keep := v != 0)]
            for shape, (_, r, c, vals) in zip(shapes, folded)]


def _leaks(block, u: np.ndarray | sp.csc_array, partner: np.ndarray | sp.csc_array,
           at: np.ndarray):
    """Norms of the images C u of the pairs' vectors, and of their parts off the partners.

    Row p of at holds the columns of pair p's vector in u and of its
    partner in partner. Dense vectors are taken _PAIR_CHUNK pairs at a
    time. Unit vectors (those of a diagonal Hamiltonian's blocks) need no
    product: C e_r is column r of the block, and its leak is the sum of
    squares of that column's entries off the partner's row, gathered from
    the block's entries in O(nnz). It is never image^2 - coef^2, whose
    cancellation would put a floor of about 1e-8 under leak / image.
    """
    if sp.issparse(u):
        source = u.indices[at[:, 0]]
        target = np.full(u.shape[0], -1)
        target[source] = partner.indices[at[:, 1]]
        image_sq, leak_sq = np.zeros(len(target)), np.zeros(len(target))
        for part in block:
            m = part.tocoo()
            sq = m.data * m.data
            off = m.row != target[m.col]
            image_sq += np.bincount(m.col, sq, minlength=len(target))
            leak_sq += np.bincount(m.col[off], sq[off], minlength=len(target))
        return np.sqrt(image_sq[source]), np.sqrt(leak_sq[source])
    image, leak = np.empty(len(at)), np.empty(len(at))
    for start in range(0, len(at), _PAIR_CHUNK):
        chunk = slice(start, start + _PAIR_CHUNK)
        v, w_partner = u[:, at[chunk, 0]], partner[:, at[chunk, 1]]
        image_sq = leak_sq = 0.0
        for part in block:
            w = part @ v
            coef = np.einsum("ij,ij->j", w_partner, w)
            image_sq = image_sq + np.einsum("ij,ij->j", w, w)
            w -= w_partner * coef
            leak_sq = leak_sq + np.einsum("ij,ij->j", w, w)
        image[chunk], leak[chunk] = np.sqrt(image_sq), np.sqrt(leak_sq)
    return image, leak


def _norm1(h: ops.Operator) -> float:
    """||h||_1, the largest absolute column sum, in O(nnz).

    One bincount over the CSR entries adds each column's |entries| in
    the order abs(m).sum(axis=0) does, so the sums agree bit for bit, in
    about 11 us against 116 us at 769 rows: it skips that call's sparse
    copy and product.
    """
    m = h.linear_matrix
    return float(np.max(np.bincount(m.indices, np.abs(m.data), minlength=m.shape[1])))


def zero_tolerance(h: ops.Operator) -> float:
    """max(ZERO_TOL, 4 eps ||h||_1): criterion 1's zero, and minus the spectrum's bound cut.

    The eigensolver's absolute accuracy is about eps * ||h||_1, which on
    the free particle (2 / spacing^2) grows as n^2. Over 325 free-particle
    spectra (n from 64 to 4096, L from 0.05 to 20) |E0| / (eps * ||h||_1)
    measured at most 0.87 (median 0.22), a margin of 4.6 under the factor
    4. The fixed ZERO_TOL still decides at the sizes of the acceptance tests.
    """
    return max(ZERO_TOL, 4.0 * float(_EPS) * _norm1(h))


def build_check(model: ModelSpec, charge: str, *, n_points: int = 512,
                zero_point_reset: bool = False, machine_tol: float = MACHINE_TOL,
                pair_tol: float = PAIR_TOL) -> SusyReport:
    """Run the full six-criteria check for a periodic free particle or rotor.

    Dirichlet-grid models (box, sec^2 partner, delta well) are refused:
    their verdicts are spectral-only and live in the spectrum/partner
    commands instead.
    """
    if charge not in ("Q", "q"):
        raise ParameterError(f"charge must be 'Q' or 'q', got {charge!r}")
    if isinstance(model, (ParticleInBox, SecSquaredPartner, DeltaWell)):
        raise DirichletAlgebraError(
            f"{type(model).__name__} lives on a Dirichlet grid; the six-criteria "
            "algebra check is only run for periodic (free) or rotor models")
    if isinstance(model, PlanarRotor):
        # the charges need L_z and the time reversal T, which the parity alone does not give
        g, s, h_spec = ops.rotor_basis_operators(model.m_max, model.inertia)
        mu, parity, h_alg = model.inertia, ops.LinearOperator(s.antilinear_matrix), h_spec
        artifacts = []
        model_name = f"planar_rotor(I={model.inertia:g}, m_max={model.m_max})"
    else:
        h_spec, parity, grid = model_operators(model, n_points)
        g, s, mu = ops.momentum(grid), parity, 1.0
        h_alg = ops.momentum_squared_hamiltonian(g, mu)
        artifacts = [grid.n_points - 1]  # the Nyquist level; periodic grids are even
        model_name = f"free_particle(L={model.length:g})"

    charges = (ops.supercharge_Q if charge == "Q" else ops.supercharge_q_pair)(g, s, mu)
    spectrum = numeric_spectrum(h_spec, parity, h_spec.dimension)
    zero_tol = zero_tolerance(h_spec)
    shift = float(spectrum.eigenvalues[0]) if zero_point_reset else 0.0
    ground = ground_state_check(spectrum, charges, energy_shift=shift, tol=zero_tol)
    pairing = detect_pairing(spectrum, pair_tol)
    algebra = algebra_residuals(h_alg, charges)
    invariance = _pair_invariance(spectrum, pairing, charges)

    unpaired_excited = [i for i in pairing.unpaired if i != 0 and i not in artifacts]
    verdicts = {
        1: CriterionVerdict(
            satisfied=(ground.degeneracy_count == 1 and abs(ground.energy) <= zero_tol),
            detail=f"E0={ground.energy:.3e}, degeneracy={ground.degeneracy_count}"),
        2: CriterionVerdict(
            satisfied=not unpaired_excited and not pairing.triple_degeneracy_flag,
            detail=f"{len(pairing.pairs)} pairs, stray unpaired={unpaired_excited}"),
        3: CriterionVerdict(
            satisfied=(max(ground.annihilation_residuals.values()) <= ANNIHILATION_TOL
                       and invariance <= PAIR_LEAK_TOL),
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
    if algebra.nilpotency_q is not None:
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
