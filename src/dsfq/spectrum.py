"""Hermitian eigensolutions with gauge continuity, plus derived qubit numbers.

``diagonalize`` finds the lowest k levels by one of two branches, chosen
by one rule in (dim, k, dtype): above ``DENSE_DIM_LIMIT`` states for a
complex matrix, or ``REAL_DENSE_DIM_LIMIT`` for a real one, and for
k <= dim / ``SPARSE_STATES_PER_LEVEL``, shift-invert Lanczos on the CSC
form of the (sector) matrix; otherwise dense ``scipy.linalg.eigh``. The
sector is sliced from the operator's CSR, and only the dense branch makes
a dense copy, of the sector it solves. The sparse branch shifts to the
Gershgorin lower bound, which lies below E0, and starts from a fixed
generic vector. A level it missed would not show in any residual, so a
Sylvester inertia count of the levels below (E_{k-1} + E_k)/2 must come
out at exactly k. Whenever it cannot show that, the dense branch solves
the problem instead.

``qubit_eigensolution`` solves in real arithmetic wherever the circuit
allows it: a (sector) H with C H* C = H, C the charge inversion (every
ng = 0 circuit), is real symmetric in ``circuit.charge_inversion_basis``
S, where a dense ``eigh`` costs a quarter of the complex one and
shift-invert runs symmetric ARPACK. Where H also commutes with P_theta,
the reflection n_theta -> -n_theta (at ng = 0 every circuit but the
coupled qubits' node basis), S^dag H S splits into two real P_theta
parity blocks of about half the size, each summed straight from H's CSR
and solved by the rule above on its own (313 sector states: 163 + 150).
The states are taken back to the charge basis, so every caller sees the
same kind of ``EigenSolution``.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, replace as dc_replace, fields as dc_fields
from typing import NamedTuple

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .circuit import (
    ChargeBasis,
    CircuitSpec,
    HermitianOperator,
    Variant,
    _entry_images,
    _theta_blocks,
    _theta_permutation,
    build_hamiltonian,
    charge_inversion_basis,
    inversion_symmetric,
    parity_permutation,
    physical_sector_indices,
)

__all__ = [
    "EigenSolution",
    "QubitParams",
    "SpectrumError",
    "GaugeAlignmentError",
    "diagonalize",
    "qubit_eigensolution",
    "qubit_params",
    "align_gauge",
    "sweep",
]

# Solver rule, measured on the circuits' matrices (2 vCPU, BLAS on one
# thread). Dense eigh costs about dim**3 whatever k is; shift-invert costs a
# sparse LU plus about 1.5 ms per level. Complex matrices: at k = 3 the two
# tie near 300 states and shift-invert wins above (313: 20 -> 17 ms, 625:
# 136 -> 32 ms); dense wins again from k = 12 on 313 states and from k = 16
# on 361. Real matrices (S^dag H S): a dense eigh costs a quarter of the
# complex one, so dense wins at k = 3 on 313 states (3.9 against 7.1 ms
# shift-invert) and 361 (4.3 against 7.9), the two tie from about 420 to
# 545 (545: 14-18 against 11-16 ms), and shift-invert wins at 625 (21
# against 13 ms) and above. The rule applies to each P_theta parity block
# of a real solve on its own.
DENSE_DIM_LIMIT = 300  # at or below it every complex solve is dense
REAL_DENSE_DIM_LIMIT = 560  # at or below it every real solve is dense
SPARSE_STATES_PER_LEVEL = 40  # above it, shift-invert while k <= dim / 40
RESIDUAL_RTOL = 1e-9
DEGENERACY_TOL = 1e-9
PAIR_MIN_OVERLAP = 0.5  # below it the qubit pair has crossed another level
_SECTOR_PARITY = {"even": 0, "odd": 1}  # (n_phi + n_theta) mod 2 of each sector


class SpectrumError(RuntimeError):
    """Eigensolver failure or invalid request."""


class GaugeAlignmentError(SpectrumError):
    """Eigenvector overlap with the reference dropped below threshold."""


@dataclass
class EigenSolution:
    """Lowest-k eigenpairs: ascending energies, orthonormal eigenvectors."""

    energies: np.ndarray
    states: np.ndarray  # column i is the eigenvector of energies[i]
    basis: ChargeBasis | None
    k: int

    def state(self, i: int) -> np.ndarray:
        return self.states[:, i]


@dataclass(frozen=True)
class QubitParams:
    """Qubit frequency and anharmonicity, both in h GHz."""

    omega_q: float
    anharmonicity: float


class _SparseRefused(SpectrumError):
    """The sparse branch could not show that its levels are the lowest k."""


def _use_sparse(dim: int, k: int, dtype=complex) -> bool:
    limit = DENSE_DIM_LIMIT if np.dtype(dtype).kind == "c" else REAL_DENSE_DIM_LIMIT
    return dim > limit and k * SPARSE_STATES_PER_LEVEL <= dim


def _start_vector(dim: int) -> np.ndarray:
    """Fixed, generic Krylov start vector.

    Fixed, so that a rerun repeats every digit; generic, so that no
    symmetry of H keeps a level out of the Krylov space, as a parity
    symmetric start such as all ones would.
    """
    return np.random.default_rng(0).standard_normal(dim)


def _levels_below(h: scipy.sparse.csc_array, tau: float, norm: float) -> int:
    """Number of eigenvalues of Hermitian h below tau, by Sylvester's law
    of inertia.

    h - tau*I is factored with a symmetric ordering and no row pivots, so
    U's diagonal is the D of an LDL^H congruent to it. A row pivot, a
    singular factor or a pivot within RESIDUAL_RTOL * norm of zero leaves
    the count unproven and raises _SparseRefused.
    """
    eye = scipy.sparse.identity(h.shape[0], dtype=h.dtype, format="csc")
    try:
        lu = scipy.sparse.linalg.splu(h - tau * eye, permc_spec="MMD_AT_PLUS_A",
                                      diag_pivot_thresh=0, options={"SymmetricMode": True})
    except RuntimeError as ex:  # exactly singular
        raise _SparseRefused(f"inertia factor: {ex}") from ex
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise _SparseRefused("inertia factor took a row pivot")
    pivots = lu.U.diagonal().real
    if np.abs(pivots).min() <= RESIDUAL_RTOL * norm:
        raise _SparseRefused("inertia factor met a tiny pivot")
    return int(np.count_nonzero(pivots < 0))


def _shift_invert_lowest(h: scipy.sparse.csc_array, k: int,
                         v0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lowest k eigenpairs of sparse Hermitian h by shift-invert Lanczos.

    The shift sigma is the Gershgorin lower bound of h, below E0, so the
    k + 1 levels nearest to it are the lowest k + 1 (Ericsson & Ruhe,
    Math. Comp. 35, 1251 (1980)); ``v0`` starts the Krylov space. A
    Rayleigh-Ritz step on the k + 1 vectors makes them orthonormal. A
    level that Lanczos missed leaves no trace in the residuals, so h must
    have exactly k eigenvalues below tau = (E_{k-1} + E_k)/2, counted by
    ``_levels_below`` (Grimes, Lewis & Simon, SIAM J. Matrix Anal. Appl.
    15, 228 (1994)). Raises _SparseRefused when ARPACK does not converge,
    when E_{k-1} and E_k lie within 2 * RESIDUAL_RTOL * ||h||_inf of each
    other, or when the count is not k or not proven.
    """
    diag = h.diagonal().real
    row_abs = np.asarray(abs(h).sum(axis=1)).ravel()
    norm = float(row_abs.max())
    sigma = float(np.min(diag - (row_abs - np.abs(diag))))
    eye = scipy.sparse.identity(h.shape[0], dtype=h.dtype, format="csc")
    try:
        lu = scipy.sparse.linalg.splu(h - sigma * eye)
        opinv = scipy.sparse.linalg.LinearOperator(h.shape, matvec=lu.solve, dtype=h.dtype)
        vectors = scipy.sparse.linalg.eigsh(h, k + 1, sigma=sigma, OPinv=opinv, v0=v0)[1]
    except RuntimeError as ex:  # a singular shift, or ARPACK did not converge
        raise _SparseRefused(f"shift-invert Lanczos: {ex}") from ex
    q = np.linalg.qr(vectors)[0]
    energies, coords = scipy.linalg.eigh(q.conj().T @ (h @ q))
    if energies[k] - energies[k - 1] <= 2 * RESIDUAL_RTOL * norm:
        raise _SparseRefused(f"levels {k - 1} and {k} too close to place the inertia shift")
    count = _levels_below(h, 0.5 * (energies[k - 1] + energies[k]), norm)
    if count != k:
        raise _SparseRefused(f"{count} levels below the inertia shift, expected {k}")
    return energies[:k], q @ coords[:, :k]


def _lowest_k(h: scipy.sparse.csr_array, k: int, eigvals_only: bool = False):
    """Lowest k eigenpairs of h by the branch that ``diagonalize`` names, or
    their energies alone with ``eigvals_only``."""
    dim = h.shape[0]
    if _use_sparse(dim, k, h.dtype):
        try:
            energies, states = _shift_invert_lowest(h.tocsc(), k, _start_vector(dim))
            return energies if eigvals_only else (energies, states)
        except _SparseRefused:
            pass
    # a Fortran-ordered copy that LAPACK may overwrite: the same input as a
    # copy of the C-ordered one, without a second dense copy
    return scipy.linalg.eigh(h.toarray(order="F"), subset_by_index=(0, k - 1),
                             eigvals_only=eigvals_only, overwrite_a=True)


class _Assembly(NamedTuple):
    """The P_theta parity blocks of one CSR pattern of a full-basis H.

    ``images`` holds the position of each stored entry's image under the
    charge inversion C and under P_theta. ``weights`` maps H's data, read
    as interleaved (re, im) floats, to the blocks' stored entries, and
    ``blocks`` holds each block's (start, stop) in that output and its
    CSR indptr and indices.
    """

    images: tuple[np.ndarray, np.ndarray]
    weights: scipy.sparse.csr_array
    blocks: tuple

    def commutes(self, data: np.ndarray) -> bool:
        """Whether C H* C = H and P_theta H P_theta = H hold exactly for H
        with this pattern and ``data``, as ``circuit.inversion_symmetric``
        and ``circuit._theta_symmetric`` test them."""
        inversion, theta = self.images
        return (np.array_equal(data[inversion].conj(), data)
                and np.array_equal(data[theta], data))


_ASSEMBLY_LOCK = threading.Lock()


@functools.lru_cache(maxsize=16)
def _block_assembly(basis: ChargeBasis, parity: int | None, index_dtype: str,
                    indptr: bytes, indices: bytes) -> _Assembly | None:
    """The ``_Assembly`` of the blocks of ``circuit._theta_blocks`` for one
    canonical CSR pattern of a full-basis H, given by its index arrays'
    bytes, built once and shared (callers must not modify it); None when C
    or P_theta does not map the pattern onto itself.

    Block entry (a, b) is the sum of conj(w_ia) * h_ij * w_jb over the
    stored entries (i, j), w the block vectors in the charge basis; its
    real part is what is kept. Each charge state lies in at most 4 block
    vectors, so each stored entry adds to at most 4 entries of each block.
    Terms joining different blocks sum to zero for an H that commutes
    with P_theta, and are left out.
    """
    indptr, indices = (np.frombuffer(a, dtype=index_dtype) for a in (indptr, indices))
    dim = indptr.size - 1
    pattern = scipy.sparse.csr_array((np.ones(indices.size), indices, indptr), shape=(dim, dim))
    images = tuple(_entry_images(pattern, perm)
                   for perm in (np.arange(dim)[::-1], _theta_permutation(basis)))
    if any(image is None for image in images):
        return None
    # for each charge state, the (at most 4) block vectors holding it: their
    # column over both blocks (the even block's first, -1 for none) and the
    # state's coefficient in each
    (_, even), (_, odd) = _theta_blocks(basis, parity)
    lifts = scipy.sparse.hstack([even, odd], format="csr")
    n_even, n = even.shape[1], lifts.shape[1]
    counts = np.diff(lifts.indptr)
    state = np.repeat(np.arange(lifts.shape[0]), counts)
    if parity is not None:
        state = physical_sector_indices(basis, parity)[state]
    slots = np.arange(lifts.nnz) - np.repeat(lifts.indptr[:-1], counts)
    column = np.full((dim, 4), -1, dtype=np.int64)
    weight = np.zeros((dim, 4), dtype=complex)
    column[state, slots] = lifts.indices
    weight[state, slots] = lifts.data
    rows = np.repeat(np.arange(dim), np.diff(indptr))
    # Re(c * h) = Re(c) * Re(h) - Im(c) * Im(h): a term on the (re, im) pairs
    # of h's data for each nonzero part of each weight c = conj(w_ia) * w_jb
    keys, terms, values = [], [], []
    for slot_i in range(4):
        a = column[rows, slot_i]
        for slot_j in range(4):
            b = column[indices, slot_j]
            keep = np.flatnonzero((a >= 0) & (b >= 0) & ((a < n_even) == (b < n_even)))
            product = weight[rows[keep], slot_i].conj() * weight[indices[keep], slot_j]
            for offset, part in ((0, product.real), (1, -product.imag)):
                nonzero = part != 0
                keys.append(a[keep[nonzero]] * n + b[keep[nonzero]])
                terms.append(2 * keep[nonzero] + offset)
                values.append(part[nonzero])
    keys = np.concatenate(keys)
    order = np.argsort(keys, kind="stable")
    keys, terms, values = keys[order], np.concatenate(terms)[order], np.concatenate(values)[order]
    first = np.flatnonzero(np.diff(keys, prepend=-1))  # the first term of each block entry
    targets = keys[first]
    weights = scipy.sparse.csr_array((values, terms, np.append(first, keys.size)),
                                     shape=(targets.size, 2 * indices.size))
    row, col = np.divmod(targets, n)
    split = int(np.searchsorted(row, n_even))
    blocks = []
    for start, stop, offset, size in ((0, split, 0, n_even),
                                      (split, targets.size, n_even, n - n_even)):
        counts = np.bincount(row[start:stop] - offset, minlength=size)
        blocks.append((start, stop, np.concatenate([[0], np.cumsum(counts)]),
                       col[start:stop] - offset))
    return _Assembly(images, weights, tuple(blocks))


def _theta_parity_blocks(h: scipy.sparse.csr_array, basis: ChargeBasis, parity: int | None,
                         coordinates: bool) -> list | None:
    """The real P_theta parity blocks of a canonical full-basis H and their
    lifts, to coordinates in S with ``coordinates`` and to charge-basis
    (sector) vectors otherwise; None unless H commutes exactly with both
    the charge inversion C*K and P_theta."""
    with _ASSEMBLY_LOCK:  # pool threads that miss the cache together build once
        assembly = _block_assembly(basis, parity, h.indptr.dtype.str, h.indptr.tobytes(),
                                   h.indices.tobytes())
    data = h.data.astype(complex, copy=False)
    if assembly is None or not assembly.commutes(data):
        return None
    values = assembly.weights @ data.view(np.float64)
    return [(scipy.sparse.csr_array((values[start:stop], block_indices, block_indptr),
                                    shape=(lift.shape[1],) * 2), lift_s if coordinates else lift)
            for (start, stop, block_indptr, block_indices), (lift_s, lift)
            in zip(assembly.blocks, _theta_blocks(basis, parity))]


def _solve_blocks(blocks: list, k: int, norm: float) -> tuple[np.ndarray, np.ndarray]:
    """The k lowest levels over a list of (matrix, lift) blocks of one H.

    Each block keeps min(k, its size) levels, by ``_lowest_k``, and each
    pair is checked against its own block, to RESIDUAL_RTOL * ``norm``; a
    lift (None for none) maps its states to the output coordinates. The k
    lowest are merged in a stable order, an earlier block first on a tie.
    """
    energies, states = [], []
    for m, lift in blocks:
        e, v = _lowest_k(m, min(k, m.shape[0]))
        residual = np.linalg.norm(m @ v - v * e, axis=0)
        if norm > 0 and residual.max() > RESIDUAL_RTOL * norm:
            raise SpectrumError(
                f"eigensolver residuals too large: max {residual.max():.3e} "
                f"vs bound {RESIDUAL_RTOL * norm:.3e}"
            )
        energies.append(e)
        states.append(v if lift is None else lift @ v)
    return _merge_lowest(energies, states, k)


def _merge_lowest(energies: list, states: list, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k lowest of the eigenpairs of several blocks of one problem, in
    a stable order: an earlier block first on a tie."""
    energies = np.concatenate(energies)
    order = np.argsort(energies, kind="stable")[:k]
    return energies[order], np.hstack(states)[:, order]


def diagonalize(op: HermitianOperator | np.ndarray, k: int,
                basis: ChargeBasis | None = None,
                sector: str | None = None, *,
                _real: bool = False, _coordinates: bool = False) -> EigenSolution:
    """Lowest-k eigensolution of a Hermitian operator.

    Above ``DENSE_DIM_LIMIT`` states (``REAL_DENSE_DIM_LIMIT`` for a real
    matrix), and while k is at most
    dim / ``SPARSE_STATES_PER_LEVEL``, the (sector) matrix is solved in
    CSC form by shift-invert Lanczos, shifted to its Gershgorin lower
    bound and started from a fixed vector, so reruns repeat. Its levels
    are kept only when a Sylvester inertia count shows exactly k
    eigenvalues below the midpoint of E_{k-1} and E_k; any refusal (row
    or tiny pivot, a gap too small to place that midpoint, ARPACK not
    converging) falls back to dense ``scipy.linalg.eigh``, which also
    solves every smaller problem. Residuals of either branch are
    checked against ``RESIDUAL_RTOL * ||H||_inf``, on the CSR form; a
    non-finite ||H||_inf raises SpectrumError. With ``sector`` set to
    ``"even"`` or ``"odd"``, a (phi, theta)-basis operator is restricted
    to the corresponding (n_phi + n_theta) parity block before solving;
    eigenvectors are embedded back into the full basis. Degenerate
    clusters are rotated to eigenstates of the phi -> -phi parity when a
    basis is known, even-parity state first, for deterministic labeling.

    With ``_real``, a (sector) matrix of a known basis that passes
    ``circuit.inversion_symmetric`` is solved as the real CSR S^dag H S,
    S its ``circuit.charge_inversion_basis``, and its eigenvectors are
    taken back to the charge basis; the residuals are those of the real
    problem, against the bound of H. Where the full-basis H also commutes
    exactly with P_theta (the test of ``circuit._theta_symmetric``, made
    from entry images kept per CSR pattern), S^dag H S is solved as its
    two P_theta parity blocks (``circuit._theta_blocks``), each summed
    from H's CSR in O(nnz): each block keeps min(k, its size)
    levels by the rule above, its residuals are checked against the same
    bound, and the k lowest of both are kept. The symmetry tests are
    exact, so a block's residual is that of the full problem.
    ``_coordinates`` asks for the eigenvectors as coordinates in S, not
    embedded, and raises SpectrumError where the real solve cannot be
    made.
    """
    if isinstance(op, HermitianOperator):
        h, basis = op.csr, op.basis
    else:
        matrix = np.asarray(op)
        scale = np.abs(matrix).max()
        if scale > 0 and np.abs(matrix - matrix.conj().T).max() > 1e-10 * scale:
            raise SpectrumError("input operator is not Hermitian")
        h = scipy.sparse.csr_array(matrix)
    dim = h.shape[0]
    if not (1 <= k <= dim):
        raise SpectrumError(f"k = {k} out of range for dimension {dim}")
    rows = np.repeat(np.arange(dim), np.diff(h.indptr))
    with np.errstate(over="ignore"):  # an overflow is refused just below
        norm = float(np.bincount(rows, weights=np.abs(h.data), minlength=dim).max())
    if not math.isfinite(norm):
        raise SpectrumError(f"||H||_inf = {norm} is not finite")
    parity = idx = None
    if sector is not None:
        if sector not in _SECTOR_PARITY:
            raise SpectrumError(f"sector must be None, 'even' or 'odd', got {sector!r}")
        if basis is None:
            raise SpectrumError("sector restriction requires a basis descriptor")
        parity = _SECTOR_PARITY[sector]
        idx = physical_sector_indices(basis, parity)
        if k > idx.size:
            raise SpectrumError(f"k = {k} exceeds the {idx.size} states of the {sector} sector")
    blocks = None
    if _real and basis is not None:
        blocks = _theta_parity_blocks(h, basis, parity, _coordinates)
    if blocks is None:
        sub = h if idx is None else h[idx][:, idx]
        if _real and basis is not None and inversion_symmetric(sub):
            s = charge_inversion_basis(basis, parity)
            blocks = [((s.conj().T @ sub @ s).real, None if _coordinates else s)]
        elif _coordinates:
            raise SpectrumError("the matrix is not real in the charge-inversion basis")
        else:
            blocks = [(sub, None)]
    energies, states = _solve_blocks(blocks, k, norm)
    if _coordinates:  # coordinates in S, not charge-basis vectors
        basis = None
    elif idx is not None:
        sub_states = states
        states = np.zeros((dim, energies.size), dtype=sub_states.dtype)
        states[idx] = sub_states
    sol = EigenSolution(energies=energies, states=states, basis=basis, k=k)
    if basis is not None and basis.modes[0] in ("phi", "phi1") and len(basis.modes) == 2:
        _order_degenerate_by_parity(sol)
    return sol


def _order_degenerate_by_parity(sol: EigenSolution) -> None:
    """Rotate exactly degenerate clusters to phi-parity eigenstates.

    Keeps labeling deterministic at the flux frustration point, where
    the well doublet is degenerate; even parity is listed first.
    """
    clusters = _degenerate_clusters(sol.energies, 1e-12)
    if all(c.stop - c.start == 1 for c in clusters):
        return
    p = parity_permutation(sol.basis)
    for cluster in clusters:
        if cluster.stop - cluster.start == 1:
            continue
        block = sol.states[:, cluster]
        pvals, rot = np.linalg.eigh(block.conj().T @ block[p])
        order = np.argsort(-pvals)  # even (+1) first
        sol.states[:, cluster] = block @ rot[:, order]


def qubit_eigensolution(spec: CircuitSpec, k: int = 5, charging_scale: float = 1.0, *,
                        _real: bool = True, _coordinates: bool = False) -> EigenSolution:
    """Physical lowest-k eigensolution of a circuit.

    For the single-loop variant this restricts to the even
    (n_phi + n_theta) sector; the node-variable variants have no
    redundant sector and are solved in full. Where the (sector) H commutes
    with C*K, C the charge inversion (every ng = 0 circuit), it is solved
    in real arithmetic (``diagonalize`` with ``_real``), and each returned
    vector is C*K-invariant: its phase is fixed up to a sign. Where H also
    commutes with P_theta, n_theta -> -n_theta (at ng = 0 every circuit
    but the node basis at a ``charging_scale`` other than 1), it is solved
    as two P_theta parity blocks, and every vector outside a degenerate
    cluster is a P_theta eigenstate. Without C*K symmetry, and with
    ``_real=False``, the solve runs on complex data and the eigensolver
    sets the phases. ``_coordinates`` returns the states as
    coordinates in ``circuit.charge_inversion_basis`` of the sector, as an
    ``evolve._CircuitEngine`` in that basis works.
    """
    h = build_hamiltonian(spec, charging_scale=charging_scale)
    sector = "even" if spec.variant is Variant.SINGLE_LOOP else None
    return diagonalize(h, k, sector=sector, _real=_real, _coordinates=_coordinates)


def qubit_params(sol: EigenSolution) -> QubitParams:
    """omega_q = E1 - E0 and anharmonicity = (E2 - E0) - 2*(E1 - E0)."""
    if sol.k < 3:
        raise SpectrumError("qubit_params requires at least 3 eigenvalues")
    e = sol.energies
    omega_q = float(e[1] - e[0])
    return QubitParams(omega_q=omega_q, anharmonicity=float((e[2] - e[0]) - 2 * omega_q))


def _degenerate_clusters(energies: np.ndarray, tol: float) -> list[slice]:
    scale = max(1.0, float(np.abs(energies).max()))
    bounds = [0, *(np.flatnonzero(np.diff(energies) > tol * scale) + 1).tolist(), len(energies)]
    return [slice(start, stop) for start, stop in zip(bounds[:-1], bounds[1:])]


def align_gauge(reference: EigenSolution, current: EigenSolution,
                min_overlap: float = 0.5) -> EigenSolution:
    """Fix eigenvector phases (and degenerate rotations) against a reference.

    Each current eigenvector is multiplied by a unit phase so that
    <ref_i|cur_i> is real and positive; within (near-)degenerate
    clusters the subspace is rotated to maximize overlap with the
    reference basis (polar decomposition of the overlap block).
    Energies are returned untouched. ``min_overlap <= 0`` disables the
    level-crossing check and aligns best-effort.

    The phases of all single (non-degenerate) states are fixed in one
    vectorized step; each degenerate cluster takes its own SVD.
    """
    if reference.k != current.k:
        raise SpectrumError("reference and current keep different state counts")
    if reference.states.shape != current.states.shape:
        raise SpectrumError("reference and current bases differ")
    states = current.states.copy()
    clusters = _degenerate_clusters(current.energies, DEGENERACY_TOL)
    single = np.array([c.start for c in clusters if c.stop - c.start == 1], dtype=int)
    ov = np.sum(reference.states[:, single].conj() * states[:, single], axis=0)
    size = np.abs(ov)
    low = np.flatnonzero(size < min_overlap)
    if low.size:
        raise GaugeAlignmentError(
            f"overlap |<ref|cur>| = {size[low[0]]:.3f} < {min_overlap} for "
            f"state {single[low[0]]}; refine the parameter step"
        )
    nonzero = size > 0
    states[:, single[nonzero]] *= ov[nonzero].conj() / size[nonzero]
    for cluster in clusters:
        if cluster.stop - cluster.start > 1:
            block = reference.states[:, cluster].conj().T @ states[:, cluster]
            u, s, vh = np.linalg.svd(block)
            if s.min() < min_overlap:
                raise GaugeAlignmentError(
                    f"degenerate cluster {cluster} overlap {s.min():.3f} < {min_overlap}"
                )
            states[:, cluster] = states[:, cluster] @ (u @ vh).conj().T
    return EigenSolution(energies=current.energies.copy(), states=states,
                         basis=current.basis, k=current.k)


def _pair_overlap(reference: EigenSolution, aligned: EigenSolution) -> float:
    """Smaller of |<ref_i|cur_i>| over the qubit pair (levels 0, 1)."""
    return float(np.abs(
        np.sum(reference.states[:, :2].conj() * aligned.states[:, :2], axis=0)
    ).min())


def _check_pair_continuity(reference: EigenSolution, aligned: EigenSolution,
                           where: str) -> None:
    """Raise GaugeAlignmentError when the qubit pair (levels 0, 1) crosses."""
    overlap = _pair_overlap(reference, aligned)
    if overlap < PAIR_MIN_OVERLAP:
        raise GaugeAlignmentError(
            f"computational-state overlap {overlap:.3f} < {PAIR_MIN_OVERLAP} at "
            f"{where} (level crossing); refine the step"
        )


def _spec_with(spec: CircuitSpec, parameter: str, value) -> CircuitSpec:
    if parameter not in {f.name for f in dc_fields(CircuitSpec)}:
        raise SpectrumError(f"unknown CircuitSpec parameter {parameter!r}")
    return dc_replace(spec, **{parameter: value})


def sweep(spec: CircuitSpec, parameter: str, values, quantity: str = "energies",
          k: int = 5) -> dict[str, np.ndarray]:
    """Diagonalize along a 1-D parameter sweep with sequential gauge alignment.

    ``quantity`` is one of ``energies``, ``omega_q``, ``anharmonicity``.
    Returns a dict with the parameter values and the requested columns;
    eigensolutions are gauge-stitched in sweep order. Upper tracked
    levels may cross between points and are aligned best-effort;
    continuity is enforced for the qubit pair only, and a
    ``GaugeAlignmentError`` is raised when either of its overlaps with
    the previous point drops below 0.5.
    """
    if quantity not in ("energies", "omega_q", "anharmonicity"):
        raise SpectrumError(f"unknown sweep quantity {quantity!r}")
    values = np.asarray(list(values), dtype=float)
    if not np.all(np.isfinite(values)):
        raise SpectrumError("sweep values must be finite")
    k_eff = max(k, 3)
    rows = []
    previous: EigenSolution | None = None
    for value in values:
        sol = qubit_eigensolution(_spec_with(spec, parameter, value), k_eff)
        if previous is not None:
            sol = align_gauge(previous, sol, min_overlap=0.0)
            _check_pair_continuity(previous, sol, f"{parameter} = {value}")
        previous = sol
        qp = qubit_params(sol)
        rows.append((sol.energies.copy(), qp.omega_q, qp.anharmonicity))
    out: dict[str, np.ndarray] = {parameter: values}
    if quantity == "energies":
        out["energies"] = np.array([r[0] for r in rows])
    elif quantity == "omega_q":
        out["omega_q"] = np.array([r[1] for r in rows])
    else:
        out["anharmonicity"] = np.array([r[2] for r in rows])
    return out
