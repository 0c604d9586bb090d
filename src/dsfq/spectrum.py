"""Hermitian eigensolutions with gauge continuity, plus derived qubit numbers.

``diagonalize`` finds the lowest k levels of a (sector) matrix by one
route, which the matrix picks. An H that ``circuit.build_hamiltonian``
summed from its circuit's parts, where each part commutes with C*K, C the
charge inversion (every ng = 0 circuit), is real symmetric in
``circuit.charge_inversion_basis`` S and is solved there, where a dense
``eigh`` costs a quarter of the complex one and shift-invert runs
symmetric ARPACK. Where the parts also commute with P_theta, the
reflection n_theta -> -n_theta (at ng = 0 every circuit but the coupled
qubits' node basis), H is solved as its two real P_theta parity blocks of
about half the size, each on its own (313 sector states: 163 + 150). The
blocks, the P_theta pair or the one block in S, are one tuple per circuit
and sector parity, which ``circuit._symmetry_blocks`` maps once: each
solve sums them with H's weights, in O(nnz). Each P_theta block first
solves its share of the k levels by size plus ``BLOCK_LEVEL_MARGIN`` (25
levels of 163 + 150 states: 17 + 15), and is solved again with k only
when the merge keeps its highest solved level. Any other matrix is solved
as it is, on complex data. Either way the states come back as charge-basis
vectors, so every caller sees the same kind of ``EigenSolution``.

Each (block) matrix is solved by one rule in (dim, k, dtype): above
``DENSE_DIM_LIMIT`` states for a complex matrix, or
``REAL_DENSE_DIM_LIMIT`` for a real one, and for
k <= dim / ``SPARSE_STATES_PER_LEVEL``, shift-invert Lanczos on its CSC
form; otherwise dense ``scipy.linalg.eigh``. The sector is sliced from
the operator's CSR, and only the dense branch makes a dense array, of
the matrix it solves; a block summed from the map is written into it
straight. The sparse branch shifts to the Gershgorin lower
bound, which lies below E0, and starts from a fixed generic vector. A
level it missed would not show in any residual, so a Sylvester inertia
count of the levels below (E_{k-1} + E_k)/2 must come out at exactly k
(``_lowest_refusal``, as for ``evolve``'s reduced bases). Whenever it
cannot show that, the dense branch solves the problem instead. Every
pair, here and in ``evolve``, is checked by ``_max_residual``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace as dc_replace, fields as dc_fields

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
# the CSR multivector kernel that ``A @ X`` reaches after scipy's dispatch
from scipy.sparse._sparsetools import csr_matvecs

from .circuit import (
    ChargeBasis,
    CircuitSpec,
    HermitianOperator,
    Variant,
    _symmetry_blocks,
    build_hamiltonian,
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
# on 361. Real matrices (H in S): a dense eigh costs a quarter of the
# complex one, so dense wins at k = 3 on 313 states (3.9 against 7.1 ms
# shift-invert) and 361 (4.3 against 7.9), the two tie from about 420 to
# 545 (545: 14-18 against 11-16 ms), and shift-invert wins at 625 (21
# against 13 ms) and above. The rule applies to each P_theta parity block
# of a real solve on its own.
DENSE_DIM_LIMIT = 300  # at or below it every complex solve is dense
REAL_DENSE_DIM_LIMIT = 560  # at or below it every real solve is dense
SPARSE_STATES_PER_LEVEL = 40  # above it, shift-invert while k <= dim / 40
# A P_theta block first solves its share of k by size plus this margin. At
# ng = 0 the even block holds up to 2.2 levels more than its share (the
# 163 + 150 single-loop sector, k = 3 to 100, alpha 0.5 to 1 and flux 0.94
# to 1.06 pi; the 325 + 300 gradiometric and 190 + 171 node bases alike, k
# up to 25), so a margin of 3 leaves every such block's highest solved
# level out of the merge, and no block is solved twice. Each level saved
# costs about 0.06 ms of a dense 163-state solve.
BLOCK_LEVEL_MARGIN = 3
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


def _lowest_refusal(h: scipy.sparse.csc_array, energies: np.ndarray, k: int,
                    norm: float) -> str | None:
    """None where the lowest k of k + 1 ascending Ritz values ``energies``
    of Hermitian h are provably its lowest k levels, else why not. Ritz
    values lie above their levels, so E_{k-1} and E_k must lie more than
    2 * RESIDUAL_RTOL * ``norm`` apart and h have exactly k levels below
    their midpoint (``_levels_below``; Grimes, Lewis & Simon, SIAM J.
    Matrix Anal. Appl. 15, 228 (1994))."""
    if energies[k] - energies[k - 1] <= 2 * RESIDUAL_RTOL * norm:
        return f"levels {k - 1} and {k} too close to place the inertia shift"
    try:
        count = _levels_below(h, 0.5 * (energies[k - 1] + energies[k]), norm)
    except _SparseRefused as ex:
        return str(ex)
    return None if count == k else f"{count} levels below the inertia shift, expected {k}"


def _max_residual(h, energies: np.ndarray, states: np.ndarray) -> float:
    """Largest ||h v - E v|| over the pairs (E, v) of ``energies`` and the
    columns of ``states``, through h's CSR pattern by the CSR multivector
    kernel, in the common dtype of h and the vectors."""
    dtype = np.result_type(h.dtype, states.dtype)
    states = np.ascontiguousarray(states, dtype=dtype)
    hv = np.zeros_like(states)
    csr_matvecs(h.shape[0], h.shape[1], states.shape[1], h.indptr, h.indices,
                h.data.astype(dtype, copy=False), states, hv)
    hv -= states * energies
    return float(np.linalg.norm(hv, axis=0).max())


def _shift_invert_lowest(h: scipy.sparse.csc_array, k: int,
                         v0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lowest k eigenpairs of sparse Hermitian h by shift-invert Lanczos.

    The shift sigma is the Gershgorin lower bound of h, below E0, so the
    k + 1 levels nearest to it are the lowest k + 1 (Ericsson & Ruhe,
    Math. Comp. 35, 1251 (1980)); ``v0`` starts the Krylov space. A
    Rayleigh-Ritz step on the k + 1 vectors makes them orthonormal. A
    level that Lanczos missed leaves no trace in the residuals, so the
    k + 1 Ritz values must pass ``_lowest_refusal``. Raises _SparseRefused
    when ARPACK does not converge or they do not pass.
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
    refusal = _lowest_refusal(h, energies, k, norm)
    if refusal is not None:
        raise _SparseRefused(refusal)
    return energies[:k], q @ coords[:, :k]


def _lowest_k(h: scipy.sparse.csr_array, k: int, *,
              dense_index: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Lowest k eigenpairs of h by the branch that ``diagonalize`` names.

    ``dense_index``, when given, holds the position of each of h's stored
    entries in a flat Fortran-ordered array, where the dense branch writes
    them straight; otherwise it converts h.
    """
    dim = h.shape[0]
    if _use_sparse(dim, k, h.dtype):
        try:
            return _shift_invert_lowest(h.tocsc(), k, _start_vector(dim))
        except _SparseRefused:
            pass
    # a Fortran-ordered array that LAPACK may overwrite: the same input as a
    # copy of the C-ordered one, without a second dense copy
    if dense_index is None:
        a = h.toarray(order="F")
    else:
        a = np.zeros(dim * dim, dtype=h.dtype)
        a[dense_index] = h.data
        a = a.reshape((dim, dim), order="F")
    return scipy.linalg.eigh(a, subset_by_index=(0, k - 1), overwrite_a=True)


def _block_levels(sizes: list[int], k: int) -> list[int]:
    """Levels each block solves first: its share of k by size, plus
    ``BLOCK_LEVEL_MARGIN``, at most min(k, its size)."""
    total = sum(sizes)
    return [min(k, n, -(-k * n // total) + BLOCK_LEVEL_MARGIN) for n in sizes]


def _solve_blocks(blocks: list, k: int, norm: float) -> tuple[np.ndarray, np.ndarray]:
    """The k lowest levels over a list of (matrix, lift, dense_index)
    blocks of one H.

    Each block first solves ``_block_levels`` levels, by ``_lowest_k``. A
    block whose highest solved level the merge keeps, while it solved
    fewer than min(k, its size), may hold more of the k lowest and is
    solved again with min(k, its size); any other block's unsolved levels
    lie above the k kept. Each pair is checked against its own block, to
    RESIDUAL_RTOL * ``norm`` (``_max_residual``); a lift (None for none)
    maps its states to the output coordinates. The k lowest are merged in
    a stable order, an earlier block first on a tie.
    """
    def solve(m, levels, dense_index):
        e, v = _lowest_k(m, levels, dense_index=dense_index)
        residual = _max_residual(m, e, v)
        if norm > 0 and residual > RESIDUAL_RTOL * norm:
            raise SpectrumError(f"eigensolver residuals too large: max {residual:.3e} "
                                f"vs bound {RESIDUAL_RTOL * norm:.3e}")
        return e, v

    sizes = [m.shape[0] for m, _, _ in blocks]
    levels = _block_levels(sizes, k) if len(blocks) > 1 else [min(k, sizes[0])]
    solved = [solve(m, n, index) for (m, _, index), n in zip(blocks, levels)]
    ends = np.cumsum(levels) - 1  # each block's highest solved level in the merge order
    kept = np.argsort(np.concatenate([e for e, _ in solved]), kind="stable")[:k]
    for i, (m, _, index) in enumerate(blocks):
        if levels[i] < min(k, sizes[i]) and ends[i] in kept:
            solved[i] = solve(m, min(k, sizes[i]), index)
    return _merge_lowest([e for e, _ in solved],
                         [v if lift is None else lift @ v
                          for (_, v), (_, lift, _) in zip(solved, blocks)], k)


def _merge_lowest(energies: list, states: list, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k lowest of the eigenpairs of several blocks of one problem, in
    a stable order: an earlier block first on a tie."""
    energies = np.concatenate(energies)
    order = np.argsort(energies, kind="stable")[:k]
    return energies[order], np.hstack(states)[:, order]


def diagonalize(op: HermitianOperator | np.ndarray, k: int,
                basis: ChargeBasis | None = None,
                sector: str | None = None, *, _real: bool = False) -> EigenSolution:
    """Lowest-k eigensolution of a Hermitian operator.

    With ``sector`` set to ``"even"`` or ``"odd"``, a (phi, theta)-basis
    operator is restricted to the corresponding (n_phi + n_theta) parity
    block before solving; eigenvectors are embedded back into the full
    basis.

    With ``_real`` the matrix picks the route. An H that
    ``circuit.build_hamiltonian`` summed from its circuit's parts (its
    ``_parts``, while its ``csr`` is the array they gave) is solved in
    each block of the tuple that ``circuit._symmetry_blocks`` keeps for
    its parts and sector (the two P_theta parity blocks, or the one block
    in ``circuit.charge_inversion_basis``), each summed with H's weights in
    O(nnz), and the k lowest over the blocks are kept (``_solve_blocks``). An H
    whose parts fail the C*K test, an operator without parts (a dense
    matrix, an operator built from a matrix) and every matrix without
    ``_real`` are solved as they are, on complex data. The flag stays
    because a caller may need the complex route's phase gauge on an H
    that has parts: ``evolve._CircuitEngine.charge_gauge_states`` fixes a
    gate's target with it. The eigenvectors are charge-basis vectors on
    every route.

    Each (block) matrix above ``DENSE_DIM_LIMIT`` states
    (``REAL_DENSE_DIM_LIMIT`` for a real one), while k is at most
    dim / ``SPARSE_STATES_PER_LEVEL``, is solved in CSC form by
    shift-invert Lanczos, shifted to its Gershgorin lower bound and
    started from a fixed vector, so reruns repeat. Its levels are kept
    only when a Sylvester inertia count shows exactly k eigenvalues below
    the midpoint of E_{k-1} and E_k; any refusal (row or tiny pivot, a
    gap too small to place that midpoint, ARPACK not converging) falls
    back to dense ``scipy.linalg.eigh``, which also solves every smaller
    problem. Residuals are checked block by block against
    ``RESIDUAL_RTOL * ||H||_inf`` of the charge-basis H (``_max_residual``);
    the map's symmetry tests are exact, so a block's residual is that of
    the full problem. A non-finite ||H||_inf raises SpectrumError. Degenerate
    clusters are rotated to eigenstates of the phi -> -phi parity when a
    basis is known, even-parity state first, for deterministic labeling.
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
    summed = op._parts if isinstance(op, HermitianOperator) else None
    real = _real and summed is not None and summed[2] is h
    mapped = _symmetry_blocks(summed[0], parity) if real else None
    if mapped is None:
        blocks = [(h if idx is None else h[idx][:, idx], None, None)]
    else:
        c, s = summed[1]
        blocks = [(scipy.sparse.csr_array((b.data(1.0, c, s), b.indices, b.indptr),
                                          shape=(b.lift.shape[1],) * 2), b.lift, b.dense_index)
                  for b in mapped]
    energies, states = _solve_blocks(blocks, k, norm)
    if idx is not None:
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


def qubit_eigensolution(spec: CircuitSpec, k: int = 5,
                        charging_scale: float = 1.0) -> EigenSolution:
    """Physical lowest-k eigensolution of a circuit.

    For the single-loop variant this restricts to the even
    (n_phi + n_theta) sector; the node-variable variants have no
    redundant sector and are solved in full. The H of the circuit picks
    the route of ``diagonalize`` (with ``_real``). Where the (sector) H
    commutes with C*K, C the charge inversion (every ng = 0 circuit), each
    returned vector is C*K-invariant: its phase is fixed up to a sign.
    Where H also commutes with P_theta, n_theta -> -n_theta (at ng = 0
    every circuit but the node basis at a ``charging_scale`` other than
    1), every vector outside a degenerate cluster is a P_theta
    eigenstate. Elsewhere the solve runs on complex data and the
    eigensolver sets the phases.
    """
    h = build_hamiltonian(spec, charging_scale=charging_scale)
    sector = "even" if spec.variant is Variant.SINGLE_LOOP else None
    return diagonalize(h, k, sector=sector, _real=True)


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
