"""Hermitian eigensolutions with gauge continuity, plus derived qubit numbers.

``diagonalize`` finds the lowest k levels by one of two branches, chosen
by one rule in (dim, k): above ``DENSE_DIM_LIMIT`` states and for
k <= dim / ``SPARSE_STATES_PER_LEVEL``, shift-invert Lanczos on the CSC
form of the (sector) matrix; otherwise dense ``scipy.linalg.eigh``. The
sector is sliced from the operator's CSR, and only the dense branch makes
a dense copy, of the sector it solves. The sparse branch shifts to the
Gershgorin lower bound, which lies below E0, and starts from a fixed
generic vector. A level it missed would not show in any residual, so a
Sylvester inertia count of the levels below (E_{k-1} + E_k)/2 must come
out at exactly k. Whenever it cannot show that, the dense branch solves
the problem instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace as dc_replace, fields as dc_fields

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .circuit import (
    ChargeBasis,
    CircuitSpec,
    HermitianOperator,
    Variant,
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
# sparse LU plus about 1.5 ms per level. At k = 3 the two tie near 300 states
# and shift-invert wins above (313: 20 -> 17 ms, 625: 136 -> 32 ms); dense
# wins again from k = 12 on 313 states and from k = 16 on 361.
DENSE_DIM_LIMIT = 300  # at or below it every solve is dense
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


def _use_sparse(dim: int, k: int) -> bool:
    return dim > DENSE_DIM_LIMIT and k * SPARSE_STATES_PER_LEVEL <= dim


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


def _lowest_k(h: scipy.sparse.csr_array, k: int) -> tuple[np.ndarray, np.ndarray]:
    dim = h.shape[0]
    if _use_sparse(dim, k):
        try:
            return _shift_invert_lowest(h.tocsc(), k, _start_vector(dim))
        except _SparseRefused:
            pass
    return scipy.linalg.eigh(h.toarray(), subset_by_index=(0, k - 1))


def diagonalize(op: HermitianOperator | np.ndarray, k: int,
                basis: ChargeBasis | None = None,
                sector: str | None = None) -> EigenSolution:
    """Lowest-k eigensolution of a Hermitian operator.

    Above ``DENSE_DIM_LIMIT`` states, and while k is at most
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
    with np.errstate(over="ignore"):  # an overflow is refused just below
        norm = float(abs(h).sum(axis=1).max())
    if not math.isfinite(norm):
        raise SpectrumError(f"||H||_inf = {norm} is not finite")
    if sector is not None:
        if sector not in _SECTOR_PARITY:
            raise SpectrumError(f"sector must be None, 'even' or 'odd', got {sector!r}")
        if basis is None:
            raise SpectrumError("sector restriction requires a basis descriptor")
        idx = physical_sector_indices(basis, _SECTOR_PARITY[sector])
        if k > idx.size:
            raise SpectrumError(f"k = {k} exceeds the {idx.size} states of the {sector} sector")
        energies, sub_states = _lowest_k(h[idx][:, idx], k)
        states = np.zeros((dim, energies.size), dtype=sub_states.dtype)
        states[idx] = sub_states
    else:
        energies, states = _lowest_k(h, k)
    residual = np.linalg.norm(h @ states - states * energies, axis=0)
    if norm > 0 and residual.max() > RESIDUAL_RTOL * norm:
        raise SpectrumError(
            f"eigensolver residuals too large: max {residual.max():.3e} "
            f"vs bound {RESIDUAL_RTOL * norm:.3e}"
        )
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
    redundant sector and are solved in full.
    """
    h = build_hamiltonian(spec, charging_scale=charging_scale)
    sector = "even" if spec.variant is Variant.SINGLE_LOOP else None
    return diagonalize(h, k, sector=sector)


def qubit_params(sol: EigenSolution) -> QubitParams:
    """omega_q = E1 - E0 and anharmonicity = (E2 - E0) - 2*(E1 - E0)."""
    if sol.k < 3:
        raise SpectrumError("qubit_params requires at least 3 eigenvalues")
    e = sol.energies
    omega_q = float(e[1] - e[0])
    return QubitParams(omega_q=omega_q, anharmonicity=float((e[2] - e[0]) - 2 * omega_q))


def _degenerate_clusters(energies: np.ndarray, tol: float) -> list[slice]:
    clusters = []
    start = 0
    scale = max(1.0, float(np.abs(energies).max()))
    for i in range(1, len(energies) + 1):
        if i == len(energies) or energies[i] - energies[i - 1] > tol * scale:
            clusters.append(slice(start, i))
            start = i
    return clusters


def align_gauge(reference: EigenSolution, current: EigenSolution,
                min_overlap: float = 0.5) -> EigenSolution:
    """Fix eigenvector phases (and degenerate rotations) against a reference.

    Each current eigenvector is multiplied by a unit phase so that
    <ref_i|cur_i> is real and positive; within (near-)degenerate
    clusters the subspace is rotated to maximize overlap with the
    reference basis (polar decomposition of the overlap block).
    Energies are returned untouched. ``min_overlap <= 0`` disables the
    level-crossing check and aligns best-effort.
    """
    if reference.k != current.k:
        raise SpectrumError("reference and current keep different state counts")
    if reference.states.shape != current.states.shape:
        raise SpectrumError("reference and current bases differ")
    states = current.states.copy()
    for cluster in _degenerate_clusters(current.energies, DEGENERACY_TOL):
        block = reference.states[:, cluster].conj().T @ states[:, cluster]
        if cluster.stop - cluster.start == 1:
            ov = block[0, 0]
            if abs(ov) < min_overlap:
                raise GaugeAlignmentError(
                    f"overlap |<ref|cur>| = {abs(ov):.3f} < {min_overlap} for "
                    f"state {cluster.start}; refine the parameter step"
                )
            if abs(ov) > 0:
                states[:, cluster] *= ov.conj() / abs(ov)
        else:
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
