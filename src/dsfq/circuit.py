"""Charge-basis Hamiltonians and operators for double-shunted flux qubits.

All energies are stored as E/h in GHz; phases are in radians. The two
periodic modes of a qubit are represented in a truncated Cooper-pair
number basis, n in [-cutoff, cutoff] per mode, so each mode has
dimension 2*cutoff + 1.

Three circuit variants are supported:

* ``SINGLE_LOOP``  -- the (phi, theta) description of the three-junction
  loop: H = 2*EC*(n_phi - ng_phi)^2 + 2*EC*(n_theta - ng_theta)^2
  - 2*EJ*cos(phi)*cos(theta) - alpha*EJ*cos(2*phi + phi_ext).
* ``GRADIOMETRIC`` -- the double-loop qubit in node variables
  (phi1, phi2), with the tunable-junction term split over the two loops:
  H_J = -EJ*cos(phi1) - EJ*cos(phi2)
  - (EJ/2)*[alpha1*cos(phi1 - phi2 + phi_ext1)
            + alpha2*cos(phi1 - phi2 + phi_ext2)].
* ``NODE_BASIS``   -- a single qubit in node variables with the charging
  energy of the coupled-circuit analysis: the coupled node carries
  4*EC*(C + Cg)/(C + 2*Cg), the other node 4*EC.

Every operator is stored in one form, CSR. Diagonal operators (H_C, the
charge operators and the offset-charge derivatives) are vectors over the
basis charges. Every Josephson term is a cosine
-w*EJ*cos(k_a*x_a + k_b*x_b + p) over the mode phases. The barrier's
terms, which the alphas and fluxes of a sweep set, share one phase
combination X, so every H of a circuit is F + c*B_c + s*B_s exactly: F
holds H_C and the fixed cosines, B_c and B_s are the barrier's two
quadratures -cos(X) and sin(X), and c, s are sums of w*EJ*cos(p) and
w*EJ*sin(p). The three parts are built once per circuit (variant,
cutoff, EJ, EC, offset charges and the node basis's charging scale), each
checked once by ``HermitianOperator``, on one CSR pattern, and shared
read-only by every thread. ``build_hamiltonian``,
``hamiltonian_decomposition`` and the flux derivatives (a barrier term
at p + pi/2) are then O(nnz) real-weighted sums of the parts' data,
which are Hermitian and keep the charge-inversion and P_theta symmetry
exactly, so they are not checked again; each matches the sum of its
terms' matrix elements bit for bit. The charge operators, offset-charge
derivatives and ``phi_grid`` are built once per circuit and shared. A
dense full-basis matrix exists only on request, as
``HermitianOperator.matrix``.

One map, ``_map_parts``, takes a circuit's parts, per sector parity, to
one tuple of real symmetry blocks: the two P_theta parity blocks of each
part where each commutes exactly with C*K and P_theta (C the charge
inversion, P_theta n_theta -> -n_theta), else its one real block in
``charge_inversion_basis`` where each commutes with C*K. ``_symmetry_blocks``
keeps the tuple with the parts, mapped once. Every real eigensolve of an H
sums its blocks from it with H's weights, and every real engine of
``evolve`` works in its direct sum.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import NamedTuple

import numpy as np
import scipy.sparse

__all__ = [
    "Variant",
    "ChargeBasis",
    "CircuitSpec",
    "CoupledSpec",
    "HermitianOperator",
    "build_hamiltonian",
    "build_operator",
    "to_phase_grid",
    "phase_grid_points",
]

HERMITICITY_RTOL = 1e-12
# Range of a tunable junction's ratio alpha (and of alpha1, alpha2).
MIN_ALPHA = 0.0
MAX_ALPHA = 1.5


class Variant(Enum):
    SINGLE_LOOP = "single_loop"
    GRADIOMETRIC = "gradiometric"
    NODE_BASIS = "node_basis"


class CircuitError(ValueError):
    """Invalid circuit specification or operator request."""


@dataclass(frozen=True)
class ChargeBasis:
    """Truncated charge basis descriptor: mode names and per-mode cutoff."""

    modes: tuple[str, ...]
    cutoff: int

    @property
    def dim_per_mode(self) -> int:
        return 2 * self.cutoff + 1

    @property
    def dim(self) -> int:
        return self.dim_per_mode ** len(self.modes)

    def charges(self) -> np.ndarray:
        """Integer charge values of one mode, ascending."""
        return np.arange(-self.cutoff, self.cutoff + 1)


@dataclass(frozen=True)
class CircuitSpec:
    """Full parameterization of one qubit circuit.

    Fields irrelevant to the chosen variant are ignored but still
    validated for range. ``alpha1``/``alpha2`` and ``phi_ext1``/
    ``phi_ext2`` apply to the gradiometric variant only.
    """

    variant: Variant = Variant.SINGLE_LOOP
    ej: float = 10.0
    ec: float = 0.1
    alpha: float = 1.0
    alpha1: float = 1.0
    alpha2: float = 1.0
    phi_ext: float = 0.997 * math.pi
    phi_ext1: float = math.pi
    phi_ext2: float = -math.pi
    ng_phi: float = 0.0
    ng_theta: float = 0.0
    cutoff: int = 12

    def __post_init__(self) -> None:
        if not (self.ej > 0 and self.ec > 0):
            raise CircuitError(f"ej and ec must be positive, got {self.ej}, {self.ec}")
        for name in ("alpha", "alpha1", "alpha2"):
            val = getattr(self, name)
            if not (MIN_ALPHA <= val <= MAX_ALPHA):
                raise CircuitError(f"{name} = {val} outside [{MIN_ALPHA:g}, {MAX_ALPHA:g}]")
        if self.cutoff < 1:
            raise CircuitError(f"cutoff must be >= 1, got {self.cutoff}")
        if not isinstance(self.variant, Variant):
            raise CircuitError(f"unknown variant {self.variant!r}")

    @property
    def basis(self) -> ChargeBasis:
        if self.variant is Variant.SINGLE_LOOP:
            return ChargeBasis(("phi", "theta"), self.cutoff)
        return ChargeBasis(("phi1", "phi2"), self.cutoff)

    def with_alpha(self, alpha: float) -> "CircuitSpec":
        """Copy of the spec with the tunable junction(s) set to ``alpha``."""
        if self.variant is Variant.GRADIOMETRIC:
            return replace(self, alpha1=alpha, alpha2=alpha)
        return replace(self, alpha=alpha)


@dataclass(frozen=True)
class CoupledSpec:
    """Two capacitively coupled qubits in their node-variable description.

    ``cg_ratio`` is Cg/C. The charging prefactors follow from the
    Legendre transform of the coupled circuit: the coupled node of each
    qubit carries 4*EC*(C + Cg)/(C + 2*Cg), the other node 4*EC, and the
    coupling term 4*EC*Cg/(C + Cg) * n1*n3.
    """

    qubit1: CircuitSpec
    qubit2: CircuitSpec
    cg_ratio: float = 0.3

    def __post_init__(self) -> None:
        for q in (self.qubit1, self.qubit2):
            if q.variant is not Variant.NODE_BASIS:
                raise CircuitError("coupled qubits must use the NODE_BASIS variant")
        if self.cg_ratio < 0:
            raise CircuitError(f"cg_ratio must be >= 0, got {self.cg_ratio}")

    @property
    def charging_scale(self) -> float:
        """(C + Cg)/(C + 2*Cg) renormalization of the coupled node."""
        return (1.0 + self.cg_ratio) / (1.0 + 2.0 * self.cg_ratio)

    @property
    def coupling_energy(self) -> float:
        """Prefactor of the n1*n3 coupling term, in h GHz.

        The Legendre transform of the four-node circuit with shunt C per
        node and Cg between the coupled nodes gives
        8*EC*Cg/(C + 2*Cg) (the same inverse capacitance matrix that
        renormalizes the node charging term).
        """
        return 8.0 * self.qubit1.ec * self.cg_ratio / (1.0 + 2.0 * self.cg_ratio)

    def product_hamiltonian(self, energies, n1) -> np.ndarray:
        """Coupled Hamiltonian in a product of per-qubit eigenbases.

        ``energies[q]`` are the kept levels of qubit q and ``n1[q]`` its
        coupled-node charge in those levels:
        kron(E1, 1) + kron(1, E2) + coupling_energy * kron(n1_1, n1_2).
        Where both qubits' levels are real coordinates in their circuits'
        real symmetry blocks (``_symmetry_blocks``), each n1[q] is i times
        a real antisymmetric matrix, and the result has an exactly zero
        imaginary part.
        """
        h = self.coupling_energy * np.kron(n1[0], n1[1])
        h[np.diag_indices_from(h)] += np.add.outer(energies[0], energies[1]).ravel()
        return h


@dataclass
class HermitianOperator:
    """A labeled Hermitian operator in a declared charge basis.

    It is stored once, as ``csr``: a canonical CSR array (duplicates
    summed, columns sorted) with its explicit zeros eliminated. The third
    argument may be that array, another scipy sparse form or a dense
    matrix. Finiteness and Hermiticity are checked on the stored entries,
    the latter by comparing each with its mirror (a lone entry counts with
    its own magnitude). ``matrix`` is a dense copy, made on each access.
    An H that ``build_hamiltonian`` sums from checked parts is not checked
    again; it keeps those parts, its weights and the array they gave in
    ``_parts``.
    """

    label: str
    basis: ChargeBasis
    csr: scipy.sparse.csr_array = field(repr=False)
    _parts: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        m = scipy.sparse.csr_array(self.csr, copy=True)
        if m.shape != (self.basis.dim, self.basis.dim):
            raise CircuitError(
                f"matrix shape {m.shape} does not match basis dimension {self.basis.dim}"
            )
        m.sum_duplicates()
        m.eliminate_zeros()
        if not np.isfinite(m.data).all():
            raise CircuitError(f"operator {self.label!r} has non-finite entries")
        bound = HERMITICITY_RTOL * np.abs(m.data).max(initial=0.0)
        # each stored entry against its mirror, which reads 0 where none is stored
        rows = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
        if np.abs(m.data - m[m.indices, rows].conj()).max(initial=0.0) > bound:
            raise CircuitError(f"operator {self.label!r} is not Hermitian")
        self.csr = m

    @classmethod
    def _trusted(cls, label: str, basis: ChargeBasis, csr: scipy.sparse.csr_array,
                 parts: tuple | None = None) -> "HermitianOperator":
        """An operator around a canonical CSR array that is Hermitian by
        construction (a real-weighted sum of checked parts), unchecked."""
        op = cls.__new__(cls)
        op.label, op.basis, op.csr, op._parts = label, basis, csr, parts
        return op

    @property
    def matrix(self) -> np.ndarray:
        return self.csr.toarray()

    @property
    def dim(self) -> int:
        return self.basis.dim


def _mode_charges(basis: ChargeBasis) -> tuple[np.ndarray, np.ndarray]:
    """Charges (n_a, n_b) of the two modes in each basis state, n_a slowest."""
    n = basis.charges()
    n_a, n_b = np.meshgrid(n, n, indexing="ij")
    return n_a.ravel(), n_b.ravel()


def _charge_numbers(spec: CircuitSpec) -> tuple[np.ndarray, np.ndarray]:
    """(n_phi, n_theta) of each basis state; in node variables
    n_phi = n1 - n2 and n_theta = n1 + n2."""
    n_a, n_b = _mode_charges(spec.basis)
    if spec.variant is Variant.SINGLE_LOOP:
        return n_a, n_b
    return n_a - n_b, n_a + n_b


def _charging_diagonal(spec: CircuitSpec, charging_scale: float) -> np.ndarray:
    """Diagonal of H_C for the requested variant, as a 1-D array."""
    n_phi, n_theta = _charge_numbers(spec)
    if spec.variant is not Variant.NODE_BASIS:
        return 2.0 * spec.ec * ((n_phi - spec.ng_phi) ** 2 + (n_theta - spec.ng_theta) ** 2)
    # Offsets are carried over from the (phi, theta) description.
    n1, n2 = 0.5 * (n_theta + n_phi), 0.5 * (n_theta - n_phi)
    ng1 = 0.5 * (spec.ng_theta + spec.ng_phi)
    ng2 = 0.5 * (spec.ng_theta - spec.ng_phi)
    return 4.0 * spec.ec * (charging_scale * (n1 - ng1) ** 2 + (n2 - ng2) ** 2)


def _diagonal_operator(kind: str, spec: CircuitSpec, charging_scale: float) -> np.ndarray:
    """Diagonal of a charge operator or offset-charge derivative; the
    derivatives are those of ``_charging_diagonal`` at ``charging_scale``."""
    n_phi, n_theta = _charge_numbers(spec)
    if kind == "n_phi":
        return n_phi.astype(float)
    if kind == "n_theta":
        return n_theta.astype(float)
    if kind == "n1":
        return 0.5 * (n_theta + n_phi)
    # H_C = 4*EC*(s*(n1 - ng1)^2 + (n2 - ng2)^2) with n1,2 = (n_theta +- n_phi)/2,
    # ng1,2 alike, and s = 1 but in the node basis: 2*EC*(n_phi^2 + n_theta^2) at s = 1
    s = charging_scale if spec.variant is Variant.NODE_BASIS else 1.0
    n1 = 0.5 * (n_theta + n_phi - spec.ng_theta - spec.ng_phi)
    n2 = 0.5 * (n_theta - n_phi - spec.ng_theta + spec.ng_phi)
    return -4.0 * spec.ec * (s * n1 + (n2 if kind == "dH_dng_theta" else -n2))


# A cosine term (w, (k_a, k_b), p) is -w*EJ*cos(k_a*x_a + k_b*x_b + p), with
# x_a, x_b the phases of the two modes. exp(i*(k_a*x_a + k_b*x_b)) raises
# the charges (n_a, n_b) by (k_a, k_b).
_Cosine = tuple[float, tuple[int, int], float]


def _cosine_terms(spec: CircuitSpec) -> tuple[list[_Cosine], list[_Cosine]]:
    """The fixed cosines of H_J and its tunable-barrier terms, in that order.

    The barrier weight is alpha (alpha_k/2 per gradiometric loop), so
    the barrier terms are linear in the alphas.
    """
    if spec.variant is Variant.SINGLE_LOOP:
        # 2*cos(phi)*cos(theta) = cos(phi + theta) + cos(phi - theta)
        return ([(1.0, (1, 1), 0.0), (1.0, (1, -1), 0.0)],
                [(spec.alpha, (2, 0), spec.phi_ext)])
    fixed = [(1.0, (1, 0), 0.0), (1.0, (0, 1), 0.0)]
    if spec.variant is Variant.GRADIOMETRIC:
        return fixed, [(0.5 * spec.alpha1, (1, -1), spec.phi_ext1),
                       (0.5 * spec.alpha2, (1, -1), spec.phi_ext2)]
    return fixed, [(spec.alpha, (1, -1), spec.phi_ext)]


class _CircuitKey(NamedTuple):
    """What H's parts depend on: every CircuitSpec field but the barrier's
    alphas and fluxes, and a charging scale, which only the node basis
    reads (1 for the other variants)."""

    variant: Variant
    cutoff: int
    ej: float
    ec: float
    ng_phi: float
    ng_theta: float
    charging_scale: float

    def spec(self) -> CircuitSpec:
        return CircuitSpec(variant=self.variant, ej=self.ej, ec=self.ec, ng_phi=self.ng_phi,
                           ng_theta=self.ng_theta, cutoff=self.cutoff)


def _circuit_key(spec: CircuitSpec, charging_scale: float) -> _CircuitKey:
    scale = float(charging_scale) if spec.variant is Variant.NODE_BASIS else 1.0
    return _CircuitKey(spec.variant, spec.cutoff, spec.ej, spec.ec, spec.ng_phi,
                       spec.ng_theta, scale)


@dataclass(frozen=True, eq=False)
class _Parts:
    """H = F + c*B_c + s*B_s of one circuit, on one canonical CSR pattern.

    F is H_C plus the fixed cosines; B_c = -cos(X) and B_s = sin(X) are
    the barrier's quadratures, X its mode phase combination, so that a
    barrier term -w*EJ*cos(X + p) is w*EJ*(cos(p)*B_c + sin(p)*B_s)
    (``_term_weights``). Every variant's barrier terms share one X, so
    three parts serve every H of the circuit. F and B_c are real and B_s
    is imaginary, so each is stored as one real array on the pattern
    (``sin`` holds B_s / i). ``blocks`` holds, by sector parity, the
    tuple of the parts' real symmetry blocks (``_map_parts``), which
    ``_symmetry_blocks`` maps once. The arrays are read-only.
    """

    key: _CircuitKey
    basis: ChargeBasis
    indptr: np.ndarray
    indices: np.ndarray
    fixed: np.ndarray
    cos: np.ndarray
    sin: np.ndarray
    blocks: dict = field(default_factory=dict)

    def weighted_sum(self, f: float, c: float, s: float) -> scipy.sparse.csr_array:
        """f*F + c*B_c + s*B_s as a canonical, read-only CSR array without
        stored zeros, in O(nnz). Real weights keep each entry's mirror and
        its C and P_theta images exact, as they are in the parts."""
        data = np.empty(self.indices.size, dtype=complex)
        data.real = f * self.fixed + c * self.cos
        data.imag = s * self.sin
        indptr, indices = self.indptr, self.indices
        keep = data != 0
        if not keep.all():  # alpha = 0, or a part left out
            data, indices = data[keep], indices[keep]
            indptr = np.concatenate(([0], np.cumsum(keep)))[indptr].astype(indptr.dtype)
        return _frozen(scipy.sparse.csr_array((data, indices, indptr), shape=(self.basis.dim,) * 2))


def _frozen(m: scipy.sparse.csr_array) -> scipy.sparse.csr_array:
    """A canonical CSR array with its arrays made read-only."""
    m.has_canonical_format = True
    for a in (m.data, m.indices, m.indptr):
        a.flags.writeable = False
    return m


_CACHE_LOCK = threading.Lock()


def _shift_entries(basis: ChargeBasis, k: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """(src, dst) of the states that exp(i*(k_a*x_a + k_b*x_b)) maps into
    the basis: it raises the charges (n_a, n_b) by k."""
    n_a, n_b = _mode_charges(basis)
    src = np.flatnonzero((np.abs(n_a + k[0]) <= basis.cutoff)
                         & (np.abs(n_b + k[1]) <= basis.cutoff))
    return src, src + k[0] * basis.dim_per_mode + k[1]


@functools.lru_cache(maxsize=16)
def _hamiltonian_parts(key: _CircuitKey) -> _Parts:
    """The ``_Parts`` of one circuit, each part checked once by
    ``HermitianOperator``; built once and shared (see ``_parts``)."""
    spec = key.spec()
    basis, dim = spec.basis, spec.basis.dim
    fixed, barrier = _cosine_terms(spec)
    (shift,) = {k for _, k, _ in barrier}

    def part(label, diagonal, terms):
        # each term (k, a) is a*exp(i*k.x) + conj(a)*exp(-i*k.x)
        entries = [] if diagonal is None else [(np.arange(dim),) * 2 + (diagonal,)]
        for k, amp in terms:
            src, dst = _shift_entries(basis, k)
            entries += [(dst, src, np.full(src.size, amp)),
                        (src, dst, np.full(src.size, np.conj(amp)))]
        rows, cols, values = (np.concatenate(p) for p in zip(*entries))
        m = scipy.sparse.coo_array((values, (rows, cols)), shape=(dim, dim)).tocsr()
        return HermitianOperator(label, basis, m).csr

    # the fixed cosines all have p = 0
    ops = (part("F", _charging_diagonal(spec, key.charging_scale),
                [(k, -0.5 * w * spec.ej) for w, k, _ in fixed]),
           part("B_c", None, [(shift, -0.5)]),
           part("B_s", None, [(shift, -0.5j)]))
    indptr, indices, data = _union_pattern(ops, dim)
    arrays = (indptr, indices, data[0].real, data[1].real, data[2].imag)
    for a in arrays:
        a.flags.writeable = False
    return _Parts(key, basis, *arrays)


def _union_pattern(mats, dim: int) -> tuple[np.ndarray, np.ndarray, list]:
    """The union of the patterns of (dim, dim) CSR arrays without duplicate
    entries, as canonical int32 (indptr, indices), and each array's
    entries on it."""
    keys = [np.repeat(np.arange(dim), np.diff(m.indptr)) * dim + m.indices for m in mats]
    union = np.unique(np.concatenate(keys))
    rows, indices = np.divmod(union, dim)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=dim))))
    data = []
    for m, k in zip(mats, keys):
        d = np.zeros(union.size, dtype=m.dtype)
        d[np.searchsorted(union, k)] = m.data
        data.append(d)
    return indptr.astype(np.int32), indices.astype(np.int32), data


def _parts(spec: CircuitSpec, charging_scale: float) -> _Parts:
    """The parts of ``spec``'s circuit, built under a lock so that
    threads that miss the cache together build them once."""
    with _CACHE_LOCK:
        return _hamiltonian_parts(_circuit_key(spec, charging_scale))


class _Block(NamedTuple):
    """One real symmetry block of a circuit's parts: its canonical CSR
    pattern, the entries of F, B_c and B_s on it (rows of ``parts``), the
    position of each entry in a Fortran-ordered dense block, and the lift
    of the block's coordinates to charge-basis (sector) vectors."""

    indptr: np.ndarray
    indices: np.ndarray
    parts: np.ndarray
    dense_index: np.ndarray
    lift: scipy.sparse.csr_array

    def data(self, f: float, c: float, s: float) -> np.ndarray:
        """The entries of f*F + c*B_c + s*B_s in this block, in O(nnz)."""
        return f * self.parts[0] + c * self.parts[1] + s * self.parts[2]


def _invariant(m: scipy.sparse.csr_array, perm: np.ndarray, conj: bool = False) -> bool:
    """Whether m equals its image P m P, conjugated as well for C*K
    (``conj``), exactly, P the involution ``perm`` (P @ v is v[perm]): one
    entry-by-entry comparison of m with its permuted CSR copy. An entry off
    its image by one rounding fails."""
    image = m[perm][:, perm]
    return (m != (image.conj() if conj else image)).nnz == 0


def _lifted_block(ops: list, lift: scipy.sparse.csr_array) -> _Block:
    """Re(L^dag P L) of each part P in ``ops``, on one pattern, L the lift."""
    n = lift.shape[1]
    lift_h = lift.conj().T.tocsr()
    indptr, indices, data = _union_pattern([(lift_h @ m @ lift).real for m in ops], n)
    dense_index = np.repeat(np.arange(n), np.diff(indptr)) + indices * np.int64(n)
    block = _Block(indptr, indices, np.stack(data), dense_index, lift)
    for a in block[:4]:
        a.flags.writeable = False
    return block


def _map_parts(parts: _Parts, parity: int | None) -> tuple[_Block, ...] | None:
    """The real symmetry blocks of a circuit's parts in its (n_phi + n_theta)
    sector of ``parity`` (None: the full basis), as one tuple, by plain
    sparse products; None unless each part P commutes exactly with C*K, C
    the charge inversion (``_invariant``).

    Where each part also commutes exactly with P_theta
    (n_theta -> -n_theta), the tuple holds its two P_theta parity blocks
    Re(L^dag P L), even block first, L the lifts of ``_theta_blocks``
    (symmetry blocks of exact diagonalization: Sandvik, AIP Conf. Proc.
    1297, 135 (2010)); otherwise the one block Re(S^dag P S), S the
    ``charge_inversion_basis`` of the sector. Their imaginary parts vanish
    up to rounding. A sum of the parts with real weights commutes as they
    do, and its blocks are the same sum of theirs (``_Block.data``).
    """
    basis, dim = parts.basis, parts.basis.dim
    ops = [scipy.sparse.csr_array((d, parts.indices, parts.indptr), shape=(dim, dim))
           for d in (parts.fixed, parts.cos, 1j * parts.sin)]
    if parity is not None:
        idx = physical_sector_indices(basis, parity)
        ops = [m[idx][:, idx] for m in ops]
    # C reverses the basis order, and a sector's, which it maps onto itself
    reverse = np.arange(ops[0].shape[0])[::-1]
    if not all(_invariant(m, reverse, conj=True) for m in ops):
        return None
    theta = all(_invariant(m, _theta_permutation(basis, parity)) for m in ops)
    lifts = _theta_blocks(basis, parity) if theta else (charge_inversion_basis(basis, parity),)
    return tuple(_lifted_block(ops, lift) for lift in lifts)


def _symmetry_blocks(parts: _Parts, parity: int | None) -> tuple[_Block, ...] | None:
    """``_map_parts`` of a circuit's parts and sector parity, mapped once
    and kept in ``parts.blocks``, under the lock of the parts so that
    threads that miss it together map it once. Callers must not modify it."""
    with _CACHE_LOCK:
        if parity not in parts.blocks:
            parts.blocks[parity] = _map_parts(parts, parity)
        return parts.blocks[parity]


def _term_weights(spec: CircuitSpec, terms: list[_Cosine]) -> tuple[float, float]:
    """(c, s) with c*B_c + s*B_s the sum of barrier terms (w, k, p): the
    real and imaginary parts of the sum of w*EJ*exp(i*p). Each is rounded
    as the term's amplitude -w*EJ*exp(i*p)/2 is, so a sum of parts equals
    the sum of its terms' matrix elements bit for bit."""
    z = sum(w * spec.ej * np.exp(1j * p) for w, _, p in terms)
    return float(z.real), float(z.imag)


def _barrier_weights(spec: CircuitSpec) -> tuple[float, float]:
    """(c, s) of H's barrier c*B_c + s*B_s."""
    return _term_weights(spec, _cosine_terms(spec)[1])


def _flux_derivative(label: str, spec: CircuitSpec, term: _Cosine,
                     charging_scale: float = 1.0) -> HermitianOperator:
    """d/dp of the barrier term (w, k, p), which is the term at p + pi/2:
    w*EJ*(cos(p)*B_s - sin(p)*B_c)."""
    weight, k, phase = term
    parts = _parts(spec, charging_scale)  # the circuit's, though B_c and B_s ignore the scale
    return HermitianOperator._trusted(label, spec.basis, parts.weighted_sum(
        0.0, *_term_weights(spec, [(weight, k, phase + 0.5 * math.pi)])))


def build_hamiltonian(spec: CircuitSpec, charging_scale: float = 1.0) -> HermitianOperator:
    """Construct H = H_C + H_J in the truncated charge basis.

    ``charging_scale`` renormalizes the coupled-node charging prefactor
    of the NODE_BASIS variant ((C + Cg)/(C + 2*Cg) when part of a
    coupled pair); it is ignored for the other variants. H is summed from
    its circuit's checked parts in O(nnz) and carries them with its
    weights, from which ``spectrum.diagonalize`` sums its real blocks
    (``_symmetry_blocks``).
    Its arrays are read-only.
    """
    parts = _parts(spec, charging_scale)
    weights = _barrier_weights(spec)
    m = parts.weighted_sum(1.0, *weights)
    return HermitianOperator._trusted(f"H[{spec.variant.value}]", spec.basis, m,
                                      (parts, weights, m))


_OPERATOR_KINDS = (
    "n_phi",
    "n_theta",
    "n1",
    "phi_grid",
    "dH_dphi_ext",
    "dH_dng_phi",
    "dH_dng_theta",
)


@functools.lru_cache(maxsize=32)
def _shared_operator(kind: str, key: _CircuitKey, grid_points: int) -> HermitianOperator:
    """A charge operator, offset-charge derivative or ``phi_grid`` of one
    circuit, checked and built once and shared, its arrays read-only."""
    spec = key.spec()
    if kind == "phi_grid":
        op = HermitianOperator("phi", spec.basis, _phi_operator(spec, grid_points))
    else:
        op = HermitianOperator(kind, spec.basis, scipy.sparse.diags_array(
            _diagonal_operator(kind, spec, key.charging_scale), format="csr"))
    _frozen(op.csr)
    return op


def build_operator(
    kind: str, spec: CircuitSpec, grid_points: int = 256, charging_scale: float = 1.0
) -> HermitianOperator:
    """Build a named operator in the charge basis of ``spec``.

    Kinds: ``n_phi``/``n_theta`` -- diagonal charge operators of the
    (phi, theta) pair; ``n1`` = (n_theta + n_phi)/2 (node charge driven
    by a capacitive line); ``dH_dphi_ext`` -- flux derivative of the
    Hamiltonian; ``dH_dng_phi``/``dH_dng_theta`` -- offset-charge
    derivatives of ``build_hamiltonian(spec, charging_scale)``;
    ``phi_grid`` -- the double-well coordinate phi as a multiplication
    operator on the [-pi, pi) branch, represented through the phase-grid
    transform with ``grid_points`` points per mode. ``dH_dphi_ext`` is
    summed from the circuit's parts; every other kind is built once per
    circuit (and grid) and shared. The arrays of every kind are read-only.
    """
    if kind not in _OPERATOR_KINDS:
        raise CircuitError(f"unknown operator kind {kind!r}")
    if kind == "dH_dphi_ext":
        if spec.variant is Variant.GRADIOMETRIC:
            raise CircuitError(
                "dH_dphi_ext is single-flux only; use per-loop derivatives "
                "for the gradiometric variant"
            )
        (term,) = _cosine_terms(spec)[1]
        return _flux_derivative(kind, spec, term, charging_scale)
    if kind == "phi_grid":
        if grid_points < 2 or grid_points & (grid_points - 1) != 0:
            raise CircuitError(f"grid size {grid_points} is not a power of two")
    else:
        grid_points = 0  # the grid is the phi_grid's alone
    with _CACHE_LOCK:
        return _shared_operator(kind, _circuit_key(spec, charging_scale), grid_points)


def hamiltonian_decomposition(
    spec: CircuitSpec, charging_scale: float = 1.0
) -> tuple[scipy.sparse.csr_array, scipy.sparse.csr_array]:
    """Split H(alpha) = H_const + alpha * H_barrier, both in CSR form.

    The tunable-junction terms are linear in alpha (for the gradiometric
    variant both alphas are scaled together), so time-varying barrier
    schedules only rescale ``H_barrier``. Both are summed from the
    circuit's parts and are read-only.
    """
    parts = _parts(spec, charging_scale)
    return (parts.weighted_sum(1.0, 0.0, 0.0),
            parts.weighted_sum(0.0, *_barrier_weights(spec.with_alpha(1.0))))


def gradiometric_loop_dflux(spec: CircuitSpec, loop: int) -> HermitianOperator:
    """dH/dphi_ext_loop for one loop of the gradiometric variant."""
    if spec.variant is not Variant.GRADIOMETRIC:
        raise CircuitError("per-loop flux derivatives require the gradiometric variant")
    if loop not in (1, 2):
        raise CircuitError(f"loop must be 1 or 2, got {loop}")
    return _flux_derivative(f"dH_dphi_ext{loop}", spec, _cosine_terms(spec)[1][loop - 1])


@functools.lru_cache(maxsize=16)
def physical_sector_indices(basis: ChargeBasis, parity: int = 0) -> np.ndarray:
    """Indices of the (n_phi + n_theta) parity sector of a (phi, theta) basis.

    The integer-charge (phi, theta) torus double-covers the physical
    node-variable torus: H never couples states of different
    (n_phi + n_theta) parity, and every physical level appears once per
    sector. States with even n_phi + n_theta map onto integer node
    charges n1 = (n_theta + n_phi)/2 and are the physical sector. Each
    (basis, parity) is built once and shared, read-only.
    """
    if basis.modes != ("phi", "theta"):
        raise CircuitError("sector restriction applies to (phi, theta) bases only")
    n_a, n_b = _mode_charges(basis)
    idx = np.flatnonzero((n_a + n_b) % 2 == parity % 2)
    idx.flags.writeable = False
    return idx


def parity_permutation(basis: ChargeBasis) -> np.ndarray:
    """The reflection phi -> -phi (first mode, n -> -n) as an index
    permutation: P @ v is v[parity_permutation(basis)]."""
    d = basis.dim_per_mode
    return np.arange(basis.dim).reshape(d, d)[::-1].ravel()


@functools.lru_cache(maxsize=16)
def charge_inversion_basis(basis: ChargeBasis,
                           parity: int | None = None) -> scipy.sparse.csr_array:
    """Unitary S whose columns are their own images under C*K.

    C is the charge inversion n -> -n of every mode, which reverses the
    basis order, and K is complex conjugation. For p below the middle
    index and q = dim - 1 - p, column p is (|p> + |q>)/sqrt(2) and column
    q is i*(|p> - |q>)/sqrt(2); the middle column is the all-zero charge
    state. An H with C H* C = H (``_invariant``), such as every
    H(alpha) at ng = 0, is real symmetric in this basis (an antiunitary
    symmetry that squares to +1: Haake, Quantum Signatures of Chaos,
    ch. 2), and a charge, which C reverses, is i times a real
    antisymmetric matrix. Pairs (p, q) keep their indices, so S restricted
    to a (n_phi + n_theta) parity sector, which ``parity`` asks for, is
    the same basis for that sector. Each (basis, parity) is built once and
    shared: callers must not modify the result.
    """
    dim, mid = basis.dim, basis.dim // 2
    p = np.arange(mid)
    q = dim - 1 - p
    r = np.full(mid, 1.0 / math.sqrt(2.0))
    rows = np.concatenate([p, q, p, q, [mid]])
    cols = np.concatenate([p, p, q, q, [mid]])
    values = np.concatenate([r, r, 1j * r, -1j * r, [1.0]])
    s = scipy.sparse.coo_array((values, (rows, cols)), shape=(dim, dim)).tocsr()
    if parity is None:
        return s
    idx = physical_sector_indices(basis, parity)
    return s[idx][:, idx]


def _theta_permutation(basis: ChargeBasis, parity: int | None = None) -> np.ndarray:
    """The reflection n_theta -> -n_theta (P_theta) as an index permutation
    of a basis or of one of its (n_phi + n_theta) parity sectors, which it
    maps onto themselves; P_theta keeps n_phi. In node variables it is
    (n1, n2) -> (-n2, -n1)."""
    d = basis.dim_per_mode
    grid = np.arange(basis.dim).reshape(d, d)
    perm = (grid[:, ::-1] if basis.modes == ("phi", "theta") else grid.T[::-1, ::-1]).ravel()
    if parity is None:
        return perm
    idx = physical_sector_indices(basis, parity)
    return np.searchsorted(idx, perm[idx])


@functools.lru_cache(maxsize=16)
def _theta_blocks(basis: ChargeBasis, parity: int | None = None
                  ) -> tuple[scipy.sparse.csr_array, scipy.sparse.csr_array]:
    """The two P_theta parity blocks of a basis or sector in
    ``charge_inversion_basis`` S, even block first, built once and shared:
    for each, the lift of its coordinates to charge-basis (sector)
    vectors. Callers must not modify them.

    P_theta commutes with the charge inversion C, so in S it is a signed
    permutation: it maps each column of S to +-1 times a column. A column
    it maps to e times itself is a block vector of parity e; a pair of
    columns with P_theta u = e*v gives (u + e*v)/sqrt(2) to the even block
    and (u - e*v)/sqrt(2) to the odd one. Each block vector thus combines
    at most 4 charge states, one orbit of C and P_theta, and an H that
    commutes with both is real in each block (symmetry blocks of exact
    diagonalization: Sandvik, AIP Conf. Proc. 1297, 135 (2010)).
    """
    s = charge_inversion_basis(basis, parity)
    dim = s.shape[0]
    perm = _theta_permutation(basis, parity)
    signed = (s.conj().T @ s[perm]).real.tocoo()  # P_theta in S: column j -> sign * image
    image = np.empty(dim, dtype=np.int64)
    sign = np.empty(dim)
    keep = np.abs(signed.data) > 0.5
    image[signed.col[keep]] = signed.row[keep]
    sign[signed.col[keep]] = np.rint(signed.data[keep])
    lead = np.flatnonzero(image >= np.arange(dim))  # a fixed column or the first of a pair
    paired = image[lead] != lead
    r = 1.0 / math.sqrt(2.0)
    blocks = []
    for parity_sign in (1.0, -1.0):
        members = lead[paired | (sign[lead] == parity_sign)]
        pair = image[members] != members
        rows = np.concatenate([members, image[members[pair]]])
        cols = np.concatenate([np.arange(members.size), np.flatnonzero(pair)])
        values = np.concatenate([np.where(pair, r, 1.0), parity_sign * sign[members[pair]] * r])
        lift_s = scipy.sparse.csr_array((values, (rows, cols)), shape=(dim, members.size))
        blocks.append((s @ lift_s).tocsr())
    return tuple(blocks)


def phase_grid_points(grid_points: int) -> np.ndarray:
    """Uniform grid over [-pi, pi), matching the synthesis convention."""
    return -math.pi + 2.0 * math.pi * np.arange(grid_points) / grid_points


def _synthesis_matrix(cutoff: int, grid_points: int) -> np.ndarray:
    """(grid, 2*cutoff+1) matrix of exp(i*n*x)/sqrt(2*pi) per mode."""
    x = phase_grid_points(grid_points)
    n = np.arange(-cutoff, cutoff + 1)
    return np.exp(1j * np.outer(x, n)) / math.sqrt(2.0 * math.pi)


def to_phase_grid(
    state: np.ndarray, basis: ChargeBasis, grid_points: int = 256
) -> np.ndarray:
    """Fourier-synthesize a charge-basis state on the 2-D phase grid.

    Returns psi(x1, x2) = sum_{n1,n2} c_{n1,n2} e^{i n1 x1} e^{i n2 x2} / (2*pi)
    with x over [-pi, pi) per mode. The grid cell weight is
    (2*pi/grid_points)^2, so sum |psi|^2 * cell equals the state norm.
    """
    state = np.asarray(state)
    if state.shape != (basis.dim,):
        raise CircuitError(
            f"state dimension {state.shape} does not match basis ({basis.dim},)"
        )
    d = basis.dim_per_mode
    coeff = state.reshape(d, d)
    f = _synthesis_matrix(basis.cutoff, grid_points)
    return f @ coeff @ f.T


def _phi_operator(spec: CircuitSpec, grid_points: int) -> scipy.sparse.csr_array:
    """Multiplication by the double-well coordinate phi, via the grid.

    For the single loop this is the first mode's phase on the [-pi, pi)
    branch; for node variables it is (phi1 - phi2)/2 with the difference
    wrapped onto [-pi, pi). The branch cut sits where double-well states
    carry negligible weight.
    """
    d = spec.basis.dim_per_mode
    x = phase_grid_points(grid_points)
    if spec.variant is Variant.SINGLE_LOOP:
        f = _synthesis_matrix(spec.cutoff, grid_points)
        w = 2.0 * math.pi / grid_points  # quadrature weight per grid point
        phi_1d = w * (f.conj().T * x) @ f
        m = scipy.sparse.kron(phi_1d, scipy.sparse.eye_array(d), format="csr")
    else:
        # phi(x1, x2) = wrap(x1 - x2)/2 is a function of the difference
        # only, so its matrix elements are diagonal in n1 - m1 = -(n2 - m2)
        # and reduce to one 1-D quadrature over the wrapped difference.
        # <n1 n2|phi|m1 m2> = delta_{n1-m1, m2-n2} * c_{n1-m1}, with
        # c_k = (1/2pi) int wrap(u)/2 e^{-i k u} du evaluated on the grid:
        # the sum of c_k kron(S_k, S_-k), S_k the shift n -> n + k, written
        # straight into CSR from the index arrays of its shifts.
        k = np.arange(-2 * spec.cutoff, 2 * spec.cutoff + 1)
        wrapped = 0.5 * (np.mod(x + math.pi, 2.0 * math.pi) - math.pi)
        c = (wrapped[None, :] * np.exp(-1j * np.outer(k, x))).sum(axis=1) / grid_points
        shifts = [_shift_entries(spec.basis, (k_a, -k_a)) for k_a in k]
        cols, rows = (np.concatenate(part) for part in zip(*shifts))
        values = np.repeat(c, [src.size for src, _ in shifts])
        m = scipy.sparse.csr_array((values, (rows, cols)), shape=(spec.basis.dim,) * 2)
    return 0.5 * (m + m.conj().T)
