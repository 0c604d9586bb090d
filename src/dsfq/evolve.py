"""Time-dependent propagation: barrier schedules, driven charge-basis
state evolution, and truncated moving-eigenframe propagation for two
coupled qubits.

The propagators and ``gates`` (its Gamma_1 grid and ZZ statics) solve
for a circuit's lowest levels through one ``_CircuitEngine`` per
circuit: H(alpha) = h0 + alpha*h1 (+ drive*n1), held in CSR form only.
A driven gate's propagation, its drive calibration and its Gamma_1 grid
share one engine, and each qubit of a two-qubit frame shares its engine
with its Gamma_1 grid. Inside an alpha window of many solves that a caller has stated
(frame nodes, sample solves, the rate grid) it solves in a reduced basis
and checks each solution against the full H; at the window's snapshot
alphas it returns their dense solutions; otherwise, and as the fallback,
it calls ``spectrum.qubit_eigensolution``.

The circuit picks an engine's working basis, as it picks the route of
``spectrum.qubit_eigensolution``, from the same tuple of real symmetry
blocks of its parts (``circuit._symmetry_blocks``). Where the parts
commute with C*K, C the charge inversion (every ng = 0 qubit), it is the
direct sum of the tuple's blocks, two P_theta parity blocks or one block
in ``circuit.charge_inversion_basis``. There every H(alpha) is real
symmetric and block diagonal, and n1 is i times a real antisymmetric
matrix, so the solves, overlaps and product Hamiltonians of the
two-qubit frames, the ZZ statics and a driven gate's window, samples and
Gamma_1 grid are all float64. Elsewhere it is the charge basis, and the
same code runs on complex data. The states that a driven gate
propagates, and the alpha = 1 states it is scored in, are charge-basis
vectors in either case: the phases of those states, set by a complex
charge-basis solve (``_CircuitEngine.charge_gauge_states``), fix what a
gate's target means.

Every ``propagate_state`` step is one fourth-order commutator-free Magnus
step, whose two half-step exponentials ``_CircuitEngine.expi_apply``
sums as Taylor series about the lowest sampled level on the charge-basis
generator, each stopped once a strict bound on its tail falls below
``TAYLOR_TOL`` of the state's norm.

Phases follow the h GHz / ns unit system: a step propagator is
exp(-i * 2*pi * H * dt) with H in h GHz and dt in ns. The moving-frame
generator adds the frame term -i V^dag dV/dt, which carries 1/ns
directly (no 2*pi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.linalg
import scipy.sparse
# the CSR multivector kernel that ``A @ X`` reaches after scipy's dispatch
from scipy.sparse._sparsetools import csr_matvecs

from .circuit import (
    CircuitSpec,
    CoupledSpec,
    Variant,
    _barrier_weights,
    _parts,
    _symmetry_blocks,
    _union_pattern,
    build_hamiltonian,
    build_operator,
    hamiltonian_decomposition,
    physical_sector_indices,
)
from .spectrum import (
    RESIDUAL_RTOL,
    EigenSolution,
    _check_pair_continuity,
    _max_residual,
    _merge_lowest,
    _lowest_refusal,
    align_gauge,
    diagonalize,
    qubit_eigensolution,
)

__all__ = [
    "AlphaProfile",
    "DrivePulse",
    "PropagationSettings",
    "Trajectory",
    "PropagationError",
    "propagate_state",
    "propagate_subspace_unitary",
    "TwoQubitFrame",
]

ALPHA_MIN_ALLOWED = 0.4
ALPHA_MAX_ALLOWED = 1.0
FULL_LOWERING_NS = 35.0  # time to ramp alpha from 1 to 0.5 in a two-qubit gate
MIN_STEPS_PER_NS = 50
# A window's reduced basis holds the lowest k + SNAPSHOT_PAD eigenvectors at
# each of its snapshot alphas; the pad keeps a level that enters the lowest
# k inside the window in the snapshots.
SNAPSHOT_PAD = 4
# One more pair of snapshots per this much window width (see _snapshot_count).
SNAPSHOT_WIDTH = 0.175
# expi_apply: a Taylor sum stops once its tail bound is at most TAYLOR_TOL of
# the norm of the state it acts on. Its generator is cut into substeps of
# 1-norm at most TAYLOR_SUBSTEP_NORM, where the tail bound falls below
# TAYLOR_TOL before TAYLOR_MAX_ORDER (3**31/31! = 7.5e-20), which therefore
# only guards the loop.
TAYLOR_TOL = 1e-13
TAYLOR_SUBSTEP_NORM = 3.0
TAYLOR_MAX_ORDER = 30


class PropagationError(RuntimeError):
    """Norm drift, unitarity loss, or invalid schedule."""


@dataclass(frozen=True)
class AlphaProfile:
    """Piecewise-linear barrier schedule alpha(t)."""

    segments: tuple[tuple[float, float, float, float], ...]  # (t0, t1, a0, a1)

    def __post_init__(self) -> None:
        if not self.segments:
            raise PropagationError("alpha profile needs at least one segment")
        prev_t, prev_a = None, None
        for t0, t1, a0, a1 in self.segments:
            if t1 <= t0:
                raise PropagationError(f"segment times not increasing: {t0}, {t1}")
            if prev_t is not None and (abs(t0 - prev_t) > 1e-12 or abs(a0 - prev_a) > 1e-12):
                raise PropagationError("alpha profile segments are not contiguous")
            for a in (a0, a1):
                if not (ALPHA_MIN_ALLOWED <= a <= ALPHA_MAX_ALLOWED):
                    raise PropagationError(f"alpha = {a} outside [{ALPHA_MIN_ALLOWED}, {ALPHA_MAX_ALLOWED}]")
            prev_t, prev_a = t1, a1

    @property
    def t_start(self) -> float:
        return self.segments[0][0]

    @property
    def duration(self) -> float:
        return self.segments[-1][1] - self.segments[0][0]

    @property
    def alpha_min(self) -> float:
        return min(min(s[2], s[3]) for s in self.segments)

    def alpha(self, t: float) -> float:
        t0_all, t1_all = self.segments[0][0], self.segments[-1][1]
        t = min(max(t, t0_all), t1_all)
        for t0, t1, a0, a1 in self.segments:
            if t <= t1:
                return a0 + (a1 - a0) * (t - t0) / (t1 - t0)
        return self.segments[-1][3]

    def is_gate_schedule(self) -> bool:
        return (
            abs(self.segments[0][2] - 1.0) < 1e-12
            and abs(self.segments[-1][3] - 1.0) < 1e-12
        )

    @staticmethod
    def constant(alpha: float, duration: float) -> "AlphaProfile":
        return AlphaProfile(((0.0, duration, alpha, alpha),))

    @staticmethod
    def single_qubit(ramp_ns: float = 7.0, plateau_ns: float = 11.0,
                     alpha_min: float = 0.7) -> "AlphaProfile":
        """Lower 1 -> alpha_min, hold for the pulse, raise back."""
        t1, t2 = ramp_ns, ramp_ns + plateau_ns
        t3 = t2 + ramp_ns
        return AlphaProfile((
            (0.0, t1, 1.0, alpha_min),
            (t1, t2, alpha_min, alpha_min),
            (t2, t3, alpha_min, 1.0),
        ))

    @staticmethod
    def two_qubit(t_a: float, t_w: float) -> "AlphaProfile":
        """Constant-speed trapezoid: down in T_a/2, wait T_w, up in T_a/2.

        alpha_min = 1 - (T_a/2)/(2*35 ns); the full barrier lowering
        takes 35 ns at this rate.
        """
        alpha_min = 1.0 - 0.5 * t_a / (2.0 * FULL_LOWERING_NS)
        if alpha_min < ALPHA_MIN_ALLOWED:
            raise PropagationError(f"T_a = {t_a} ns lowers alpha below {ALPHA_MIN_ALLOWED}")
        half = 0.5 * t_a
        if t_w > 0:
            return AlphaProfile((
                (0.0, half, 1.0, alpha_min),
                (half, half + t_w, alpha_min, alpha_min),
                (half + t_w, t_a + t_w, alpha_min, 1.0),
            ))
        return AlphaProfile((
            (0.0, half, 1.0, alpha_min),
            (half, t_a, alpha_min, 1.0),
        ))


@dataclass(frozen=True)
class DrivePulse:
    """Single-tone microwave pulse with cosine ramp up/down.

    The term added to the Hamiltonian is
    coupling_ratio * envelope(t) * cos(2*pi*f_d*(t - t_start) + phase) * n1,
    with the envelope peak ``amplitude`` in h GHz.
    """

    amplitude: float
    carrier_freq: float  # GHz
    phase_offset: float = 0.0
    ramp_ns: float = 1.5
    flat_ns: float = 8.0
    t_start: float = 7.0
    coupling_ratio: float = 1.0

    def __post_init__(self) -> None:
        if self.ramp_ns < 0 or self.flat_ns < 0 or self.amplitude < 0:
            raise PropagationError("pulse ramp, flat top and amplitude must be non-negative")

    @property
    def duration(self) -> float:
        return 2.0 * self.ramp_ns + self.flat_ns

    def envelope(self, t: float) -> float:
        s = t - self.t_start
        if s <= 0.0 or s >= self.duration:
            return 0.0
        if s < self.ramp_ns:
            return self.amplitude * 0.5 * (1.0 - math.cos(math.pi * s / self.ramp_ns))
        if s > self.duration - self.ramp_ns:
            return self.amplitude * 0.5 * (
                1.0 - math.cos(math.pi * (self.duration - s) / self.ramp_ns)
            )
        return self.amplitude

    def envelope_area(self) -> float:
        """integral epsilon(t) dt = amplitude * (flat + ramp)."""
        return self.amplitude * (self.flat_ns + self.ramp_ns)

    def coefficient(self, t: float) -> float:
        env = self.envelope(t)
        if env == 0.0:
            return 0.0
        phase = 2.0 * math.pi * self.carrier_freq * (t - self.t_start) + self.phase_offset
        return self.coupling_ratio * env * math.cos(phase)


@dataclass(frozen=True)
class PropagationSettings:
    """Step and sample grids and truncations. A step of ``propagate_state``
    is one fourth-order commutator-free Magnus step; ``propagate_subspace_unitary``
    takes none, so ``steps_per_ns`` changes none of its results."""

    steps_per_ns: int = 857
    subspace_k: int = 24
    per_qubit_m: int = 12
    alpha_grid: float = 1e-3  # spacing of the two-qubit frame nodes
    sample_interval_ns: float = 0.1
    spectral_k: int = 8
    norm_tolerance: float = 1e-6

    def __post_init__(self) -> None:
        if self.steps_per_ns < MIN_STEPS_PER_NS:
            raise PropagationError(f"steps_per_ns must be >= {MIN_STEPS_PER_NS}")
        for name in ("alpha_grid", "sample_interval_ns"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and 0.0 < value < math.inf):
                raise PropagationError(f"{name} must be finite and positive, got {value!r}")


@dataclass
class Trajectory:
    """Sampled evolution: states or subspace unitaries over time.

    When ``propagate_state`` evolves a (dim, m) block of states, each
    recorded state is (dim, m), ``spectral_weights`` is (n_samples, k, m)
    and ``norms`` is (n_samples, m): the trailing axis is the column.
    """

    times: np.ndarray
    states: list = field(default_factory=list)  # state vectors or blocks, or k x k unitaries
    spectral_weights: np.ndarray | None = None
    frame_phases: np.ndarray | None = None  # accumulated 2*pi int E_i dt per state
    frame_energies: np.ndarray | None = None
    norms: np.ndarray | None = None

    @property
    def final(self):
        return self.states[-1]


# ---------------------------------------------------------------------------
# Single-qubit (or single-circuit) state propagation


def _snapshot_count(width: float) -> int:
    """Snapshot alphas of a reduced basis for a window of this width.

    7 up to a width of SNAPSHOT_WIDTH and two more per further
    SNAPSHOT_WIDTH. Measured over 40 alphas per window: on a 361-state
    node basis with 12 levels, 7 snapshots keep the worst residual of
    [0.857, 1] at 1.2e-3 of its bound, where 5 fail at 32 alphas, and 11
    keep [0.5, 1] at 1.7e-3; on the 313-state single-loop sector with 8
    levels, 9 keep [0.7, 1] at 1.2e-2, where 7 fail at 5 alphas.
    """
    return 5 + 2 * max(1, math.ceil(width / SNAPSHOT_WIDTH))


class _Window(NamedTuple):
    """A reduced basis Q for lowest-k solves with alpha in [lo, hi]: the
    projections g0, g1 of h0, h1 on it, and the dense solutions at its
    snapshot alphas."""

    lo: float
    hi: float
    k: int
    q: np.ndarray
    g0: np.ndarray
    g1: np.ndarray
    snapshots: dict


def _offdiagonal_column_sums(indices: np.ndarray, diag: np.ndarray, data, dim: int) -> list:
    """Column sums of |m| off the diagonal, for each data array m on one
    CSR pattern whose diagonal entries sit at the positions ``diag``."""
    sums = []
    for d in data:
        weights = np.abs(d)
        weights[diag] = 0.0
        sums.append(np.bincount(indices, weights=weights, minlength=dim))
    return sums


class _CircuitEngine:
    """H(alpha, drive) = h0 + alpha*h1 + drive*n1 of one circuit, in its
    physical sector where it has one, held only in CSR form.

    The circuit picks the working basis, in which ``lowest`` solves, by
    the tuple of real symmetry blocks that ``circuit._symmetry_blocks``
    keeps for its parts. Where there is one (the parts commute with C*K, C
    the charge inversion), it is the direct sum of the tuple's one or two
    blocks, by one code path: the lift L is their lifts side by side, h0
    and h1 are block diagonal (each block's F, and its B_c and B_s summed
    with the barrier weights at alpha = 1, on its pattern), ``n1`` holds
    the real antisymmetric A of L^dag n1 L = i*A, ``real`` is True, and
    every solve, reduced basis and residual is float64. Elsewhere it is
    the charge basis. ``charge_states`` maps working coordinates to the
    charge basis. A dense solve is ``spectrum.qubit_eigensolution``, whose
    charge-basis (sector) states v a real engine takes to its coordinates
    as (L^dag v).real. Every residual is ``spectrum._max_residual``
    against ``RESIDUAL_RTOL`` times ||H(alpha)||_inf of the charge-basis H.

    ``expi_apply`` acts on charge-basis (sector) vectors in either working
    basis: its generator is the charge-basis h0 and h1 on their pattern
    plus the diagonal, and the charge n1, which is diagonal.

    ``set_window`` states an alpha window of many lowest-k solves to come;
    ``lowest`` then solves inside it in a reduced basis (eigenvector
    continuation: Frame et al., PRL 121, 032501 (2018); convergence: Sarkar
    & Lee, PRL 126, 032501 (2021)). ``fallbacks`` counts the reduced
    solutions that failed their residual check and were solved densely.

    ``expi_apply`` rewrites its generator's data in place and
    ``set_window`` replaces the window, so an engine that does either
    serves one thread at a time. A caller's threads may share an engine
    that only solves densely, outside a window.
    """

    def __init__(self, spec: CircuitSpec, charging_scale: float = 1.0):
        self._spec, self.charging_scale = spec, charging_scale
        h0, h1 = hamiltonian_decomposition(spec, charging_scale)
        self.full_dim = h0.shape[0]
        self._sector = "even" if spec.variant is Variant.SINGLE_LOOP else None
        parity = None if self._sector is None else 0
        if parity is None:
            self.indices = np.arange(self.full_dim)
        else:
            self.indices = physical_sector_indices(spec.basis, parity)
        self.dim = self.indices.size
        h0, h1, n1 = (m[self.indices][:, self.indices]
                      for m in (h0, h1, build_operator("n1", spec).csr))
        # the charge-basis generator of expi_apply on the pattern of h0, h1 and
        # the diagonal, whose h0 and h1 also give ||H(alpha)||_inf, which
        # scales every residual bound
        self._gen_indptr, self._gen_indices, (_, *self._gen_data) = _union_pattern(
            [scipy.sparse.eye_array(self.dim, format="csr"), h0, h1], self.dim)
        self._gen_rows = np.repeat(np.arange(self.dim), np.diff(self._gen_indptr))
        self._gen_diag = np.flatnonzero(self._gen_rows == self._gen_indices)
        self._gen_off = _offdiagonal_column_sums(self._gen_indices, self._gen_diag,
                                                 self._gen_data, self.dim)
        self._gen_n1 = n1.diagonal()
        self._gen_step = np.zeros(self._gen_indices.size, dtype=complex)  # rewritten per call
        blocks = _symmetry_blocks(_parts(spec, charging_scale), parity)
        self.real = blocks is not None
        if self.real:  # the blocks' direct sum, its entries in block order
            lift = self._basis = scipy.sparse.hstack([b.lift for b in blocks], format="csr")
            self.n1 = (lift.conj().T @ n1 @ lift).imag
            pattern = scipy.sparse.block_diag([scipy.sparse.csr_array(
                (np.ones(b.indices.size), b.indices, b.indptr)) for b in blocks], format="csr")
            self._indptr, self._indices = pattern.indptr, pattern.indices
            weights = _barrier_weights(spec.with_alpha(1.0))
            self._data = [np.concatenate([b.parts[0] for b in blocks]),
                          np.concatenate([b.data(0.0, *weights) for b in blocks])]
        else:
            self.n1, self._basis = n1, None
            self._indptr, self._indices, self._data = (self._gen_indptr, self._gen_indices,
                                                       self._gen_data)
        self._window: _Window | None = None
        self._gauge_states: dict = {}
        self.fallbacks = 0

    def _csr(self, data: np.ndarray) -> scipy.sparse.csr_matrix:
        return scipy.sparse.csr_matrix((data, self._indices, self._indptr),
                                       shape=(self.dim, self.dim))

    def _h(self, alpha: float) -> scipy.sparse.csr_matrix:
        """The drive-free H(alpha) in the working basis."""
        d0, d1 = self._data
        return self._csr(d0 + alpha * d1)

    def expi_apply(self, alpha: float, drive: float, dt: float, psi: np.ndarray,
                   shift: float) -> np.ndarray:
        """exp(-i*2*pi*H(alpha, drive)*dt) @ psi by scaled Taylor sums.

        ``psi`` is a charge-basis (sector) vector or block of columns, for
        an engine in either working basis, and so is the result. The phase
        of ``shift``, the lowest level of the latest sample, is split off
        analytically, so the sums expand exp(tau*A) with
        A = -i*2*pi*(H - shift) about the levels that hold the state, whose
        terms fall fast. nu, the 1-norm of tau*A (``_generator_norm``),
        bounds its 2-norm (H is Hermitian); A is cut into
        s = ceil(nu / TAYLOR_SUBSTEP_NORM) substeps. Once
        r = nu_s/(k + 1) < 1, the terms after t_k sum to at most
        ||t_k|| r/(1 - r) (Frobenius norm for a block), and a substep stops
        at the first k where that is at most TAYLOR_TOL ||psi||, psi the
        state the substep starts from, whose norm exp(tau*A) keeps
        (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011)).

        Each term is one call of the CSR multivector kernel between two
        swapped buffers, added into the sum in place, so a term makes no
        temporary array. On the driven-gate benchmark circuit (cutoff 12,
        100 steps per ns: nu = 2.7, one substep) a half step takes 10.0
        terms on average, 13.3 at a tolerance of 2**-53.
        """
        a = self._gen_step
        d0, d1 = self._gen_data
        np.multiply(d1, alpha, out=a)
        a += d0
        diag = a[self._gen_diag] + drive * self._gen_n1 - shift
        a[self._gen_diag] = diag
        norm = 2.0 * math.pi * dt * self._generator_norm(alpha, diag)
        s = max(1, math.ceil(norm / TAYLOR_SUBSTEP_NORM))
        nu = norm / s
        a *= -2j * math.pi * dt / s
        psi = np.array(psi, dtype=complex, order="C")
        if psi.shape[0] != self.dim:  # the kernel reads dim rows of every column
            raise PropagationError(f"state has {psi.shape[0]} rows, the sector {self.dim}")
        n_vecs = psi.size // self.dim
        acc = psi.reshape(-1)  # the sum, in place in psi
        # two term buffers, each as (complex, float64) views: scaling the
        # float64 view by 1/k rounds as dividing the complex one by k does,
        # and its dot with itself is the squared (Frobenius) norm
        buffers = np.empty((2, acc.size), dtype=complex)
        (term, term_re), (out, out_re) = zip(buffers, buffers.view(np.float64))
        for _ in range(s):
            tol = TAYLOR_TOL ** 2 * np.vdot(acc, acc).real  # squared, as the check is
            term[:] = acc
            for k in range(1, TAYLOR_MAX_ORDER + 1):
                out.fill(0.0)  # the kernel adds A @ term into out
                csr_matvecs(self.dim, self.dim, n_vecs, self._gen_indptr, self._gen_indices,
                            a, term, out)
                out_re *= 1.0 / k
                acc += out
                (term, term_re), (out, out_re) = (out, out_re), (term, term_re)
                r = nu / (k + 1)
                if r < 1.0 and np.dot(term_re, term_re) * (r / (1.0 - r)) ** 2 <= tol:
                    break
        psi *= np.exp(-2j * math.pi * shift * dt)
        return psi

    def _generator_norm(self, alpha: float, diag: np.ndarray) -> float:
        """1-norm of h0 + alpha*h1 with the diagonal ``diag``, from the
        kept off-diagonal column sums of |h0| and |h1|: exact up to
        rounding where their off-diagonal patterns are disjoint, as on
        every circuit variant, and an upper bound otherwise."""
        off0, off1 = self._gen_off
        return float((off0 + abs(alpha) * off1 + np.abs(diag)).max())

    def set_window(self, lo: float, hi: float, k: int, solves: int) -> None:
        """State that ``solves`` calls of ``lowest(alpha, k)`` with alpha in
        [lo, hi] come next. A window that already covers [lo, hi] with at
        least k levels is kept, as is any window when no new one is built;
        a new one replaces it.

        A basis is built only where it saves solves: for more solves than
        it takes snapshots (``_snapshot_count``), and when it holds at most
        half the states, so that a reduced solve costs at most an eighth of
        a dense one. It orthonormalizes (QR) the lowest k + SNAPSHOT_PAD
        eigenvectors at the Chebyshev-Lobatto alphas of the window, lo and
        hi among them, and keeps those dense solutions for ``lowest``.

        The residual check of ``lowest`` cannot see a level missing from
        the basis, so the basis is kept only where it is proven midway
        between each pair of snapshots (``_midpoint_proven``): the lowest k
        of k + 1 reduced pairs must pass the residual check, and a
        Sylvester inertia count of the full H midway between the Ritz
        values E_{k-1} and E_k must find exactly k levels below it. Ritz
        values lie above the levels they approximate, so that count proves
        that no level is missing. On the 361-state node basis of a frame
        (k = 12) a midpoint check took 2.7 ms.
        """
        w = self._window
        if w is not None and w.lo <= lo and hi <= w.hi and k <= w.k:
            return
        n = _snapshot_count(hi - lo)
        if hi <= lo or solves <= n or 2 * n * (k + SNAPSHOT_PAD) > self.dim:
            return
        alphas = lo + 0.5 * (hi - lo) * (1.0 - np.cos(np.pi * np.arange(n) / (n - 1)))
        alphas[[0, -1]] = lo, hi
        snapshots = {float(a): self._dense_lowest(float(a), k + SNAPSHOT_PAD) for a in alphas}
        q = np.linalg.qr(np.hstack([states for _, states in snapshots.values()]))[0]
        g0, g1 = (q.conj().T @ (self._csr(d) @ q) for d in self._data[:2])
        window = _Window(lo, hi, k, q, g0, g1, snapshots)
        if all(self._midpoint_proven(window, a) for a in 0.5 * (alphas[1:] + alphas[:-1])):
            self._window = window

    def _midpoint_proven(self, window: _Window, alpha: float) -> bool:
        """Whether the window's basis provably holds the lowest k levels of
        H(alpha): its lowest k Ritz pairs pass the residual check of
        ``lowest``, and its k + 1 Ritz values pass
        ``spectrum._lowest_refusal`` on the full H."""
        k, norm, h = window.k, self._norm(alpha), self._h(alpha)
        energies, coords = scipy.linalg.eigh(window.g0 + alpha * window.g1,
                                             subset_by_index=(0, k))
        if _max_residual(h, energies[:k], window.q @ coords[:, :k]) > RESIDUAL_RTOL * norm:
            return False
        return _lowest_refusal(h.T, energies, k, norm) is None  # h.T: a CSC view, same levels

    def _norm(self, alpha: float) -> float:
        """||H(alpha)||_inf of the charge-basis H."""
        c0, c1 = self._gen_data
        return float(np.bincount(self._gen_rows, weights=np.abs(c0 + alpha * c1),
                                 minlength=self.dim).max())

    def _dense_lowest(self, alpha: float, k: int) -> tuple[np.ndarray, np.ndarray]:
        """``spectrum.qubit_eigensolution`` of H(alpha), its states in the
        working basis."""
        sol = qubit_eigensolution(self._spec.with_alpha(alpha), k, self.charging_scale)
        states = sol.states[self.indices]
        if self._basis is not None:  # C*K-invariant states: L^dag v is real
            states = (self._basis.conj().T @ states).real.copy()
        return sol.energies, states

    def charge_states(self, states: np.ndarray) -> np.ndarray:
        """Columns of working-basis coordinates as charge-basis (sector) vectors."""
        return states if self._basis is None else self._basis @ states

    def charge_gauge_states(self, alpha: float, m: int) -> np.ndarray:
        """The lowest m eigenvectors of H(alpha) as charge-basis (sector)
        columns, in the phase gauge of a complex charge-basis solve
        (``spectrum.diagonalize`` of its H), for an engine in either
        working basis. Where ``lowest(alpha, m)`` would return a snapshot
        of the window, the solve takes the snapshot's k + SNAPSHOT_PAD
        levels, the dense problem of the snapshot itself; otherwise m. Each
        (alpha, m) is solved once per engine.
        """
        key = (alpha, m)
        if key not in self._gauge_states:
            w = self._window
            snapshot = w is not None and m <= w.k and alpha in w.snapshots
            k = w.k + SNAPSHOT_PAD if snapshot else m
            h = build_hamiltonian(self._spec.with_alpha(alpha), self.charging_scale)
            sol = diagonalize(h, k, sector=self._sector)
            self._gauge_states[key] = sol.states[self.indices, :m]
        return self._gauge_states[key]

    def _reduced_lowest(self, alpha: float, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Lowest k eigenpairs of H(alpha) projected on the window's basis, lifted."""
        w = self._window
        energies, coords = scipy.linalg.eigh(w.g0 + alpha * w.g1, subset_by_index=(0, k - 1))
        return energies, w.q @ coords

    def lowest(self, alpha: float, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Lowest k eigenpairs of the drive-free H(alpha).

        Inside the stated window (``set_window``) a snapshot alpha returns
        its dense solution, and any other alpha is solved in the reduced
        basis, where every pair is checked against the full sparse H: a
        residual above ``RESIDUAL_RTOL * ||H||_inf`` counts a fallback and
        the solve is redone densely. Outside it, a dense solve.
        """
        w = self._window
        if w is not None and w.lo <= alpha <= w.hi and k <= w.k:
            snapshot = w.snapshots.get(alpha)
            if snapshot is not None:
                return snapshot[0][:k].copy(), snapshot[1][:, :k].copy()
            energies, states = self._reduced_lowest(alpha, k)
            residual = _max_residual(self._h(alpha), energies, states)
            if residual <= RESIDUAL_RTOL * self._norm(alpha):
                return energies, states
            self.fallbacks += 1
        return self._dense_lowest(alpha, k)

    def restrict(self, psi: np.ndarray) -> np.ndarray:
        """Sector part of a (full_dim, m) block; each column must lie in the sector."""
        sub = psi[self.indices]
        lost = 1.0 - np.sum(np.abs(sub) ** 2, axis=0) / np.sum(np.abs(psi) ** 2, axis=0)
        if lost.max() > 1e-10:
            raise PropagationError(
                f"initial state has weight {lost.max():.2e} outside the physical sector"
            )
        return sub.astype(complex)


# Fourth-order commutator-free Magnus step (Blanes et al., Phys. Rep. 470,
# 151 (2009); Alvermann & Fehske, J. Comput. Phys. 230, 5930 (2011)):
# U(t + dt, t) = exp(-i dt (w2 H1 + w1 H2)) exp(-i dt (w1 H1 + w2 H2)),
# H1,2 = H(t + c1,2 dt) at the Gauss points; the right factor acts first.
_CF4_NODES = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)
_CF4_WEIGHTS = ((3.0 + 2.0 * math.sqrt(3.0)) / 12.0, (3.0 - 2.0 * math.sqrt(3.0)) / 12.0)


def _step_grid(profile: AlphaProfile, settings: PropagationSettings) -> tuple[int, float, int]:
    """(n_steps, dt, sample stride in steps) of a schedule: the number of
    steps per ns the settings ask for, rounded to whole steps."""
    n_steps = max(1, int(round(profile.duration * settings.steps_per_ns)))
    dt = profile.duration / n_steps
    return n_steps, dt, max(1, int(round(settings.sample_interval_ns / dt)))


def _propagation_window(engine: _CircuitEngine, profile: AlphaProfile,
                        settings: PropagationSettings) -> int:
    """State the alpha range of ``profile`` with ``spectral_k`` levels as
    the engine's window, one solve per sample; returns the sample count.

    A sample where alpha has not moved reuses the last, so there is at
    most one solve per sample.
    """
    n_steps, _, sample_stride = _step_grid(profile, settings)
    n_samples = 1 + -(-n_steps // sample_stride)
    engine.set_window(profile.alpha_min, max(max(seg[2:]) for seg in profile.segments),
                      settings.spectral_k, n_samples)
    return n_samples


def propagate_state(
    spec: CircuitSpec,
    profile: AlphaProfile,
    pulse: DrivePulse | None,
    psi0: np.ndarray,
    settings: PropagationSettings | None = None,
    charging_scale: float = 1.0,
    *,
    _engine: _CircuitEngine | None = None,
) -> Trajectory:
    """Evolve a state, or a block of states, through H(t) = H_C + H_J(alpha(t)) + H_d(t).

    ``psi0`` is one state vector or a (dim, m) block of m states. The
    columns of a block are propagated together: every step acts on the
    whole block and every sample eigensolution serves all columns. For a
    block, the recorded states, ``spectral_weights`` and ``norms`` carry
    a trailing column axis (see ``Trajectory``); for a vector they do not.

    Every step is a fourth-order commutator-free Magnus (CF4) step
    through the sparse sector Hamiltonian, whose two exponentials
    ``_CircuitEngine.expi_apply`` applies. Spectral weights against
    gauge-aligned instantaneous eigenstates are recorded on the sample
    grid, along with accumulated eigenphases. The samples state the
    profile's alpha range as the engine's window, so with enough of them
    they are solved in a reduced basis, each checked against the full H
    and solved densely when its residual is too large. Each sample is
    gauge-aligned to the one before, and a crossing of the qubit pair
    raises ``GaugeAlignmentError``. The states are propagated in the
    charge basis and the samples solved in the engine's working basis
    (real where the circuit allows it), whose eigenvectors are taken to
    the charge basis for the weights. ``_engine``, when given, is the
    ``_CircuitEngine`` of (spec, charging_scale) that the caller shares
    with its other solves.
    """
    settings = settings or PropagationSettings()
    engine = _engine or _CircuitEngine(spec, charging_scale)
    psi0 = np.asarray(psi0, dtype=complex)
    block = psi0.ndim == 2
    psi = engine.restrict(psi0 if block else psi0[:, None])
    norm0 = np.linalg.norm(psi, axis=0)
    if np.abs(norm0 - 1.0).max() > 1e-8:
        raise PropagationError(f"initial state norm {norm0} is not 1")

    n_steps, dt, sample_stride = _step_grid(profile, settings)
    n_samples = _propagation_window(engine, profile, settings)
    k_spec = settings.spectral_k

    def lowest(alpha: float) -> EigenSolution:
        return EigenSolution(*engine.lowest(alpha, k_spec), None, k_spec)

    times = [profile.t_start]
    # Every recorded state goes into one buffer in the full basis; many
    # small long-lived arrays fragmented the heap and raised peak RSS
    # from one gate to the next.
    states = np.zeros((n_samples, engine.full_dim, psi.shape[1]), dtype=complex)
    states[0, engine.indices] = psi
    weights = []
    norms = [np.ones(psi.shape[1])]
    ref_alpha = profile.alpha(profile.t_start)
    ref = lowest(ref_alpha)
    ref_states = engine.charge_states(ref.states)
    weights.append(np.abs(ref_states.conj().T @ psi) ** 2)
    sampled_energies = [ref.energies.copy()]

    t = profile.t_start
    for step in range(n_steps):
        t1, t2 = t + _CF4_NODES[0] * dt, t + _CF4_NODES[1] * dt
        a1, a2 = profile.alpha(t1), profile.alpha(t2)
        d1, d2 = (0.0, 0.0) if pulse is None else (pulse.coefficient(t1), pulse.coefficient(t2))
        # each factor is exp(-i*2*pi*(dt/2)*H(alpha_eff, drive_eff))
        # since the two weights of a factor sum to 1/2
        for w_1, w_2 in (_CF4_WEIGHTS, _CF4_WEIGHTS[::-1]):
            psi = engine.expi_apply(2.0 * (w_1 * a1 + w_2 * a2),
                                    2.0 * (w_1 * d1 + w_2 * d2), 0.5 * dt, psi,
                                    float(ref.energies[0]))
        t += dt
        if (step + 1) % sample_stride == 0 or step == n_steps - 1:
            norm = np.linalg.norm(psi, axis=0)
            drift = float(np.abs(norm - 1.0).max())
            if drift > settings.norm_tolerance:
                raise PropagationError(
                    f"norm drift {drift:.2e} at t = {t:.3f} ns; "
                    "increase steps_per_ns"
                )
            alpha = profile.alpha(t)
            if alpha != ref_alpha:  # on a plateau the last sample still holds
                sol = align_gauge(ref, lowest(alpha), min_overlap=0.0)
                _check_pair_continuity(ref, sol, f"t = {t:.2f} ns")
                ref, ref_alpha = sol, alpha
                ref_states = engine.charge_states(ref.states)
            weights.append(np.abs(ref_states.conj().T @ psi) ** 2)
            sampled_energies.append(ref.energies.copy())
            times.append(t)
            states[len(times) - 1, engine.indices] = psi
            norms.append(norm)

    times = np.array(times)
    energies = np.array(sampled_energies)  # (n_samples, k)
    phases = 2.0 * math.pi * np.concatenate(
        ([np.zeros(k_spec)],
         np.cumsum(0.5 * (energies[1:] + energies[:-1])
                   * np.diff(times)[:, None], axis=0))
    )
    weights, norms = np.array(weights), np.array(norms)
    if not block:
        states = states[..., 0]
        weights, norms = weights[..., 0], norms[:, 0]
    return Trajectory(
        times=times,
        states=list(states),
        spectral_weights=weights,
        frame_phases=phases,
        frame_energies=energies,
        norms=norms,
    )


# ---------------------------------------------------------------------------
# Two-qubit moving-frame propagation


def _qubit_levels(engine: _CircuitEngine, alpha: float, m: int,
                  prev: tuple | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lowest m energies of a circuit, its states in the engine's working
    basis (gauge-aligned to ``prev`` = (energies, states) when given) and
    the charge n1 among them, i*A where ``engine.real``."""
    e, b = engine.lowest(alpha, m)
    if prev is not None:
        b = align_gauge(EigenSolution(*prev, None, m), EigenSolution(e, b, None, m),
                        min_overlap=0.0).states
    n1 = b.conj().T @ (engine.n1 @ b)
    return e, b, 1j * n1 if engine.real else n1


def _product_hamiltonian(coupled: CoupledSpec, levels, engines) -> np.ndarray:
    """``coupled.product_hamiltonian`` of two qubits' ``_qubit_levels`` from
    their ``engines``; float64 where both engines are real, as
    kron(i*A1, i*A2) = -kron(A1, A2) has an exactly zero imaginary part."""
    eps, _, n1 = zip(*levels)
    h = coupled.product_hamiltonian(eps, n1)
    return h.real if all(engine.real for engine in engines) else h


def _kron_apply(o1: np.ndarray, o2: np.ndarray, w: np.ndarray) -> np.ndarray:
    """kron(o1, o2) @ w without forming the kron: each column of w, read as
    the matrix X of its product labels a*m + b, becomes o1 X o2^T."""
    k = w.shape[1]
    x = w.T.reshape(k, o1.shape[1], o2.shape[1])
    return (o1 @ x @ o2.T).reshape(k, -1).T


class _ExchangeBlock(NamedTuple):
    """The exchange-symmetric (sign +1) or -antisymmetric (sign -1) states
    of two identical m-level qubits: (|ab> + sign |ba>)/sqrt(2) for a < b,
    and |aa> in the symmetric block. For the states i = (a, b) and
    j = (c, d), ``gather`` holds the flat positions of n_ac, n_bd, n_ad and
    n_bc in an m x m matrix n, ``weights`` holds w_i w_j with w = 1 for
    a < b and 1/sqrt(2) for a = b, and ``lift`` maps block coordinates to
    the product labels a*m + b."""

    sign: float
    labels: tuple[np.ndarray, np.ndarray]  # (a, b) of each state
    gather: tuple[np.ndarray, ...]
    weights: np.ndarray
    lift: np.ndarray

    @staticmethod
    def pair(m: int) -> tuple["_ExchangeBlock", "_ExchangeBlock"]:
        """The symmetric and the antisymmetric block of m levels per qubit."""
        blocks = []
        for sign, offset in ((1.0, 0), (-1.0, 1)):
            a, b = np.triu_indices(m, offset)
            w = np.where(a == b, math.sqrt(0.5), 1.0)
            lift = np.zeros((m * m, a.size))
            cols = np.arange(a.size)
            lift[a * m + b, cols] = np.where(a == b, 1.0, math.sqrt(0.5))
            lift[b * m + a, cols] += np.where(a == b, 0.0, sign * math.sqrt(0.5))
            gather = tuple(np.add.outer(m * x, y) for x, y in ((a, a), (b, b), (a, b), (b, a)))
            blocks.append(_ExchangeBlock(sign, (a, b), gather, np.outer(w, w), lift))
        return tuple(blocks)

    def hamiltonian(self, coupling: float, eps: np.ndarray, n: np.ndarray) -> np.ndarray:
        """This block of diag(e_a + e_b) + coupling * kron(n, n), from the
        levels ``eps`` and the charge ``n`` among them:
        w_i w_j coupling (n_ac n_bd + sign n_ad n_bc) + delta_ij (e_a + e_b)."""
        flat = n.ravel()
        ac, bd, ad, bc = (flat[g] for g in self.gather)
        h = ac * bd + self.sign * (ad * bc)
        h *= coupling * self.weights
        a, b = self.labels
        h[np.diag_indices_from(h)] += eps[a] + eps[b]
        return h


class TwoQubitFrame:
    """Two-stage truncated eigenframe of two coupled qubits.

    Stage one diagonalizes each qubit's node-basis Hamiltonian (the
    coupled-node charging renormalization included) to its lowest m
    states; stage two assembles the m*m product Hamiltonian with the
    n1*n3 coupling and keeps the lowest k coupled states. Frames are
    cached on an alpha grid and gauge-aligned sequentially from
    alpha = 1 downward. ``engines`` maps each distinct qubit to its
    ``_CircuitEngine``, which a caller may share for other solves of it.
    Each engine works in its qubit's real blocks (see ``_CircuitEngine``;
    at ng = 0, two P_theta blocks at ``cg_ratio`` 0, else one block in S),
    so for a pair at ng = 0 the per-qubit states, the product Hamiltonian,
    the coupled states W and every frame overlap are float64. The frame
    switch between two neighbouring nodes is formed once, as the lower of
    them is built (``switch``), however many gates cross it.

    An ``identical`` pair shares one set of levels, so its product
    Hamiltonian commutes exactly with the exchange of the two qubits and
    is solved as its exchange-symmetric and -antisymmetric blocks
    (``_ExchangeBlock``; m = 12: 78 and 66 states), each for all its
    levels by divide-and-conquer (``numpy.linalg.eigh``), and the k lowest
    of both are kept, as ``spectrum.diagonalize`` merges its P_theta
    blocks. On the benchmark pair both blocks took 1.5 ms, the 144-state
    subset solve 1.8 ms. A detuned pair keeps the one product
    block and its subset solve. The per-qubit overlaps enter the node
    alignment and ``frame_overlap`` as o1 X o2^T on each column of W read
    as an m x m matrix X (``_kron_apply``), never as a formed kron.
    """

    def __init__(self, coupled: CoupledSpec, settings: PropagationSettings):
        self.coupled = coupled
        self.m = settings.per_qubit_m
        self.k = settings.subspace_k
        self.grid = settings.alpha_grid
        self.identical = coupled.qubit1 == coupled.qubit2
        self.engines = {q: _CircuitEngine(q, coupled.charging_scale)
                        for q in dict.fromkeys((coupled.qubit1, coupled.qubit2))}
        self._exchange_blocks = _ExchangeBlock.pair(self.m) if self.identical else None
        self._nodes: dict[int, dict] = {}
        self._lowest_key = self._node_key(1.0) + 1  # min(self._nodes) once any is built
        self._switches: dict[int, np.ndarray] = {}

    def _node_key(self, alpha: float) -> int:
        return int(round(alpha / self.grid))

    def _build_node(self, alpha: float, prev: dict | None) -> dict:
        levels = [_qubit_levels(engine, alpha, self.m,
                                None if prev is None else (prev["eps"][iq], prev["b"][iq]))
                  for iq, engine in enumerate(self.engines.values())]
        if self.identical:  # second qubit shares the first one's eigenframe
            levels.append(levels[0])
            e_c, w = self._exchange_lowest(*levels[0])
        else:
            h = _product_hamiltonian(self.coupled, levels, self.engines.values())
            e_c, w = scipy.linalg.eigh(h, subset_by_index=(0, self.k - 1))
        eps, bs, _ = zip(*levels)
        if prev is not None:
            # Align W in the shared product label space after correcting
            # for the underlying per-qubit basis change.
            o1 = prev["b"][0].conj().T @ bs[0]
            o2 = prev["b"][1].conj().T @ bs[1]
            w_prev_here = _kron_apply(o1.conj().T, o2.conj().T, prev["w"])
            w = align_gauge(EigenSolution(prev["e"], w_prev_here, None, self.k),
                            EigenSolution(e_c, w, None, self.k), min_overlap=0.0).states
        return {"eps": eps, "b": bs, "e": e_c, "w": w}

    def _exchange_lowest(self, eps: np.ndarray, _, n1: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray]:
        """The k lowest coupled levels of an identical pair whose qubits
        share the levels ``eps`` and the charge ``n1`` among them, from its
        two exchange blocks; W in the product labels."""
        (engine,) = self.engines.values()
        coupling = self.coupled.coupling_energy
        if engine.real:  # n1 = i*A: n1_ac n1_bd = -A_ac A_bd, real
            coupling, n1 = -coupling, n1.imag
        energies, states = [], []
        for block in self._exchange_blocks:
            e, v = np.linalg.eigh(block.hamiltonian(coupling, eps, n1))
            energies.append(e)
            states.append(block.lift @ v)
        return _merge_lowest(energies, states, self.k)

    def ensure_range(self, alpha_lo: float) -> None:
        """Build grid nodes from alpha = 1 down to the node at or below
        alpha_lo, aligned, so that ``energies`` can interpolate at alpha_lo.

        The alphas of the nodes still to build are each qubit engine's
        window, so a long range is solved in a reduced basis.
        """
        self._build_down_to(math.floor(alpha_lo / self.grid))

    def _build_down_to(self, key_lo: int) -> None:
        top = self._lowest_key - 1  # highest node to build
        if top < key_lo:
            return
        for engine in self.engines.values():
            engine.set_window(key_lo * self.grid, top * self.grid, self.m, top - key_lo + 1)
        prev = self._nodes.get(top + 1)
        for key in range(top, key_lo - 1, -1):
            node = self._nodes[key] = self._build_node(key * self.grid, prev)
            if prev is not None:  # the switch between this node and the one above
                self._switches[key] = _unitary_part(self.frame_overlap(node, prev))
            prev = node
            self._lowest_key = key

    def node(self, alpha: float) -> dict:
        key = self._node_key(alpha)
        self._build_down_to(key)
        return self._nodes[key]

    def energies(self, alpha: float) -> np.ndarray:
        """Linear interpolation of the coupled energies between nodes."""
        lo = math.floor(alpha / self.grid)  # as in ensure_range
        self._build_down_to(lo)
        n_lo, n_hi = self._nodes[lo], self._nodes.get(lo + 1)
        if n_hi is None:
            return n_lo["e"]
        x = (alpha - lo * self.grid) / self.grid
        return (1.0 - x) * n_lo["e"] + x * n_hi["e"]

    def frame_overlap(self, node_a: dict, node_b: dict) -> np.ndarray:
        """V(a)^dag V(b) in the truncated frames (k x k)."""
        o1 = node_a["b"][0].conj().T @ node_b["b"][0]
        o2 = node_a["b"][1].conj().T @ node_b["b"][1]
        return node_a["w"].conj().T @ _kron_apply(o1, o2, node_b["w"])

    def switch(self, key_old: int, key_new: int) -> np.ndarray:
        """R of the frame switch U <- R U from node ``key_old`` to its
        neighbour ``key_new``: the unitary part of V(new)^dag V(old).
        ``_build_down_to`` stores it for nodes j, j + 1 as the polar factor
        of V(j)^dag V(j + 1), the switch downward; the switch upward is its
        adjoint, since polar(M^dag) = polar(M)^dag."""
        j = min(key_old, key_new)
        r = self._switches[j]
        return r if key_new == j else r.conj().T

    def computational_projector(self, node: dict) -> np.ndarray:
        """k x 4 dressed computational basis (columns 00, 01, 10, 11) in frame coords.

        The four coupled eigenstates that carry the weight of the product
        states |ab> (a, b in {0, 1}) are picked by maximal total overlap;
        within their span the columns are rotated onto the product states
        by the polar factor of the 4 x 4 overlap block, which labels the
        near-degenerate 01/10 doublet. The columns are orthonormal, and
        without coupling they are the product states themselves.
        """
        picked, overlaps = _computational_levels(node["w"], self.m)
        proj = np.zeros((self.k, 4), dtype=complex)
        proj[picked] = _unitary_part(overlaps[:, picked]).conj().T
        return proj


def _computational_levels(states: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The columns of ``states`` that carry |00>, |01>, |10> and |11>.

    ``states`` is given in a product basis of m levels per qubit, label
    a*m + b. The four columns are picked, in that order, by maximal total
    weight |<ab|state>|^2 (Hungarian assignment). Returns the picked
    column indices and the 4 x n overlaps <ab|state>.
    """
    from scipy.optimize import linear_sum_assignment  # its import costs 0.1-0.2 s

    overlaps = states[[a * m + b for a in (0, 1) for b in (0, 1)]]
    _, picked = linear_sum_assignment(-np.abs(overlaps) ** 2)
    return picked, overlaps


def _unitary_part(m: np.ndarray) -> np.ndarray:
    """Polar (nearest unitary) factor of a square matrix."""
    u, _, vh = np.linalg.svd(m)
    return u @ vh


def _alpha_breakpoints(profile: AlphaProfile, grid: float) -> list[float]:
    """Times where alpha(t) passes a frame node or a midpoint between two.

    Between consecutive breakpoints the nearest node is fixed and the
    interpolated energies are linear in t.
    """
    times = []
    for t0, t1, a0, a1 in profile.segments:
        if a0 == a1:
            continue
        lo, hi = sorted((2.0 * a0 / grid, 2.0 * a1 / grid))
        for m in range(math.floor(lo), math.ceil(hi) + 1):
            x = (0.5 * m * grid - a0) / (a1 - a0)
            if 0.0 < x < 1.0:
                times.append(t0 + x * (t1 - t0))
    return times


def propagate_subspace_unitary(
    coupled: CoupledSpec,
    profile: AlphaProfile,
    settings: PropagationSettings | None = None,
    frame: TwoQubitFrame | None = None,
) -> Trajectory:
    """Accumulate the k x k unitary in the moving eigenframe.

    The frame is that of the nearest node of the alpha grid. It switches
    at the exact time alpha(t) passes the midpoint between two nodes,
    where U <- R U with R the unitary part of V(new)^dag V(old)
    (``TwoQubitFrame.switch``). Between
    switches the generator is diagonal, 2*pi*E(alpha(t)) with E
    interpolated linearly between nodes, and its phases are integrated
    in closed form, so no step grid is taken: ``steps_per_ns`` changes no
    result. U is sampled at t_start + j*sample_interval_ns and at the end.
    """
    settings = settings or PropagationSettings()
    frame = frame or TwoQubitFrame(coupled, settings)
    k = settings.subspace_k

    u = np.eye(k, dtype=complex)
    phases = np.zeros(k)
    times = [profile.t_start]
    unitaries = [u.copy()]
    phase_log = [phases.copy()]

    def record(t: float) -> None:
        drift = np.abs(u.conj().T @ u - np.eye(k)).max()
        if drift > 1e-6:
            raise PropagationError(f"unitarity drift {drift:.2e} at t = {t:.2f} ns")
        times.append(t)
        unitaries.append(u.copy())
        phase_log.append(phases.copy())

    frame.ensure_range(profile.alpha_min)
    # a sample within 1e-9 intervals of the end is the end's own
    interval = settings.sample_interval_ns
    sample_at = {profile.t_start + j * interval
                 for j in range(1, math.ceil(profile.duration / interval - 1e-9))}
    sample_at.add(profile.segments[-1][1])
    cuts = sorted({*sample_at, *_alpha_breakpoints(profile, frame.grid),
                   *(seg[1] for seg in profile.segments)})
    key = frame._node_key(profile.alpha(profile.t_start))
    pending = np.zeros(k)  # phases not yet applied to u
    t, e_t = profile.t_start, frame.energies(profile.alpha(profile.t_start))
    for t_next in cuts:  # strictly increasing, all after t_start
        new_key = frame._node_key(profile.alpha(0.5 * (t + t_next)))
        if new_key != key:
            u = np.exp(-1j * pending)[:, None] * u
            pending[:] = 0.0
            step_key = 1 if new_key > key else -1
            for k_from in range(key, new_key, step_key):
                u = frame.switch(k_from, k_from + step_key) @ u
            key = new_key
        e_next = frame.energies(profile.alpha(t_next))
        increment = math.pi * (e_t + e_next) * (t_next - t)
        pending += increment
        phases = phases + increment
        t, e_t = t_next, e_next
        if t_next in sample_at:
            u = np.exp(-1j * pending)[:, None] * u
            pending[:] = 0.0
            record(t_next)
    return Trajectory(
        times=np.array(times),
        states=unitaries,
        frame_phases=np.array(phase_log),
        spectral_weights=np.array([np.abs(m_) ** 2 for m_ in unitaries]),
    )
