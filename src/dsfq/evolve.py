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

Every ``propagate_state`` step is one fourth-order commutator-free Magnus
step, whose two half-step exponentials ``_CircuitEngine.expi_apply``
sums as Taylor series about the lowest sampled level, each stopped once
a strict bound on its tail falls below ``TAYLOR_TOL`` of the sum.

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
import scipy.optimize
import scipy.sparse

from .circuit import (
    CircuitSpec,
    CoupledSpec,
    Variant,
    build_operator,
    hamiltonian_decomposition,
    physical_sector_indices,
)
from .spectrum import (
    RESIDUAL_RTOL,
    EigenSolution,
    _check_pair_continuity,
    align_gauge,
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
# the sum's norm. Its generator is cut into substeps of 1-norm at most
# TAYLOR_SUBSTEP_NORM, where the tail bound falls below TAYLOR_TOL before
# TAYLOR_MAX_ORDER (3**31/31! = 7.5e-20), which therefore only guards the loop.
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
    """Step and sample grids and truncations; a step of ``propagate_state``
    is one fourth-order commutator-free Magnus step."""

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
        if not (isinstance(self.alpha_grid, (int, float)) and 0.0 < self.alpha_grid < math.inf):
            raise PropagationError(f"alpha_grid must be positive, got {self.alpha_grid!r}")


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


class _CircuitEngine:
    """H(alpha, drive) = h0 + alpha*h1 + drive*n1 of one circuit, in its
    physical sector where it has one, held only in CSR form.

    The three pieces share one sparsity pattern, that of h0 and h1 plus
    the diagonal, so any H(alpha, drive) is one linear combination of
    three data vectors. ``n1`` is diagonal in the charge basis and kept
    as a vector. A dense H exists only inside a dense solve, which is
    ``spectrum.qubit_eigensolution`` of the circuit at alpha.

    ``set_window`` states an alpha window of many lowest-k solves to come;
    ``lowest`` then solves inside it in a reduced basis (eigenvector
    continuation: Frame et al., PRL 121, 032501 (2018); convergence: Sarkar
    & Lee, PRL 126, 032501 (2021)). ``fallbacks`` counts the reduced
    solutions that failed their residual check and were solved densely.

    ``expi_apply`` rewrites one CSR matrix in place and ``set_window``
    replaces the window, so an engine that does either serves one thread
    at a time; the ``zz_map`` points share engines that only solve densely.
    """

    def __init__(self, spec: CircuitSpec, charging_scale: float = 1.0):
        self._spec, self.charging_scale = spec, charging_scale
        h0, h1 = hamiltonian_decomposition(spec, charging_scale)
        self.full_dim = h0.shape[0]
        if spec.variant is Variant.SINGLE_LOOP:
            self.indices = physical_sector_indices(spec.basis, 0)
        else:
            self.indices = np.arange(self.full_dim)
        self.n1 = build_operator("n1", spec).csr.diagonal()[self.indices]
        self.dim = self.indices.size
        h0, h1 = h0[self.indices][:, self.indices], h1[self.indices][:, self.indices]
        pattern = abs(h0) + abs(h1) + scipy.sparse.eye_array(self.dim, format="csr")
        self._indptr, self._indices = pattern.indptr, pattern.indices
        rows = np.repeat(np.arange(self.dim), np.diff(self._indptr))
        self._diag = np.flatnonzero(rows == self._indices)
        dn = np.zeros(self._indices.size, dtype=complex)
        dn[self._diag] = self.n1
        self._data = [h0[rows, self._indices], h1[rows, self._indices], dn]
        # the generator of expi_apply; each call overwrites its data
        self._step = self._csr(np.zeros(self._indices.size, dtype=complex))
        self._window: _Window | None = None
        self.fallbacks = 0

    def _csr(self, data: np.ndarray) -> scipy.sparse.csr_matrix:
        return scipy.sparse.csr_matrix((data, self._indices, self._indptr),
                                       shape=(self.dim, self.dim))

    def sparse_hamiltonian(self, alpha: float) -> scipy.sparse.csr_matrix:
        """The drive-free H(alpha) in CSR form."""
        d0, d1, _ = self._data
        return self._csr(d0 + alpha * d1)

    def expi_apply(self, alpha: float, drive: float, dt: float, psi: np.ndarray,
                   shift: float) -> np.ndarray:
        """exp(-i*2*pi*H(alpha, drive)*dt) @ psi by scaled Taylor sums.

        ``psi`` is a vector or a block of columns. The phase of ``shift``,
        the lowest level of the latest sample, is split off analytically,
        so the sums expand exp(tau*A) with A = -i*2*pi*(H - shift) about
        the levels that hold the state, whose terms fall fast. nu, the
        1-norm of tau*A, bounds its 2-norm (H is Hermitian); A is cut into
        s = ceil(nu / TAYLOR_SUBSTEP_NORM) substeps. Once
        r = nu_s/(k + 1) < 1, the terms after t_k sum to at most
        ||t_k|| r/(1 - r) (Frobenius norm for a block), and a substep stops
        at the first k where that is at most TAYLOR_TOL ||sum||
        (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011)). The CSR
        matrix of A is this engine's one generator, rewritten in place.

        On the driven-gate benchmark circuit (cutoff 12, 100 steps per ns:
        nu = 2.7, one substep) a half step takes 10.0 terms on average,
        13.3 at a tolerance of 2**-53, against the 20 of the fixed order-20
        sum about the diagonal mean that this replaces.
        """
        a = self._step
        d0, d1, dn = self._data
        np.multiply(d1, alpha, out=a.data)
        a.data += d0
        if drive != 0.0:
            a.data += drive * dn
        a.data[self._diag] -= shift
        norm = 2.0 * math.pi * dt * float(
            np.bincount(a.indices, weights=np.abs(a.data), minlength=self.dim).max()
        )
        s = max(1, math.ceil(norm / TAYLOR_SUBSTEP_NORM))
        nu = norm / s
        a.data *= -2j * math.pi * dt / s
        for _ in range(s):
            term = psi
            acc = psi.copy()
            for k in range(1, TAYLOR_MAX_ORDER + 1):
                term = a @ term
                term /= k
                acc += term
                r = nu / (k + 1)
                # squared norms; vdot flattens a block, so they are Frobenius
                if r < 1.0 and (np.vdot(term, term).real * (r / (1.0 - r)) ** 2
                                <= TAYLOR_TOL ** 2 * np.vdot(acc, acc).real):
                    break
            psi = acc
        return np.exp(-2j * math.pi * shift * dt) * psi

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
        the basis, so the basis is also checked once here: midway between
        each pair of snapshots its lowest k energies must match a dense
        solve to ``RESIDUAL_RTOL * ||H||_inf``, or no basis is kept.
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
        for a in 0.5 * (alphas[1:] + alphas[:-1]):
            reduced = scipy.linalg.eigvalsh(g0 + a * g1, subset_by_index=(0, k - 1))
            bound = RESIDUAL_RTOL * abs(self.sparse_hamiltonian(a)).sum(axis=1).max()
            if np.abs(reduced - self._dense_lowest(float(a), k)[0]).max() > bound:
                return
        self._window = _Window(lo, hi, k, q, g0, g1, snapshots)

    def _dense_lowest(self, alpha: float, k: int) -> tuple[np.ndarray, np.ndarray]:
        sol = qubit_eigensolution(self._spec.with_alpha(alpha), k, self.charging_scale)
        return sol.energies, sol.states[self.indices]

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
            h = self.sparse_hamiltonian(alpha)
            residual = np.linalg.norm(h @ states - states * energies, axis=0).max()
            if residual <= RESIDUAL_RTOL * abs(h).sum(axis=1).max():
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
    and solved densely when its residual is too large. Each sample is gauge-aligned to the one before,
    and a crossing of the qubit pair raises ``GaugeAlignmentError``.
    ``_engine``, when given, is the ``_CircuitEngine`` of (spec,
    charging_scale) that the caller shares with its other solves.
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
    weights.append(np.abs(ref.states.conj().T @ psi) ** 2)
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
            weights.append(np.abs(ref.states.conj().T @ psi) ** 2)
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
    """Lowest m energies of a circuit, its states (gauge-aligned to ``prev``
    = (energies, states) when given) and the charge n1 among them."""
    e, b = engine.lowest(alpha, m)
    if prev is not None:
        b = align_gauge(EigenSolution(*prev, None, m), EigenSolution(e, b, None, m),
                        min_overlap=0.0).states
    return e, b, b.conj().T @ (engine.n1[:, None] * b)


class TwoQubitFrame:
    """Two-stage truncated eigenframe of two coupled qubits.

    Stage one diagonalizes each qubit's node-basis Hamiltonian (the
    coupled-node charging renormalization included) to its lowest m
    states; stage two assembles the m*m product Hamiltonian with the
    n1*n3 coupling and keeps the lowest k coupled states. Frames are
    cached on an alpha grid and gauge-aligned sequentially from
    alpha = 1 downward. ``engines`` maps each distinct qubit to its
    ``_CircuitEngine``, which a caller may share for other solves of it.
    """

    def __init__(self, coupled: CoupledSpec, settings: PropagationSettings):
        self.coupled = coupled
        self.m = settings.per_qubit_m
        self.k = settings.subspace_k
        self.grid = settings.alpha_grid
        self.identical = coupled.qubit1 == coupled.qubit2
        self.engines = {q: _CircuitEngine(q, coupled.charging_scale)
                        for q in dict.fromkeys((coupled.qubit1, coupled.qubit2))}
        self._nodes: dict[int, dict] = {}

    def _node_key(self, alpha: float) -> int:
        return int(round(alpha / self.grid))

    def _build_node(self, alpha: float, prev: dict | None) -> dict:
        levels = [_qubit_levels(engine, alpha, self.m,
                                None if prev is None else (prev["eps"][iq], prev["b"][iq]))
                  for iq, engine in enumerate(self.engines.values())]
        if self.identical:  # second qubit shares the first one's eigenframe
            levels.append(levels[0])
        eps, bs, n1p = zip(*levels)
        h = self.coupled.product_hamiltonian(eps, n1p)
        e_c, w = scipy.linalg.eigh(h, subset_by_index=(0, self.k - 1))
        if prev is not None:
            # Align W in the shared product label space after correcting
            # for the underlying per-qubit basis change.
            o1 = prev["b"][0].conj().T @ bs[0]
            o2 = prev["b"][1].conj().T @ bs[1]
            w_prev_here = np.kron(o1, o2).conj().T @ prev["w"]
            w = align_gauge(EigenSolution(prev["e"], w_prev_here, None, self.k),
                            EigenSolution(e_c, w, None, self.k), min_overlap=0.0).states
        return {"eps": eps, "b": bs, "e": e_c, "w": w}

    def ensure_range(self, alpha_lo: float) -> None:
        """Build grid nodes from alpha = 1 down to the node at or below
        alpha_lo, aligned, so that ``energies`` can interpolate at alpha_lo.

        The alphas of the nodes still to build are each qubit engine's
        window, so a long range is solved in a reduced basis.
        """
        self._build_down_to(math.floor(alpha_lo / self.grid))

    def _build_down_to(self, key_lo: int) -> None:
        top = min(self._nodes, default=self._node_key(1.0) + 1) - 1  # highest node to build
        if top < key_lo:
            return
        for engine in self.engines.values():
            engine.set_window(key_lo * self.grid, top * self.grid, self.m, top - key_lo + 1)
        prev = self._nodes.get(top + 1)
        for key in range(top, key_lo - 1, -1):
            prev = self._nodes[key] = self._build_node(key * self.grid, prev)

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
        return node_a["w"].conj().T @ (np.kron(o1, o2) @ node_b["w"])

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
    overlaps = states[[a * m + b for a in (0, 1) for b in (0, 1)]]
    _, picked = scipy.optimize.linear_sum_assignment(-np.abs(overlaps) ** 2)
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
    where U <- R U with R the unitary part of V(new)^dag V(old). Between
    switches the generator is diagonal, 2*pi*E(alpha(t)) with E
    interpolated linearly between nodes, and its phases are integrated
    in closed form; U therefore does not depend on the step grid, which
    only places the samples.
    """
    settings = settings or PropagationSettings(steps_per_ns=286)
    frame = frame or TwoQubitFrame(coupled, settings)

    n_steps, dt, sample_stride = _step_grid(profile, settings)
    sample_steps = {s for s in range(1, n_steps + 1) if s % sample_stride == 0 or s == n_steps}
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
    sample_at = {profile.t_start + s * dt for s in sample_steps if s < n_steps}
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
                overlap = frame.frame_overlap(frame.node(k_from * frame.grid),
                                              frame.node((k_from + step_key) * frame.grid))
                u = _unitary_part(overlap.conj().T) @ u
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
