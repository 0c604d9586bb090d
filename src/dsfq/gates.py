"""Gate construction and scoring: driven single-qubit gates, adiabatic
two-qubit fSim gates, fidelity metrics, entangling power, and effective
two-qubit couplings."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg

from .circuit import CircuitSpec, CoupledSpec
from .coherence import (
    Environment,
    NoiseChannel,
    RateConventions,
    _level_elements,
    _noise_operators,
    decay_integrated_fidelity,
    default_channels,
    relaxation_rates,
)
from .evolve import (
    FULL_LOWERING_NS,
    AlphaProfile,
    DrivePulse,
    PropagationError,
    PropagationSettings,
    Trajectory,
    TwoQubitFrame,
    _CircuitEngine,
    _computational_levels,
    _propagation_window,
    _product_hamiltonian,
    _qubit_levels,
    propagate_state,
    propagate_subspace_unitary,
)
from .spectrum import EigenSolution

__all__ = [
    "GateReport",
    "GateError",
    "gate_fidelity",
    "fsim_unitary",
    "fsim_decompose",
    "entangling_power",
    "pauli_target",
    "calibrate_drive",
    "run_single_qubit_gate",
    "run_two_qubit_gate",
    "zz_strength",
    "effective_couplings",
    "Gamma1Interpolator",
]

# A two-qubit gate lowers alpha at the rate of one full lowering (1 -> 0.5)
# in FULL_LOWERING_NS, so an activation time T_a above twice that takes
# alpha below 0.5.
MAX_T_A_NS = 2.0 * FULL_LOWERING_NS

# calibrate_drive scans +-5% about its seed amplitude and, while the best
# score sits at an end of the scan, adds one point of the same step past that
# end, at most this many times.
MAX_SCAN_EXTENSIONS = 40

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)


class GateError(RuntimeError):
    """Gate construction or scoring failure."""


@dataclass
class GateReport:
    """Computational-subspace unitary with its quality metrics."""

    unitary: np.ndarray
    coherent_fidelity: float
    t1_limited_fidelity: float
    leakage: float
    gate_time: float
    fsim: tuple[float, float] | None = None
    extras: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in ("coherent_fidelity", "t1_limited_fidelity"):
            val = getattr(self, name)
            if not (0.0 <= val <= 1.0 + 1e-9):
                raise GateError(f"{name} = {val} outside [0, 1]")
        if self.leakage < -1e-9:
            raise GateError(f"negative leakage {self.leakage}")


def pauli_target(name: str) -> np.ndarray:
    """Named single-qubit flip targets used by the drive experiments."""
    if name == "x":
        return SIGMA_X
    if name == "y":
        return SIGMA_Y
    if name == "xy":
        return (SIGMA_X - SIGMA_Y) / math.sqrt(2.0)
    raise GateError(f"unknown target {name!r}")


def fsim_unitary(theta_swap: float, phi_cphase: float) -> np.ndarray:
    c, s = math.cos(theta_swap), math.sin(theta_swap)
    return np.array(
        [
            [1, 0, 0, 0],
            [0, c, -1j * s, 0],
            [0, -1j * s, c, 0],
            [0, 0, 0, np.exp(-1j * phi_cphase)],
        ],
        dtype=complex,
    )


# The z dressing post @ U @ pre turns each qubit by one angle before the
# gate and one after. Row i*d + j holds the 0/1 weights of the (pre, post)
# angles in the phase of entry (i, j): the bits of j, then the bits of i.
# Its rows are thus every corner of {0, 1}^K, the fit's starts scaled by pi.
_Z_ANGLES = {d: np.roll(np.indices((2,) * 2 * n).reshape(2 * n, -1).T, n, axis=1)
             for d, n in ((2, 1), (4, 2))}
# lengths tried along each Newton direction; the first keeps the sweeps' angles
_NEWTON_STEPS = np.append(0.0, 2.0 ** np.arange(-8, 5))


def gate_fidelity(u: np.ndarray, target: np.ndarray, mode: str = "plain") -> float:
    """Average gate fidelity F = (|tr(T^dag U)|^2 + d)/(d(d+1)).

    ``up_to_z`` is the maximum of F over independent z rotations of each
    qubit before and after the gate (the trace modulus drops the global
    phase), by a deterministic fit. Each angle enters the trace as
    A + B e^{i theta}, whose modulus peaks at theta + arg A - arg B. From
    every corner of {0, pi}^K, rounds of these exact one-angle sweeps
    alternate with the best of _NEWTON_STEPS along the Newton direction of
    |tr|^2, its Hessian eigenvalues taken by modulus so that it climbs off
    saddles, until no start gains more than 1e-14 d^2 in a round.
    """
    u = np.asarray(u)
    target = np.asarray(target)
    if u.shape != target.shape or u.shape[0] not in (2, 4):
        raise GateError(f"dimension mismatch: {u.shape} vs {target.shape}")
    d = u.shape[0]
    if mode == "plain":
        return float((abs(np.trace(target.conj().T @ u)) ** 2 + d) / (d * (d + 1)))
    if mode != "up_to_z":
        raise GateError(f"unknown fidelity mode {mode!r}")
    table = _Z_ANGLES[d]
    w = (target.conj() * u).ravel()
    theta = math.pi * table

    def terms(angles):
        return w * np.exp(1j * (angles @ table.T))

    power = np.abs(terms(theta).sum(axis=1)) ** 2
    for _ in range(100):
        before = power
        for k in range(table.shape[1]):
            t = terms(theta)
            b = t @ table[:, k]
            theta[:, k] += np.angle(t.sum(axis=1) - b) - np.angle(b)
        t = terms(theta)
        tr, s = t.sum(axis=1), t @ table
        grad = -2.0 * np.imag(tr.conj()[:, None] * s)
        hess = 2.0 * np.real(s[:, :, None] * s.conj()[:, None, :] - tr.conj()[:, None, None]
                             * np.einsum("sm,mk,ml->skl", t, table, table))
        lam, vec = np.linalg.eigh(hess)
        lam = np.abs(lam)
        coef = np.einsum("skl,sk->sl", vec, grad) * np.divide(
            1.0, lam, out=np.zeros_like(lam), where=lam > 1e-12 * lam.max(axis=1, keepdims=True))
        trials = theta + _NEWTON_STEPS[:, None, None] * np.einsum("skl,sl->sk", vec, coef)
        gains = np.abs(terms(trials).sum(axis=2)) ** 2
        pick = gains.argmax(axis=0), np.arange(len(theta))
        theta, power = trials[pick], gains[pick]
        if np.all(power - before <= 1e-14 * d * d):
            return float(min((power.max() + d) / (d * (d + 1)), 1.0))
    raise GateError("up-to-z fit did not converge in 100 rounds")


def fsim_decompose(u: np.ndarray) -> tuple[float, float, float, dict]:
    """Swap angle, conditional phase, and distance to the nearest fSim.

    theta = arctan2(|U_01,10|, |U_01,01|); phi_cphase is the gauge-
    invariant combination -(arg U_00 + arg U_11 - arg U_01 - arg U_10)
    wrapped to (-pi, pi]. The residual is the up-to-z infidelity against
    fSim(theta, phi); ``info["fidelity_up_to_z"]`` is that fidelity.
    """
    u = np.asarray(u)
    if u.shape != (4, 4):
        raise GateError("fsim_decompose expects a 4x4 matrix")
    unitarity = np.abs(u.conj().T @ u - np.eye(4)).max()
    info = {"unitarity_defect": float(unitarity), "degenerate": False}
    a01, a10 = abs(u[1, 1]), abs(u[1, 2])
    if a01 < 1e-8 and a10 < 1e-8:
        info["degenerate"] = True
        theta = 0.5 * math.pi
    else:
        theta = math.atan2(a10, a01)
    phi = -(np.angle(u[0, 0]) + np.angle(u[3, 3])
            - np.angle(u[1, 1]) - np.angle(u[2, 2]))
    if a01 < 1e-8:
        # conditional phase of a full swap lives in the anti-diagonal block,
        # whose fSim entries -i*sin(theta) multiply to a phase of pi
        phi = -(np.angle(u[0, 0]) + np.angle(u[3, 3])
                - np.angle(u[1, 2]) - np.angle(u[2, 1])) - math.pi
    phi = math.remainder(phi, 2.0 * math.pi)
    info["fidelity_up_to_z"] = gate_fidelity(u, fsim_unitary(theta, phi), "up_to_z")
    return theta, phi, float(1.0 - info["fidelity_up_to_z"]), info


_PAULI_EIGENSTATES = [
    np.array([1.0, 1.0]) / math.sqrt(2.0),
    np.array([1.0, -1.0]) / math.sqrt(2.0),
    np.array([1.0, 1.0j]) / math.sqrt(2.0),
    np.array([1.0, -1.0j]) / math.sqrt(2.0),
    np.array([1.0, 0.0]),
    np.array([0.0, 1.0]),
]

_CZ_RAW_POWER = 2.0 / 9.0  # Haar-average linear entropy generated by CZ


def _mean_linear_entropy(u: np.ndarray) -> float:
    total = 0.0
    for psi1 in _PAULI_EIGENSTATES:
        for psi2 in _PAULI_EIGENSTATES:
            out = u @ np.kron(psi1, psi2)
            rho = out.reshape(2, 2)
            r1 = rho @ rho.conj().T
            total += 1.0 - float(np.trace(r1 @ r1).real)
    return total / 36.0


def entangling_power(u: np.ndarray) -> float:
    """Mean output linear entropy over product two-designs, CZ -> 1.

    The six single-qubit Pauli eigenstates form an exact 2-design, so
    the 36-product average equals the Haar average of the linear
    entropy; the result is normalized so CZ and iSWAP give 1 and
    identity/SWAP give 0.
    """
    u = np.asarray(u)
    if u.shape != (4, 4):
        raise GateError("entangling_power expects a 4x4 unitary")
    return _mean_linear_entropy(u) / _CZ_RAW_POWER


# ---------------------------------------------------------------------------
# Instantaneous relaxation rates along a schedule


class Gamma1Interpolator:
    """Total Gamma_1(alpha) on a grid, linearly interpolated.

    The grid is the window of one ``_CircuitEngine``, whose solves are
    checked against the full H: ``_engine``, the engine of (spec,
    charging_scale) that the caller shares, or one of its own. A window
    that already covers the grid with 3 or more levels is used as it is.
    The noise operators are built once, at the engine's charging scale and
    in its sector: dH/dphi_ext comes from the barrier junction, whose terms
    are linear in alpha (``circuit.hamiltonian_decomposition``), so it is
    alpha times its alpha = 1 value, and the others do not depend on alpha.
    The engine's states are taken to the charge basis of the operators.
    An alpha outside the grid raises ``GateError``: it is not extrapolated.
    """

    def __init__(
        self,
        spec: CircuitSpec,
        alpha_lo: float,
        alpha_hi: float = 1.0,
        n_grid: int = 25,
        channels: list[NoiseChannel] | None = None,
        env: Environment | None = None,
        conventions: RateConventions | None = None,
        charging_scale: float = 1.0,
        *,
        _engine: _CircuitEngine | None = None,
    ):
        self.alphas = np.linspace(alpha_lo, alpha_hi, n_grid)
        channels = channels if channels is not None else default_channels()
        engine = _engine or _CircuitEngine(spec, charging_scale, real=True)
        engine.set_window(alpha_lo, alpha_hi, 3, n_grid)
        unit = _noise_operators(spec.with_alpha(1.0), [ch.kind for ch in channels],
                                engine.charging_scale, engine.indices)
        rates = []
        for a in self.alphas:
            a = float(a)
            operators = {kind: a * op if kind == "dH_dphi_ext" else op
                         for kind, op in unit.items()}
            energies, states = engine.lowest(a, 3)
            sol = EigenSolution(energies, engine.charge_states(states), None, 3)
            rep = relaxation_rates(spec.with_alpha(a), channels, env, conventions, solution=sol,
                                   _elements=_level_elements(operators, sol, (0, 1)))
            rates.append(rep.gamma1_total)
        self.rates = np.array(rates)

    def __call__(self, alpha) -> np.ndarray:
        if np.min(alpha) < self.alphas[0] or np.max(alpha) > self.alphas[-1]:
            raise GateError(f"alpha {np.min(alpha):g} to {np.max(alpha):g} leaves the rate "
                            f"grid [{self.alphas[0]:g}, {self.alphas[-1]:g}]")
        return np.interp(alpha, self.alphas, self.rates)


def _t1_limited_fidelity(profile: AlphaProfile, gamma1: tuple) -> float:
    """exp(-integral of Gamma_1(alpha(t)) dt), summed over ``gamma1``, every 0.25 ns."""
    dt = 0.25
    t = np.arange(profile.t_start, profile.t_start + profile.duration + 0.5 * dt, dt)
    alpha = np.array([profile.alpha(tt) for tt in t])
    return decay_integrated_fidelity(t, sum(rates(alpha) for rates in gamma1))


# ---------------------------------------------------------------------------
# Single-qubit gates


def _gate_engine(spec: CircuitSpec, profile: AlphaProfile,
                 settings: PropagationSettings) -> _CircuitEngine:
    """The one engine of a driven gate's circuit, in the real working basis
    where the circuit allows it, its window the schedule's alpha range with
    ``spectral_k`` levels. Where that window holds a basis, the
    propagation's samples and the rate grid are solved in it, and the
    plateau solve is its end snapshot. The gate's alpha = 1 states are the
    engine's ``charge_gauge_states``, solved once for all its gates."""
    engine = _CircuitEngine(spec, real=True)
    _propagation_window(engine, profile, settings)
    return engine


def _assemble_two_level_map(
    states: np.ndarray, traj: Trajectory
) -> tuple[np.ndarray, np.ndarray, float]:
    """2x2 map in the final eigenbasis ``states`` (|0>, |1>), frame phases removed.

    Column j of ``traj.final`` is the propagated |j>.
    """
    raw = states.conj().T @ traj.final
    phases = traj.frame_phases[-1][:2]
    u_frame = np.diag(np.exp(1j * phases)) @ raw
    leakage = 1.0 - 0.5 * float(np.sum(np.abs(raw) ** 2))
    return u_frame, raw, leakage


def run_single_qubit_gate(
    spec: CircuitSpec,
    profile: AlphaProfile,
    pulse: DrivePulse,
    target: np.ndarray,
    settings: PropagationSettings | None = None,
    gamma1: Gamma1Interpolator | None = None,
    conventions: RateConventions | None = None,
    *,
    _engine: _CircuitEngine | None = None,
) -> GateReport:
    """Propagate |0> and |1> through the schedule and score the 2x2 map.

    Both states go through one ``propagate_state`` call as the columns of
    a (dim, 2) block, so they share its steps and sample eigensolutions;
    ``extras["trajectory"]`` holds that block trajectory, column 0 being
    |0>. The map is assembled in the final (alpha = 1) eigenbasis with
    the accumulated instantaneous eigenphases removed; the coherent score
    is the plain average gate fidelity against ``target`` after dropping
    a global phase. The rates (when built here), the alpha = 1 states and
    the propagation solve through one engine, ``_engine`` when the caller
    shares its own (see ``_gate_engine``). The alpha = 1 states are
    ``_CircuitEngine.charge_gauge_states``, charge-basis vectors in the
    gauge of a complex charge-basis solve whatever the engine's working
    basis, since their phases set the axes the target names.
    """
    if not profile.is_gate_schedule():
        raise GateError("gate schedules must start and end at alpha = 1")
    if pulse.amplitude == 0.0:
        raise GateError("drive amplitude unset; run calibrate_drive first")
    settings = settings or PropagationSettings()
    engine = _engine or _gate_engine(spec, profile, settings)
    if gamma1 is None:
        gamma1 = Gamma1Interpolator(spec, profile.alpha_min, conventions=conventions,
                                    _engine=engine)
    t1_limited = _t1_limited_fidelity(profile, (gamma1,))
    states = np.zeros((engine.full_dim, 2), dtype=complex)
    states[engine.indices] = engine.charge_gauge_states(1.0, 2)
    traj = propagate_state(spec, profile, pulse, states, settings, _engine=engine)
    u_frame, raw, leakage = _assemble_two_level_map(states, traj)
    if leakage > 0.05:
        raise GateError(f"leakage {leakage:.3f} exceeds 5%: not a gate")
    fidelity = gate_fidelity(u_frame, target, "plain")
    return GateReport(
        unitary=u_frame,
        coherent_fidelity=fidelity,
        t1_limited_fidelity=t1_limited,
        leakage=leakage,
        gate_time=profile.duration,
        extras={
            "state_transfer": float(abs(raw[1, 0]) ** 2),
            "raw_map": raw,
            "trajectory": traj,
        },
    )


def calibrate_drive(
    spec: CircuitSpec,
    profile: AlphaProfile,
    pulse_template: DrivePulse,
    target_rotation: float,
    target: np.ndarray | None = None,
    settings: PropagationSettings | None = None,
    scan_points: int = 7,
    gamma1: Gamma1Interpolator | None = None,
    *,
    _engine: _CircuitEngine | None = None,
) -> DrivePulse:
    """Set the pulse amplitude for a requested Bloch rotation angle.

    On resonance in the rotating-wave picture, a drive
    eps(t)*cos(w t)*n1 rotates the qubit by
    Theta = 2*pi * |<0|n1|1>| * coupling * integral(eps dt) (the full
    Bloch angle; the generator carries half of it). The seed amplitude
    solves Theta = target; a +-5% scan maximizing the coherent fidelity
    then refines it (skipped when no scoring target is given). While the
    scan's best score sits at one of its ends, one more point of the same
    step is scored past that end, at most ``MAX_SCAN_EXTENSIONS`` times,
    after which ``GateError`` names them; a parabola through the best point
    and its neighbours gives the amplitude. The
    plateau solve, the rates and every scan gate share one engine,
    ``_engine`` when the caller shares its own (see ``_gate_engine``).
    """
    if target_rotation == 0.0:
        return replace(pulse_template, amplitude=0.0)
    settings = settings or PropagationSettings()
    # without a scan, the one plateau solve needs no window
    engine = _engine or (_CircuitEngine(spec, real=True) if target is None
                         else _gate_engine(spec, profile, settings))
    element = abs(_qubit_levels(engine, profile.alpha_min, 3)[2][0, 1])
    if element < 1e-12:
        raise GateError("drive matrix element vanishes at the plateau")
    unit_area = replace(pulse_template, amplitude=1.0).envelope_area()
    amp0 = target_rotation / (
        2.0 * math.pi * element * pulse_template.coupling_ratio * unit_area
    )
    if target is None:
        return replace(pulse_template, amplitude=amp0)
    if gamma1 is None:
        gamma1 = Gamma1Interpolator(spec, profile.alpha_min, _engine=engine)

    def score(pulse: DrivePulse) -> float:
        try:
            rep = run_single_qubit_gate(
                spec, profile, pulse, target, settings, gamma1=gamma1, _engine=engine
            )
            return rep.coherent_fidelity
        except (GateError, PropagationError):
            return 0.0

    values = amp0 * np.linspace(0.95, 1.05, scan_points)
    step = values[1] - values[0]
    scores = [score(replace(pulse_template, amplitude=a)) for a in values]
    values = list(values)
    for extension in range(MAX_SCAN_EXTENSIONS + 1):
        best = int(np.argmax(scores))
        if 0 < best < len(values) - 1:
            break
        if extension == MAX_SCAN_EXTENSIONS or (best == 0 and values[0] <= step):
            raise GateError("calibration scan failed to bracket a fidelity maximum "
                            f"after {extension} extensions of {step:.3e} past its ends")
        end = 0 if best == 0 else len(values)
        values.insert(end, values[0] - step if best == 0 else values[-1] + step)
        scores.insert(end, score(replace(pulse_template, amplitude=values[end])))
    num = scores[best - 1] - scores[best + 1]
    den = scores[best - 1] - 2 * scores[best] + scores[best + 1]
    shift = 0.5 * num / den if den != 0 else 0.0
    return replace(pulse_template,
                   amplitude=float(values[best] + np.clip(shift, -1.0, 1.0) * step))


# ---------------------------------------------------------------------------
# Two-qubit gates


def _computational_block(frame: TwoQubitFrame, final: np.ndarray) -> tuple[np.ndarray, float]:
    """4 x 4 block of a frame-coordinate map on the dressed computational
    basis at alpha = 1, and its leakage 1 - |U_comp|_F^2 / 4."""
    proj = frame.computational_projector(frame.node(1.0))  # k x 4
    u_comp = proj.conj().T @ final @ proj
    return u_comp, 1.0 - 0.25 * float(np.sum(np.abs(u_comp) ** 2))


def run_two_qubit_gate(
    coupled: CoupledSpec,
    t_a: float,
    t_w: float,
    settings: PropagationSettings | None = None,
    frame: TwoQubitFrame | None = None,
    target: np.ndarray | None = None,
    gamma1: tuple[Gamma1Interpolator, ...] | None = None,
    conventions: RateConventions | None = None,
) -> GateReport:
    """Simultaneous-barrier fSim gate for a (T_a, T_w) schedule.

    Runs the moving-frame propagation, projects onto the dressed
    computational basis at alpha = 1 (the four coupled eigenstates that
    carry the product states |ab>, see
    ``TwoQubitFrame.computational_projector``), so that leakage counts
    only weight that leaves those states, and scores against ``target``
    (or the idealized fSim at the decomposed angles when no target is
    given) up to single-qubit z rotations. The T1-limited fidelity
    integrates Gamma_1 of both qubits along the schedule with the default
    noise channels. ``gamma1``, when given, holds one interpolator per
    distinct qubit (qubit 1's, then qubit 2's if the pair is detuned);
    when None, they are built here, each through its qubit's frame engine.
    """
    if t_a > MAX_T_A_NS:
        raise GateError(f"T_a > {MAX_T_A_NS:g} ns lowers alpha below 0.5")
    identical = coupled.qubit1 == coupled.qubit2
    qubits = (coupled.qubit1,) if identical else (coupled.qubit1, coupled.qubit2)
    if gamma1 is not None and len(gamma1) != len(qubits):
        raise GateError(f"gamma1 holds {len(gamma1)} interpolators for {len(qubits)} qubits")
    settings = settings or PropagationSettings(steps_per_ns=286)
    profile = AlphaProfile.two_qubit(t_a, t_w)
    frame = frame or TwoQubitFrame(coupled, settings)
    if gamma1 is None:
        frame.ensure_range(profile.alpha_min)  # its window then holds the rate grid
        gamma1 = tuple(Gamma1Interpolator(q, profile.alpha_min, conventions=conventions,
                                          charging_scale=coupled.charging_scale, _engine=engine)
                       for q, engine in frame.engines.items())
    t1_limited = _t1_limited_fidelity(profile, gamma1 * 2 if identical else gamma1)
    traj = propagate_subspace_unitary(coupled, profile, settings, frame=frame)
    # Dynamical phases stay in the map: the single-qubit parts are
    # absorbed by the up-to-z score and the gauge-invariant fSim angles,
    # while their two-qubit combinations are the gate itself.
    u_comp, leakage = _computational_block(frame, traj.final)
    if leakage > 0.05:
        raise GateError(f"leakage {leakage:.3f} exceeds 5%: not a gate")
    theta, phi, residual, info = fsim_decompose(u_comp)
    fidelity = (info["fidelity_up_to_z"] if target is None
                else gate_fidelity(u_comp, target, "up_to_z"))
    return GateReport(
        unitary=u_comp,
        coherent_fidelity=fidelity,
        t1_limited_fidelity=t1_limited,
        leakage=leakage,
        gate_time=profile.duration,
        fsim=(theta, phi),
        extras={
            "fsim_residual": residual,
            "entangling_power": entangling_power(fsim_unitary(theta, phi)),
            "decompose_info": info,
            "trajectory": traj,
        },
    )


# ---------------------------------------------------------------------------
# Static two-qubit quantities


def _coupled_hamiltonian(
    coupled: CoupledSpec, alpha1: float, alpha2: float, m: int = 12,
    levels: dict | None = None,
) -> np.ndarray:
    """m^2-dimensional coupled Hamiltonian in the bare-product basis.

    Each qubit's levels come from ``evolve._qubit_levels``, as at the nodes
    of a ``TwoQubitFrame``, in the real basis where the qubit allows it, so
    that a pair at ng = 0 gives a real H. ``levels`` keeps each qubit's
    engine, keyed by (qubit, charging_scale), and its levels, keyed by
    (qubit, charging_scale, alpha, m). Points run at once may both miss a
    key and repeat its work, with identical results.
    """
    levels = {} if levels is None else levels
    scale = coupled.charging_scale
    pair = []
    for q, a in ((coupled.qubit1, alpha1), (coupled.qubit2, alpha2)):
        key = (q, scale, a, m)
        if key not in levels:
            if (q, scale) not in levels:
                levels[q, scale] = _CircuitEngine(q, scale, real=True)
            levels[key] = _qubit_levels(levels[q, scale], a, m)
        pair.append(levels[key])
    engines = [levels[q, scale] for q in (coupled.qubit1, coupled.qubit2)]
    return _product_hamiltonian(coupled, pair, engines)


def zz_strength(
    coupled: CoupledSpec, alpha1: float, alpha2: float, m: int = 12,
    *,
    _levels: dict | None = None,
) -> tuple[float, dict]:
    """zeta_ZZ = E_00 - E_01 - E_10 + E_11 of the coupled spectrum.

    Computational levels are identified by maximal overlap with the bare
    product states (Hungarian assignment); near-degenerate 01/10 pairs
    are fine because only their energy sum enters. Calls that pass one
    ``_levels`` dict share each qubit's split and per-alpha levels (see
    ``_coupled_hamiltonian``), as the points of one ``zz_map`` do.
    """
    h = _coupled_hamiltonian(coupled, alpha1, alpha2, m=m, levels=_levels)
    energies, states = scipy.linalg.eigh(h, subset_by_index=(0, 7))
    picked, overlaps = _computational_levels(states, m)
    quality = float((np.abs(overlaps[range(4), picked]) ** 2).min())
    e00, e01, e10, e11 = energies[picked]
    zeta = float(e00 - e01 - e10 + e11)
    return zeta, {"levels": picked.tolist(), "min_overlap": quality}


_HEFF_DESIGN = np.array(
    [
        # columns: const, -w1/2 sz1, -w2/2 sz2, gz/2 szsz  (diagonal entries)
        [1.0, 1.0, 1.0, 1.0],
        [1.0, 1.0, -1.0, -1.0],
        [1.0, -1.0, 1.0, -1.0],
        [1.0, -1.0, -1.0, 1.0],
    ]
)


def effective_couplings(
    coupled: CoupledSpec, alpha: float, m: int = 12
) -> tuple[float, float, float, float, dict]:
    """Project onto bare computational products and fit the XY+ZZ model.

    Returns (omega1, omega2, g_xy, g_z) with the fit residual and the
    projected 4x4 block in the info dict. The residual is measured
    against the spectral spread of the block.
    """
    h = _coupled_hamiltonian(coupled, alpha, alpha, m=m)
    idx = [0, 1, m, m + 1]  # |00>, |01>, |10>, |11> product labels
    h4 = h[np.ix_(idx, idx)]
    diag = np.real(np.diag(h4))
    const, mw1, mw2, hgz = np.linalg.solve(_HEFF_DESIGN, diag)
    omega1, omega2, g_z = -2.0 * mw1, -2.0 * mw2, 2.0 * hgz
    g_xy = float(abs(h4[1, 2]))
    model = np.diag(diag).astype(complex)
    model[1, 2] = h4[1, 2]
    model[2, 1] = h4[2, 1]
    residual = float(np.linalg.norm(h4 - model) / max(np.ptp(diag), 1e-12))
    info = {"h4": h4, "residual": residual, "const": const}
    info["model_valid"] = residual <= 0.05
    return float(omega1), float(omega2), g_xy, float(g_z), info
