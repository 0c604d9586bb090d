"""Noise channels, relaxation/dephasing rates, and decay-integrated fidelity.

Rates are evaluated from golden-rule matrix elements of the circuit
eigenstates. Internally everything is converted to SI; reported rates
are in 1/ns and times in microseconds.

Unit conventions. The spectral functions are implemented as printed in
the source analysis, with three documented knobs:

* ``rate_scale``: a single overall normalization of the relaxation
  rates. The ``"paper"`` convention (default) applies 2*(2*pi)^3 on top
  of the strict-SI evaluation: a factor 2 for two-sided spectral
  weight S(omega) + S(-omega) and (2*pi)^3 absorbing the golden-rule /
  ordinary-vs-angular frequency normalization of the source's quoted
  numbers. ``"si"`` evaluates the printed formulas literally in SI.
* ``charge_units``: charge-noise amplitudes in Cooper pairs
  (``"cooper_pair"``, default) or electrons (``"electron"``, halved
  before use), since the charge derivatives are per Cooper pair.
* ``coth_half``: the dielectric thermal factor uses coth(w/kT) as
  printed when False (default), coth(w/2kT) (the standard form) when
  True.

The 1/f dephasing rate is
Gamma_phi = sqrt(2 * S0 * (d omega/d lambda)^2 * |ln(omega_ir t)|),
with S0 = 2*pi*A^2 the 1/f spectral prefactor and omega angular; this
reads the printed formula's amplitude as the spectral-density
prefactor, which reproduces the quoted dephasing times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.constants as const

from .circuit import CircuitSpec, build_operator
from .spectrum import EigenSolution, qubit_eigensolution

__all__ = [
    "NoiseChannel",
    "Environment",
    "RateConventions",
    "CoherenceReport",
    "CoherenceError",
    "default_channels",
    "relaxation_rates",
    "dephasing_rates",
    "coherence_report",
    "dephasing_rate_from_slope",
    "decay_integrated_fidelity",
]

CHANNEL_KINDS = (
    "flux_1f",
    "charge_1f_phi",
    "charge_1f_theta",
    "charge_ohmic_phi",
    "charge_ohmic_theta",
    "dielectric",
)

# Pinned physical constants (SI).
H_PLANCK = const.h
HBAR = const.hbar
K_B = const.k

#: k_B * T / h in GHz at T = 1 K; at 20 mK this gives ~0.4167 GHz.
KT_GHZ_PER_K = K_B / H_PLANCK / 1e9

GHZ = 1e9  # Hz per GHz


class CoherenceError(RuntimeError):
    """Invalid coherence request (e.g. degenerate qubit)."""


@dataclass(frozen=True)
class NoiseChannel:
    """One noise source: a kind from CHANNEL_KINDS and its amplitude.

    Amplitudes: flux in Phi_0/sqrt(Hz); charge in Cooper pairs/sqrt(Hz)
    by default (see RateConventions.charge_units); the dielectric
    channel's amplitude is the loss tangent (dimensionless).
    """

    kind: str
    amplitude: float

    def __post_init__(self) -> None:
        if self.kind not in CHANNEL_KINDS:
            raise CoherenceError(f"unknown noise channel kind {self.kind!r}")
        if not self.amplitude > 0:
            raise CoherenceError(f"channel amplitude must be positive, got {self.amplitude}")


@dataclass(frozen=True)
class Environment:
    """Bath temperature and the infrared-cutoff product for 1/f dephasing."""

    temperature: float = 0.020  # kelvin
    ir_cutoff_product: float = 2.0 * math.pi * 1e-6  # omega_ir * t, dimensionless

    def __post_init__(self) -> None:
        if not self.temperature > 0:
            raise CoherenceError("temperature must be positive")


@dataclass(frozen=True)
class RateConventions:
    """Documented unit-convention switches (see module docstring)."""

    rate_scale: str = "paper"  # "paper" | "si"
    charge_units: str = "cooper_pair"  # "cooper_pair" | "electron"
    coth_half: bool = False  # False: coth(w/kT) as printed; True: w/2kT

    @property
    def scale(self) -> float:
        if self.rate_scale == "paper":
            return 2.0 * (2.0 * math.pi) ** 3
        if self.rate_scale == "si":
            return 1.0
        raise CoherenceError(f"unknown rate_scale {self.rate_scale!r}")

    def charge_amp(self, amplitude: float) -> float:
        """Charge amplitude in Cooper-pair units."""
        if self.charge_units == "cooper_pair":
            return amplitude
        if self.charge_units == "electron":
            return amplitude / 2.0
        raise CoherenceError(f"unknown charge_units {self.charge_units!r}")


def default_channels(
    a_flux: float = 1e-6,
    a_ng: float = 1e-4,
    b_ng: float = 5.2e-9,
    tan_delta: float = 2e-7,
) -> list[NoiseChannel]:
    """The standard channel set with the default noise amplitudes."""
    return [
        NoiseChannel("flux_1f", a_flux),
        NoiseChannel("charge_1f_phi", a_ng),
        NoiseChannel("charge_1f_theta", a_ng),
        NoiseChannel("charge_ohmic_phi", b_ng),
        NoiseChannel("charge_ohmic_theta", b_ng),
        NoiseChannel("dielectric", tan_delta),
    ]


@dataclass
class CoherenceReport:
    """Per-channel rates (1/ns) and the combined coherence times (us)."""

    gamma1_by_channel: dict[str, float] = field(default_factory=dict)
    gammaphi_by_channel: dict[str, float] = field(default_factory=dict)

    @property
    def gamma1_total(self) -> float:
        return sum(self.gamma1_by_channel.values())

    @property
    def gammaphi_total(self) -> float:
        return sum(self.gammaphi_by_channel.values())

    @property
    def t1(self) -> float:
        g = self.gamma1_total
        return math.inf if g == 0 else 1e-3 / g

    @property
    def tphi(self) -> float:
        g = self.gammaphi_total
        return math.inf if g == 0 else 1e-3 / g

    @property
    def t2(self) -> float:
        g = 0.5 * self.gamma1_total + self.gammaphi_total
        return math.inf if g == 0 else 1e-3 / g


def _spectral_1f(amplitude: float, omega: float) -> float:
    """S(omega) = 2*pi*A^2 / |omega|; omega angular in rad/s, S in s."""
    return 2.0 * math.pi * amplitude**2 / abs(omega)


def _spectral_ohmic(amplitude: float, omega: float) -> float:
    """S(omega) = B^2 * omega / (2*pi * 1 GHz); S in (units^2)/Hz = s."""
    return amplitude**2 * omega / (2.0 * math.pi * GHZ)


def _spectral_dielectric(tan_delta: float, omega: float, ec_ghz: float,
                         env: Environment, conv: RateConventions) -> float:
    """S(omega) = omega^2 tan(delta)/(4 E_C) [coth(ratio) + 1], SI 1/(s^2 J)."""
    kt = K_B * env.temperature
    ratio = HBAR * abs(omega) / kt
    if conv.coth_half:
        ratio *= 0.5
    ec_joule = H_PLANCK * ec_ghz * GHZ
    return omega**2 * tan_delta / (4.0 * ec_joule) * (1.0 / math.tanh(ratio) + 1.0)


# channel kind -> operator kind whose matrix elements set its rates: dH/dlambda,
# and for the dielectric channel the phase phi
_CHANNEL_OPERATOR = {
    "flux_1f": "dH_dphi_ext",
    "charge_1f_phi": "dH_dng_phi",
    "charge_ohmic_phi": "dH_dng_phi",
    "charge_1f_theta": "dH_dng_theta",
    "charge_ohmic_theta": "dH_dng_theta",
    "dielectric": "phi_grid",
}
_DEPHASING_CHANNELS = ("flux_1f", "charge_1f_phi", "charge_1f_theta")


def _noise_operators(spec: CircuitSpec, channel_kinds, charging_scale: float = 1.0,
                     indices: np.ndarray | None = None) -> dict:
    """The operators of ``spec`` that the channels of ``channel_kinds`` take,
    by operator kind, each built once, in the CSR form that
    ``build_operator`` gives (a few dozen nonzeros per row at most).
    For flux, lambda is Phi/Phi_0, so dH/dphi_ext carries 2*pi; charge
    derivatives are per Cooper pair, at ``charging_scale``. Given
    ``indices``, each is restricted to them."""
    operators = {}
    for kind in dict.fromkeys(_CHANNEL_OPERATOR[c] for c in channel_kinds):
        op = build_operator(kind, spec, charging_scale=charging_scale).csr
        if indices is not None:
            op = op[indices][:, indices]
        operators[kind] = 2.0 * math.pi * op if kind == "dH_dphi_ext" else op
    return operators


def _level_elements(operators: dict, sol: EigenSolution, levels: tuple[int, int]) -> dict:
    """(<j|O|i>, <i|O|i>, <j|O|j>) of each operator O of ``operators``, by
    kind, with (i, j) = ``levels`` among the states of ``sol``."""
    i, j = levels
    bra_i, bra_j = sol.state(i).conj(), sol.state(j).conj()
    elements = {}
    for kind, op in operators.items():
        o_i, o_j = op @ sol.state(i), op @ sol.state(j)
        elements[kind] = (complex(bra_j @ o_i), complex(bra_i @ o_i), complex(bra_j @ o_j))
    return elements


def relaxation_rates(
    spec: CircuitSpec,
    channels: list[NoiseChannel],
    env: Environment | None = None,
    conventions: RateConventions | None = None,
    solution: EigenSolution | None = None,
    levels: tuple[int, int] = (0, 1),
    *,
    _elements: dict | None = None,
) -> CoherenceReport:
    """Golden-rule relaxation rates, per channel, at omega = omega_q.

    Gamma_1^lambda = scale/hbar^2 |<1|dH/dlambda|0>|^2 S_lambda(omega);
    Gamma_1^diel = scale*hbar |<1|phi|0>|^2 S_diel(omega). Each operator
    is built once per call (``_noise_operators``), and only its matrix
    elements are kept. ``_elements``, when given, holds those elements
    for every channel, by operator kind (see ``_level_elements``), and
    none is built: ``coherence_report`` and ``gates.Gamma1Interpolator``
    pass their own.
    """
    if not channels:
        raise CoherenceError("channel list is empty")
    env = env or Environment()
    conv = conventions or RateConventions()
    sol = solution if solution is not None else qubit_eigensolution(spec, max(levels) + 2)
    i, j = levels
    omega_q_ghz = float(sol.energies[j] - sol.energies[i])
    if abs(omega_q_ghz) < 1e-12:
        raise CoherenceError(
            "qubit splitting is zero: 1/f relaxation rate diverges at omega = 0"
        )
    omega = 2.0 * math.pi * omega_q_ghz * GHZ  # angular, rad/s
    report = CoherenceReport()
    elements = _elements if _elements is not None else _level_elements(
        _noise_operators(spec, [ch.kind for ch in channels]), sol, levels)
    for ch in channels:
        element = elements[_CHANNEL_OPERATOR[ch.kind]][0]
        if ch.kind == "dielectric":
            s = _spectral_dielectric(ch.amplitude, omega, spec.ec, env, conv)
            rate_si = HBAR * abs(element) ** 2 * s
        else:
            amp = conv.charge_amp(ch.amplitude) if ch.kind.startswith("charge") else ch.amplitude
            s = (_spectral_1f if "1f" in ch.kind else _spectral_ohmic)(amp, omega)
            m = element * H_PLANCK * GHZ  # J per unit lambda
            rate_si = abs(m) ** 2 * s / HBAR**2
        report.gamma1_by_channel[ch.kind] = conv.scale * rate_si * 1e-9  # 1/ns
    return report


def hellmann_feynman_slope(
    spec: CircuitSpec,
    channel_kind: str,
    solution: EigenSolution | None = None,
    levels: tuple[int, int] = (0, 1),
) -> float:
    """d omega_q / d lambda in GHz per unit lambda via Hellmann-Feynman.

    lambda is Phi/Phi_0 for flux and the offset charge (Cooper pairs)
    for charge channels.
    """
    kind = _CHANNEL_OPERATOR.get(channel_kind, "")
    if not kind.startswith("dH_"):
        raise CoherenceError(f"channel {channel_kind} has no dH/dlambda operator")
    sol = solution if solution is not None else qubit_eigensolution(spec, max(levels) + 2)
    _, e_i, e_j = _level_elements(_noise_operators(spec, [channel_kind]), sol, levels)[kind]
    return float((e_j - e_i).real)


def dephasing_rate_from_slope(
    slope_ghz: float,
    amplitude: float,
    env: Environment | None = None,
) -> float:
    """First-order 1/f dephasing rate (1/ns) from a frequency slope.

    Gamma_phi = sqrt(2 * S0 * (d omega/d lambda)^2 * |ln(omega_ir t)|),
    with S0 = 2*pi*A^2 and the slope converted to angular rad/s.
    """
    env = env or Environment()
    slope_angular = 2.0 * math.pi * slope_ghz * GHZ
    s0 = 2.0 * math.pi * amplitude**2
    rate_si = math.sqrt(2.0 * s0 * slope_angular**2 * abs(math.log(env.ir_cutoff_product)))
    return rate_si * 1e-9


def dephasing_rates(
    spec: CircuitSpec,
    channels: list[NoiseChannel],
    env: Environment | None = None,
    conventions: RateConventions | None = None,
    solution: EigenSolution | None = None,
    levels: tuple[int, int] = (0, 1),
    *,
    _elements: dict | None = None,
) -> CoherenceReport:
    """First-order 1/f dephasing rates per channel.

    Only the 1/f channels dephase at first order; ohmic and dielectric
    channels contribute zero here. ``_elements`` is as in
    ``relaxation_rates``.
    """
    if not channels:
        raise CoherenceError("channel list is empty")
    env = env or Environment()
    conv = conventions or RateConventions()
    sol = solution if solution is not None else qubit_eigensolution(spec, max(levels) + 2)
    omega_q = float(sol.energies[levels[1]] - sol.energies[levels[0]])
    if abs(omega_q) < 1e-12:
        raise CoherenceError("qubit splitting is zero; dephasing slope ill-defined")
    report = CoherenceReport()
    elements = _elements if _elements is not None else _level_elements(
        _noise_operators(spec, [ch.kind for ch in channels if ch.kind in _DEPHASING_CHANNELS]),
        sol, levels)
    for ch in channels:
        if ch.kind not in _DEPHASING_CHANNELS:
            report.gammaphi_by_channel[ch.kind] = 0.0
            continue
        amp = conv.charge_amp(ch.amplitude) if ch.kind.startswith("charge") else ch.amplitude
        _, e_i, e_j = elements[_CHANNEL_OPERATOR[ch.kind]]
        slope = float((e_j - e_i).real)
        report.gammaphi_by_channel[ch.kind] = dephasing_rate_from_slope(slope, amp, env)
    return report


def coherence_report(
    spec: CircuitSpec,
    channels: list[NoiseChannel] | None = None,
    env: Environment | None = None,
    conventions: RateConventions | None = None,
    levels: tuple[int, int] = (0, 1),
) -> CoherenceReport:
    """Combined T1/Tphi/T2 report over the default or given channels.

    Relaxation and dephasing share one eigensolution and one set of
    noise-operator matrix elements, so each operator is built once.
    """
    channels = channels if channels is not None else default_channels()
    sol = qubit_eigensolution(spec, max(levels) + 2)
    elements = _level_elements(_noise_operators(spec, [ch.kind for ch in channels]), sol, levels)
    g1 = relaxation_rates(spec, channels, env, conventions, solution=sol, levels=levels,
                          _elements=elements)
    gphi = dephasing_rates(spec, channels, env, conventions, solution=sol, levels=levels,
                           _elements=elements)
    g1.gammaphi_by_channel = gphi.gammaphi_by_channel
    return g1


def decay_integrated_fidelity(times_ns, gamma1_per_ns) -> float:
    """F = exp(-integral Gamma_1(t) dt) over a sampled schedule."""
    t = np.asarray(times_ns, dtype=float)
    g = np.asarray(gamma1_per_ns, dtype=float)
    if t.ndim != 1 or t.shape != g.shape:
        raise CoherenceError("times and rates must be 1-D arrays of equal length")
    if np.any(np.diff(t) < 0):
        raise CoherenceError("time grid must be monotone non-decreasing")
    if np.any(g < 0):
        raise CoherenceError("negative relaxation-rate sample")
    return float(np.exp(-np.trapezoid(g, t)))
