"""Dispersive readout: second-order shift from qubit eigendata and the
frozen-well analytic model of the theta-mode plasmons.

No resonator Fock space is instantiated; the dispersive expressions
need only the qubit matrix elements and energies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import CircuitSpec, Variant, build_operator
from .spectrum import qubit_eigensolution

__all__ = [
    "ResonatorSpec",
    "ReadoutError",
    "DispersiveShift",
    "dispersive_shift",
    "frozen_well_model",
    "t1_limited_readout_fidelity",
]


MIN_LEVELS = 10  # fewest retained eigenstates a dispersive sum accepts


class ReadoutError(RuntimeError):
    """Invalid readout request (e.g. exact qubit-resonator resonance)."""


@dataclass(frozen=True)
class ResonatorSpec:
    """Bare resonator frequency and qubit coupling, both in h GHz."""

    omega_r: float = 4.8
    g: float = 0.025

    def __post_init__(self) -> None:
        if not (self.omega_r > 0 and self.g > 0):
            raise ReadoutError("omega_r and g must be positive")


@dataclass
class DispersiveShift:
    """chi and its per-level contributions, with validity diagnostics."""

    chi: float
    chi_table: np.ndarray  # chi_table[i, j] = chi_ij for i in {0, 1}
    qubit_shift: float
    valid: bool
    near_resonant_pairs: list


def dispersive_shift(
    spec: CircuitSpec, res: ResonatorSpec, levels: int = 20
) -> DispersiveShift:
    """Second-order dispersive shift chi = sum_j (chi_1j - chi_0j).

    chi_ij = g^2 |<i|n_theta|j>|^2 [1/(E_i - E_j - w_r) + 1/(E_i - E_j + w_r)].
    Higher levels matter; ``levels`` counts the retained eigenstates.
    The validity flag drops when any denominator comes within 5g of
    resonance; an exact resonance (denominator < 1e-6 h GHz) raises.
    """
    if levels < MIN_LEVELS:
        raise ReadoutError(f"dispersive sums need at least {MIN_LEVELS} levels")
    sol = qubit_eigensolution(spec, levels)
    n_theta = build_operator("n_theta", spec).csr
    elements = sol.states.conj().T @ (n_theta @ sol.states)
    energies = sol.energies
    chi_table = np.zeros((2, levels))
    valid = True
    near = []
    for i in (0, 1):
        for j in range(levels):
            if j == i:
                continue
            de = energies[i] - energies[j]
            for sign in (-1.0, 1.0):
                den = de + sign * res.omega_r
                if abs(den) < 1e-6:
                    raise ReadoutError(
                        f"exact qubit-resonator resonance between levels {i} and {j}"
                    )
                if abs(den) < 5.0 * res.g:
                    valid = False
                    near.append((i, j, float(den)))
                chi_table[i, j] += res.g**2 * abs(elements[i, j]) ** 2 / den
    chi = float(chi_table[1].sum() - chi_table[0].sum())
    qubit_shift = 0.5 * float(chi_table[1, 0] - chi_table[0, 1])
    return DispersiveShift(
        chi=chi,
        chi_table=chi_table,
        qubit_shift=qubit_shift,
        valid=valid,
        near_resonant_pairs=near,
    )


def frozen_well_model(spec: CircuitSpec, delta_phi_ext: float) -> dict:
    """Frozen-phi effective theta-mode wells at alpha = 1.

    With phi frozen at the minima phi_+- = (+-pi - d)/3 (d the flux
    offset from half flux), the two wells see
    V_+- = -+ EJ*d/(2*sqrt(3)) - EJ*(1 +- d/sqrt(3))*cos(theta).
    The theta kinetic term 2*EC*n^2 corresponds to a standard-form
    charging energy EC/2, so the plasma frequencies are
    w_theta^+- = sqrt(8*(EC/2)*EJ_eff^+-) = sqrt(4*EC*EJ*(1 +- d/sqrt(3))).
    """
    if abs(spec.alpha - 1.0) > 1e-12:
        raise ReadoutError("the frozen-well model is derived at alpha = 1 only")
    if abs(delta_phi_ext) >= 0.3:
        raise ReadoutError("frozen-well expansion needs |delta_phi_ext| < 0.3")
    d = delta_phi_ext
    ej_eff = {
        "+": spec.ej * (1.0 + d / math.sqrt(3.0)),
        "-": spec.ej * (1.0 - d / math.sqrt(3.0)),
    }
    offsets = {
        "+": -spec.ej * d / (2.0 * math.sqrt(3.0)),
        "-": +spec.ej * d / (2.0 * math.sqrt(3.0)),
    }
    ec_eff = 0.5 * spec.ec
    omega_theta = {w: math.sqrt(8.0 * ec_eff * ej_eff[w]) for w in ("+", "-")}
    return {
        "phi_minima": {"+": (math.pi - d) / 3.0, "-": (-math.pi - d) / 3.0},
        "ej_eff": ej_eff,
        "ec_eff": ec_eff,
        "well_offsets": offsets,
        "omega_theta": omega_theta,
    }


def t1_limited_readout_fidelity(t1_us: float, integration_time_us: float) -> float:
    """F = exp(-t_int / T1)."""
    if t1_us <= 0 or integration_time_us < 0:
        raise ReadoutError("times must be positive")
    return math.exp(-integration_time_us / t1_us)
