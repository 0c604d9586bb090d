"""Double-loop flux geometry: per-loop phases, sweet-spot compensation,
and global-flux dispersion of the gradiometric qubit.

Geometry conventions. Loop areas a1, a2 are in a common arbitrary unit;
fields are quoted as flux per unit area in units of Phi_0, so a*B is a
flux in Phi_0. The two loops see B_{1,2} = (B +- b)/2 and the induced
phases are phi_ext1,2 = +-2*pi*A_{1,2}*B_{1,2}/Phi_0 (opposite signs by
the winding convention). The "global flux" is Phi_G = A_mean * B with
A_mean = (a1 + a2)/2; identical loops sit at half flux per loop when
Phi_G = Phi_0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .circuit import CircuitSpec, Variant
from .spectrum import qubit_eigensolution, qubit_params

__all__ = [
    "LoopGeometry",
    "GeometryError",
    "flux_phases",
    "vc_vs",
    "compensation_delta",
    "omega_q_at_global_flux",
    "global_flux_slope",
]


# Largest loop-area asymmetry |r| that compensation_delta accepts (exclusive).
MAX_ASYMMETRY = 0.2


class GeometryError(ValueError):
    """Invalid loop geometry or out-of-range asymmetry."""


@dataclass(frozen=True)
class LoopGeometry:
    """Loop areas and the common/gradient field decomposition."""

    a1: float = 1.0
    a2: float = 1.0
    b_global: float = 1.0  # B, flux per unit area in Phi_0
    b_gradient: float = 0.0  # b, same units

    def __post_init__(self) -> None:
        if not (self.a1 > 0 and self.a2 > 0):
            raise GeometryError("loop areas must be positive")

    @property
    def mean_area(self) -> float:
        return 0.5 * (self.a1 + self.a2)

    @property
    def asymmetry(self) -> float:
        """r = (A1 - A2)/(A1 + A2)."""
        return (self.a1 - self.a2) / (self.a1 + self.a2)

    @property
    def global_flux(self) -> float:
        """Phi_G = A_mean * B in Phi_0."""
        return self.mean_area * self.b_global

    def at_global_flux(self, phi_g: float) -> "LoopGeometry":
        """Copy with B set so that Phi_G equals ``phi_g`` (in Phi_0)."""
        return replace(self, b_global=phi_g / self.mean_area)


def flux_phases(geom: LoopGeometry) -> tuple[float, float]:
    """Per-loop phases (phi_ext1, phi_ext2) in radians.

    phi_ext1,2 = +-2*pi*A_{1,2}*B_{1,2} with B_{1,2} = (B +- b)/2.
    """
    b1 = 0.5 * (geom.b_global + geom.b_gradient)
    b2 = 0.5 * (geom.b_global - geom.b_gradient)
    return (2.0 * math.pi * geom.a1 * b1, -2.0 * math.pi * geom.a2 * b2)


def vc_vs(alpha1: float, alpha2: float, phi_ext1: float, phi_ext2: float) -> tuple[float, float]:
    """Coefficients of cos(2*phi) and sin(2*phi) in the barrier term.

    V_c = a1*cos(pe1) + a2*cos(pe2); V_s = a1*sin(pe1) + a2*sin(pe2).
    """
    return (
        alpha1 * math.cos(phi_ext1) + alpha2 * math.cos(phi_ext2),
        alpha1 * math.sin(phi_ext1) + alpha2 * math.sin(phi_ext2),
    )


def compensation_delta(r: float) -> tuple[float, float, float]:
    """Junction asymmetry delta compensating loop-area asymmetry r.

    Returns (exact, approximation 2*r, exact - approximation), with
    delta = -1 + ((1 + r)/(1 - r)) * cos(2*pi*r/(1 - r)).
    Valid for small asymmetry only; |r| >= MAX_ASYMMETRY is rejected.
    """
    if abs(r) >= MAX_ASYMMETRY:
        raise GeometryError(
            f"|r| = {abs(r)} outside the small-asymmetry regime (< {MAX_ASYMMETRY:g})")
    exact = -1.0 + (1.0 + r) / (1.0 - r) * math.cos(2.0 * math.pi * r / (1.0 - r))
    return exact, 2.0 * r, exact - 2.0 * r


def compensated_operating_flux(r: float) -> float:
    """Global flux (in Phi_0) of the shifted sweet spot: 1/(1 - r).

    At this point sin(phi_ext2) = 0, so V_s is insensitive to the
    junction asymmetry delta for all delta, and the compensating delta
    makes dV_s/dPhi_G vanish. V_s itself does not vanish (it is
    -alpha1*sin(2*pi*r/(1 - r))), so the double well of depth
    R = |V_c + i*V_s| is tilted, and R still varies with Phi_G
    (dV_c/dPhi_G != 0). In a two-level picture
    omega_q^2 = Delta(R)^2 + (kappa(R)*V_s)^2, with kappa(R) the tilt
    coupling of the untilted well; omega_q is stationary where that
    expression is, which lies above u* by an amount set by
    d ln kappa/dR.
    """
    return 1.0 / (1.0 - r)


def _grad_spec_at(spec: CircuitSpec, geom: LoopGeometry, delta: float,
                  phi_g: float) -> CircuitSpec:
    pe1, pe2 = flux_phases(geom.at_global_flux(phi_g))
    return replace(
        spec,
        variant=Variant.GRADIOMETRIC,
        alpha2=min(spec.alpha1 * (1.0 + delta), 1.5),
        phi_ext1=pe1,
        phi_ext2=pe2,
    )


def omega_q_at_global_flux(spec: CircuitSpec, geom: LoopGeometry,
                           phi_g: float, delta: float = 0.0) -> float:
    """Qubit frequency of the gradiometric circuit at global flux phi_g."""
    sol = qubit_eigensolution(_grad_spec_at(spec, geom, delta, phi_g), 3)
    return qubit_params(sol).omega_q


def global_flux_slope(spec: CircuitSpec, geom: LoopGeometry, phi_g: float,
                      delta: float = 0.0, step: float = 1e-4) -> float:
    """d omega_q / d Phi_G (h GHz per Phi_0) by a five-point stencil."""
    om = [
        omega_q_at_global_flux(spec, geom, phi_g + k * step, delta)
        for k in (-2, -1, 1, 2)
    ]
    return (om[0] - 8.0 * om[1] + 8.0 * om[2] - om[3]) / (12.0 * step)
