import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.optimize

from dsfq.circuit import CircuitSpec, Variant, gradiometric_loop_dflux
from dsfq.gradiometric import (
    GeometryError,
    LoopGeometry,
    compensated_operating_flux,
    compensation_delta,
    flux_phases,
    global_flux_slope,
    omega_q_at_global_flux,
    vc_vs,
)
from dsfq.spectrum import qubit_eigensolution

GRAD = CircuitSpec(variant=Variant.GRADIOMETRIC, ej=10.0, ec=0.1,
                   alpha1=1.0, alpha2=1.0, cutoff=10)


def test_flux_phases_half_quantum():
    # A1 = A2 = A, b = 0, per-loop flux = Phi_0/2 -> (pi, -pi)
    geom = LoopGeometry(a1=1.0, a2=1.0, b_global=1.0, b_gradient=0.0)
    pe1, pe2 = flux_phases(geom)
    assert pe1 == pytest.approx(math.pi)
    assert pe2 == pytest.approx(-math.pi)


def test_flux_phases_area_ratio():
    geom = LoopGeometry(a1=1.01, a2=0.99, b_global=0.77)
    pe1, pe2 = flux_phases(geom)
    assert abs(pe1) != pytest.approx(abs(pe2))
    assert abs(pe1) / abs(pe2) == pytest.approx(1.01 / 0.99)


def test_flux_phases_product_invariance():
    g1 = LoopGeometry(a1=2.0, a2=2.0, b_global=0.35)
    g2 = LoopGeometry(a1=0.7, a2=0.7, b_global=0.35 * 2.0 / 0.7)
    # a third pair set through its global flux, which reads back unchanged
    g3 = LoopGeometry(a1=0.3, a2=0.3).at_global_flux(g1.global_flux)
    assert g3.global_flux == pytest.approx(0.7, rel=1e-15)
    assert flux_phases(g1) == pytest.approx(flux_phases(g2))
    assert flux_phases(g1) == pytest.approx(flux_phases(g3))


def test_vc_vs_symmetric():
    vc, vs = vc_vs(0.8, 0.8, 0.3, 0.3)
    assert vc == pytest.approx(2 * 0.8 * math.cos(0.3))
    assert vs == pytest.approx(2 * 0.8 * math.sin(0.3))


def test_vs_cancellation_opposite_phases():
    _, vs = vc_vs(0.9, 0.9, 1.234, -1.234)
    assert vs == pytest.approx(0.0, abs=1e-15)


def test_compensation_delta_values():
    exact0, approx0, diff0 = compensation_delta(0.0)
    assert exact0 == 0.0 and approx0 == 0.0 and diff0 == 0.0
    r = 0.01
    exact, approx, diff = compensation_delta(r)
    assert approx == pytest.approx(2 * r)
    # Expanding -1 + (1 + r)/(1 - r) * cos(2*pi*r/(1 - r)) in r gives
    # 2r + (2 - 2*pi^2) r^2 + (2 - 8*pi^2) r^3 + O(r^4): the exact value
    # sits 1.85e-3 below 2r at r = 0.01, and the r^4 rest is ~1e-6.
    series = 2 * r + (2 - 2 * math.pi**2) * r**2 + (2 - 8 * math.pi**2) * r**3
    assert abs(exact - series) < 1e-5
    assert diff == pytest.approx(exact - approx)


def test_compensation_delta_out_of_range():
    with pytest.raises(GeometryError):
        compensation_delta(0.25)


def test_sweet_spot_conditions_exact():
    # substitute delta(r) into the two stationarity conditions
    r = 0.05
    delta, _, _ = compensation_delta(r)
    u_star = compensated_operating_flux(r)
    geom = LoopGeometry(a1=1 + r, a2=1 - r).at_global_flux(u_star)
    pe1, pe2 = flux_phases(geom)
    # condition 1: sin(phi_ext2) = 0 (V_s insensitive to delta for all delta)
    assert math.sin(pe2) == pytest.approx(0.0, abs=1e-9)
    # condition 2: dV_s/dB = 0, via numerical derivative over the global field
    def vs_of_b(b):
        g = LoopGeometry(a1=1 + r, a2=1 - r, b_global=b)
        p1, p2 = flux_phases(g)
        return vc_vs(1.0, 1.0 + delta, p1, p2)[1]
    b0 = geom.b_global
    h = 1e-7
    dvs_db = (vs_of_b(b0 + h) - vs_of_b(b0 - h)) / (2 * h)
    scale = abs((vs_of_b(b0 + 0.01) - vs_of_b(b0 - 0.01)) / 0.02) + 1.0
    assert abs(dvs_db) < 1e-9 * max(scale, 1.0) * 1e3


def test_vs_independent_of_delta_at_operating_point():
    r = 0.03
    u_star = compensated_operating_flux(r)
    geom = LoopGeometry(a1=1 + r, a2=1 - r).at_global_flux(u_star)
    pe1, pe2 = flux_phases(geom)
    ref = vc_vs(1.0, 1.0, pe1, pe2)[1]
    for delta in np.linspace(0.0, 0.1, 6):
        vs = vc_vs(1.0, 1.0 + delta, pe1, pe2)[1]
        assert vs == pytest.approx(ref, abs=1e-12)


def test_junction_area_balance_at_compensation():
    # A1*alpha1*cos(pe1) = A2*alpha2*cos(pe2) holds exactly at the
    # compensated point (the dV_s/dB = 0 condition); the bare products
    # A1*alpha1 and A2*alpha2 agree to O(r^2).
    r = 0.01
    delta, _, _ = compensation_delta(r)
    u_star = compensated_operating_flux(r)
    geom = LoopGeometry(a1=1 + r, a2=1 - r).at_global_flux(u_star)
    pe1, pe2 = flux_phases(geom)
    lhs = (1 + r) * 1.0 * math.cos(pe1)
    rhs = (1 - r) * (1 + delta) * math.cos(pe2)
    assert lhs == pytest.approx(rhs, rel=1e-9)
    imbalance = abs((1 + r) * 1.0 - (1 - r) * (1 + delta)) / (1 + r)
    assert imbalance < (2 * math.pi * r / (1 - r)) ** 2


def test_identical_loops_zero_slope_at_half_flux():
    slope = global_flux_slope(GRAD, LoopGeometry(), 1.0)
    assert abs(slope) < 1e-6


def test_area_asymmetry_breaks_sweet_spot():
    geom = LoopGeometry(a1=1.01, a2=0.99)
    slope = global_flux_slope(GRAD, geom, 1.0)
    assert abs(slope) > 100 * 1e-6


def _two_level_flat_flux(geom, delta, u0):
    """Global flux where a two-level model of omega_q is stationary.

    The barrier term -(EJ/2)*(V_c*cos(x) - V_s*sin(x)), x = phi1 - phi2,
    is an untilted double well of depth R = |V_c + i*V_s| plus a tilt
    V_s*(EJ/2)*sin(x). The untilted well has splitting Delta(R), and the
    tilt couples its two levels with kappa(R) = EJ*|<0|sin(x)|1>|, so
    omega_q^2 = Delta(R)^2 + (kappa(R)*V_s)^2. Delta and kappa come from
    untilted circuits (V_s = 0) of depth R(u0) +- 0.01 only; the global
    flux enters through flux_phases and vc_vs alone.
    """
    def vcs(u):
        pe1, pe2 = flux_phases(geom.at_global_flux(u))
        return vc_vs(GRAD.alpha1, GRAD.alpha1 * (1.0 + delta), pe1, pe2)

    depth0, h = math.hypot(*vcs(u0)), 0.01
    logs = []
    for depth in (depth0 - h, depth0 + h):
        spec = replace(GRAD, alpha1=depth / 2, alpha2=depth / 2,
                       phi_ext1=math.pi, phi_ext2=-math.pi)
        sol = qubit_eigensolution(spec, 2)
        # the two loop derivatives sum to -(depth/2)*EJ*sin(x)
        dflux = gradiometric_loop_dflux(spec, 1).matrix + gradiometric_loop_dflux(spec, 2).matrix
        kappa = 2.0 * abs(sol.state(0).conj() @ dflux @ sol.state(1)) / depth
        logs.append((math.log(sol.energies[1] - sol.energies[0]), math.log(kappa)))
    (ld_lo, lk_lo), (ld_hi, lk_hi) = logs

    def omega_sq(u):
        vc, vs = vcs(u)
        x = (math.hypot(vc, vs) - depth0) / (2 * h)  # -1/2 and +1/2 at the two depths
        log_delta = 0.5 * (ld_lo + ld_hi) + x * (ld_hi - ld_lo)
        log_kappa = 0.5 * (lk_lo + lk_hi) + x * (lk_hi - lk_lo)
        return math.exp(2 * log_delta) + (math.exp(log_kappa) * vs) ** 2

    step = 1e-5
    return scipy.optimize.brentq(
        lambda u: omega_sq(u + step) - omega_sq(u - step), u0 - 0.02, u0 + 0.03, xtol=1e-9
    )


def test_compensation_restores_flat_dispersion():
    r = 0.01
    delta, _, _ = compensation_delta(r)
    geom = LoopGeometry(a1=1 + r, a2=1 - r)
    broken = abs(global_flux_slope(GRAD, geom, 1.0))
    u_star = compensated_operating_flux(r)

    def slope(u, d=delta):
        return global_flux_slope(GRAD, geom, u, delta=d)

    # At u* compensation kills dV_s/dPhi_G, the well-asymmetry channel:
    # the slope drops from above broken/2 to broken/17 (measured).
    assert abs(slope(u_star, 0.0)) > broken / 2
    assert abs(slope(u_star)) < broken / 10
    # But V_s = -alpha1*sin(2*pi*r/(1 - r)) != 0 at u*, so the qubit is
    # tilted (kappa*|V_s| = 0.49 GHz >> Delta = 0.011 GHz), and the depth
    # R still varies with Phi_G; omega_q is stationary where
    # d/dPhi_G [Delta(R)^2 + (kappa(R)*V_s)^2] = 0. The two-level model
    # puts that at u* + 0.0128 (the classical well estimate
    # kappa ~ 2*EJ*sqrt(R^2 - 1)/R^2 would say u* + 0.0185). The full
    # circuit's slope must vanish within 3e-4 Phi_0 of the prediction
    # (measured 1.0e-4) and stay below broken/100 for +-1e-3 Phi_0
    # around its zero (its curvature is about 2.3 h GHz/Phi_0^2).
    predicted = _two_level_flat_flux(geom, delta, u_star)
    root = scipy.optimize.brentq(slope, predicted - 2e-3, predicted + 2e-3, xtol=1e-7)
    assert abs(root - predicted) < 3e-4
    for u in (root - 1e-3, root + 1e-3):
        assert abs(slope(u)) < broken / 100
    # Without compensation the slope stays between 0.40 and 0.51 h GHz
    # per Phi_0 from u* - 0.02 to u* + 0.03, so the zero is the junction
    # asymmetry's doing.
    uncompensated = [slope(u, 0.0) for u in np.linspace(u_star - 0.02, u_star + 0.03, 6)]
    assert min(uncompensated) > broken / 2


def test_degeneracy_split_small_at_compensation():
    r = 0.01
    delta, _, _ = compensation_delta(r)
    geom = LoopGeometry(a1=1 + r, a2=1 - r)
    om0 = omega_q_at_global_flux(GRAD, geom, 1.0, delta=0.0)
    om_c = omega_q_at_global_flux(GRAD, geom, 1.0, delta=delta)
    assert abs(om_c - om0) / om0 < 0.10


def test_geometry_validation():
    with pytest.raises(GeometryError):
        LoopGeometry(a1=-1.0)
