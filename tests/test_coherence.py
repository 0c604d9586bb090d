import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from dsfq.circuit import CircuitSpec, build_operator
from dsfq.coherence import (
    CoherenceError,
    Environment,
    NoiseChannel,
    RateConventions,
    coherence_report,
    decay_integrated_fidelity,
    default_channels,
    dephasing_rate_from_slope,
    dephasing_rates,
    hellmann_feynman_slope,
    relaxation_rates,
    KT_GHZ_PER_K,
)
from dsfq.spectrum import EigenSolution, qubit_eigensolution, qubit_params

OPERATING = CircuitSpec(ej=10.0, ec=0.1, alpha=1.0, phi_ext=0.997 * math.pi, cutoff=12)


def test_kt_constant_pinned():
    # k_B * 20 mK / h in GHz
    assert KT_GHZ_PER_K * 0.020 == pytest.approx(0.4167, rel=2e-3)


def test_rate_linear_in_squared_amplitude():
    ch1 = [NoiseChannel("flux_1f", 1e-6)]
    ch2 = [NoiseChannel("flux_1f", 2e-6)]
    r1 = relaxation_rates(OPERATING, ch1).gamma1_total
    r2 = relaxation_rates(OPERATING, ch2).gamma1_total
    assert r2 / r1 == pytest.approx(4.0, rel=1e-9)
    tiny = relaxation_rates(OPERATING, [NoiseChannel("flux_1f", 1e-12)]).gamma1_total
    assert tiny == pytest.approx(r1 * 1e-12, rel=1e-9)


def test_gamma1_gauge_invariance():
    sol = qubit_eigensolution(OPERATING, 4)
    rotated = EigenSolution(
        energies=sol.energies.copy(),
        states=sol.states * np.exp(1j * 0.83),
        basis=sol.basis,
        k=sol.k,
    )
    channels = default_channels()
    a = relaxation_rates(OPERATING, channels, solution=sol).gamma1_by_channel
    b = relaxation_rates(OPERATING, channels, solution=rotated).gamma1_by_channel
    for kind in a:
        assert a[kind] == pytest.approx(b[kind], rel=1e-12)


def test_each_noise_operator_built_once_per_call(monkeypatch):
    # the 1/f and ohmic channels of one charge share dH/dng; sharing must
    # leave every rate bit-identical to a call that builds it alone
    from dsfq import coherence

    built = []

    def counting(kind, spec, *args, **kwargs):
        built.append(kind)
        return build_operator(kind, spec, *args, **kwargs)

    monkeypatch.setattr(coherence, "build_operator", counting)
    sol = qubit_eigensolution(OPERATING, 3)
    channels = default_channels()
    together = relaxation_rates(OPERATING, channels, solution=sol).gamma1_by_channel
    assert sorted(built) == ["dH_dng_phi", "dH_dng_theta", "dH_dphi_ext", "phi_grid"]
    for ch in channels:
        alone = relaxation_rates(OPERATING, [ch], solution=sol).gamma1_by_channel
        assert alone[ch.kind] == together[ch.kind]
    # coherence_report shares them between relaxation and dephasing, and
    # its rates stay bit-identical to the two calls made on their own
    built.clear()
    report = coherence_report(OPERATING, channels)
    assert sorted(built) == ["dH_dng_phi", "dH_dng_theta", "dH_dphi_ext", "phi_grid"]
    assert report.gamma1_by_channel == together
    assert report.gammaphi_by_channel == dephasing_rates(
        OPERATING, channels, solution=sol).gammaphi_by_channel


def test_hellmann_feynman_matches_finite_difference():
    step = 1e-6
    slope = hellmann_feynman_slope(OPERATING, "flux_1f")

    def omega(pe):
        sol = qubit_eigensolution(replace(OPERATING, phi_ext=pe), 2)
        return sol.energies[1] - sol.energies[0]

    fd = (omega(OPERATING.phi_ext + step) - omega(OPERATING.phi_ext - step)) / (2 * step)
    # slope is per Phi/Phi_0; finite difference is per phi_ext radian
    assert slope == pytest.approx(2 * math.pi * fd, rel=1e-4)


def test_t1_anchor_protected():
    rep = coherence_report(OPERATING)
    assert 603 / 2 < rep.t1 < 603 * 2


def test_t1_anchor_unprotected_and_ratio():
    rep1 = coherence_report(OPERATING)
    rep5 = coherence_report(OPERATING.with_alpha(0.5))
    assert 0.35 / 2 < rep5.t1 < 0.35 * 2
    assert rep1.t1 / rep5.t1 >= 100


def test_tphi_anchors():
    rep1 = coherence_report(OPERATING)
    rep5 = coherence_report(OPERATING.with_alpha(0.5))
    assert 0.12 / 2 < rep1.tphi < 0.12 * 2
    assert 7.6 / 2 < rep5.tphi < 7.6 * 2


def test_t2_combination_identity():
    rep = coherence_report(OPERATING.with_alpha(0.7))
    lhs = 1.0 / rep.t2
    rhs = 1.0 / (2 * rep.t1) + 1.0 / rep.tphi
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_t1_monotone_in_alpha():
    alphas = [0.6, 0.7, 0.8, 0.9, 1.0]
    t1s = [coherence_report(OPERATING.with_alpha(a)).t1 for a in alphas]
    assert all(t1s[i] < t1s[i + 1] for i in range(len(t1s) - 1))


def test_flux_sweet_spot_first_order():
    # dephasing derivative nearly vanishes at phi_ext = pi
    at_pi = hellmann_feynman_slope(replace(OPERATING, phi_ext=math.pi), "flux_1f")
    away = hellmann_feynman_slope(replace(OPERATING, phi_ext=0.98 * math.pi), "flux_1f")
    assert abs(at_pi) < 1e-3 * abs(away)
    # while the relaxation matrix element survives
    sol = qubit_eigensolution(replace(OPERATING, phi_ext=math.pi), 3)
    op = build_operator("dH_dphi_ext", replace(OPERATING, phi_ext=math.pi)).matrix
    el = abs(sol.state(1).conj() @ op @ sol.state(0))
    assert el > 1e3 * abs(at_pi)


def test_degenerate_qubit_rejected():
    sol = qubit_eigensolution(OPERATING, 3)
    degenerate = EigenSolution(
        energies=np.array([sol.energies[0], sol.energies[0], sol.energies[2]]),
        states=sol.states[:, :3],
        basis=sol.basis,
        k=3,
    )
    with pytest.raises(CoherenceError):
        relaxation_rates(OPERATING, default_channels(), solution=degenerate)


def test_charge_unit_convention_factor():
    ch = [NoiseChannel("charge_1f_phi", 1e-4)]
    cp = relaxation_rates(OPERATING.with_alpha(0.6), ch,
                          conventions=RateConventions(charge_units="cooper_pair"))
    e = relaxation_rates(OPERATING.with_alpha(0.6), ch,
                         conventions=RateConventions(charge_units="electron"))
    assert cp.gamma1_total / e.gamma1_total == pytest.approx(4.0, rel=1e-12)


def test_si_convention_scale():
    conv_paper = RateConventions(rate_scale="paper")
    conv_si = RateConventions(rate_scale="si")
    a = relaxation_rates(OPERATING, default_channels(), conventions=conv_paper)
    b = relaxation_rates(OPERATING, default_channels(), conventions=conv_si)
    assert a.gamma1_total / b.gamma1_total == pytest.approx(
        2 * (2 * math.pi) ** 3, rel=1e-12
    )


@pytest.mark.parametrize("alpha", [1.0, 0.7])
def test_coth_half_convention_factor(alpha):
    # the dielectric thermal factor coth(x) + 1, x = omega_q / (k_B T / h),
    # becomes coth(x/2) + 1; no other channel depends on the convention
    spec = OPERATING.with_alpha(alpha)
    printed = coherence_report(spec, conventions=RateConventions(coth_half=False))
    half = coherence_report(spec, conventions=RateConventions(coth_half=True))
    x = qubit_params(qubit_eigensolution(spec, 3)).omega_q / (KT_GHZ_PER_K * Environment().temperature)
    expected = (1.0 / math.tanh(x / 2) + 1.0) / (1.0 / math.tanh(x) + 1.0)
    ratio = half.gamma1_by_channel["dielectric"] / printed.gamma1_by_channel["dielectric"]
    assert ratio == pytest.approx(expected, rel=1e-12)
    assert ratio > 1.4  # the half-argument convention is not a small correction here
    for name in printed.gamma1_by_channel.keys() - {"dielectric"}:
        assert half.gamma1_by_channel[name] == printed.gamma1_by_channel[name]
    assert half.gammaphi_by_channel == printed.gammaphi_by_channel


def test_dephasing_only_from_1f_channels():
    rep = dephasing_rates(OPERATING, default_channels())
    assert rep.gammaphi_by_channel["dielectric"] == 0.0
    assert rep.gammaphi_by_channel["charge_ohmic_phi"] == 0.0
    assert rep.gammaphi_by_channel["flux_1f"] > 0.0


def test_dephasing_rate_from_slope_formula():
    env = Environment()
    slope, amp = 15.0, 1e-6
    rate = dephasing_rate_from_slope(slope, amp, env)
    expected = (
        math.sqrt(2 * (2 * math.pi * amp**2)
                  * (2 * math.pi * slope * 1e9) ** 2
                  * abs(math.log(env.ir_cutoff_product))) * 1e-9
    )
    assert rate == pytest.approx(expected, rel=1e-12)


def test_decay_fidelity_constant_rate():
    # Gamma = 1/519 us^-1 over 1 us -> F = 0.99808
    t = np.linspace(0.0, 1000.0, 101)  # ns
    g = np.full_like(t, 1.0 / (519e3))  # 1/ns
    assert decay_integrated_fidelity(t, g) == pytest.approx(0.99808, abs=5e-5)


def test_decay_fidelity_zero_rate():
    t = np.linspace(0, 100, 11)
    assert decay_integrated_fidelity(t, np.zeros_like(t)) == 1.0


def test_decay_fidelity_rejects_negative():
    t = np.linspace(0, 10, 5)
    with pytest.raises(CoherenceError):
        decay_integrated_fidelity(t, [-1e-6, 0, 0, 0, 0])
    with pytest.raises(CoherenceError):
        decay_integrated_fidelity([0, 2, 1], [0, 0, 0])


@hyp_settings(max_examples=30, deadline=None)
@given(st.floats(min_value=1e-8, max_value=1e-3), st.floats(min_value=1.0, max_value=500.0))
def test_decay_fidelity_matches_exponential(rate, duration):
    t = np.linspace(0, duration, 37)
    g = np.full_like(t, rate)
    f = decay_integrated_fidelity(t, g)
    assert 0.0 < f <= 1.0
    assert f == pytest.approx(math.exp(-rate * duration), rel=1e-9)


def test_empty_channel_list_rejected():
    with pytest.raises(CoherenceError):
        relaxation_rates(OPERATING, [])


def test_unknown_channel_rejected():
    with pytest.raises(CoherenceError):
        NoiseChannel("sparkle", 1.0)
    with pytest.raises(CoherenceError):
        NoiseChannel("flux_1f", -1.0)
