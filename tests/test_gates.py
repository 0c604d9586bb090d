import math
from dataclasses import replace

import numpy as np
import pytest

from dsfq import gates
from dsfq.circuit import CircuitSpec, CoupledSpec, Variant
from dsfq.evolve import PropagationSettings, TwoQubitFrame, _computational_levels
from dsfq.spectrum import qubit_eigensolution
from dsfq.gates import (
    GateError,
    _z_dressing,
    effective_couplings,
    fsim_decompose,
    fsim_unitary,
    gate_fidelity,
    run_two_qubit_gate,
    zz_strength,
)


def q_node(cutoff=6):
    return CircuitSpec(variant=Variant.NODE_BASIS, ej=10.0, ec=0.1, alpha=1.0,
                       phi_ext=0.99 * math.pi, cutoff=cutoff)


def random_unitary(d, seed):
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.mark.parametrize("theta, phi", [(0.3, 0.7), (1.2, -2.5), (0.0, 0.4), (0.5 * math.pi, 1.0)])
def test_fsim_decompose_recovers_angles(theta, phi):
    got_theta, got_phi, residual, info = fsim_decompose(fsim_unitary(theta, phi))
    assert got_theta == pytest.approx(theta, abs=1e-12)
    assert got_phi == pytest.approx(phi, abs=1e-12)
    assert residual < 1e-10
    assert info["fidelity_up_to_z"] == 1.0 - residual


def test_up_to_z_fidelity_invariant_under_z_dressing():
    u = random_unitary(4, 3)
    target = fsim_unitary(0.3, 0.7)
    base = gate_fidelity(u, target, "up_to_z")
    assert base > gate_fidelity(u, target, "plain")
    for seed in range(3):
        pre, post = _z_dressing(4, np.random.default_rng(seed).uniform(0, 2 * math.pi, 4))
        assert gate_fidelity(post @ u @ pre, target, "up_to_z") == pytest.approx(base, abs=1e-9)


def test_zz_vanishes_without_coupling():
    q = q_node()
    detuned = CircuitSpec(variant=Variant.NODE_BASIS, ej=10.5, ec=0.1, alpha=1.0,
                          phi_ext=0.99 * math.pi, cutoff=6)
    zeta, info = zz_strength(CoupledSpec(q, detuned, cg_ratio=0.0), 0.8, 0.9)
    assert abs(zeta) < 1e-10
    assert info["min_overlap"] == pytest.approx(1.0, abs=1e-12)
    coupled, _ = zz_strength(CoupledSpec(q, detuned, cg_ratio=0.3), 0.8, 0.9)
    assert abs(coupled) > 1e3 * abs(zeta)


def test_effective_couplings_vanish_without_coupling():
    # Uncoupled, the product levels are the bare qubit levels: no exchange,
    # no ZZ, and each qubit's frequency is its own E1 - E0.
    q = q_node()
    detuned = replace(q, ej=10.5)
    uncoupled = CoupledSpec(q, detuned, cg_ratio=0.0)
    omega1, omega2, g_xy, g_z, info = effective_couplings(uncoupled, 0.8, m=6)
    assert g_xy == 0.0
    assert abs(g_z) < 1e-12
    assert info["model_valid"] and info["residual"] == 0.0
    for omega, spec in ((omega1, q), (omega2, detuned)):
        e = qubit_eigensolution(spec.with_alpha(0.8), 2,
                                charging_scale=uncoupled.charging_scale).energies
        assert omega == pytest.approx(e[1] - e[0], abs=1e-10)
    assert effective_couplings(CoupledSpec(q, detuned, cg_ratio=0.3), 0.8, m=6)[2] > 1e-3


def test_two_qubit_gate_scores_with_the_decomposition_fit(monkeypatch):
    # without a target, the score is the up-to-z fit fsim_decompose already
    # ran, bit for bit, and that fit runs once per gate
    calls = []
    original = gates.gate_fidelity

    def counting(u, target, mode="plain"):
        calls.append(mode)
        return original(u, target, mode)

    monkeypatch.setattr(gates, "gate_fidelity", counting)
    coupled = CoupledSpec(q_node(), q_node(), cg_ratio=0.3)
    settings = PropagationSettings(steps_per_ns=50, alpha_grid=5e-3, sample_interval_ns=5.0)
    rep = run_two_qubit_gate(coupled, 20.0, 5.0, settings)
    assert calls == ["up_to_z"]
    assert rep.coherent_fidelity == original(rep.unitary, fsim_unitary(*rep.fsim), "up_to_z")
    assert rep.coherent_fidelity == 1.0 - rep.extras["fsim_residual"]
    target = fsim_unitary(0.0, 0.0)
    scored = run_two_qubit_gate(coupled, 20.0, 5.0, settings, target=target)
    assert scored.coherent_fidelity == original(scored.unitary, target, "up_to_z")


def test_detuned_pair_decays_like_the_identical_pair():
    # Both qubits of a pair are scored with the same noise channels, so
    # detuning one by a hair leaves the integrated decay where it was.
    settings = PropagationSettings(steps_per_ns=50, alpha_grid=5e-3, sample_interval_ns=5.0)
    q = q_node()
    decay = [
        -math.log(run_two_qubit_gate(CoupledSpec(q, q2, cg_ratio=0.3), 20.0, 5.0,
                                     settings).t1_limited_fidelity)
        for q2 in (q, replace(q, ej=q.ej * (1.0 + 1e-9)))
    ]
    assert decay[1] == pytest.approx(decay[0], rel=1e-6)
    # a detuned pair takes one interpolator per qubit
    with pytest.raises(GateError, match="gamma1 holds 0 interpolators for 2 qubits"):
        run_two_qubit_gate(CoupledSpec(q, replace(q, ej=10.5)), 20.0, 5.0, settings, gamma1=())


@pytest.mark.parametrize("ej2", [10.0, 10.5])
def test_zz_strength_matches_the_frame_spectrum(ej2):
    # zz_strength and the two-qubit frame diagonalize the same coupled pair
    # by separate code; with the same level assignment they agree.
    q = q_node()
    coupled = CoupledSpec(q, replace(q, ej=ej2), cg_ratio=0.3)
    m = 6
    frame = TwoQubitFrame(coupled, PropagationSettings(per_qubit_m=m, subspace_k=12))
    for alpha in (1.0, 0.9, 0.8):
        zeta, info = zz_strength(coupled, alpha, alpha, m=m)
        node = frame.node(alpha)
        picked, _ = _computational_levels(node["w"], m)
        # an identical pair's 01/10 doublet may come out in either order
        assert sorted(info["levels"]) == sorted(picked.tolist())
        e00, e01, e10, e11 = node["e"][picked]
        assert zeta == pytest.approx(e00 - e01 - e10 + e11, abs=1e-12)
