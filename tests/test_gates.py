import functools
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from dsfq import coherence, evolve, gates
from dsfq.circuit import CircuitSpec, CoupledSpec, Variant, build_hamiltonian, build_operator
from dsfq.coherence import default_channels, relaxation_rates
from dsfq.evolve import (
    AlphaProfile,
    DrivePulse,
    PropagationSettings,
    TwoQubitFrame,
    _computational_levels,
)
from dsfq.spectrum import diagonalize, qubit_eigensolution
from dsfq.gates import (
    GateError,
    Gamma1Interpolator,
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


def z_dressing(angles):
    """pre and post z rotations, one angle per qubit each, pre angles first."""
    turns = [np.diag([1.0, np.exp(1j * a)]) for a in angles]
    half = len(turns) // 2
    return functools.reduce(np.kron, turns[:half]), functools.reduce(np.kron, turns[half:])


def nelder_mead_up_to_z(u, target):
    """Reference up-to-z fidelity: the best of Nelder-Mead searches from
    zero and from 11 seeded random points of the phase torus."""
    n = 2 if u.shape[0] == 2 else 4

    def negative(angles):
        pre, post = z_dressing(angles)
        return -gate_fidelity(post @ u @ pre, target)

    rng = np.random.default_rng(7)
    starts = [np.zeros(n)] + [rng.uniform(0, 2 * math.pi, n) for _ in range(11)]
    options = {"xatol": 1e-10, "fatol": 1e-13, "maxiter": 4000}
    return min(1.0, max(-scipy.optimize.minimize(negative, x0, method="Nelder-Mead",
                                                 options=options).fun for x0 in starts))


# one gate of the two_qubit_map benchmark (seed 3, identical pair), rounded
BENCHMARK_GATE = np.array([
    [-0.95943 - 0.28161j, 0.00893 + 0.00197j, 0.00893 + 0.00197j, -0.00012 + 0.00015j],
    [0.00893 + 0.00197j, 0.98115 + 0.18825j, 0.00772 - 0.04071j, -0.00951 - 0.00116j],
    [0.00893 + 0.00197j, 0.00772 - 0.04071j, 0.98115 + 0.18825j, -0.00951 - 0.00116j],
    [-0.00012 + 0.00015j, -0.00951 - 0.00116j, -0.00951 - 0.00116j, -0.99536 - 0.09501j],
])


def up_to_z_battery():
    rng = np.random.default_rng(11)
    cases = []
    for _ in range(4):
        fsim = fsim_unitary(rng.uniform(0, 0.5 * math.pi), rng.uniform(-math.pi, math.pi))
        pre, post = z_dressing(rng.uniform(0, 2 * math.pi, 4))
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        kick = scipy.linalg.expm(-0.1j * (g + g.conj().T))
        cases += [
            (post @ kick @ fsim @ pre, fsim),
            (post @ fsim @ pre, fsim),
            (random_unitary(4, rng), fsim),
            (random_unitary(4, rng), random_unitary(4, rng)),
            (random_unitary(2, rng), random_unitary(2, rng)),
        ]
    # exact one-angle sweeps from the zero start alone stay 2.2e-3 short here
    pre, post = z_dressing([3.4192, 4.9016, 1.9013, 5.0068])
    hard = fsim_unitary(1.5213, 0.0268)
    return cases + [
        (post @ hard @ pre, hard),
        (fsim_unitary(0.5 * math.pi, 0.0), fsim_unitary(0.5 * math.pi, 0.7)),  # full swap
        (np.eye(4), np.eye(4)),
        (np.eye(2), np.eye(2)),
        (BENCHMARK_GATE, fsim_unitary(0.04145, -0.00153)),
    ]


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
        pre, post = z_dressing(np.random.default_rng(seed).uniform(0, 2 * math.pi, 4))
        assert gate_fidelity(post @ u @ pre, target, "up_to_z") == pytest.approx(base, abs=1e-12)


def test_up_to_z_fit_reaches_the_nelder_mead_reference():
    # the exact fit is never below the seeded multi-start search and never
    # above 1, on every class of input it meets
    cases = up_to_z_battery()
    assert len(cases) >= 24
    for u, target in cases:
        got = gate_fidelity(u, target, "up_to_z")
        assert nelder_mead_up_to_z(u, target) - 1e-12 <= got <= 1.0 + 1e-12


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
    # zz_strength and the two-qubit frame take each qubit's levels from the
    # same helper, but assemble and diagonalize the coupled pair each on
    # their own; with the same level assignment they agree.
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


@pytest.mark.parametrize("spec, alpha_lo, charging_scale", [
    # the driven gate's window [0.7, 1], on an even sector of 221 states
    (CircuitSpec(ej=10.0, ec=0.1, phi_ext=0.995 * math.pi, cutoff=10), 0.7, 1.0),
    # a T_a = 20 ns two-qubit gate's window, on 169 node-basis states
    (q_node(), AlphaProfile.two_qubit(20.0, 0.0).alpha_min,
     CoupledSpec(q_node(), q_node()).charging_scale),
], ids=["single_loop", "node_basis"])
def test_gamma1_rates_from_the_engine_match_dense_solves(monkeypatch, spec, alpha_lo,
                                                         charging_scale):
    dense_solves = []
    solve = evolve.qubit_eigensolution

    def counting(*args, **kwargs):
        dense_solves.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(evolve, "qubit_eigensolution", counting)
    gamma1 = Gamma1Interpolator(spec, alpha_lo, charging_scale=charging_scale)
    # the grid is solved in the engine's reduced basis: its snapshots and
    # midpoint checks take fewer dense solves than the grid has points
    assert 0 < len(dense_solves) < len(gamma1.alphas)
    # the reference builds full-basis operators at alpha, at the charging scale
    reference = []
    channels = default_channels()
    for a in gamma1.alphas:
        spec_a = spec.with_alpha(float(a))
        sol = qubit_eigensolution(spec_a, 3, charging_scale=charging_scale)
        operators = coherence._noise_operators(spec_a, [ch.kind for ch in channels],
                                               charging_scale)
        elements = coherence._level_elements(operators, sol, (0, 1))
        reference.append(relaxation_rates(spec_a, channels, solution=sol,
                                          _elements=elements).gamma1_total)
    assert np.abs(gamma1.rates / np.array(reference) - 1.0).max() < 1e-10
    # a caller's k = 8 window over the range serves the rates as it is, from
    # the charge-basis engine of a driven gate and from the real working
    # basis that the two-qubit frames use
    for real in (False, True):
        engine = evolve._CircuitEngine(spec, charging_scale, real=real)
        assert engine.real is real
        engine.set_window(alpha_lo, 1.0, 8, 1000)
        window = engine._window
        assert window is not None
        shared = Gamma1Interpolator(spec, alpha_lo, charging_scale=charging_scale,
                                    _engine=engine)
        assert engine._window is window and engine.fallbacks == 0
        assert np.abs(shared.rates / np.array(reference) - 1.0).max() < 1e-10


@pytest.mark.parametrize("spec", [
    CircuitSpec(ej=10.0, ec=0.1, phi_ext=0.995 * math.pi, cutoff=6), q_node(5),
], ids=["single_loop", "node_basis"])
def test_noise_operators_scale_with_alpha_as_the_rates_assume(spec):
    # Gamma1Interpolator builds the operators once, at alpha = 1
    unit = {kind: build_operator(kind, spec.with_alpha(1.0)).matrix
            for kind in ("dH_dphi_ext", "dH_dng_phi", "dH_dng_theta", "phi_grid")}
    for alpha in (0.5, 0.7, 0.93):
        for kind, op in unit.items():
            scale = alpha if kind == "dH_dphi_ext" else 1.0
            at_alpha = build_operator(kind, spec.with_alpha(alpha)).matrix
            assert np.abs(at_alpha - scale * op).max() <= 1e-15 * np.abs(op).max()


@pytest.mark.parametrize("kind", ["dH_dng_phi", "dH_dng_theta"])
def test_charge_noise_operators_follow_the_charging_scale(kind):
    # A coupled qubit's charging term is 4*EC*(s*(n1 - ng1)^2 + (n2 - ng2)^2),
    # s = charging_scale; its offset-charge derivative is taken at that s.
    # H is quadratic in ng, so a central difference is exact up to rounding.
    q = replace(q_node(), ng_phi=0.1, ng_theta=-0.2)
    scale = CoupledSpec(q, q, cg_ratio=0.3).charging_scale
    field, step = kind.removeprefix("dH_d"), 1e-3
    h_up, h_down = (build_hamiltonian(replace(q, **{field: getattr(q, field) + d}),
                                      charging_scale=scale).matrix for d in (step, -step))
    difference = (h_up - h_down) / (2.0 * step)
    op = build_operator(kind, q, charging_scale=scale).matrix
    assert np.abs(op - difference).max() < 1e-9 * np.abs(op).max()
    # the unscaled derivative misses by more than 5% of its size
    assert np.abs(build_operator(kind, q).matrix - difference).max() > 0.05 * np.abs(op).max()


def test_frame_range_covers_its_lowest_alpha_and_keeps_the_window():
    # alpha_lo lies 0.57 of a grid step above node 168. The frame builds
    # down to that node, so the rate grid [alpha_lo, 1] fits the window of
    # the frame's engine and energies(alpha_lo) builds nothing more; a
    # request that builds no basis leaves that window in place.
    q = q_node()
    coupled = CoupledSpec(q, q, cg_ratio=0.3)
    frame = TwoQubitFrame(coupled, PropagationSettings(alpha_grid=5e-3, per_qubit_m=6,
                                                       subspace_k=12))
    alpha_lo = AlphaProfile.two_qubit(22.0, 0.0).alpha_min
    assert alpha_lo / frame.grid == pytest.approx(168.57, abs=1e-2)
    frame.ensure_range(alpha_lo)
    assert min(frame._nodes) == 168
    (engine,) = frame.engines.values()
    window = engine._window
    assert window is not None and window.lo <= alpha_lo
    Gamma1Interpolator(q, alpha_lo, charging_scale=coupled.charging_scale, _engine=engine)
    assert engine._window is window
    frame.energies(alpha_lo)
    assert len(frame._nodes) == 200 - 168 + 1
    engine.set_window(0.6, 0.6, 6, 1)
    assert engine._window is window and engine.fallbacks == 0


def test_calibration_scan_shares_one_engine(monkeypatch):
    # Called on its own, calibrate_drive builds one engine for its plateau
    # solve, its rates and every scan gate. Here a stand-in scores the scan,
    # its fidelity peaked at the seed amplitude.
    spec = CircuitSpec(ej=10.0, ec=0.1, phi_ext=0.995 * math.pi, cutoff=6)
    profile = AlphaProfile.single_qubit(ramp_ns=2.0, plateau_ns=4.0)
    template = DrivePulse(amplitude=0.0, carrier_freq=0.4, ramp_ns=1.0, flat_ns=2.0,
                          t_start=2.0)
    seed = gates.calibrate_drive(spec, profile, template, math.pi).amplitude
    splits, scan = [], []
    split = evolve.hamiltonian_decomposition

    def counting(*args, **kwargs):
        splits.append(args)
        return split(*args, **kwargs)

    def scored(spec, profile, pulse, target, settings, gamma1=None, *, _engine=None):
        scan.append((_engine, gamma1))
        return SimpleNamespace(coherent_fidelity=1.0 - (pulse.amplitude / seed - 1.0) ** 2)

    monkeypatch.setattr(evolve, "hamiltonian_decomposition", counting)
    monkeypatch.setattr(gates, "run_single_qubit_gate", scored)
    pulse = gates.calibrate_drive(spec, profile, template, math.pi, target=gates.SIGMA_X,
                                  settings=PropagationSettings(steps_per_ns=50))
    assert pulse.amplitude == pytest.approx(seed, rel=1e-12)
    assert len(splits) == 1 and len(scan) == 7
    assert scan[0][0] is not None and scan[0][1] is not None
    assert all(engine is scan[0][0] and rates is scan[0][1] for engine, rates in scan)


@pytest.mark.parametrize("peak", [1.2, 0.75])
def test_calibration_scan_extends_past_its_end_to_the_maximum(monkeypatch, peak):
    # A stand-in fidelity peaked outside the +-5% scan: the scan extends by
    # its own step past the end that holds the best score until it brackets
    # the peak, and the parabola lands on it. A score that keeps rising
    # past MAX_SCAN_EXTENSIONS extensions raises a GateError naming them.
    spec = CircuitSpec(ej=10.0, ec=0.1, phi_ext=0.995 * math.pi, cutoff=6)
    profile = AlphaProfile.single_qubit(ramp_ns=2.0, plateau_ns=4.0)
    template = DrivePulse(amplitude=0.0, carrier_freq=0.4, ramp_ns=1.0, flat_ns=2.0,
                          t_start=2.0)
    seed = gates.calibrate_drive(spec, profile, template, math.pi).amplitude
    scan = []

    def scored(spec, profile, pulse, target, settings, gamma1=None, *, _engine=None):
        scan.append(pulse.amplitude / seed)
        return SimpleNamespace(coherent_fidelity=1.0 - (scan[-1] - peak) ** 2)

    monkeypatch.setattr(gates, "run_single_qubit_gate", scored)
    settings = PropagationSettings(steps_per_ns=50)
    pulse = gates.calibrate_drive(spec, profile, template, math.pi, target=gates.SIGMA_X,
                                  settings=settings)
    assert pulse.amplitude == pytest.approx(peak * seed, rel=1e-9)
    step = 0.1 / 6
    extensions = math.ceil((abs(peak - 1.0) - 0.05) / step - 1e-9) + 1
    assert len(scan) == 7 + extensions
    assert np.allclose(np.diff(sorted(scan)), step, rtol=1e-9)
    monkeypatch.setattr(gates, "run_single_qubit_gate",
                        lambda *args, **kwargs: SimpleNamespace(
                            coherent_fidelity=args[2].amplitude / seed))
    with pytest.raises(GateError, match=f"after {gates.MAX_SCAN_EXTENSIONS} extensions"):
        gates.calibrate_drive(spec, profile, template, math.pi, target=gates.SIGMA_X,
                              settings=settings)


def test_gate_scores_in_the_charge_basis_gauge_in_either_engine_basis():
    # A gate's 2x2 map is scored in its alpha = 1 states, whose phases fix
    # the axes the target names; an eigensolver in another basis sets other
    # phases and moves the score. The gate's engine solves in the real basis
    # but takes those states from a complex charge-basis solve, so it scores
    # the gate as a charge-basis engine with the same window does.
    spec = CircuitSpec(ej=10.0, ec=0.1, phi_ext=0.995 * math.pi, cutoff=10)
    profile = AlphaProfile.single_qubit(ramp_ns=2.0, plateau_ns=4.0)
    settings = PropagationSettings(steps_per_ns=50)

    def gate(spec, engine):
        levels = qubit_eigensolution(spec.with_alpha(profile.alpha_min), 2).energies
        template = DrivePulse(amplitude=0.0, carrier_freq=0.979 * (levels[1] - levels[0]),
                              ramp_ns=1.0, flat_ns=2.0, t_start=2.0)
        pulse = gates.calibrate_drive(spec, profile, template, math.pi)
        return gates.run_single_qubit_gate(spec, profile, pulse, gates.SIGMA_X, settings,
                                           _engine=engine)

    real = gates._gate_engine(spec, profile, settings)
    charge = evolve._CircuitEngine(spec)
    evolve._propagation_window(charge, profile, settings)
    assert real.real and not charge.real
    ours, theirs = (gate(spec, engine) for engine in (real, charge))
    for engine in (real, charge):
        k = engine._window.k + evolve.SNAPSHOT_PAD
        sol = diagonalize(build_hamiltonian(spec.with_alpha(1.0)), k, sector="even")
        states = sol.states[engine.indices, :2]
        np.testing.assert_array_equal(engine.charge_gauge_states(1.0, 2), states)
    np.testing.assert_allclose(ours.extras["raw_map"], theirs.extras["raw_map"], rtol=0, atol=1e-12)
    np.testing.assert_allclose(ours.extras["trajectory"].spectral_weights,
                               theirs.extras["trajectory"].spectral_weights, rtol=0, atol=1e-12)
    for name in ("coherent_fidelity", "leakage", "t1_limited_fidelity"):
        assert abs(getattr(ours, name) - getattr(theirs, name)) < 1e-12, name
    # off ng = 0 the charge inversion is no symmetry: the gate's engine stays
    # in the charge basis and still makes a gate
    offset = replace(spec, ng_theta=0.05)
    engine = gates._gate_engine(offset, profile, settings)
    assert not engine.real
    assert gate(offset, engine).leakage < 0.05


def test_rates_outside_their_grid_are_an_error():
    # rates built for a T_a = 20 ns gate do not reach the lower barrier of a
    # T_a = 40 ns gate, and are not extrapolated to it
    q = q_node()
    coupled = CoupledSpec(q, q, cg_ratio=0.3)
    short = Gamma1Interpolator(q, AlphaProfile.two_qubit(20.0, 0.0).alpha_min,
                               charging_scale=coupled.charging_scale)
    assert np.array_equal(short(short.alphas), short.rates)
    for alpha in (short.alphas[0] - 1e-9, 1.0 + 1e-9):
        with pytest.raises(GateError, match="leaves the rate grid"):
            short(alpha)
    settings = PropagationSettings(steps_per_ns=50, alpha_grid=5e-3, sample_interval_ns=5.0)
    with pytest.raises(GateError, match="leaves the rate grid"):
        run_two_qubit_gate(coupled, 40.0, 5.0, settings, gamma1=(short,))
