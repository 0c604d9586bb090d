import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from dsfq import circuit, evolve, spectrum
from dsfq.circuit import (
    CircuitSpec,
    CoupledSpec,
    Variant,
    _parts,
    build_hamiltonian,
    build_operator,
    charge_inversion_basis,
    hamiltonian_decomposition,
    physical_sector_indices,
)
from dsfq.evolve import (
    AlphaProfile,
    DrivePulse,
    PropagationError,
    PropagationSettings,
    TwoQubitFrame,
    propagate_state,
    propagate_subspace_unitary,
)
from dsfq.gates import _computational_block, _coupled_hamiltonian
from dsfq.spectrum import qubit_eigensolution

SPEC = CircuitSpec(ej=10.0, ec=0.1, alpha=1.0, phi_ext=0.995 * math.pi, cutoff=12)
FAST = PropagationSettings(steps_per_ns=64, sample_interval_ns=0.5)


def q_node():
    return CircuitSpec(variant=Variant.NODE_BASIS, ej=10.0, ec=0.1, alpha=1.0,
                       phi_ext=0.99 * math.pi, cutoff=9)


def rk4_reference(spec, profile, pulse, psi0, steps_per_ns):
    """Final state of classic RK4 steps through the full-basis
    H(t) = h0 + alpha(t)*h1 + drive(t)*n1, built from the circuit module
    alone (h0 and h1 converted to CSR by scipy for speed): it shares
    neither the sector nor the CSR data of the engine. The steps take
    H - E_ref, with E_ref the lowest level at the start, and its phase is
    restored in closed form."""
    h0, h1 = (scipy.sparse.csr_matrix(h) for h in hamiltonian_decomposition(spec))
    n1 = np.diag(build_operator("n1", spec).matrix)
    e_ref = qubit_eigensolution(spec.with_alpha(profile.alpha(profile.t_start)), 1).energies[0]
    n_steps = max(1, round(profile.duration * steps_per_ns))
    dt = profile.duration / n_steps

    def deriv(t, y):
        drive = pulse.coefficient(t) if pulse is not None else 0.0
        return -2j * math.pi * (h0 @ y + profile.alpha(t) * (h1 @ y) + (drive * n1 - e_ref) * y)

    psi, t = np.asarray(psi0, dtype=complex), profile.t_start
    for _ in range(n_steps):
        k1 = deriv(t, psi)
        k2 = deriv(t + 0.5 * dt, psi + 0.5 * dt * k1)
        k3 = deriv(t + 0.5 * dt, psi + 0.5 * dt * k2)
        k4 = deriv(t + dt, psi + dt * k3)
        psi = psi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += dt
    return np.exp(-2j * math.pi * e_ref * profile.duration) * psi


# ---------------------------------------------------------------------------
# schedules and pulses


def test_profile_validation():
    with pytest.raises(PropagationError):
        AlphaProfile(((0.0, 1.0, 1.0, 0.7), (1.5, 2.0, 0.7, 1.0)))  # gap
    with pytest.raises(PropagationError):
        AlphaProfile(((0.0, 1.0, 1.0, 0.3),))  # below range
    with pytest.raises(PropagationError):
        AlphaProfile(((1.0, 1.0, 1.0, 1.0),))  # zero length
    prof = AlphaProfile.single_qubit()
    assert prof.duration == pytest.approx(25.0)
    assert prof.is_gate_schedule()
    assert prof.alpha(0.0) == 1.0
    assert prof.alpha(10.0) == pytest.approx(0.7)
    assert prof.alpha(25.0) == 1.0


def test_two_qubit_profile_alpha_min():
    prof = AlphaProfile.two_qubit(70.0, 5.0)
    assert prof.alpha_min == pytest.approx(0.5)
    assert prof.duration == pytest.approx(75.0)
    with pytest.raises(PropagationError):
        AlphaProfile.two_qubit(90.0, 0.0)


def test_pulse_envelope_and_area():
    pulse = DrivePulse(amplitude=0.2, carrier_freq=0.4, ramp_ns=1.5, flat_ns=8.0,
                       t_start=7.0)
    assert pulse.envelope(7.0) == 0.0
    assert pulse.envelope(7.0 + 1.5) == pytest.approx(0.2)
    assert pulse.envelope(12.0) == pytest.approx(0.2)
    assert pulse.envelope(18.0) == 0.0
    ts = np.linspace(6.9, 18.1, 20001)
    # with no flat top the two ramps meet; a negative flat top is refused
    for pulse in (pulse, replace(pulse, flat_ns=0.0)):
        area = np.trapezoid([pulse.envelope(t) for t in ts], ts)
        assert area == pytest.approx(pulse.envelope_area(), rel=1e-4)
    with pytest.raises(PropagationError, match="flat top"):
        replace(pulse, flat_ns=-1.0)


def test_settings_validation():
    with pytest.raises(PropagationError):
        PropagationSettings(steps_per_ns=20)
    for grid in (None, 0.0, -1e-3, float("nan")):
        with pytest.raises(PropagationError, match="alpha_grid"):
            PropagationSettings(alpha_grid=grid)
    for interval in (0, -1, float("nan"), float("inf")):
        with pytest.raises(PropagationError, match="sample_interval_ns"):
            PropagationSettings(sample_interval_ns=interval)


# ---------------------------------------------------------------------------
# single-circuit propagation


def test_stationary_state_is_stationary():
    # CF4 steps at constant alpha reproduce the exact evolution
    # exp(-2*pi*i*E0*t)|0>, phase included.
    sol = qubit_eigensolution(SPEC, 3)
    traj = propagate_state(SPEC, AlphaProfile.constant(1.0, 4.0), None,
                           sol.state(0), FAST)
    for t, state in zip(traj.times, traj.states):
        assert abs(abs(np.vdot(sol.state(0), state)) - 1.0) < 1e-8
        exact = np.exp(-2j * math.pi * sol.energies[0] * t) * sol.state(0)
        assert np.linalg.norm(state - exact) < 1e-10


def test_expi_apply_matches_dense_expm(monkeypatch):
    # One half step of a two-column block against the dense exponential, at
    # several (alpha, drive): the half steps of 857 and of MIN_STEPS_PER_NS
    # steps per ns, and longer ones that the sum cuts into substeps. Random
    # columns fill the whole spectrum, so the tail bound is nearly reached;
    # the error stays below TAYLOR_TOL per substep. The reference H comes
    # from the circuit module, restricted to the sector, not from the engine.
    # An engine in the real basis, which this ng = 0 circuit picks, takes
    # and returns charge-basis vectors as a charge-basis engine does: its
    # generator is the charge-basis one.
    spec = replace(SPEC, cutoff=5)
    sector = physical_sector_indices(spec.basis, 0)
    h0, h1 = (h[np.ix_(sector, sector)] for h in hamiltonian_decomposition(spec))
    n1 = np.diag(build_operator("n1", spec).matrix)[sector]
    rng = np.random.default_rng(5)
    psi = rng.normal(size=(sector.size, 2)) + 1j * rng.normal(size=(sector.size, 2))
    psi /= np.linalg.norm(psi, axis=0)
    substeps = set()
    with monkeypatch.context() as m:  # the charge-basis engine of a failed C*K test
        m.setattr(evolve, "_symmetry_blocks", lambda parts, parity: None)
        charge = evolve._CircuitEngine(spec)
    real = evolve._CircuitEngine(spec)
    assert real.real and not charge.real
    for engine in (charge, real):
        np.testing.assert_array_equal(engine.indices, sector)
        for alpha, drive in ((1.0, 0.0), (0.7, 0.4), (0.85, -1.0)):
            shift = float(qubit_eigensolution(spec.with_alpha(alpha), 1).energies[0])
            h = h0 + alpha * h1 + np.diag(drive * n1 - shift)
            for dt in (0.5 / 857, 0.5 / evolve.MIN_STEPS_PER_NS, 0.05, 0.12):
                nu = 2.0 * math.pi * dt * np.abs(h).sum(axis=0).max()
                s = math.ceil(nu / evolve.TAYLOR_SUBSTEP_NORM)
                substeps.add(s)
                exact = np.exp(-2j * math.pi * shift * dt) * (
                    scipy.linalg.expm(-2j * math.pi * dt * h) @ psi)
                error = np.linalg.norm(engine.expi_apply(alpha, drive, dt, psi, shift) - exact)
                assert error <= s * evolve.TAYLOR_TOL * np.linalg.norm(psi), (alpha, drive, dt)
    assert min(substeps) == 1 and max(substeps) >= 3


def test_csr_kernel_reproduces_the_sparse_product():
    # expi_apply calls scipy's private CSR multivector kernel, the one that
    # A @ X reaches after its dispatch; on a (dim, 2) block of the engine's
    # generator the direct call must give A @ X bit for bit.
    engine = evolve._CircuitEngine(replace(SPEC, cutoff=5))
    d0, d1 = engine._gen_data
    data = -2j * math.pi * 0.01 * (d0 + 0.8 * d1)
    data[engine._gen_diag] += 0.3 * engine._gen_n1
    a = scipy.sparse.csr_matrix((data, engine._gen_indices, engine._gen_indptr),
                                shape=(engine.dim, engine.dim))
    rng = np.random.default_rng(2)
    x = rng.normal(size=(engine.dim, 2)) + 1j * rng.normal(size=(engine.dim, 2))
    out = np.zeros_like(x)
    evolve.csr_matvecs(engine.dim, engine.dim, 2, engine._gen_indptr, engine._gen_indices,
                       data, x, out)
    np.testing.assert_array_equal(out, a @ x)
    # the kernel reads dim rows of every column, so a shorter state is refused
    with pytest.raises(PropagationError, match="rows"):
        engine.expi_apply(1.0, 0.0, 0.01, x[:-1], 0.0)


@pytest.mark.parametrize("spec", [replace(SPEC, cutoff=8), replace(q_node(), cutoff=6)],
                         ids=["single_loop", "node_basis"])
def test_generator_norm_is_exact_on_disjoint_patterns_and_a_bound_otherwise(spec):
    # expi_apply sizes its Taylor substeps by the 1-norm of h0 + alpha*h1
    # plus its diagonal, taken from off-diagonal column sums of |h0| and |h1|
    # kept once; h0 and h1 share no off-diagonal entry, so it is exact
    engine = evolve._CircuitEngine(spec)
    d0, d1 = engine._gen_data
    at = engine._gen_diag

    def exact(d0, d1, alpha, diag):
        a = d0 + alpha * d1
        a[at] = diag
        m = scipy.sparse.csr_array((a, engine._gen_indices, engine._gen_indptr),
                                   shape=(engine.dim, engine.dim))
        return np.abs(m.toarray()).sum(axis=0).max()

    cases = [(alpha, drive * engine._gen_n1 - shift)
             for alpha, drive, shift in ((1.0, 0.0, -12.4), (0.7, 0.3, -11.0), (0.43, -0.2, 0.0))]
    for alpha, extra in cases:
        diag = d0[at] + alpha * d1[at] + extra
        assert engine._generator_norm(alpha, diag) == pytest.approx(
            exact(d0, d1, alpha, diag), rel=1e-14, abs=0)
    # give h1 entries on h0's off-diagonal pattern, which partly cancel:
    # the kept sums then bound the norm from above
    rng = np.random.default_rng(4)
    mixed = d1 + (d0 != 0) * (rng.normal(size=d0.size) + 1j * rng.normal(size=d0.size))
    mixed[at] = d1[at]
    engine._gen_off = evolve._offdiagonal_column_sums(engine._gen_indices, at, (d0, mixed),
                                                      engine.dim)
    for alpha, extra in cases:
        diag = d0[at] + alpha * mixed[at] + extra
        bound, norm = engine._generator_norm(alpha, diag), exact(d0, mixed, alpha, diag)
        assert norm < bound < 2 * norm


def test_ramp_leakage_and_transition_scales():
    # 7 ns ramp 1 -> 0.7: leakage ~ 1e-4, inter-level transition ~ 1e-3
    sol = qubit_eigensolution(SPEC, 3)
    prof = AlphaProfile(((0.0, 7.0, 1.0, 0.7),))
    traj = propagate_state(SPEC, prof, None, sol.state(0), FAST)
    w = traj.spectral_weights[-1]
    transition = w[1]
    leak = 1.0 - w[0] - w[1]
    assert 1e-3 / 3 < transition < 1e-3 * 3
    assert 1e-4 / 3 < leak < 1e-4 * 3


def test_step_doubling_convergence():
    sol = qubit_eigensolution(SPEC, 3)
    prof = AlphaProfile.single_qubit()
    pulse = DrivePulse(amplitude=0.05, carrier_freq=0.38)
    t1 = propagate_state(SPEC, prof, pulse, sol.state(0),
                         PropagationSettings(steps_per_ns=64, sample_interval_ns=5.0))
    t2 = propagate_state(SPEC, prof, pulse, sol.state(0),
                         PropagationSettings(steps_per_ns=128, sample_interval_ns=5.0))
    deviation = np.linalg.norm(t1.final - t2.final)
    assert deviation < 1e-6


def test_integrator_agrees_with_exponential():
    # CF4 steps through the engine against the RK4 reference
    sol = qubit_eigensolution(SPEC, 3)
    prof = AlphaProfile(((0.0, 2.0, 1.0, 0.9),))
    a = propagate_state(SPEC, prof, None, sol.state(0),
                        PropagationSettings(steps_per_ns=512, sample_interval_ns=1.0))
    assert np.linalg.norm(a.final - rk4_reference(SPEC, prof, None, sol.state(0), 512)) < 1e-7


def test_time_reversal_round_trip():
    # adiabatic down-and-up returns the computational states to themselves
    sol = qubit_eigensolution(SPEC, 3)
    prof = AlphaProfile(((0.0, 7.0, 1.0, 0.7), (7.0, 14.0, 0.7, 1.0)))
    for j in (0, 1):
        traj = propagate_state(SPEC, prof, None, sol.state(j), FAST)
        overlap = abs(np.vdot(sol.state(j), traj.final))
        assert 1.0 - overlap < 1e-3  # population return; phase is dynamical


def test_spectral_weights_sum_to_one():
    sol = qubit_eigensolution(SPEC, 3)
    prof = AlphaProfile.single_qubit()
    traj = propagate_state(SPEC, prof, None, sol.state(0),
                           PropagationSettings(steps_per_ns=64, sample_interval_ns=1.0,
                                               spectral_k=10))
    sums = traj.spectral_weights.sum(axis=1)
    assert sums.min() > 1.0 - 1e-6


def test_norm_is_preserved():
    sol = qubit_eigensolution(SPEC, 3)
    pulse = DrivePulse(amplitude=0.17, carrier_freq=0.387)
    traj = propagate_state(SPEC, AlphaProfile.single_qubit(), pulse, sol.state(1), FAST)
    assert np.abs(traj.norms - 1.0).max() < 1e-8


@pytest.mark.parametrize("method, steps_per_ns", [("per_step_exponential", 64), ("integrator", 512)])
def test_block_matches_column_by_column(method, steps_per_ns):
    # CF4 on a block against CF4 on each column, and against the driven
    # RK4 reference of each column
    sol = qubit_eigensolution(SPEC, 3)
    prof = AlphaProfile(((0.0, 1.0, 1.0, 0.9), (1.0, 2.0, 0.9, 0.9), (2.0, 3.0, 0.9, 1.0)))
    pulse = DrivePulse(amplitude=0.05, carrier_freq=0.38, ramp_ns=0.2, flat_ns=0.4, t_start=1.1)
    settings = PropagationSettings(steps_per_ns=steps_per_ns, sample_interval_ns=0.25)
    both = propagate_state(SPEC, prof, pulse, sol.states[:, :2], settings)
    assert both.spectral_weights.shape == (len(both.times), settings.spectral_k, 2)
    assert both.norms.shape == (len(both.times), 2)
    if method == "integrator":
        for j in (0, 1):
            reference = rk4_reference(SPEC, prof, pulse, sol.state(j), steps_per_ns)
            assert np.linalg.norm(both.final[:, j] - reference) < 1e-7
        return
    for j in (0, 1):
        one = propagate_state(SPEC, prof, pulse, sol.state(j), settings)
        assert one.spectral_weights.shape == (len(one.times), settings.spectral_k)
        np.testing.assert_array_equal(one.times, both.times)
        np.testing.assert_array_equal(one.frame_phases, both.frame_phases)
        assert max(np.abs(a - b[:, j]).max() for a, b in zip(one.states, both.states)) < 1e-12
        assert np.abs(one.spectral_weights - both.spectral_weights[:, :, j]).max() < 1e-12
        assert np.abs(one.norms - both.norms[:, j]).max() < 1e-12


def test_sample_solves_fall_back_to_dense(monkeypatch):
    # A reduced-basis sample solve that fails its residual check is counted
    # and replaced by the dense solve, so the trajectory does not change.
    # Samples at a snapshot alpha take the snapshot's dense solution.
    sol = qubit_eigensolution(SPEC, 3)
    prof = AlphaProfile(((0.0, 2.0, 1.0, 0.9),))
    settings = PropagationSettings(steps_per_ns=64, sample_interval_ns=0.1)
    reference = propagate_state(SPEC, prof, None, sol.state(0), settings)
    reduced = evolve._CircuitEngine._reduced_lowest
    engines = []

    def off_by_a_little(self, alpha, k):
        engines.append(self)
        energies, states = reduced(self, alpha, k)
        return energies + 1e-3, states

    monkeypatch.setattr(evolve._CircuitEngine, "_reduced_lowest", off_by_a_little)
    fallback = propagate_state(SPEC, prof, None, sol.state(0), settings)
    snapshots = engines[0]._window.snapshots
    assert 1.0 in snapshots and 0.9 in snapshots
    # every other sample went to the basis first
    assert len(engines) == sum(prof.alpha(t) not in snapshots for t in reference.times)
    assert engines[0].fallbacks == len(engines)
    np.testing.assert_allclose(fallback.frame_energies, reference.frame_energies, rtol=0, atol=1e-12)
    assert np.abs(fallback.spectral_weights - reference.spectral_weights).max() < 1e-12
    assert max(np.abs(a - b).max() for a, b in zip(fallback.states, reference.states)) < 1e-12


def test_reduced_sample_solves_match_dense(monkeypatch):
    # The samples of a ramp go through the basis without a fallback and give
    # the trajectory of dense sample solves. A few samples build no basis,
    # nor do many in a sector too small for the basis to hold at most half
    # its states (cutoff 5: 61 states, 7 snapshots of 8 + 4 levels).
    sol = qubit_eigensolution(SPEC, 3)
    prof = AlphaProfile(((0.0, 2.0, 1.0, 0.9),))
    engines = []
    window = evolve._CircuitEngine.set_window

    def recording(self, lo, hi, k, solves):
        engines.append(self)
        window(self, lo, hi, k, solves)

    monkeypatch.setattr(evolve._CircuitEngine, "set_window", recording)
    few = propagate_state(SPEC, prof, None, sol.state(0), FAST)
    assert len(few.times) <= evolve._snapshot_count(0.1) and engines[-1]._window is None
    settings = PropagationSettings(steps_per_ns=64, sample_interval_ns=0.1)
    reduced = propagate_state(SPEC, prof, None, sol.state(0), settings)
    assert engines[-1]._window is not None and engines[-1].fallbacks == 0
    small = replace(SPEC, cutoff=5)
    propagate_state(small, prof, None, qubit_eigensolution(small, 3).state(0), settings)
    assert engines[-1].dim == 61 and engines[-1]._window is None
    monkeypatch.setattr(evolve._CircuitEngine, "set_window", lambda self, *args: None)
    dense = propagate_state(SPEC, prof, None, sol.state(0), settings)
    np.testing.assert_allclose(reduced.frame_energies, dense.frame_energies, rtol=0, atol=1e-12)
    assert np.abs(reduced.spectral_weights - dense.spectral_weights).max() < 1e-12


def test_initial_state_validation():
    with pytest.raises(PropagationError):
        propagate_state(SPEC, AlphaProfile.constant(1.0, 1.0), None,
                        np.ones(SPEC.basis.dim), FAST)


# ---------------------------------------------------------------------------
# two-qubit moving frame


@pytest.fixture(scope="module")
def coupled_frame():
    cpl = CoupledSpec(q_node(), q_node(), cg_ratio=0.3)
    settings = PropagationSettings(steps_per_ns=286, sample_interval_ns=2.0,
                                   alpha_grid=1e-3)
    frame = TwoQubitFrame(cpl, settings)
    frame.ensure_range(0.78)
    return cpl, settings, frame


def test_constant_alpha_unitary_is_diagonal_phases(coupled_frame):
    cpl, settings, frame = coupled_frame
    traj = propagate_subspace_unitary(cpl, AlphaProfile.constant(1.0, 2.5),
                                      settings, frame=frame)
    u = traj.final
    node = frame.node(1.0)
    expected = np.exp(-2j * math.pi * node["e"] * 2.5)
    assert np.abs(u - np.diag(np.diag(u))).max() < 1e-10
    assert np.abs(np.diag(u) - expected).max() < 1e-9


def test_unitarity_at_samples(coupled_frame):
    cpl, settings, frame = coupled_frame
    traj = propagate_subspace_unitary(cpl, AlphaProfile.two_qubit(28.0, 2.0),
                                      settings, frame=frame)
    for u in traj.states:
        assert np.abs(u.conj().T @ u - np.eye(u.shape[0])).max() < 1e-8


def test_two_qubit_round_trip_identity(coupled_frame):
    # no-wait trapezoid: computational block returns near identity
    cpl, settings, frame = coupled_frame
    traj = propagate_subspace_unitary(cpl, AlphaProfile.two_qubit(20.0, 0.0),
                                      settings, frame=frame)
    proj = frame.computational_projector(frame.node(1.0))
    u = proj.conj().T @ traj.final @ proj
    populations = np.abs(u) ** 2
    assert populations.diagonal().min() > 1.0 - 1e-3


def test_two_qubit_step_doubling(coupled_frame):
    cpl, settings, frame = coupled_frame
    prof = AlphaProfile.two_qubit(24.0, 1.0)
    import dataclasses
    t1 = propagate_subspace_unitary(cpl, prof, settings, frame=frame)
    s2 = dataclasses.replace(settings, steps_per_ns=572)
    t2 = propagate_subspace_unitary(cpl, prof, s2, frame=frame)
    assert np.abs(t1.final - t2.final).max() < 1e-5


def test_two_qubit_unitary_takes_no_step_grid():
    # The phases are integrated in closed form between frame switches, so
    # the unitary and its samples, at t_start + j * sample_interval_ns and
    # at the end, are the same bits at any steps_per_ns.
    q = replace(q_node(), cutoff=5)
    coupled = CoupledSpec(q, q, cg_ratio=0.3)
    settings = PropagationSettings(per_qubit_m=6, subspace_k=12, alpha_grid=5e-3,
                                   sample_interval_ns=5.0)
    frame = TwoQubitFrame(coupled, settings)
    profile = AlphaProfile.two_qubit(20.0, 13.3)
    runs = [propagate_subspace_unitary(coupled, profile, replace(settings, steps_per_ns=steps),
                                       frame=frame) for steps in (50, 2000)]
    assert runs[0].times.tolist() == runs[1].times.tolist() == [
        0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 33.3]
    assert np.array_equal(runs[0].final, runs[1].final)


def test_frame_grid_refinement(coupled_frame):
    # Halving the alpha grid moved the round-trip populations by 1.2e-5
    # when the node-midpoint frame switches came in, 3.0e-6 now.
    import dataclasses
    cpl, settings, frame = coupled_frame
    profile = AlphaProfile.two_qubit(20.0, 0.0)
    fine_settings = dataclasses.replace(settings, alpha_grid=5e-4)
    populations = []
    for s, f in ((settings, frame), (fine_settings, TwoQubitFrame(cpl, fine_settings))):
        traj = propagate_subspace_unitary(cpl, profile, s, frame=f)
        populations.append(np.abs(_computational_block(f, traj.final)[0]) ** 2)
    assert np.abs(populations[0] - populations[1]).max() < 3e-5


def test_basis_missing_a_level_is_not_kept(monkeypatch):
    # Snapshots that leave out the ground state miss a level; the inertia
    # counts between the snapshots see it before any reduced solve is made.
    engine = evolve._CircuitEngine(SPEC)
    dense = evolve._CircuitEngine._dense_lowest
    k = 4

    def without_ground(self, alpha, n):
        if n != k + evolve.SNAPSHOT_PAD:
            return dense(self, alpha, n)
        energies, states = dense(self, alpha, n + 1)
        return energies[1:], states[:, 1:]

    monkeypatch.setattr(evolve._CircuitEngine, "_dense_lowest", without_ground)
    engine.set_window(0.9, 1.0, k, 50)
    assert engine._window is None
    monkeypatch.undo()
    engine.set_window(0.9, 1.0, k, 50)
    assert engine._window is not None and engine.lowest(0.95, k) is not None


def test_window_ends_return_their_dense_solutions():
    # A window's end snapshots are dense solves, and lowest returns them: an
    # engine's alpha = 1 states keep the gauge of qubit_eigensolution, and a
    # gate's plateau solve is not redone.
    spec = replace(SPEC, cutoff=10)
    engine = evolve._CircuitEngine(spec)
    engine.set_window(0.7, 1.0, 8, 100)
    assert engine._window is not None
    for alpha, k in ((1.0, 2), (0.7, 3)):
        energies, states = engine.lowest(alpha, k)
        dense = qubit_eigensolution(spec.with_alpha(alpha), k)
        assert np.abs(energies - dense.energies).max() < 1e-12
        assert np.abs(engine.charge_states(states) - dense.states[engine.indices]).max() < 1e-12


def test_frame_built_through_the_basis_matches_a_dense_frame(coupled_frame):
    # Built over a range, a frame solves each qubit through its reduced
    # basis; built one node per call, it takes dense solves only. The two
    # agree up to a diagonal gauge per node (each frame sets the phase of a
    # crossing upper level from a small overlap). Frame overlaps are compared
    # for a detuned pair: the identical pair's 01/10 doublet is split by only
    # 4e-5 GHz at alpha = 1, so its overlaps already differ by up to 9e-10
    # between two dense solves with different rounding (a permuted basis, or
    # LAPACK's divide-and-conquer eigensolver).
    cpl, settings, frame = coupled_frame
    detuned = TwoQubitFrame(CoupledSpec(cpl.qubit1, replace(cpl.qubit1, ej=10.5), cg_ratio=0.3),
                            settings)
    detuned.ensure_range(0.95)
    for built, overlaps in ((frame, False), (detuned, True)):
        assert all(e._window is not None and e.fallbacks == 0 for e in built.engines.values())
        dense = TwoQubitFrame(built.coupled, settings)
        keys = range(built._node_key(1.0), built._node_key(0.95) - 1, -1)
        for key in keys:
            dense.node(key * built.grid)
        assert all(e._window is None and e.fallbacks == 0 for e in dense.engines.values())
        gauge = {}
        for key in keys:
            a = key * built.grid
            assert np.abs(built.node(a)["e"] - dense.node(a)["e"]).max() < 1e-9
            cross = built.frame_overlap(dense.node(a), built.node(a))
            gauge[key] = np.diag(np.diag(cross))
            assert np.abs(np.abs(np.diag(cross)) - 1.0).max() < 1e-9
            if overlaps:
                assert np.abs(cross - gauge[key]).max() < 1e-9
        if not overlaps:
            continue
        for key in keys[:-1]:
            a, b = key * built.grid, (key - 1) * built.grid
            step = built.frame_overlap(built.node(a), built.node(b))
            step_dense = dense.frame_overlap(dense.node(a), dense.node(b))
            assert np.abs(step - gauge[key].conj() @ step_dense @ gauge[key - 1]).max() < 1e-9


def test_charge_inversion_basis_makes_h_real_at_zero_offset_charge():
    # At ng = 0 the charge inversion C (n -> -n) maps H(alpha) to its
    # complex conjugate, so in S = charge_inversion_basis, H is real
    # symmetric and the coupled-node charge is i times a real antisymmetric
    # matrix; an offset charge breaks the symmetry and the engine, with no
    # flag to ask, works in the charge basis.
    q = replace(q_node(), cutoff=6)
    scale = CoupledSpec(q, q).charging_scale
    s = charge_inversion_basis(q.basis).toarray()
    assert np.abs(s.conj().T @ s - np.eye(q.basis.dim)).max() < 1e-15
    for alpha in (0.6, 0.85, 1.0):
        h = build_hamiltonian(q.with_alpha(alpha), charging_scale=scale).matrix
        hr = s.conj().T @ h @ s
        assert np.abs(hr.imag).max() < 1e-13 and np.abs(hr - hr.T).max() < 1e-13
        dense = qubit_eigensolution(q.with_alpha(alpha), 8, charging_scale=scale)
        assert np.abs(np.linalg.eigvalsh(hr.real)[:8] - dense.energies).max() < 1e-10
    n1 = s.conj().T @ build_operator("n1", q).matrix @ s
    assert np.abs(n1.real).max() < 1e-15 and np.abs(n1 + n1.T).max() < 1e-15
    # an engine's dense solve in that basis, on the full node basis and on
    # the even sector of a single loop
    loop = CircuitSpec(ej=10.0, ec=0.1, phi_ext=0.995 * math.pi, cutoff=6)
    for spec, charging_scale in ((q, scale), (loop, 1.0)):
        engine = evolve._CircuitEngine(spec, charging_scale)
        assert engine.real and engine.n1.dtype == np.float64
        energies, states = engine.lowest(0.85, 8)
        assert states.dtype == np.float64
        dense = qubit_eigensolution(spec.with_alpha(0.85), 8, charging_scale=charging_scale)
        assert np.abs(energies - dense.energies).max() < 1e-10
        overlaps = dense.states[engine.indices].conj().T @ engine.charge_states(states)
        assert np.abs(np.abs(np.diag(overlaps)) - 1.0).max() < 1e-10
    shifted = replace(q, ng_theta=0.05)
    h = build_hamiltonian(shifted, charging_scale=scale).matrix
    assert np.abs((s.conj().T @ h @ s).imag).max() > 1e-3
    engine = evolve._CircuitEngine(shifted, scale)
    assert not engine.real and engine.lowest(0.85, 2)[1].dtype == np.complex128


@pytest.mark.parametrize("spec, charging_scale, blocked", [
    (CircuitSpec(ej=10.0, ec=0.1, phi_ext=0.995 * math.pi, cutoff=6), 1.0, True),
    (replace(q_node(), cutoff=6), 0.8125, False),
], ids=["single_loop_sector", "node_basis_one_block"])
def test_real_engine_dense_solve_is_qubit_eigensolution_in_its_basis(spec, charging_scale,
                                                                     blocked):
    # A real engine takes qubit_eigensolution's charge-basis (sector) states
    # v to its coordinates as (L^dag v).real, L its blocks' lifts side by
    # side, and charge_states maps them back to v, sign included: on the
    # single loop's even sector, solved as two P_theta blocks, and on the
    # node basis at a charging scale that breaks P_theta, solved as the one
    # block S^dag H S.
    parity = 0 if spec.variant is Variant.SINGLE_LOOP else None
    mapped = circuit._symmetry_blocks(_parts(spec, charging_scale), parity)
    assert len(mapped) == (2 if blocked else 1)
    engine = evolve._CircuitEngine(spec, charging_scale)
    assert engine.real
    for alpha, k in ((1.0, 2), (0.85, 8)):
        energies, states = engine.lowest(alpha, k)
        assert states.dtype == np.float64
        sol = qubit_eigensolution(spec.with_alpha(alpha), k, charging_scale)
        np.testing.assert_array_equal(energies, sol.energies)
        error = np.abs(engine.charge_states(states) - sol.states[engine.indices]).max(axis=0)
        assert error.shape == (k,) and error.max() < 1e-14


@pytest.mark.parametrize("spec", [
    CircuitSpec(ej=10.0, ec=0.1, phi_ext=0.995 * math.pi, cutoff=6), replace(q_node(), cutoff=6),
], ids=["single_loop_sector", "node_basis"])
def test_two_block_engine_works_in_the_direct_sum_of_its_blocks(spec):
    # Where the parts commute with C*K and P_theta, the engine works in the
    # direct sum of the two P_theta blocks: h0 and h1 couple no state of one
    # block to the other, each block of them is that block's F and barrier,
    # the lift is the blocks' lifts side by side, n1 is real antisymmetric,
    # and a dense solve is qubit_eigensolution's.
    parity = 0 if spec.variant is Variant.SINGLE_LOOP else None
    even, odd = circuit._symmetry_blocks(_parts(spec, 1.0), parity)
    engine = evolve._CircuitEngine(spec)
    n = even.lift.shape[1]
    assert engine.real and engine.dim == n + odd.lift.shape[1]
    weights = circuit._barrier_weights(spec.with_alpha(1.0))
    for data, parts in zip(engine._data, ((1.0, 0.0, 0.0), (0.0, *weights))):
        h = engine._csr(data).toarray()
        assert not h[:n, n:].any() and not h[n:, :n].any()
        for block, sub in ((even, h[:n, :n]), (odd, h[n:, n:])):
            size = block.lift.shape[1]
            np.testing.assert_array_equal(sub, scipy.sparse.csr_array(
                (block.data(*parts), block.indices, block.indptr), shape=(size, size)).toarray())
    lift = np.hstack([even.lift.toarray(), odd.lift.toarray()])
    np.testing.assert_array_equal(engine.charge_states(np.eye(engine.dim)), lift)
    n1 = engine.n1.toarray()
    assert n1.dtype == np.float64 and np.abs(n1 + n1.T).max() < 1e-15
    charge_n1 = np.diag(build_operator("n1", spec).matrix)[engine.indices]
    np.testing.assert_allclose(1j * n1, lift.conj().T @ (charge_n1[:, None] * lift),
                               rtol=0, atol=1e-15)
    for alpha, k in ((1.0, 2), (0.85, 8)):
        energies, states = engine.lowest(alpha, k)
        sol = qubit_eigensolution(spec.with_alpha(alpha), k)
        assert states.dtype == np.float64
        assert np.abs(energies - sol.energies).max() < 1e-12
        assert np.abs(engine.charge_states(states) - sol.states[engine.indices]).max() < 1e-12


def test_frame_of_two_block_engines_matches_charge_basis_engines(monkeypatch):
    # At cg_ratio 0 the coupled node keeps charging scale 1, so each qubit's
    # parts commute with P_theta and its engine works in two blocks. The
    # frame's node energies and its gate map match the same frame's with
    # charge-basis engines, the map up to the phases of the alpha = 1
    # per-qubit states that label it.
    q = replace(q_node(), cutoff=6)
    coupled = CoupledSpec(q, q, cg_ratio=0.0)
    assert coupled.charging_scale == 1.0
    settings = PropagationSettings(per_qubit_m=4, subspace_k=8, alpha_grid=5e-3,
                                   steps_per_ns=50)
    profile = AlphaProfile.two_qubit(10.0, 2.0)
    blocked = TwoQubitFrame(coupled, settings)
    with monkeypatch.context() as m:
        m.setattr(evolve, "_symmetry_blocks", lambda parts, parity: None)
        charge = TwoQubitFrame(coupled, settings)
    (engine,) = blocked.engines.values()
    assert engine.real and len(circuit._symmetry_blocks(_parts(q, 1.0), None)) == 2
    assert not any(e.real for e in charge.engines.values())
    maps = [_computational_block(frame, propagate_subspace_unitary(
        coupled, profile, settings, frame=frame).final)[0] for frame in (blocked, charge)]
    assert engine._window is not None and engine.fallbacks == 0
    assert sorted(blocked._nodes) == sorted(charge._nodes) and len(blocked._nodes) > 10
    for key, node in blocked._nodes.items():
        assert np.abs(node["e"] - charge._nodes[key]["e"]).max() < 1e-12
    top = [frame.node(1.0)["b"][0] for frame in (blocked, charge)]
    d = np.sum(engine.charge_states(top[0]).conj() * top[1], axis=0)  # <real|charge> per level
    assert np.abs(np.abs(d) - 1.0).max() < 1e-10
    phases = np.array([d[a] * d[b] for a in (0, 1) for b in (0, 1)])
    gauged = phases.conj()[:, None] * maps[0] * phases[None, :]
    assert np.abs(maps[1] - gauged).max() < 1e-10


def test_symmetric_pair_product_hamiltonian_is_real(monkeypatch):
    q = replace(q_node(), cutoff=6)
    coupled = CoupledSpec(q, replace(q, ej=10.5), cg_ratio=0.3)
    frame = TwoQubitFrame(coupled, PropagationSettings(per_qubit_m=4, subspace_k=8))
    levels = [evolve._qubit_levels(e, 0.9, 4) for e in frame.engines.values()]
    h = evolve._product_hamiltonian(coupled, levels, frame.engines.values())
    assert all(e.real for e in frame.engines.values()) and h.dtype == np.float64
    # each qubit's charge among its real levels is i times a real matrix
    assert all(n1.dtype == np.complex128 and not n1.real.any() for _, _, n1 in levels)
    # the same H from levels of charge-basis engines, up to the per-level gauge
    with monkeypatch.context() as m:
        m.setattr(evolve, "_symmetry_blocks", lambda parts, parity: None)
        engines = [evolve._CircuitEngine(qq, coupled.charging_scale)
                   for qq in (coupled.qubit1, coupled.qubit2)]
    charge = [evolve._qubit_levels(engine, 0.9, 4) for engine in engines]
    h_charge = coupled.product_hamiltonian([c[0] for c in charge], [c[2] for c in charge])
    assert h_charge.dtype == np.complex128
    assert np.abs(np.linalg.eigvalsh(h) - np.linalg.eigvalsh(h_charge)).max() < 1e-10
    assert frame.node(1.0)["w"].dtype == np.float64
    # the ZZ statics build theirs from real levels too
    zz = _coupled_hamiltonian(coupled, 0.9, 0.9, m=4)
    assert zz.dtype == np.float64
    assert np.abs(np.linalg.eigvalsh(zz) - np.linalg.eigvalsh(h_charge)).max() < 1e-10


@pytest.mark.parametrize("ng_thetas", [(0.0, 0.0), (0.05, 0.05), (0.0, 0.05)],
                         ids=["real", "complex", "mixed"])
def test_frame_matches_a_charge_basis_reference(ng_thetas):
    # Node energies and |frame overlaps| between neighbouring nodes against
    # a product H of qubit_eigensolution's charge-basis states, solved by
    # numpy. The frame solves each detuned qubit in its reduced basis; at
    # ng = 0 in the real basis, at ng_theta = 0.05 in the charge basis, and
    # the mixed pair one qubit in each.
    q = replace(q_node(), cutoff=6, ng_theta=ng_thetas[0])
    coupled = CoupledSpec(q, replace(q, ej=10.5, ng_theta=ng_thetas[1]), cg_ratio=0.3)
    m, k = 4, 8
    frame = TwoQubitFrame(coupled, PropagationSettings(per_qubit_m=m, subspace_k=k,
                                                       alpha_grid=5e-3))
    frame.ensure_range(0.9)
    assert [e.real for e in frame.engines.values()] == [ng == 0.0 for ng in ng_thetas]
    assert all(e._window is not None and e.fallbacks == 0 for e in frame.engines.values())
    real = ng_thetas == (0.0, 0.0)

    def reference(alpha):
        per_qubit = []
        for qq in (coupled.qubit1, coupled.qubit2):
            sol = qubit_eigensolution(qq.with_alpha(alpha), m, coupled.charging_scale)
            b = sol.states
            n1 = build_operator("n1", qq).matrix
            per_qubit.append((sol.energies, b, b.conj().T @ n1 @ b))
        (e1, b1, n11), (e2, b2, n12) = per_qubit
        h = coupled.coupling_energy * np.kron(n11, n12)
        h += np.diag(np.add.outer(e1, e2).ravel())
        e, w = np.linalg.eigh(h)
        return e[:k], (b1, b2), w[:, :k]

    keys = range(frame._node_key(1.0), frame._node_key(0.9) - 1, -1)
    refs = {key: reference(key * frame.grid) for key in keys}
    for key in keys:
        node = frame.node(key * frame.grid)
        assert node["w"].dtype == (np.float64 if real else np.complex128)
        assert np.abs(node["e"] - refs[key][0]).max() < 1e-9
    for key in keys[:-1]:
        (_, (a1, a2), wa), (_, (b1, b2), wb) = refs[key], refs[key - 1]
        ref = wa.conj().T @ np.kron(a1.conj().T @ b1, a2.conj().T @ b2) @ wb
        step = frame.frame_overlap(frame.node(key * frame.grid),
                                   frame.node((key - 1) * frame.grid))
        assert np.abs(np.abs(step) - np.abs(ref)).max() < 1e-9
        # the switch between the two nodes is the unitary part of V(new)^dag V(old)
        down = frame.switch(key, key - 1)
        assert np.abs(down @ frame.switch(key - 1, key) - np.eye(k)).max() < 1e-12
        assert np.abs(down - evolve._unitary_part(step.conj().T)).max() < 1e-12


def test_frame_switches_shared_by_threads_match_a_serial_run():
    # A caller's threads may share one frame, whose switch between two
    # nodes is formed as the lower node is built: every gate must get the U
    # of a frame that no other thread touched.
    q = replace(q_node(), cutoff=5)
    coupled = CoupledSpec(q, q, cg_ratio=0.3)
    settings = PropagationSettings(steps_per_ns=50, per_qubit_m=6, subspace_k=12,
                                   alpha_grid=5e-3, sample_interval_ns=5.0)
    profile = AlphaProfile.two_qubit(20.0, 2.0)
    serial = TwoQubitFrame(coupled, settings)
    expected = propagate_subspace_unitary(coupled, profile, settings, frame=serial).final
    shared = TwoQubitFrame(coupled, settings)
    shared.ensure_range(profile.alpha_min)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(propagate_subspace_unitary, coupled, profile, settings,
                                   frame=shared) for _ in range(6)]
            finals = [f.result(timeout=120).final for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert sorted(shared._switches) == sorted(serial._switches)
    for final in finals:
        assert np.abs(final - expected).max() < 1e-13


def test_frame_keeps_the_key_of_its_lowest_node():
    # the frame builds downward from the node below its lowest one, which it
    # keeps rather than taking min over every node on each lookup
    q = replace(q_node(), cutoff=5)
    settings = PropagationSettings(per_qubit_m=6, subspace_k=12, alpha_grid=5e-3)
    frame = TwoQubitFrame(CoupledSpec(q, q, cg_ratio=0.3), settings)
    frame.ensure_range(0.93)
    assert frame._lowest_key == min(frame._nodes) == math.floor(0.93 / 5e-3)
    frame.energies(0.95)  # inside the range: nothing new is built
    assert frame._lowest_key == min(frame._nodes) == math.floor(0.93 / 5e-3)
    frame.node(0.9)
    assert frame._lowest_key == min(frame._nodes) == 180
    assert sorted(frame._nodes) == list(range(180, 201))


def test_computational_projector_is_dressed_basis():
    # Orthonormal columns: an identity map scores exactly zero leakage in
    # the block run_two_qubit_gate scores. Without coupling the coupled
    # eigenstates are the product states, and so are the columns.
    q = CircuitSpec(variant=Variant.NODE_BASIS, ej=10.0, ec=0.1, alpha=1.0,
                    phi_ext=0.99 * math.pi, cutoff=5)
    settings = PropagationSettings(per_qubit_m=6, subspace_k=12)
    labels = [a * settings.per_qubit_m + b for a in (0, 1) for b in (0, 1)]
    for cg_ratio in (0.0, 0.3):
        frame = TwoQubitFrame(CoupledSpec(q, q, cg_ratio=cg_ratio), settings)
        node = frame.node(1.0)
        proj = frame.computational_projector(node)
        assert np.abs(proj.conj().T @ proj - np.eye(4)).max() < 1e-12
        u_comp, leakage = _computational_block(frame, np.eye(settings.subspace_k))
        assert np.abs(u_comp - np.eye(4)).max() < 1e-12
        assert leakage == pytest.approx(0.0, abs=1e-12)
        product = node["w"].conj().T[:, labels]  # |ab> in frame coordinates
        if cg_ratio == 0.0:
            assert np.abs(proj - product).max() < 1e-12
        else:
            assert np.abs(np.sum(product.conj() * proj, axis=0)).min() > 0.99


def test_exchange_blocks_match_the_product_solve():
    # An identical pair's product H commutes with the exchange of the two
    # qubits, and its two blocks (78 + 66 states at m = 12) give the lowest
    # k levels of the one 144-state solve, and the same coupled subspace.
    cpl = CoupledSpec(q_node(), q_node(), cg_ratio=0.3)
    frame = TwoQubitFrame(cpl, PropagationSettings())
    assert frame.identical
    assert [b.lift.shape[1] for b in frame._exchange_blocks] == [78, 66]
    (engine,) = frame.engines.values()
    for alpha in (1.0, 0.93, 0.857):
        levels = evolve._qubit_levels(engine, alpha, frame.m)
        e, w = frame._exchange_lowest(*levels)
        h = evolve._product_hamiltonian(cpl, [levels, levels], [engine])
        e_ref, w_ref = scipy.linalg.eigh(h, subset_by_index=(0, frame.k - 1))
        assert np.abs(e - e_ref).max() < 1e-12
        assert np.abs(w @ w.T - w_ref @ w_ref.T).max() < 1e-10
        assert np.abs(w.T @ w - np.eye(frame.k)).max() < 1e-13
    # an identical pair off ng = 0 solves complex Hermitian blocks
    q = replace(q_node(), cutoff=6, ng_theta=0.05)
    cpl = CoupledSpec(q, q, cg_ratio=0.3)
    frame = TwoQubitFrame(cpl, PropagationSettings(per_qubit_m=6, subspace_k=12))
    (engine,) = frame.engines.values()
    assert not engine.real
    levels = evolve._qubit_levels(engine, 0.93, frame.m)
    e, w = frame._exchange_lowest(*levels)
    h = evolve._product_hamiltonian(cpl, [levels, levels], [engine])
    e_ref, w_ref = scipy.linalg.eigh(h, subset_by_index=(0, frame.k - 1))
    assert w.dtype == np.complex128 and np.abs(e - e_ref).max() < 1e-12
    assert np.abs(w @ w.conj().T - w_ref @ w_ref.conj().T).max() < 1e-10


def test_kron_free_overlap_equals_the_kron_form():
    rng = np.random.default_rng(3)
    m, k = 5, 7
    for imag in (0.0, 1.0):  # unitary overlaps and orthonormal columns, as in a frame
        o1, o2, w = (np.linalg.qr(rng.standard_normal(shape)
                                  + imag * 1j * rng.standard_normal(shape))[0]
                     for shape in ((m, m), (m, m), (m * m, k)))
        ref = np.kron(o1, o2) @ w
        assert np.abs(evolve._kron_apply(o1, o2, w) - ref).max() < 1e-14
        ref_h = np.kron(o1, o2).conj().T @ w
        assert np.abs(evolve._kron_apply(o1.conj().T, o2.conj().T, w) - ref_h).max() < 1e-14


def test_detuned_pair_keeps_one_product_block(monkeypatch):
    # A detuned pair (detuning 0.02) has no exchange symmetry: each node is
    # one 144-state subset solve, and its frame is the one that the kron
    # form of the node alignment builds.
    q1 = q_node()
    cpl = CoupledSpec(q1, replace(q1, ej=q1.ej * 1.02), cg_ratio=0.3)
    sizes = []
    eigh = scipy.linalg.eigh

    def recording(a, *args, **kwargs):
        sizes.append(a.shape[0])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", recording)
    frame = TwoQubitFrame(cpl, PropagationSettings())
    assert not frame.identical and frame._exchange_blocks is None
    nodes = [frame.node(key * frame.grid) for key in (1000, 999, 998)]
    assert sizes.count(144) == 3
    monkeypatch.undo()
    engines = list(frame.engines.values())
    prev = None
    for node, alpha in zip(nodes, (1.0, 0.999, 0.998)):
        levels = [evolve._qubit_levels(e, alpha, frame.m,
                                       None if prev is None else (prev[0][i], prev[1][i]))
                  for i, e in enumerate(engines)]
        h = evolve._product_hamiltonian(cpl, levels, engines)
        e_c, w = scipy.linalg.eigh(h, subset_by_index=(0, frame.k - 1))
        bs = [b for _, b, _ in levels]
        if prev is not None:
            o = np.kron(prev[1][0].T @ bs[0], prev[1][1].T @ bs[1])
            w = evolve.align_gauge(evolve.EigenSolution(prev[2], o.T @ prev[3], None, frame.k),
                                   evolve.EigenSolution(e_c, w, None, frame.k),
                                   min_overlap=0.0).states
        assert np.abs(node["e"] - e_c).max() < 1e-12
        assert np.abs(node["w"] - w).max() < 1e-10
        prev = ([e for e, _, _ in levels], bs, e_c, w)


def test_benchmark_windows_are_proven_and_have_no_fallbacks():
    # Every midpoint of the two_qubit_map frame window (node basis, cutoff 9,
    # 12 levels over the T_a = 20 ns range) and of the driven_gate window
    # (single-loop sector, cutoff 12, 8 levels over [0.7, 1]) is proven by
    # the residual check and the inertia count, so both keep their basis,
    # and the frame's 144 nodes take no dense fallback.
    frame = TwoQubitFrame(CoupledSpec(q_node(), q_node(), cg_ratio=0.3), PropagationSettings())
    frame.ensure_range(AlphaProfile.two_qubit(20.0, 0.0).alpha_min)
    (engine,) = frame.engines.values()
    assert len(frame._nodes) == 144 and engine._window is not None and engine.fallbacks == 0
    engine = evolve._CircuitEngine(SPEC)
    engine.set_window(0.7, 1.0, 8, 1000)
    assert engine._window is not None


def test_inertia_midpoints_refuse_a_basis_missing_a_level(monkeypatch):
    # Snapshots without their ground state, as in
    # test_basis_missing_a_level_is_not_kept: the first midpoint is not
    # proven, and no basis is kept. A refused inertia count keeps no basis
    # either, however good the basis. (Over the wider benchmark windows,
    # where levels mix and reorder, the other snapshots' states span a
    # removed ground state well enough to prove every midpoint.)
    dense = evolve._CircuitEngine._dense_lowest
    proven = []
    prove = evolve._CircuitEngine._midpoint_proven
    engine, lo, hi, k = evolve._CircuitEngine(SPEC), 0.9, 1.0, 4

    def without_ground(self, alpha, n):
        if n != k + evolve.SNAPSHOT_PAD:
            return dense(self, alpha, n)
        energies, states = dense(self, alpha, n + 1)
        return energies[1:], states[:, 1:]

    def recording(self, window, alpha):
        proven.append(prove(self, window, alpha))
        return proven[-1]

    def refused(*args):
        raise spectrum._SparseRefused("refused")

    monkeypatch.setattr(evolve._CircuitEngine, "_midpoint_proven", recording)
    monkeypatch.setattr(evolve._CircuitEngine, "_dense_lowest", without_ground)
    engine.set_window(lo, hi, k, 1000)
    assert engine._window is None and proven == [False]
    monkeypatch.setattr(evolve._CircuitEngine, "_dense_lowest", dense)
    monkeypatch.setattr(spectrum, "_levels_below", refused)
    proven.clear()
    engine.set_window(lo, hi, k, 1000)
    assert engine._window is None and proven == [False]
    monkeypatch.undo()
    monkeypatch.setattr(evolve._CircuitEngine, "_midpoint_proven", recording)
    proven.clear()
    engine = evolve._CircuitEngine(SPEC)
    engine.set_window(lo, hi, k, 1000)
    assert engine._window is not None and proven == [True] * 6
