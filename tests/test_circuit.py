import math

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from dsfq.circuit import (
    ChargeBasis,
    CircuitSpec,
    CircuitError,
    CoupledSpec,
    Variant,
    build_hamiltonian,
    build_operator,
    gradiometric_loop_dflux,
    hamiltonian_decomposition,
    phase_grid_points,
    physical_sector_indices,
    to_phase_grid,
)

DEFAULT = CircuitSpec(ej=10.0, ec=0.1, alpha=1.0, phi_ext=0.997 * math.pi, cutoff=12)


def test_dimension_is_625_at_cutoff_12():
    h = build_hamiltonian(DEFAULT)
    assert h.matrix.shape == (625, 625)
    assert DEFAULT.basis.dim == 625


def test_cos_cos_matrix_element():
    # E_J = 1, alpha ~ 0: <n_phi+1, n_theta+1|H|n_phi, n_theta> = -E_J/2
    spec = CircuitSpec(ej=1.0, ec=0.1, alpha=0.0, phi_ext=0.0, cutoff=3)
    h = build_hamiltonian(spec).matrix
    d = spec.basis.dim_per_mode
    i = (0 + 3) * d + (0 + 3)  # (n_phi, n_theta) = (0, 0)
    j = (1 + 3) * d + (1 + 3)  # (1, 1)
    assert h[j, i] == pytest.approx(-0.5)


def test_kinetic_only_diagonal():
    # Josephson terms vanish as ej -> 0: compare against the analytic diagonal.
    spec = CircuitSpec(ej=1e-12, ec=1.0, alpha=0.0, phi_ext=0.0, cutoff=1)
    h = build_hamiltonian(spec).matrix
    eigs = np.sort(np.linalg.eigvalsh(h))
    expected = sorted(
        2.0 * (na**2 + nb**2) for na in (-1, 0, 1) for nb in (-1, 0, 1)
    )
    assert eigs == pytest.approx(expected, abs=1e-9)
    # 2*EC*(n_phi^2 + n_theta^2) = 2*EC for the four charge states
    # (+-1, 0) and (0, +-1): the first excited level is fourfold.
    assert eigs[:5] == pytest.approx([0.0, 2.0, 2.0, 2.0, 2.0], abs=1e-9)


def test_hermiticity_all_variants():
    specs = [
        DEFAULT,
        CircuitSpec(variant=Variant.GRADIOMETRIC, alpha1=0.8, alpha2=0.9,
                    phi_ext1=0.99 * math.pi, phi_ext2=-1.01 * math.pi, cutoff=5),
        CircuitSpec(variant=Variant.NODE_BASIS, alpha=0.7, phi_ext=0.99 * math.pi,
                    cutoff=5),
    ]
    for spec in specs:
        m = build_hamiltonian(spec).matrix
        assert np.abs(m - m.conj().T).max() <= 1e-12 * np.abs(m).max()


def test_flux_periodicity():
    a = build_hamiltonian(DEFAULT).matrix
    import dataclasses
    b = build_hamiltonian(
        dataclasses.replace(DEFAULT, phi_ext=DEFAULT.phi_ext + 2 * math.pi)
    ).matrix
    assert np.abs(a - b).max() < 1e-12 * np.abs(a).max()


def test_parity_symmetry_at_half_flux():
    # at n_g = 0, phi_ext = pi the spectrum is invariant under phi -> -phi
    spec = CircuitSpec(ej=10, ec=0.1, alpha=1.0, phi_ext=math.pi, cutoff=8)
    h = build_hamiltonian(spec).matrix
    d = spec.basis.dim_per_mode
    p = np.kron(np.eye(d)[::-1], np.eye(d))
    h_flipped = p @ h @ p
    e1 = np.linalg.eigvalsh(h)
    e2 = np.linalg.eigvalsh(h_flipped)
    assert np.abs(e1 - e2).max() < 1e-10


@pytest.mark.parametrize("variant, kind", [
    (variant, kind)
    for variant in (Variant.SINGLE_LOOP, Variant.NODE_BASIS)
    for kind in ("dH_dphi_ext", "dH_dng_phi", "dH_dng_theta")
] + [
    (Variant.GRADIOMETRIC, kind)
    for kind in ("dH_dng_phi", "dH_dng_theta", "dH_dphi_ext1", "dH_dphi_ext2")
])
def test_derivative_operators_match_finite_differences(variant, kind):
    import dataclasses
    spec = CircuitSpec(variant=variant, ej=10, ec=0.1, alpha=1.0, alpha1=0.8, alpha2=0.9,
                       phi_ext=0.98 * math.pi, phi_ext1=0.97 * math.pi,
                       phi_ext2=-1.02 * math.pi, ng_phi=0.1, ng_theta=-0.2, cutoff=4)
    field = {"dH_dphi_ext": "phi_ext", "dH_dng_phi": "ng_phi",
             "dH_dng_theta": "ng_theta", "dH_dphi_ext1": "phi_ext1",
             "dH_dphi_ext2": "phi_ext2"}[kind]
    step = 1e-6
    hp = build_hamiltonian(
        dataclasses.replace(spec, **{field: getattr(spec, field) + step})
    ).matrix
    hm = build_hamiltonian(
        dataclasses.replace(spec, **{field: getattr(spec, field) - step})
    ).matrix
    fd = (hp - hm) / (2 * step)
    if field in ("phi_ext1", "phi_ext2"):
        analytic = gradiometric_loop_dflux(spec, int(field[-1])).matrix
    else:
        analytic = build_operator(kind, spec).matrix
    scale = np.abs(analytic).max()
    assert np.abs(analytic - fd).max() <= 1e-6 * max(scale, 1.0)


def test_n1_eigenvalue_on_charge_state():
    spec = CircuitSpec(cutoff=2)
    n1 = build_operator("n1", spec).matrix
    d = spec.basis.dim_per_mode
    idx = (1 + 2) * d + (1 + 2)  # |n_phi=1, n_theta=1>
    vec = np.zeros(spec.basis.dim)
    vec[idx] = 1.0
    assert (n1 @ vec)[idx] == pytest.approx(1.0)
    assert np.abs(n1 @ vec - vec).max() == pytest.approx(0.0)


def test_phase_grid_constant_mode():
    spec = CircuitSpec(cutoff=3)
    basis = spec.basis
    state = np.zeros(basis.dim, dtype=complex)
    d = basis.dim_per_mode
    state[3 * d + 3] = 1.0  # |0, 0>
    field = to_phase_grid(state, basis, 64)
    assert np.abs(np.abs(field) - 1.0 / (2 * math.pi)).max() < 1e-12


@hyp_settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=624), st.integers(min_value=0, max_value=624),
       st.floats(min_value=-1.0, max_value=1.0), st.floats(min_value=-1.0, max_value=1.0))
def test_phase_grid_parseval(i, j, re, im):
    basis = ChargeBasis(("phi", "theta"), 12)
    state = np.zeros(basis.dim, dtype=complex)
    state[i] += 1.0
    state[j] += re + 1j * im
    state /= np.linalg.norm(state)
    field = to_phase_grid(state, basis, 128)
    cell = (2 * math.pi / 128) ** 2
    assert np.sum(np.abs(field) ** 2) * cell == pytest.approx(1.0, abs=1e-10)


def test_ground_state_lobes_near_classical_minima():
    # alpha = 1, E_J/E_C = 100, phi_ext = 0.997 pi: wells near +-(pi - 0.003 pi)/3
    from dsfq.spectrum import qubit_eigensolution

    sol = qubit_eigensolution(DEFAULT, 2)
    phi = phase_grid_points(256)

    def peak(state):
        # On the doubly covered (phi, theta) torus every lobe repeats at
        # phi + pi, and the two copies of the phi-marginal tie to rounding;
        # folded onto the double-well coordinate wrap(2*phi)/2 in
        # [-pi/2, pi/2), prob(phi) + prob(phi + pi), each lobe counts once.
        marginal = (np.abs(to_phase_grid(state, DEFAULT.basis, 256)) ** 2).sum(axis=1)
        folded = (marginal + np.roll(marginal, -128))[64:192]
        return phi[64 + np.argmax(folded)]

    peak_phi = peak(sol.state(0))
    classical = (math.pi - 0.003 * math.pi) / 3.0
    assert min(abs(abs(peak_phi) - classical), abs(peak_phi - classical)) < 0.1 * classical
    # excited state sits in the opposite well
    assert np.sign(peak(sol.state(1))) != np.sign(peak_phi)


def test_phi_operator_opposite_well_expectations():
    spec = DEFAULT
    from dsfq.spectrum import qubit_eigensolution

    sol = qubit_eigensolution(spec, 2)
    phi_op = build_operator("phi_grid", spec).matrix
    e0 = float(np.real(sol.state(0).conj() @ phi_op @ sol.state(0)))
    e1 = float(np.real(sol.state(1).conj() @ phi_op @ sol.state(1)))
    classical = (math.pi - 0.003 * math.pi) / 3.0
    assert np.sign(e0) != np.sign(e1)
    assert abs(abs(e0) - classical) < 0.1 * classical


def test_phi_grid_rejects_non_power_of_two():
    with pytest.raises(CircuitError):
        build_operator("phi_grid", DEFAULT, grid_points=100)


def test_unknown_operator_kind_rejected():
    with pytest.raises(CircuitError):
        build_operator("bogus", DEFAULT)


def test_spec_validation():
    with pytest.raises(CircuitError):
        CircuitSpec(ej=-1.0)
    with pytest.raises(CircuitError):
        CircuitSpec(alpha=2.0)
    with pytest.raises(CircuitError):
        CircuitSpec(cutoff=0)
    with pytest.raises(CircuitError):
        CoupledSpec(CircuitSpec(), CircuitSpec())  # must be NODE_BASIS


def test_cutoff_convergence_lowest_five():
    from dsfq.spectrum import qubit_eigensolution

    import dataclasses
    # Largest change of the lowest five levels per step of 2 in the cutoff:
    # 10 -> 12: 2.0e-4, 12 -> 14: 6.0e-6, 14 -> 16: 6.3e-8, 16 -> 18: 2.6e-10.
    # The charge-basis truncation error falls off faster than geometrically,
    # so the 1e-8 level is reached between cutoffs 16 and 18, not at 12.
    energies = [
        qubit_eigensolution(dataclasses.replace(DEFAULT, cutoff=c), 5).energies
        for c in (10, 12, 14, 16, 18)
    ]
    changes = [np.abs(b - a).max() for a, b in zip(energies, energies[1:])]
    assert changes[-1] < 1e-8
    assert all(later < earlier / 10 for earlier, later in zip(changes, changes[1:]))


def test_hamiltonian_decomposition_linearity():
    # one test over the three variants; the charging scale enters H_const only
    for variant in Variant:
        spec = CircuitSpec(variant=variant, alpha1=0.6, alpha2=0.9, phi_ext=0.997 * math.pi,
                           phi_ext1=0.99 * math.pi, phi_ext2=-1.01 * math.pi, ng_phi=0.1,
                           cutoff=6)
        h0, h1 = hamiltonian_decomposition(spec, charging_scale=0.8)
        direct = build_hamiltonian(spec.with_alpha(0.73), charging_scale=0.8).matrix
        assert np.abs(h0 + 0.73 * h1 - direct).max() < 1e-12 * np.abs(direct).max()
        assert np.abs(h0 - build_hamiltonian(spec.with_alpha(0.0), 0.8).matrix).max() == 0.0


def test_sector_indices_partition():
    basis = ChargeBasis(("phi", "theta"), 12)
    even = physical_sector_indices(basis, 0)
    odd = physical_sector_indices(basis, 1)
    assert even.size + odd.size == 625
    assert even.size == 313
    h = build_hamiltonian(DEFAULT).matrix
    assert np.abs(h[np.ix_(even, odd)]).max() < 1e-14


def test_node_basis_matches_even_sector():
    # same physical torus, two coordinate systems
    from dsfq.spectrum import qubit_eigensolution

    for alpha in (1.0, 0.7):
        s_single = CircuitSpec(alpha=alpha, phi_ext=0.995 * math.pi, cutoff=12)
        s_node = CircuitSpec(variant=Variant.NODE_BASIS, alpha=alpha,
                             phi_ext=0.995 * math.pi, cutoff=12)
        e1 = qubit_eigensolution(s_single, 4).energies
        e2 = qubit_eigensolution(s_node, 4).energies
        assert np.abs(e1 - e2).max() < 1e-6
