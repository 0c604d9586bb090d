import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from dsfq import spectrum
from dsfq.circuit import (
    CircuitError,
    CircuitSpec,
    HermitianOperator,
    Variant,
    build_hamiltonian,
    build_operator,
    _theta_blocks,
    _theta_permutation,
    _theta_symmetric,
    charge_inversion_basis,
    hamiltonian_decomposition,
    inversion_symmetric,
    parity_permutation,
    phase_grid_points,
    physical_sector_indices,
)
from dsfq.coherence import coherence_report
from dsfq.evolve import _CircuitEngine
from dsfq.gates import Gamma1Interpolator
from dsfq.gradiometric import (
    LoopGeometry,
    _grad_spec_at,
    compensated_operating_flux,
    compensation_delta,
)
from dsfq.readout import ResonatorSpec, dispersive_shift
from dsfq.spectrum import (
    EigenSolution,
    GaugeAlignmentError,
    SpectrumError,
    align_gauge,
    diagonalize,
    qubit_eigensolution,
    qubit_params,
    sweep,
)

DEFAULT = CircuitSpec(ej=10.0, ec=0.1, alpha=1.0, phi_ext=0.995 * math.pi, cutoff=12)


def test_diagonal_matrix_full_spectrum():
    # E_J = 0 kinetic-only Hamiltonian, cutoff = 1, as a plain matrix
    ec = 0.3
    n = np.array([-1, 0, 1], dtype=float)
    na, nb = np.meshgrid(n, n, indexing="ij")
    h = np.diag(2 * ec * (na**2 + nb**2).ravel())
    sol = diagonalize(h, 9)
    # n_a^2 + n_b^2 = 1 for the four states (+-1, 0) and (0, +-1), so the
    # level 2*EC is fourfold and 4*EC (the four corners) comes after it.
    assert sol.energies[:5] == pytest.approx(
        [0.0, 2 * ec, 2 * ec, 2 * ec, 2 * ec], abs=1e-12
    )


def test_qubit_frequency_anchors():
    # E_J = 10 h GHz, E_J/E_C = 100, phi_ext = 0.995 pi
    qp1 = qubit_params(qubit_eigensolution(DEFAULT, 3))
    assert qp1.omega_q == pytest.approx(0.25, abs=0.01)
    qp7 = qubit_params(qubit_eigensolution(DEFAULT.with_alpha(0.7), 3))
    assert qp7.omega_q == pytest.approx(0.39, abs=0.01)


def test_deep_well_plasma_gap_matches_curvature():
    # at alpha = 1, phi_ext = pi: E2 - E0 ~ the softest local normal mode
    spec = replace(DEFAULT, phi_ext=math.pi)
    sol = qubit_eigensolution(spec, 3)
    gap = sol.energies[2] - sol.energies[0]

    # independent oracle: quadratic expansion of the potential at a minimum
    def potential(phi, theta):
        return (-2 * spec.ej * math.cos(phi) * math.cos(theta)
                - spec.alpha * spec.ej * math.cos(2 * phi + spec.phi_ext))

    from scipy.optimize import minimize
    res = minimize(lambda x: potential(*x), x0=[math.pi / 3, 0.0])
    h = 1e-5
    def d2(f, x, i, j):
        e_i = np.eye(2)[i] * h
        e_j = np.eye(2)[j] * h
        return (f(*(x + e_i + e_j)) - f(*(x + e_i - e_j))
                - f(*(x - e_i + e_j)) + f(*(x - e_i - e_j))) / (4 * h * h)
    x0 = res.x
    hess = np.array([[d2(potential, x0, i, j) for j in (0, 1)] for i in (0, 1)])
    # kinetic 2*EC*(n_phi^2 + n_theta^2): mass matrix is isotropic, so the
    # normal-mode frequencies are sqrt(2 * 2EC * curvature eigenvalues)
    curv = np.linalg.eigvalsh(hess)
    omegas = np.sqrt(2 * 2 * spec.ec * curv)
    assert gap == pytest.approx(omegas.min(), rel=0.15)


def test_anharmonic_case_trivial():
    h = np.diag([0.0, 1.0, 2.0])
    qp = qubit_params(diagonalize(h, 3))
    assert qp.anharmonicity == pytest.approx(0.0, abs=1e-12)
    assert qp.omega_q == pytest.approx(1.0)


def test_large_anharmonicity_in_protected_regime():
    spec = replace(DEFAULT, phi_ext=0.997 * math.pi)
    qp = qubit_params(qubit_eigensolution(spec, 3))
    assert abs(qp.anharmonicity) > 5 * qp.omega_q


def test_qubit_params_requires_three_levels():
    with pytest.raises(SpectrumError):
        qubit_params(diagonalize(np.diag([0.0, 1.0]), 2))


def test_align_gauge_identity_and_pure_phase():
    sol = qubit_eigensolution(DEFAULT, 4)
    same = align_gauge(sol, sol)
    assert np.abs(same.states - sol.states).max() < 1e-12
    rotated = EigenSolution(
        energies=sol.energies.copy(),
        states=sol.states * np.exp(1j * math.pi / 3),
        basis=sol.basis,
        k=sol.k,
    )
    fixed = align_gauge(sol, rotated)
    assert np.abs(fixed.states - sol.states).max() < 1e-12
    # energies never change, bitwise
    assert np.array_equal(fixed.energies, rotated.energies)


def test_align_gauge_small_alpha_step():
    # A step d_alpha tilts |n> by d_alpha * sum_m <m|H1|n>/(E_n - E_m) |m>,
    # so 1 - <n|n'> = d_alpha^2/2 * sum_m |<m|H1|n>|^2/(E_n - E_m)^2 to
    # second order, with H1 = dH/dalpha. For level 4 that deficit is
    # 1.42e-3 (overlap 0.99858): the overlap after a 0.01 step is set by
    # the physics, not by the alignment.
    step = 0.01
    ref = qubit_eigensolution(DEFAULT, 5)
    cur = qubit_eigensolution(DEFAULT.with_alpha(1.0 - step), 5)
    aligned = align_gauge(ref, cur)
    overlaps = np.sum(ref.states.conj() * aligned.states, axis=0)
    assert np.abs(overlaps.imag).max() < 1e-12
    assert overlaps.real.min() > 0

    _, h1 = hamiltonian_decomposition(DEFAULT)
    many = qubit_eigensolution(DEFAULT, 60)
    h1_eig = many.states.conj().T @ h1 @ many.states
    gaps = many.energies[:5, None] - many.energies[None, :]
    np.fill_diagonal(gaps[:, :5], np.inf)
    predicted = 0.5 * step**2 * np.sum(np.abs(h1_eig[:5] / gaps) ** 2, axis=1)
    assert (1.0 - overlaps.real) == pytest.approx(predicted, rel=0.1)


def test_align_gauge_raises_on_orthogonal_reference():
    sol = qubit_eigensolution(DEFAULT, 3)
    shuffled = EigenSolution(
        energies=sol.energies.copy(),
        states=np.roll(sol.states, 1, axis=1),
        basis=sol.basis,
        k=sol.k,
    )
    with pytest.raises(GaugeAlignmentError):
        align_gauge(sol, shuffled)


def test_sweep_single_element_matches_direct():
    table = sweep(DEFAULT, "alpha", [0.8], quantity="omega_q")
    direct = qubit_params(qubit_eigensolution(DEFAULT.with_alpha(0.8), 3))
    assert table["omega_q"][0] == pytest.approx(direct.omega_q, abs=1e-12)


def test_sweep_direction_independence():
    values = np.linspace(1.0, 0.9, 6)
    fwd = sweep(DEFAULT, "alpha", values, quantity="energies")["energies"]
    rev = sweep(DEFAULT, "alpha", values[::-1], quantity="energies")["energies"]
    assert np.abs(fwd - rev[::-1]).max() < 1e-10


def test_sweep_rejects_unknown_parameter():
    with pytest.raises(SpectrumError):
        sweep(DEFAULT, "not_a_field", [1.0])


def test_omega_increases_as_alpha_decreases_in_tunneling_regime():
    # On [0.5, 0.9] the tunneling component dominates and the qubit
    # frequency grows monotonically as the barrier is lowered. Near
    # alpha = 1 at this flux the splitting saturates at the flux-set
    # floor and is no longer monotone (see the acceptance analysis).
    spec = replace(DEFAULT, phi_ext=0.997 * math.pi)
    values = np.linspace(0.9, 0.5, 9)
    om = sweep(spec, "alpha", values, quantity="omega_q")["omega_q"]
    assert np.all(np.diff(om) > 0)


def test_log_omega_linear_at_exact_half_flux():
    # the tunnel splitting alone is cleanly exponential in alpha
    spec = replace(DEFAULT, phi_ext=math.pi)
    alphas = np.linspace(0.85, 1.0, 7)
    om = sweep(spec, "alpha", alphas, quantity="omega_q")["omega_q"]
    y = np.log(om)
    a = np.vstack([alphas, np.ones_like(alphas)]).T
    coef, res, *_ = np.linalg.lstsq(a, y, rcond=None)
    r2 = 1 - res[0] / ((y - y.mean()) ** 2).sum()
    assert r2 > 0.98


def test_flux_dispersion_linear():
    # omega_q = E1 - E0 is V-shaped about half flux: on each side the
    # well asymmetry grows linearly with phi_ext, and a single line through
    # the V has R^2 = 0. Past 0.4825 and 0.5175 Phi_0, E1 becomes the
    # plasma level of the lower well and omega_q saturates near 1.95 GHz,
    # so the linear branches are fitted inside those points.
    slopes = []
    for lo, hi in ((0.4825, 0.4975), (0.5025, 0.5175)):
        x = np.linspace(lo, hi, 7)
        om = sweep(DEFAULT, "phi_ext", 2 * math.pi * x, quantity="omega_q")["omega_q"]
        a = np.vstack([x, np.ones_like(x)]).T
        coef, res, *_ = np.linalg.lstsq(a, om, rcond=None)
        r2 = 1 - res[0] / ((om - om.mean()) ** 2).sum()
        assert r2 > 0.99
        slopes.append(coef[0])
    assert slopes[0] < 0 < slopes[1]
    assert slopes[1] == pytest.approx(-slopes[0], rel=0.01)
    # over [0.47, 0.53] the qubit pair itself crosses, which sweep refuses
    with pytest.raises(GaugeAlignmentError):
        sweep(DEFAULT, "phi_ext", np.linspace(0.94 * math.pi, 1.06 * math.pi, 25),
              quantity="omega_q")


def test_residual_bound_enforced():
    sol = qubit_eigensolution(DEFAULT, 6)
    h = build_hamiltonian(DEFAULT).matrix
    residual = np.linalg.norm(h @ sol.states - sol.states * sol.energies, axis=0)
    assert residual.max() <= 1e-9 * np.linalg.norm(h, ord=np.inf)


def test_orthonormality():
    sol = qubit_eigensolution(DEFAULT, 6)
    gram = sol.states.conj().T @ sol.states
    assert np.abs(gram - np.eye(6)).max() < 1e-10


def test_iterative_solver_above_dense_limit():
    rng = np.random.default_rng(3)
    dim = 2100
    diag = np.sort(rng.uniform(0, 50, dim))
    m = np.diag(diag).astype(complex)
    # sprinkle a few off-diagonal couplings
    for i in range(0, dim - 1, 7):
        m[i, i + 1] = m[i + 1, i] = 0.01
    sol = diagonalize(m, 4)
    dense = np.linalg.eigvalsh(m)[:4]
    assert sol.energies == pytest.approx(dense, abs=1e-8)


def test_sector_must_be_even_or_odd():
    h = build_hamiltonian(replace(DEFAULT, cutoff=4))
    even = diagonalize(h, 3, sector="even").energies
    odd = diagonalize(h, 3, sector="odd").energies
    # the two sectors together hold the full spectrum
    full = diagonalize(h, 3).energies
    assert full == pytest.approx(np.sort(np.concatenate([even, odd]))[:3], abs=1e-9)
    for bad in ("evn", "Even", "", 0):
        with pytest.raises(SpectrumError, match="sector must be"):
            diagonalize(h, 3, sector=bad)


def test_k_beyond_the_sector_is_an_error():
    # cutoff 2: the 25 basis states split into an even sector of 13 and an odd one of 12
    spec = replace(DEFAULT, cutoff=2)
    h = build_hamiltonian(spec)
    assert diagonalize(h, 13, sector="even").k == 13
    assert diagonalize(h, 12, sector="odd").k == 12
    for sector, k in (("even", 14), ("odd", 13)):
        with pytest.raises(SpectrumError, match=f"k = {k} exceeds the {k - 1} states"):
            diagonalize(h, k, sector=sector)
    with pytest.raises(SpectrumError, match="k = 14 exceeds"):
        qubit_eigensolution(spec, 14)


# The benchmark shapes at near-degenerate points, each with the sector it is
# solved in: the single-loop even sector at phi_ext = pi (313 states; E0 and
# E1 0.012 GHz apart, E2 and E3 4.9e-3), identical gradiometric loops at
# Phi_G = 1 (625; E2 and E3 4.9e-3 apart) and the node basis at cutoff 9
# (361) at half flux.
NEAR_DEGENERATE = {
    "single_loop": (replace(DEFAULT, phi_ext=math.pi), "even"),
    "gradiometric": (CircuitSpec(variant=Variant.GRADIOMETRIC, ej=10.0, ec=0.1, alpha1=1.0,
                                 alpha2=1.0, phi_ext1=math.pi, phi_ext2=-math.pi,
                                 cutoff=12), None),
    "node_basis": (CircuitSpec(variant=Variant.NODE_BASIS, ej=10.0, ec=0.1,
                               phi_ext=math.pi, cutoff=9), None),
}


def _solved_matrix(spec: CircuitSpec, sector: str | None) -> np.ndarray:
    h = build_hamiltonian(spec).matrix
    if sector is None:
        return h
    idx = physical_sector_indices(spec.basis, 0 if sector == "even" else 1)
    return h[np.ix_(idx, idx)]


def _sparse_solve(m: np.ndarray, k: int, v0=None):
    v0 = spectrum._start_vector(m.shape[0]) if v0 is None else v0
    return spectrum._shift_invert_lowest(scipy.sparse.csc_matrix(m), k, v0)


@pytest.mark.parametrize("k", [1, 3, 4])
@pytest.mark.parametrize("shape", sorted(NEAR_DEGENERATE))
def test_shift_invert_matches_dense_at_near_degenerate_points(shape, k):
    spec, sector = NEAR_DEGENERATE[shape]
    m = _solved_matrix(spec, sector)
    assert spectrum._use_sparse(m.shape[0], k)
    energies, states = _sparse_solve(m, k)
    dense_e, dense_v = scipy.linalg.eigh(m, subset_by_index=(0, k - 1))
    assert energies == pytest.approx(dense_e, abs=1e-10)
    # the same states up to a phase
    overlaps = np.abs(np.sum(dense_v.conj() * states, axis=0))
    assert overlaps == pytest.approx(np.ones(k), abs=1e-10)
    # diagonalize takes the sparse branch for this shape
    sol = diagonalize(build_hamiltonian(spec), k, sector=sector)
    assert np.array_equal(sol.energies, energies)


def test_solver_rule_keeps_small_and_many_level_solves_dense():
    # (dim, k) of complex solves: k = 3 on 313 and 625 states goes sparse;
    # k + 4 = 12, 16 levels on 313 and 361, and 25 levels on 313, stay dense
    for dim, k in ((313, 3), (313, 7), (625, 3), (625, 15), (2209, 3)):
        assert spectrum._use_sparse(dim, k)
    for dim, k in ((300, 1), (289, 3), (313, 8), (313, 12), (361, 12), (361, 16),
                   (313, 25), (625, 16)):
        assert not spectrum._use_sparse(dim, k)
    # real matrices (a P_theta parity block of S^T H S at ng = 0): a dense
    # eigh costs a quarter of the complex one, so k = 3 on 313, 361 and 545
    # states stays dense and shift-invert takes over above 560 states. The
    # benchmark's static blocks all stay dense: 163 + 150 states of the
    # single-loop sector, 325 + 300 of the 625-state gradiometric basis;
    # large_basis (2209 states) solves 1128 + 1081 by shift-invert
    for dim, k in ((625, 3), (625, 15), (2209, 3)):
        assert spectrum._use_sparse(dim, k, np.float64)
    for dim, k in ((313, 3), (361, 3), (545, 3), (545, 12), (313, 25), (625, 16)):
        assert not spectrum._use_sparse(dim, k, np.float64)


def _compensated_gradiometric() -> CircuitSpec:
    # loops of unequal area (r = 0.01) at the compensating junction
    # asymmetry and the shifted operating flux: alpha1 != alpha2 and
    # phi_ext1 != -phi_ext2
    r = 0.01
    base = CircuitSpec(variant=Variant.GRADIOMETRIC, ej=10.0, ec=0.1, cutoff=12)
    return _grad_spec_at(base, LoopGeometry(a1=1.0 + r, a2=1.0 - r),
                         compensation_delta(r)[0], compensated_operating_flux(r))


REAL_ROUTE = {
    "single_loop": replace(DEFAULT, alpha=0.8),
    "gradiometric": CircuitSpec(variant=Variant.GRADIOMETRIC, ej=10.0, ec=0.1, alpha1=1.0,
                                alpha2=0.95, phi_ext1=0.99 * math.pi,
                                phi_ext2=-1.01 * math.pi, cutoff=12),
    "node_basis": CircuitSpec(variant=Variant.NODE_BASIS, ej=10.0, ec=0.1, alpha=0.9,
                              phi_ext=0.99 * math.pi, cutoff=9),
    "compensated": _compensated_gradiometric(),
    "small": replace(DEFAULT, cutoff=2),  # a 13-state sector
}


def _record_solved_dtypes(monkeypatch) -> list:
    """Record the dtype of every matrix that a lowest-k solve takes."""
    dtypes = []
    lowest_k = spectrum._lowest_k

    def recorded(h, k, **kwargs):
        dtypes.append(h.dtype)
        return lowest_k(h, k, **kwargs)

    monkeypatch.setattr(spectrum, "_lowest_k", recorded)
    return dtypes


@pytest.mark.parametrize("shape", sorted(REAL_ROUTE))
def test_qubit_eigensolution_solves_in_real_arithmetic_at_zero_offset_charge(
        shape, monkeypatch):
    # at ng = 0 the (sector) H passes the charge-inversion and P_theta tests
    # and is solved as the two real P_theta parity blocks of S^T H S, one
    # float64 solve per block; the states come back as charge-basis
    # vectors, C*K-invariant P_theta eigenstates, equal to those of the
    # complex solve up to a phase
    spec = REAL_ROUTE[shape]
    sector = "even" if spec.variant is Variant.SINGLE_LOOP else None
    perm = _theta_permutation(spec.basis)
    n_even, n_odd = (lift.shape[1] for _, lift in _theta_blocks(spec.basis, 0 if sector else None))
    dtypes = _record_solved_dtypes(monkeypatch)
    # k = 13 solves the whole 13-state sector at cutoff 2, where each block
    # (7 and 6 states) keeps all of its levels, fewer than k
    for k in (1, 2, 3, 8, 13):
        sol = qubit_eigensolution(spec, k)
        ref = diagonalize(build_hamiltonian(spec), k, sector=sector)
        assert dtypes[:3] == [np.float64, np.float64, np.complex128]
        del dtypes[:3]
        assert sol.basis == spec.basis and sol.states.shape == ref.states.shape
        assert sol.energies == pytest.approx(ref.energies, abs=1e-10)
        overlaps = np.abs(np.sum(ref.states.conj() * sol.states, axis=0))
        assert overlaps == pytest.approx(np.ones(k), abs=1e-10)
        assert np.abs(sol.states[::-1].conj() - sol.states).max() < 1e-14
        parities = np.sum(sol.states.conj() * sol.states[perm], axis=0).real
        assert np.abs(sol.states[perm] - sol.states * parities).max() < 1e-14
        assert np.abs(np.abs(parities) - 1.0).max() < 1e-14
        assert np.count_nonzero(parities > 0) <= n_even
        assert np.count_nonzero(parities < 0) <= n_odd
        if k == 2 and shape != "small":  # the qubit pair comes from one block
            assert np.sign(parities[0]) == np.sign(parities[1])
    # an offset charge breaks the symmetry: the solve stays complex
    offset = replace(spec, ng_theta=0.05)
    sol = qubit_eigensolution(offset, 3)
    assert dtypes == [np.complex128]
    ref = diagonalize(build_hamiltonian(offset), 3, sector=sector)
    np.testing.assert_array_equal(sol.states, ref.states)
    with pytest.raises(SpectrumError, match="not real"):
        qubit_eigensolution(offset, 3, _coordinates=True)


def test_inversion_test_is_exact_and_matches_its_dense_definition():
    spec = REAL_ROUTE["single_loop"]
    idx = physical_sector_indices(spec.basis, 0)

    def dense_definition(h):
        m = h.toarray()
        return np.array_equal(m[::-1, ::-1].conj(), m)

    h = build_hamiltonian(spec).csr
    cases = [h, h[idx][:, idx], build_hamiltonian(replace(spec, ng_phi=0.05)).csr]
    tilted = h.copy()
    tilted.data[7] *= 1 + 1e-15  # one entry off its mirror by a rounding
    cases.append(tilted)
    # the same matrix with each row's entries in a random order
    rng = np.random.default_rng(5)
    order = np.concatenate([rng.permutation(np.arange(a, b))
                            for a, b in zip(h.indptr, h.indptr[1:])])
    cases.append(scipy.sparse.csr_array((h.data[order], h.indices[order], h.indptr),
                                        shape=h.shape))
    assert [inversion_symmetric(m) for m in cases] == [True, True, False, False, True]
    assert [dense_definition(m) for m in cases] == [True, True, False, False, True]
    # the sector basis is built once and is the full basis restricted
    s = charge_inversion_basis(spec.basis, 0)
    assert s is charge_inversion_basis(spec.basis, 0)
    full = charge_inversion_basis(spec.basis).toarray()
    np.testing.assert_array_equal(s.toarray(), full[np.ix_(idx, idx)])


def test_theta_test_is_exact_and_matches_its_dense_definition():
    single, node = REAL_ROUTE["single_loop"], REAL_ROUTE["node_basis"]
    grad = _compensated_gradiometric()
    assert grad.alpha1 != grad.alpha2 and grad.phi_ext1 != -grad.phi_ext2
    idx = physical_sector_indices(single.basis, 0)
    h = build_hamiltonian(single).csr
    tilted = h.copy()
    tilted.data[7] *= 1 + 1e-15  # one entry off its image by a rounding
    # the same matrix with each row's entries in a random order
    rng = np.random.default_rng(5)
    order = np.concatenate([rng.permutation(np.arange(a, b))
                            for a, b in zip(h.indptr, h.indptr[1:])])
    shuffled = scipy.sparse.csr_array((h.data[order], h.indices[order], h.indptr),
                                      shape=h.shape)
    cases = [  # (matrix, basis, parity sector, commutes with P_theta)
        (h, single.basis, None, True),
        (h[idx][:, idx], single.basis, 0, True),
        (build_hamiltonian(grad).csr, grad.basis, None, True),
        (build_hamiltonian(node).csr, node.basis, None, True),
        (build_hamiltonian(replace(single, ng_theta=0.05)).csr, single.basis, None, False),
        (build_hamiltonian(node, charging_scale=0.8125).csr, node.basis, None, False),
        (tilted, single.basis, None, False),
        (shuffled, single.basis, None, True),
    ]
    for m, basis, parity, commutes in cases:
        perm = _theta_permutation(basis, parity)
        dense = m.toarray()
        assert np.array_equal(dense[np.ix_(perm, perm)], dense) == commutes
        assert _theta_symmetric(m, perm) == commutes
        if parity is None and m.has_canonical_format:
            # the real route's test, from images kept per pattern, agrees
            # (every case here but the offset charge passes the C*K test)
            sector = 0 if basis.modes == ("phi", "theta") else None
            blocks = spectrum._theta_parity_blocks(m, basis, sector, False)
            assert (blocks is not None) == (commutes and inversion_symmetric(m))


def test_qubit_pair_shares_its_theta_parity_at_zero_offset_charge():
    # n_theta is odd under P_theta (n_theta -> -n_theta), so a qubit pair of
    # one P_theta parity has no n_theta matrix element; an offset charge
    # breaks the symmetry and the element appears
    for alpha in (1.0, 0.8, 0.6):
        for ng_theta, inside in ((0.0, True), (0.05, False)):
            spec = replace(DEFAULT, alpha=alpha, ng_theta=ng_theta)
            sol = qubit_eigensolution(spec, 2)
            element = abs(sol.state(0).conj() @ (build_operator("n_theta", spec).csr
                                                 @ sol.state(1)))
            assert (element < 1e-12) if inside else (element > 1e-8)


def test_doubly_degenerate_levels_get_the_dense_energies():
    # H + H: every level twice. A Krylov space from one start vector holds
    # one state of each pair, so the inertia count has to catch the rest.
    m = _solved_matrix(*NEAR_DEGENERATE["single_loop"])
    doubled = scipy.linalg.block_diag(m, m)
    for k in (1, 2, 3, 4, 5):
        assert spectrum._use_sparse(doubled.shape[0], k)
        dense_e = scipy.linalg.eigvalsh(doubled, subset_by_index=(0, k - 1))
        assert diagonalize(doubled, k).energies == pytest.approx(dense_e, abs=1e-10)
    with pytest.raises(spectrum._SparseRefused):
        _sparse_solve(doubled, 3)


def _count_dense_solves(monkeypatch) -> list[int]:
    """Record the dimension of every dense lowest-k eigh call."""
    calls = []
    eigh = scipy.linalg.eigh

    def counted(a, *args, **kwargs):
        if "subset_by_index" in kwargs:
            calls.append(a.shape[0])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(spectrum.scipy.linalg, "eigh", counted)
    return calls


def test_start_blind_to_a_block_is_refused_and_solved_densely(monkeypatch):
    # On H + H, a start with no weight on the second copy keeps that copy
    # out of the Krylov space exactly (LU solves of a block-diagonal matrix
    # leave its zeros zero), as a symmetry would: Lanczos returns a
    # converged but incomplete set, which only the inertia count can see.
    # (An all-ones start on the parity-symmetric H at phi_ext = pi misses
    # the odd levels only in exact arithmetic; rounding brings them back.)
    m = _solved_matrix(*NEAR_DEGENERATE["single_loop"])
    doubled = scipy.linalg.block_diag(m, m)
    dim = doubled.shape[0]
    generic = spectrum._start_vector

    def blind(n):
        v0 = np.zeros(n)
        v0[: n // 2] = generic(n // 2)
        return v0

    with pytest.raises(spectrum._SparseRefused, match="6 levels below the inertia shift"):
        _sparse_solve(doubled, 3, blind(dim))
    monkeypatch.setattr(spectrum, "_start_vector", blind)
    dense_solves = _count_dense_solves(monkeypatch)
    sol = diagonalize(doubled, 3)
    assert dense_solves == [dim]
    assert sol.energies == pytest.approx(scipy.linalg.eigvalsh(doubled)[:3], abs=1e-10)


def test_arpack_failure_falls_back_to_dense(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", np.empty(0),
                                                      np.empty((0, 0)))

    # at cutoff 17 both P_theta blocks of the gradiometric basis (630 and
    # 595 of its 1225 states) go to shift-invert, and each falls back alone
    spec = replace(NEAR_DEGENERATE["gradiometric"][0], cutoff=17)
    m = _solved_matrix(spec, None)
    expected = scipy.linalg.eigvalsh(m, subset_by_index=(0, 2))
    monkeypatch.setattr(spectrum.scipy.sparse.linalg, "eigsh", no_convergence)
    with pytest.raises(spectrum._SparseRefused, match="no convergence"):
        _sparse_solve(m, 3)
    dense_solves = _count_dense_solves(monkeypatch)
    sol = qubit_eigensolution(spec, 3)
    assert dense_solves == [lift.shape[1] for _, lift in _theta_blocks(spec.basis)] == [630, 595]
    assert sol.energies == pytest.approx(expected, abs=1e-10)


def test_levels_too_close_for_the_inertia_shift_fall_back_to_dense(monkeypatch):
    # E2 and E3 of the identical gradiometric loops are 4.9e-3 GHz apart;
    # a residual tolerance of 1e-4 * ||H|| (0.013 GHz) cannot place the
    # count's shift between them, but can between E1 and E2
    spec, sector = NEAR_DEGENERATE["gradiometric"]
    m = _solved_matrix(spec, sector)
    monkeypatch.setattr(spectrum, "RESIDUAL_RTOL", 1e-4)
    assert _sparse_solve(m, 2)[0] == pytest.approx(scipy.linalg.eigvalsh(m)[:2], abs=1e-10)
    with pytest.raises(spectrum._SparseRefused, match="too close"):
        _sparse_solve(m, 3)
    # the public complex route solves the 625 states in one piece
    dense_solves = _count_dense_solves(monkeypatch)
    sol = diagonalize(build_hamiltonian(spec), 3, sector=sector)
    assert dense_solves == [m.shape[0]]
    assert sol.energies == pytest.approx(scipy.linalg.eigvalsh(m)[:3], abs=1e-10)


def test_singular_shift_falls_back_to_dense():
    # a diagonal H: its Gershgorin bound is E0 itself, so H - sigma*I is singular
    diag = np.linspace(-1.0, 2.0, 400) ** 3
    with pytest.raises(spectrum._SparseRefused, match="singular"):
        _sparse_solve(np.diag(diag).astype(complex), 3)
    assert diagonalize(np.diag(diag), 3).energies == pytest.approx(np.sort(diag)[:3], abs=1e-12)


def test_inertia_count_and_its_refusals():
    # path-graph Laplacian: eigenvalues 2 - 2*cos(pi*j/(n + 1)), j = 1..n
    n = 60
    ones = np.ones(n - 1)
    lap = scipy.sparse.diags([-ones, 2 * np.ones(n), -ones], [-1, 0, 1],
                             format="csc", dtype=complex)
    exact = 2 - 2 * np.cos(np.pi * np.arange(1, n + 1) / (n + 1))
    for j in (0, 1, 7, 30, n - 2):
        tau = 0.5 * (exact[j] + exact[j + 1])
        assert spectrum._levels_below(lap, tau, 4.0) == j + 1
    refusals = {
        # h - tau*I = [[0, 1], [1, 0]]: no nonzero diagonal pivot
        "row pivot": (np.array([[1.0, 1.0], [1.0, 1.0]]), 1.0),
        "tiny pivot": (np.diag([1.0, 2.0 + 1e-12, 3.0]), 2.0),
        "singular": (np.diag([1.0, 2.0, 3.0]), 2.0),
    }
    for reason, (h, tau) in refusals.items():
        with pytest.raises(spectrum._SparseRefused, match=reason):
            spectrum._levels_below(scipy.sparse.csc_matrix(h.astype(complex)), tau, 3.0)


def test_no_full_basis_operator_is_made_dense(monkeypatch):
    # every package path takes the CSR form; a dense copy is made only on
    # request (HermitianOperator.matrix) or inside a dense eigh of a sector
    def refuse(self):
        raise AssertionError(f"dense copy of {self.label!r}")

    monkeypatch.setattr(HermitianOperator, "matrix", property(refuse))
    grad = CircuitSpec(variant=Variant.GRADIOMETRIC, ej=10.0, ec=0.1, cutoff=12)
    assert grad.basis.dim == 625 and spectrum._use_sparse(grad.basis.dim, 3)
    assert qubit_eigensolution(grad, 3).energies.size == 3
    assert coherence_report(DEFAULT).t1 > 0
    assert np.isfinite(dispersive_shift(DEFAULT, ResonatorSpec(), levels=25).chi)
    engine = _CircuitEngine(DEFAULT)
    assert np.all(Gamma1Interpolator(DEFAULT, 0.9, _engine=engine).rates > 0)
    assert engine.fallbacks == 0


def test_hermiticity_and_finiteness_checks_act_on_the_stored_entries():
    basis = CircuitSpec(cutoff=1).basis
    m = np.diag(np.arange(9.0)).astype(complex)
    m[0, 4] = m[4, 0] = 1e-3j  # symmetric, not Hermitian
    for form in (m, scipy.sparse.csr_array(m)):
        with pytest.raises(CircuitError, match="not Hermitian"):
            HermitianOperator("bad", basis, form)
    m[4, 0] = -1e-3j
    op = HermitianOperator("good", basis, scipy.sparse.csr_array(m))
    assert isinstance(op.csr, scipy.sparse.csr_array)
    assert op.csr.nnz == 10  # the explicit zero at (0, 0) is eliminated
    assert np.array_equal(op.matrix, m)
    # the bound is HERMITICITY_RTOL times the largest entry, 8: an entry
    # off its mirror, or with no stored mirror, passes just below it
    bound = 1e-12 * 8.0
    for scale, hermitian in ((0.9, True), (1.1, False)):
        off = m.copy()
        off[0, 4] += scale * bound
        lone = m.copy()
        lone[0, 5] = scale * bound
        for bad in (off, lone):
            if hermitian:
                HermitianOperator("near", basis, scipy.sparse.csr_array(bad))
            else:
                with pytest.raises(CircuitError, match="not Hermitian"):
                    HermitianOperator("off", basis, scipy.sparse.csr_array(bad))
    m[2, 2] = np.nan
    with pytest.raises(CircuitError, match="non-finite"):
        HermitianOperator("nan", basis, m)


def test_non_finite_norm_is_refused():
    h = np.diag([0.0, 1.0, 1e308]) + np.diag([1e308, 1e308], 1) + np.diag([1e308, 1e308], -1)
    with pytest.raises(SpectrumError, match="not finite"):
        diagonalize(h, 1)


@pytest.mark.parametrize("variant", list(Variant))
def test_hamiltonian_is_one_csr_that_the_decomposition_sums_to(variant):
    spec = CircuitSpec(variant=variant, alpha=0.8, alpha1=0.8, alpha2=0.8,
                       ng_phi=0.1, cutoff=4)
    h = build_hamiltonian(spec)
    assert isinstance(h.csr, scipy.sparse.csr_array) and h.csr.has_canonical_format
    assert np.array_equal(h.matrix, h.csr.toarray())
    h0, h1 = hamiltonian_decomposition(spec)
    assert isinstance(h0, scipy.sparse.csr_array) and isinstance(h1, scipy.sparse.csr_array)
    assert np.abs(h.matrix - (h0 + 0.8 * h1).toarray()).max() < 1e-12


def test_parity_permutation_is_the_reflection():
    basis = CircuitSpec(cutoff=3).basis
    d = basis.dim_per_mode
    reflection = np.kron(np.eye(d)[::-1], np.eye(d))
    v = np.random.default_rng(1).standard_normal((basis.dim, 2))
    assert np.array_equal(v[parity_permutation(basis)], reflection @ v)


@pytest.mark.parametrize("variant", [Variant.SINGLE_LOOP, Variant.NODE_BASIS])
def test_phi_grid_matches_the_dense_quadrature(variant):
    # the dense grid transform of psi(x1, x2) -> phi(x1, x2) psi(x1, x2)
    spec = CircuitSpec(variant=variant, cutoff=3)
    points = 64
    x = phase_grid_points(points)
    f = np.exp(1j * np.outer(x, spec.basis.charges())) / math.sqrt(2.0 * math.pi)
    j1, j2 = np.meshgrid(np.arange(points), np.arange(points), indexing="ij")
    if variant is Variant.SINGLE_LOOP:
        phi = x[j1]
    else:  # wrap(x1 - x2)/2 on [-pi, pi), the difference wrapped in grid steps
        phi = 0.5 * x[(j1 - j2 + points // 2) % points]
    synth = np.kron(f, f)  # (grid point, basis state)
    dense = (2.0 * math.pi / points) ** 2 * synth.conj().T @ (phi.ravel()[:, None] * synth)
    op = build_operator("phi_grid", spec, grid_points=points)
    assert np.abs(op.matrix - 0.5 * (dense + dense.conj().T)).max() < 1e-12


@pytest.mark.parametrize("cutoff", [3, 9])
def test_node_phi_grid_equals_the_sum_of_shift_krons(cutoff):
    # The node-basis phi_grid is written straight into CSR from its Fourier
    # coefficients c_k; it is the sum of c_k kron(S_k, S_-k), S_k the shift
    # n -> n + k, that it replaces, to rounding.
    spec = CircuitSpec(variant=Variant.NODE_BASIS, cutoff=cutoff)
    points = 256
    d = spec.basis.dim_per_mode
    x = phase_grid_points(points)
    k = np.arange(-2 * cutoff, 2 * cutoff + 1)
    wrapped = 0.5 * (np.mod(x + math.pi, 2.0 * math.pi) - math.pi)
    c = (wrapped[None, :] * np.exp(-1j * np.outer(k, x))).sum(axis=1) / points
    m = sum(c_k * scipy.sparse.kron(scipy.sparse.eye_array(d, k=-k_a),
                                    scipy.sparse.eye_array(d, k=k_a), format="csr")
            for k_a, c_k in zip(k, c))
    op = build_operator("phi_grid", spec, grid_points=points)
    assert np.abs(op.matrix - 0.5 * (m + m.conj().T).toarray()).max() <= 1e-15
