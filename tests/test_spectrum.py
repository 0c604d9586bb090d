import math
from dataclasses import replace

import numpy as np
import pytest

from dsfq.circuit import (
    CircuitSpec,
    build_hamiltonian,
    build_operator,
    hamiltonian_decomposition,
)
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
