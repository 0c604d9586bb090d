import math
from dataclasses import replace

import numpy as np
import pytest

from dsfq.circuit import CircuitSpec, build_operator
from dsfq.readout import (
    ReadoutError,
    ResonatorSpec,
    dispersive_shift,
    frozen_well_model,
    t1_limited_readout_fidelity,
)
from dsfq.spectrum import qubit_eigensolution

SPEC = CircuitSpec(ej=10.0, ec=0.1, alpha=1.0, phi_ext=1.023 * math.pi, cutoff=12)
RES = ResonatorSpec(omega_r=4.8, g=0.025)


def test_chi_scales_as_g_squared():
    a = dispersive_shift(SPEC, RES, levels=20)
    b = dispersive_shift(SPEC, ResonatorSpec(omega_r=4.8, g=2 * RES.g), levels=20)
    assert b.chi / a.chi == pytest.approx(4.0, rel=1e-10)


def test_chi_vanishes_with_coupling():
    small = dispersive_shift(SPEC, ResonatorSpec(omega_r=4.8, g=1e-6), levels=20)
    assert abs(small.chi) < 1e-12


def test_chi_level_convergence():
    a = dispersive_shift(SPEC, RES, levels=20)
    b = dispersive_shift(SPEC, RES, levels=30)
    assert abs(a.chi - b.chi) / abs(b.chi) < 0.01


def test_chi_gauge_invariance():
    # eigenvector phases cannot matter: recompute after a global rephase
    # by checking reproducibility across repeated solves
    a = dispersive_shift(SPEC, RES, levels=20)
    b = dispersive_shift(SPEC, RES, levels=20)
    assert a.chi == b.chi


def test_levels_floor_enforced():
    with pytest.raises(ReadoutError):
        dispersive_shift(SPEC, RES, levels=5)


def test_purcell_matrix_element_suppressed():
    sol = qubit_eigensolution(SPEC, 25)
    n_theta = build_operator("n_theta", SPEC).matrix
    el = np.abs(sol.states.conj().T @ (n_theta @ sol.states))
    e01 = el[0, 1] ** 2
    emax = (el[0, 2:] ** 2).max()
    assert e01 < 1e-6 * emax


def test_frozen_well_symmetric_at_half_flux():
    fw = frozen_well_model(CircuitSpec(alpha=1.0), 0.0)
    assert fw["omega_theta"]["+"] == pytest.approx(fw["omega_theta"]["-"])
    assert fw["well_offsets"]["+"] == pytest.approx(0.0)


def test_frozen_well_identifies_brighter_well():
    # the well whose plasmon approaches omega_r is the deeper-E_J one
    d = 0.023 * math.pi
    fw0 = frozen_well_model(CircuitSpec(alpha=1.0), 0.0)
    fw = frozen_well_model(CircuitSpec(alpha=1.0), d)
    gaps0 = {w: abs(fw0["omega_theta"][w] - 4.8) for w in "+-"}
    gaps = {w: abs(fw["omega_theta"][w] - 4.8) for w in "+-"}
    closest = min(gaps, key=gaps.get)
    assert gaps[closest] < gaps0[closest]
    assert fw["omega_theta"]["+"] > fw["omega_theta"]["-"]


def test_frozen_well_plasmon_matches_full_model():
    # theta-plasmon transition inside one well from full diagonalization
    spec = replace(SPEC, phi_ext=1.023 * math.pi)
    d = spec.phi_ext - math.pi
    fw = frozen_well_model(CircuitSpec(alpha=1.0), d)
    sol = qubit_eigensolution(spec, 8)
    phi_op = build_operator("phi_grid", spec).matrix
    n_theta = build_operator("n_theta", spec).matrix
    mean_phi = np.real(np.einsum("ai,ab,bi->i", sol.states.conj(), phi_op, sol.states))
    el = np.abs(sol.states.conj().T @ (n_theta @ sol.states))
    # ground state's theta-excited partner: strong n_theta element, same well
    partners = [
        j for j in range(2, 8)
        if el[0, j] > 0.5 and np.sign(mean_phi[j]) == np.sign(mean_phi[0])
    ]
    assert partners, "no theta-plasmon partner found"
    transition = sol.energies[partners[0]] - sol.energies[0]
    well = "+" if mean_phi[0] > 0 else "-"
    assert transition == pytest.approx(fw["omega_theta"][well], rel=0.10)


def test_frozen_well_requires_protected_point():
    with pytest.raises(ReadoutError):
        frozen_well_model(CircuitSpec(alpha=0.9), 0.0)
    with pytest.raises(ReadoutError):
        frozen_well_model(CircuitSpec(alpha=1.0), 0.5)


def test_t1_limited_readout_fidelity_values():
    assert t1_limited_readout_fidelity(519.0, 1.0) == pytest.approx(0.99808, abs=5e-5)
    assert t1_limited_readout_fidelity(519.0, 0.0) == 1.0
    assert t1_limited_readout_fidelity(10.0, 10.0) == pytest.approx(math.exp(-1.0))
    with pytest.raises(ReadoutError):
        t1_limited_readout_fidelity(-1.0, 1.0)


def test_validity_flag_near_resonance():
    # find a flux where a transition sits within 5g of omega_r
    ds = dispersive_shift(replace(SPEC, phi_ext=1.03 * math.pi), RES, levels=25)
    assert not ds.valid
    assert ds.near_resonant_pairs


def _loop_reference(spec, res, levels):
    """(chi_table, valid, near_resonant_pairs) of the dispersive sum, one
    level pair and resonator sign at a time."""
    sol = qubit_eigensolution(spec, levels)
    n_theta = build_operator("n_theta", spec).csr
    elements = sol.states.conj().T @ (n_theta @ sol.states)
    chi_table = np.zeros((2, levels))
    valid, near = True, []
    for i in (0, 1):
        for j in range(levels):
            if j == i:
                continue
            de = sol.energies[i] - sol.energies[j]
            for sign in (-1.0, 1.0):
                den = de + sign * res.omega_r
                if abs(den) < 1e-6:
                    raise ReadoutError(f"exact qubit-resonator resonance between levels {i} and {j}")
                if abs(den) < 5.0 * res.g:
                    valid = False
                    near.append((i, j, float(den)))
                chi_table[i, j] += res.g**2 * abs(elements[i, j]) ** 2 / den
    return chi_table, valid, near


def test_dispersive_shift_matches_the_loop_over_levels():
    # near resonance, with more than one near pair, and far from it
    for spec, res in ((replace(SPEC, phi_ext=1.03 * math.pi), ResonatorSpec(omega_r=4.8, g=0.2)),
                      (SPEC, RES)):
        ds = dispersive_shift(spec, res, levels=25)
        chi_table, valid, near = _loop_reference(spec, res, 25)
        assert np.array_equal(ds.chi_table, chi_table)
        assert ds.valid is valid and ds.near_resonant_pairs == near
        assert ds.chi == float(chi_table[1].sum() - chi_table[0].sum())
    assert len(dispersive_shift(replace(SPEC, phi_ext=1.03 * math.pi),
                                ResonatorSpec(omega_r=4.8, g=0.2), 25).near_resonant_pairs) > 1


def test_exact_resonance_raises_and_names_its_levels():
    energies = qubit_eigensolution(SPEC, 12).energies
    res = ResonatorSpec(omega_r=float(energies[3] - energies[1]), g=0.025)
    with pytest.raises(ReadoutError, match="between levels 1 and 3"):
        _loop_reference(SPEC, res, 12)
    with pytest.raises(ReadoutError, match="between levels 1 and 3"):
        dispersive_shift(SPEC, res, levels=12)
