"""H and its operators summed from one circuit's checked parts, and the
eigensolves that read their P_theta blocks from those parts.

Each H is held against an independent one, built element by element
from the circuit's formulas as ``perfbench/checks.reference_hamiltonian``
builds it, so an error in the parts or their weights shows here.
"""

import math
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from dsfq import circuit, evolve, spectrum
from dsfq.circuit import (
    CircuitSpec,
    HermitianOperator,
    Variant,
    _barrier_weights,
    _theta_blocks,
    build_hamiltonian,
    build_operator,
    gradiometric_loop_dflux,
    hamiltonian_decomposition,
)
from dsfq.spectrum import diagonalize, qubit_eigensolution


def reference_hamiltonian(spec: CircuitSpec, charging_scale: float = 1.0) -> np.ndarray:
    """Full-basis H of ``spec``, one matrix element at a time.

    A term exp(i*(k_a*x_a + k_b*x_b)) moves |n_a, n_b> to
    |n_a + k_a, n_b + k_b>; each cosine adds half its amplitude that way
    and the conjugate half back.
    """
    c, ej, ec = spec.cutoff, spec.ej, spec.ec
    d = 2 * c + 1
    states = [(na, nb) for na in range(-c, c + 1) for nb in range(-c, c + 1)]
    index = {s: i for i, s in enumerate(states)}
    if spec.variant is Variant.SINGLE_LOOP:
        terms = [(1, 1, -ej / 2), (1, -1, -ej / 2),
                 (2, 0, -spec.alpha * ej / 2 * np.exp(1j * spec.phi_ext))]
    else:
        if spec.variant is Variant.GRADIOMETRIC:
            loops = [(spec.alpha1 / 2, spec.phi_ext1), (spec.alpha2 / 2, spec.phi_ext2)]
        else:
            loops = [(spec.alpha, spec.phi_ext)]
        terms = [(1, 0, -ej / 2), (0, 1, -ej / 2)]
        terms += [(1, -1, -w * ej / 2 * np.exp(1j * p)) for w, p in loops]
    h = np.zeros((d * d, d * d), dtype=complex)
    for (na, nb), i in index.items():
        if spec.variant is Variant.SINGLE_LOOP:
            h[i, i] = 2 * ec * ((na - spec.ng_phi) ** 2 + (nb - spec.ng_theta) ** 2)
        elif spec.variant is Variant.GRADIOMETRIC:
            h[i, i] = 2 * ec * ((na - nb - spec.ng_phi) ** 2 + (na + nb - spec.ng_theta) ** 2)
        else:
            ng1 = (spec.ng_theta + spec.ng_phi) / 2
            ng2 = (spec.ng_theta - spec.ng_phi) / 2
            h[i, i] = 4 * ec * (charging_scale * (na - ng1) ** 2 + (nb - ng2) ** 2)
        for ka, kb, amp in terms:
            j = index.get((na + ka, nb + kb))
            if j is not None:
                h[j, i] += amp
                h[i, j] += np.conj(amp)
    return h


CASES = {  # (spec, charging_scale) at cutoff 4
    "single_loop": (CircuitSpec(alpha=0.8, phi_ext=0.995 * math.pi, cutoff=4), 1.0),
    "gradiometric": (CircuitSpec(variant=Variant.GRADIOMETRIC, alpha1=0.9, alpha2=0.7,
                                 phi_ext1=0.97 * math.pi, phi_ext2=-1.02 * math.pi,
                                 cutoff=4), 1.0),
    "node_basis": (CircuitSpec(variant=Variant.NODE_BASIS, alpha=0.9,
                               phi_ext=0.99 * math.pi, cutoff=4), 1.0),
    "node_basis_coupled": (CircuitSpec(variant=Variant.NODE_BASIS, alpha=0.9,
                                       phi_ext=0.99 * math.pi, cutoff=4), 0.8125),
}


def _points(spec: CircuitSpec):
    """The spec at alpha 0, at flux pi/2, and with an offset charge."""
    if spec.variant is Variant.GRADIOMETRIC:
        yield spec
        yield replace(spec, alpha1=0.0, alpha2=0.0)
        yield replace(spec, phi_ext1=0.5 * math.pi)
    else:
        yield spec
        yield replace(spec, alpha=0.0)
        yield replace(spec, phi_ext=0.5 * math.pi)
    yield replace(spec, ng_theta=0.05)


@pytest.mark.parametrize("case", sorted(CASES))
def test_summed_hamiltonian_matches_the_element_by_element_one(case):
    base, scale = CASES[case]
    for spec in _points(base):
        h = build_hamiltonian(spec, charging_scale=scale)
        ref = reference_hamiltonian(spec, scale)
        m = h.csr
        assert m.has_canonical_format and np.all(m.data != 0)  # no stored zeros
        # the stored entries are exactly the reference's nonzeros
        assert np.array_equal(m.toarray() != 0, ref != 0)
        assert np.abs(m.toarray() - ref).max() <= 1e-15 * np.abs(ref).max()
        # and the sum passes a fresh check, which leaves it as it is
        fresh = HermitianOperator("fresh", spec.basis, m)
        assert np.array_equal(fresh.csr.data, m.data)
        assert np.array_equal(fresh.csr.indices, m.indices)
        assert np.array_equal(fresh.csr.indptr, m.indptr)


@pytest.mark.parametrize("case", sorted(CASES))
def test_decomposition_is_the_summed_hamiltonian(case):
    spec, scale = CASES[case]
    h0, h1 = hamiltonian_decomposition(spec, charging_scale=scale)
    assert np.all(h0.data != 0) and np.all(h1.data != 0)
    for alpha in (0.0, 0.6):
        h = build_hamiltonian(spec.with_alpha(alpha), charging_scale=scale).matrix
        assert np.abs(h0.toarray() + alpha * h1.toarray() - h).max() <= 1e-15 * np.abs(h).max()


@pytest.mark.parametrize("case", sorted(CASES))
def test_flux_derivatives_match_finite_differences_of_h(case):
    spec, scale = CASES[case]
    step = 1e-6
    if spec.variant is Variant.GRADIOMETRIC:
        fields = {"phi_ext1": gradiometric_loop_dflux(spec, 1),
                  "phi_ext2": gradiometric_loop_dflux(spec, 2)}
    else:
        fields = {"phi_ext": build_operator("dH_dphi_ext", spec, charging_scale=scale)}
    for field, op in fields.items():
        hp, hm = (build_hamiltonian(replace(spec, **{field: getattr(spec, field) + sign * step}),
                                    charging_scale=scale).matrix for sign in (1, -1))
        fd = (hp - hm) / (2 * step)
        assert np.abs(op.matrix - fd).max() <= 1e-8 * np.abs(op.matrix).max()
        assert np.all(op.csr.data != 0)
        HermitianOperator("fresh", spec.basis, op.csr)


def test_operators_are_shared_and_read_only():
    spec = CASES["single_loop"][0]
    h = build_hamiltonian(spec)
    flux = build_operator("dH_dphi_ext", spec)
    for kind in ("n_phi", "n_theta", "n1", "dH_dng_phi", "dH_dng_theta", "phi_grid"):
        op = build_operator(kind, spec)
        # built once per circuit: another alpha and flux share it
        assert build_operator(kind, replace(spec, alpha=0.6, phi_ext=math.pi)) is op
    # another circuit has its own
    offset = replace(spec, ng_theta=0.05)
    assert build_operator("dH_dng_theta", offset) is not build_operator("dH_dng_theta", spec)
    for op in (h, flux, build_operator("n_theta", spec), build_operator("phi_grid", spec)):
        for array in (op.csr.data, op.csr.indices, op.csr.indptr):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[0]
    for array in hamiltonian_decomposition(spec):
        with pytest.raises(ValueError, match="read-only"):
            array.data[0] = 1.0


def _hand_built(spec: CircuitSpec) -> HermitianOperator:
    """H of ``spec`` as an operator that carries no parts."""
    return HermitianOperator("H", spec.basis, reference_hamiltonian(spec))


def _record_levels(monkeypatch) -> list:
    """Record the (size, levels, dtype) of every lowest-k solve."""
    calls = []
    lowest_k = spectrum._lowest_k

    def recorded(h, k, **kwargs):
        calls.append((h.shape[0], k, h.dtype))
        return lowest_k(h, k, **kwargs)

    monkeypatch.setattr(spectrum, "_lowest_k", recorded)
    return calls


def _assert_same_solution(sol, ref, k):
    assert sol.energies == pytest.approx(ref.energies, abs=1e-12, rel=0)
    overlaps = np.abs(np.sum(ref.states.conj() * sol.states, axis=0))
    assert overlaps.min() >= 1 - 1e-12
    assert sol.states.shape == ref.states.shape and sol.k == k


@pytest.mark.parametrize("k", [3, 12, 25])
@pytest.mark.parametrize("case", ["single_loop", "gradiometric", "node_basis"])
def test_parts_route_matches_a_hand_built_operator(case, k, monkeypatch):
    spec = replace(CASES[case][0], cutoff=8)
    sector = "even" if spec.variant is Variant.SINGLE_LOOP else None
    # an operator without parts is solved as it is, on complex data
    ref = diagonalize(_hand_built(spec), k, sector=sector, _real=True)
    assert ref.states.dtype == np.complex128
    calls = _record_levels(monkeypatch)
    sol = qubit_eigensolution(spec, k)
    _assert_same_solution(sol, ref, k)
    # two real P_theta blocks, each solving its share of k and the margin
    sizes = [lift.shape[1] for lift in _theta_blocks(spec.basis, 0 if sector else None)]
    assert calls == [(n, levels, np.float64)
                     for n, levels in zip(sizes, spectrum._block_levels(sizes, k))]


@pytest.mark.parametrize("k", [3, 25])
def test_an_uneven_split_solves_a_block_again(k, monkeypatch):
    # Without the margin each block first solves its share of k by size
    # (163 and 150 states: 2 and 2 of 3, 14 and 12 of 25). The even block
    # holds 2 of the 3 lowest levels and 14 of the 25 here, so its highest
    # solved level is kept and it is solved again with k levels; the odd
    # block's is not. The result is that of solving min(k, size) levels
    # per block.
    spec = CircuitSpec(alpha=1.0, phi_ext=1.02 * math.pi, cutoff=12)
    monkeypatch.setattr(spectrum, "BLOCK_LEVEL_MARGIN", 10**6)
    calls = _record_levels(monkeypatch)
    full = qubit_eigensolution(spec, k)
    assert [levels for _, levels, _ in calls] == [k, k]
    calls.clear()
    monkeypatch.setattr(spectrum, "BLOCK_LEVEL_MARGIN", 0)
    sol = qubit_eigensolution(spec, k)
    shares = spectrum._block_levels([163, 150], k)
    assert [levels for _, levels, _ in calls] == shares + [k]
    assert [n for n, _, _ in calls] == [163, 150, 163]
    _assert_same_solution(sol, full, k)


def test_an_operator_whose_array_was_replaced_is_solved_from_that_array():
    spec = replace(CASES["single_loop"][0], cutoff=8)
    other = replace(spec, alpha=0.6)
    h = build_hamiltonian(spec)
    h.csr = build_hamiltonian(other).csr
    sol = diagonalize(h, 3, sector="even", _real=True)
    _assert_same_solution(sol, qubit_eigensolution(other, 3), 3)


def test_threads_that_miss_the_cache_together_build_and_map_once(monkeypatch):
    # more threads than cores, switching often, on a circuit no test has
    # built: each builds its H and solves it, and every thread must get the
    # one set of parts, mapped into blocks once, and the same levels
    spec = CircuitSpec(ej=9.5, ec=0.11, alpha=0.8, phi_ext=0.99 * math.pi, cutoff=6)
    mapped = []
    map_parts = circuit._map_parts

    def counted(parts, parity):
        mapped.append(parity)
        return map_parts(parts, parity)

    monkeypatch.setattr(circuit, "_map_parts", counted)
    results = [None] * 8

    def work(i):
        h = build_hamiltonian(spec)
        results[i] = (h._parts[0], qubit_eigensolution(spec, 3).energies)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(results))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(parts is results[0][0] for parts, _ in results)
    assert all(np.array_equal(energies, results[0][1]) for _, energies in results)
    assert mapped == [0]


def test_coupled_node_basis_solves_read_one_map(monkeypatch):
    # The node basis at the coupled charging scale commutes with C*K but not
    # with P_theta. Its solves and its engine take the one C block of its
    # circuit's parts, mapped once: no solve forms S^dag H S, and the only
    # charge-inversion basis asked for is the map's own.
    spec = CircuitSpec(variant=Variant.NODE_BASIS, ej=9.7, ec=0.104, alpha=0.9,
                       phi_ext=0.99 * math.pi, cutoff=6)  # a circuit no other test builds
    scale = 0.8125
    mapped, bases = [], []
    map_parts, inversion_basis = circuit._map_parts, circuit.charge_inversion_basis

    def counted(parts, parity):
        mapped.append(parity)
        return map_parts(parts, parity)

    def recorded(*args):
        bases.append(args)
        return inversion_basis(*args)

    monkeypatch.setattr(circuit, "_map_parts", counted)
    for module in (circuit, spectrum, evolve):
        monkeypatch.setattr(module, "charge_inversion_basis", recorded, raising=False)
    calls = _record_levels(monkeypatch)
    for alpha in (1.0, 0.8, 0.6):
        sol = qubit_eigensolution(spec.with_alpha(alpha), 8, scale)
        ref = diagonalize(build_hamiltonian(spec.with_alpha(alpha), scale), 8)
        assert sol.energies == pytest.approx(ref.energies, abs=1e-12, rel=0)
    engine = evolve._CircuitEngine(spec, scale)
    energies = engine.lowest(0.85, 8)[0]
    ref = diagonalize(build_hamiltonian(spec.with_alpha(0.85), scale), 8)
    assert energies == pytest.approx(ref.energies, abs=1e-12, rel=0)
    assert mapped == [None] and bases == [(spec.basis, None)]
    # one real solve of the whole basis per qubit_eigensolution
    assert [(n, dtype) for n, _, dtype in calls if dtype == np.float64] == [(169, np.float64)] * 4
    # the engine's direct sum of the one block is that block
    (block,) = build_hamiltonian(spec, scale)._parts[0].blocks[None]
    assert engine.real and (engine._basis != block.lift).nnz == 0
    np.testing.assert_array_equal(engine._indptr, block.indptr)
    np.testing.assert_array_equal(engine._indices, block.indices)
    np.testing.assert_array_equal(engine._data[0], block.parts[0])
    np.testing.assert_array_equal(engine._data[1],
                                  block.data(0.0, *_barrier_weights(spec.with_alpha(1.0))))


@pytest.mark.parametrize("variant, scale, parity, blocks", [
    (Variant.SINGLE_LOOP, 1.0, 0, 2),
    (Variant.NODE_BASIS, 1.0, None, 2),
    (Variant.NODE_BASIS, 0.8125, None, 1),
], ids=["single_loop_sector", "node_basis", "node_basis_coupled_scale"])
def test_each_circuit_maps_to_one_tuple_of_blocks(monkeypatch, variant, scale, parity, blocks):
    # Where every part commutes with C*K and P_theta (the single loop's even
    # sector at cutoff 12, the node basis at cutoff 9 and charging scale 1)
    # the map is the tuple of the two P_theta blocks, and no block in the
    # charge-inversion basis S is built beside them; where P_theta fails
    # (the node basis at the coupled scale) it is the one block in S.
    spec = CircuitSpec(variant=variant, phi_ext=0.99 * math.pi,
                       cutoff=12 if variant is Variant.SINGLE_LOOP else 9)
    lifts = (_theta_blocks(spec.basis, parity) if blocks == 2
             else (circuit.charge_inversion_basis(spec.basis, parity),))
    built = []
    lifted_block = circuit._lifted_block

    def recorded(ops, lift):
        built.append(lift)
        return lifted_block(ops, lift)

    monkeypatch.setattr(circuit, "_lifted_block", recorded)
    mapped = circuit._map_parts(circuit._parts(spec, scale), parity)
    assert isinstance(mapped, tuple) and len(mapped) == blocks
    assert all(b.lift is lift for b, lift in zip(mapped, lifts, strict=True))
    assert len(built) == blocks and all(a is b for a, b in zip(built, lifts))


def test_offset_charge_takes_the_complex_route(monkeypatch):
    spec = replace(CASES["single_loop"][0], cutoff=8, ng_theta=0.05)
    calls = _record_levels(monkeypatch)
    sol = qubit_eigensolution(spec, 3)
    assert [dtype for _, _, dtype in calls] == [np.complex128]
    ref = diagonalize(_hand_built(spec), 3, sector="even")
    _assert_same_solution(sol, ref, 3)
