"""Pins the public API and the seams that outside tools bind by name.

``dsfq/__init__.py`` exports a fixed set of names. The perfbench tracer
(``perfbench/spans.py``) replaces the functions below by name in every
module that binds them, and reads the listed parameters and attributes.
A change that drops or renames any of them fails here first.
"""

import importlib
import inspect
import math

import dsfq
from dsfq.circuit import CircuitSpec, CoupledSpec, Variant
from dsfq.evolve import PropagationSettings, TwoQubitFrame

EXPORTS = {
    "AlphaProfile", "ChargeBasis", "CircuitSpec", "CoherenceReport", "CoupledSpec",
    "DrivePulse", "EigenSolution", "Environment", "GateReport", "HermitianOperator",
    "LoopGeometry", "NoiseChannel", "PropagationSettings", "QubitParams",
    "RateConventions", "ResonatorSpec", "Trajectory", "Variant", "align_gauge",
    "build_hamiltonian", "build_operator", "calibrate_drive", "coherence_report",
    "compensation_delta", "decay_integrated_fidelity", "default_channels",
    "dephasing_rates", "diagonalize", "dispersive_shift", "entangling_power",
    "flux_phases", "frozen_well_model", "fsim_decompose", "fsim_unitary",
    "gate_fidelity", "propagate_state", "propagate_subspace_unitary",
    "qubit_eigensolution", "qubit_params", "relaxation_rates", "run_single_qubit_gate",
    "run_two_qubit_gate", "sweep", "t1_limited_readout_fidelity", "to_phase_grid",
    "vc_vs", "zz_strength",
}
SUBMODULES = {"circuit", "cli", "coherence", "evolve", "gates", "gradiometric",
              "readout", "spectrum"}

# module -> callable (dotted for methods) -> parameter names it must keep
TRACED = {
    "circuit": {
        "build_hamiltonian": (),
        "build_operator": ("kind", "spec", "grid_points"),
        "hamiltonian_decomposition": (),
        "physical_sector_indices": (),
    },
    "spectrum": {
        "diagonalize": ("op", "k", "basis", "sector"),
        "qubit_eigensolution": (),
        "align_gauge": (),
    },
    "coherence": {"relaxation_rates": (), "dephasing_rates": (), "coherence_report": ()},
    "gradiometric": {"omega_q_at_global_flux": ()},
    "readout": {"dispersive_shift": ()},
    "evolve": {
        "propagate_state": ("profile", "settings"),
        "propagate_subspace_unitary": ("profile", "settings"),
        "TwoQubitFrame.ensure_range": ("self", "alpha_lo"),
        "TwoQubitFrame.frame_overlap": (),
    },
    "gates": {
        "Gamma1Interpolator.__init__": (),
        "run_single_qubit_gate": (),
        "run_two_qubit_gate": (),
        "gate_fidelity": (),
        "fsim_decompose": (),
        "zz_strength": (),
    },
    "cli": {"run": ("cfg", "workers"), "write_csv": ()},
}


def test_package_exports():
    public = {n for n in vars(dsfq) if not n.startswith("_")} - SUBMODULES
    assert public == EXPORTS
    assert isinstance(dsfq.__version__, str)


def test_traced_functions_keep_their_names_and_parameters():
    for module_name, targets in TRACED.items():
        module = importlib.import_module(f"dsfq.{module_name}")
        for target, params in targets.items():
            obj = module
            for part in target.split("."):
                obj = getattr(obj, part)
            assert callable(obj), f"{module_name}.{target}"
            names = inspect.signature(obj).parameters
            missing = [p for p in params if p not in names]
            assert not missing, f"{module_name}.{target} lost {missing}"


def test_traced_attributes():
    from dsfq.spectrum import DENSE_DIM_LIMIT

    assert isinstance(DENSE_DIM_LIMIT, int)
    spec = CircuitSpec(cutoff=2)
    assert dsfq.build_hamiltonian(spec).matrix.shape == (spec.basis.dim,) * 2
    q = CircuitSpec(variant=Variant.NODE_BASIS, phi_ext=0.99 * math.pi, cutoff=2)
    settings = PropagationSettings(per_qubit_m=3, subspace_k=4, alpha_grid=0.25)
    assert TwoQubitFrame(CoupledSpec(q, q), settings).grid == 0.25
