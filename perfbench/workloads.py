"""Seeded experiment configs for the benchmark workloads.

A workload is a sequence of rounds; a round is a list of jobs, each one
``dsfq.cli`` config that the closed loop runs to completion before it
submits the next. Round r of seed s comes from its own random stream, so
the same seed always gives the same inputs and no two rounds repeat a
config. Every round of a workload does the same amount of work, so the
per-round rates of one run can be compared and their median reported.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

ROUNDS = 48  # generated and validated during set-up; the loop wraps past the end

EJ_EC = {"ej": 10.0, "ec": 0.1}


@dataclass(frozen=True)
class Job:
    """One experiment: its config, output row count and rows to re-derive."""

    cfg: dict
    rows: int
    check_rows: tuple[int, ...]


def _cfg(experiment: str, circuit: dict, params: dict, seed: int, workers: int) -> dict:
    return {
        "schema_version": 1,
        "experiment": experiment,
        "circuit": circuit,
        "params": params,
        "seed": seed,
        "workers": workers,
    }


def _static_sweep(rng: random.Random, seed: int, workers: int) -> list[Job]:
    # Why: many small independent dense diagonalizations, so circuit
    # (building H and operators), spectrum, coherence, readout and the cli
    # thread pool do the work, and evolve does none. Single-loop circuits
    # at cutoff 12 solve an even sector of dimension 313; the gradiometric
    # basis is 625. Grids are jittered inside the shipped configs' ranges.
    # gradiometric_dispersion runs its points serially, outside the pool.
    loop = dict(EJ_EC, cutoff=12)
    jobs = [
        (_cfg("spectrum_vs_alpha", dict(loop, phi_ext="0.997*pi"), {
            "alpha_start": rng.uniform(0.95, 1.0),
            "alpha_stop": rng.uniform(0.5, 0.55),
            "points": 6,
        }, seed, workers), 6),
        (_cfg("flux_dispersion", dict(loop, alpha=1.0), {
            "phi_start_pi": rng.uniform(0.94, 0.96),
            "phi_stop_pi": rng.uniform(1.04, 1.06),
            "points": 6,
        }, seed, workers), 6),
        (_cfg("coherence_vs_alpha", dict(loop, phi_ext="0.997*pi"), {
            "alpha_start": rng.uniform(0.95, 1.0),
            "alpha_stop": rng.uniform(0.5, 0.55),
            "points": 4,
        }, seed, workers), 4),
        (_cfg("dispersive_shift_sweep", dict(loop, alpha=1.0), {
            "omega_r": 4.8,
            "g": 0.025,
            "phi_start_pi": rng.uniform(1.0, 1.005),
            "phi_stop_pi": rng.uniform(1.03, 1.035),
            "points": 6,
            "levels": 25,
        }, seed, workers), 6),
        (_cfg("gradiometric_dispersion", dict(loop, alpha1=1.0, alpha2=1.0), {
            "asymmetry": 0.01,
            "phi_g_start": rng.uniform(0.985, 0.995),
            "phi_g_stop": rng.uniform(1.025, 1.035),
            "points": 2,
        }, seed, workers), 2),
    ]
    return [Job(cfg, rows, (rng.randrange(rows),)) for cfg, rows in jobs]


def _two_qubit_map(rng: random.Random, seed: int, workers: int) -> list[Job]:
    # Why: the one-time evolve.TwoQubitFrame build and the per-step Python
    # loop of propagate_subspace_unitary do most of the work, together with
    # the up-to-z Nelder-Mead scoring in gates; the single-qubit static
    # layers do little. t_a stays at the shipped minimum of 20 ns, which
    # bounds the frame build to the alpha range [0.857, 1]. The two waits
    # sit within 1 ns of 5 ns, so the two gates, which the pool runs side
    # by side, take the same number of steps in every round.
    # The zz alphas come from three disjoint bins: identical qubits at
    # nearly equal alphas hybridize 01 and 10, which the exchange-symmetric
    # pairs (alpha1 == alpha2) of every map already cover. Both experiments
    # run on one cli worker: with two points in flight, how their transient
    # matrices overlap swung the peak RSS by 8 to 16 MB from run to run, and
    # the GIL-bound step loop gains little from a second thread.
    pair = dict(EJ_EC, cutoff=9, phi_ext="0.99*pi")
    d_w = round(rng.uniform(0.0, 1.0), 3)
    alphas = [round(rng.uniform(lo, lo + 0.15), 6) for lo in (0.5, 0.675, 0.85)]
    return [
        Job(_cfg("two_qubit_map", dict(pair), {
            "cg_ratio": 0.3,
            "detuning": 0.0,
            "t_a_values": [20],
            "t_w_values": [round(5 - d_w, 3), round(5 + d_w, 3)],
            "steps_per_ns": 286,
        }, seed, 1), 2, ()),
        Job(_cfg("zz_map", dict(pair), {
            "cg_ratio": 0.3,
            "alpha_values": alphas,
        }, seed, 1), 9, ()),
    ]


# Shipped drive phase of each target; the seed jitters it slightly.
_PHASE_PI = {"x": 0.0, "y": 0.5, "xy": 0.26}


def _driven_gate(rng: random.Random, seed: int, workers: int) -> list[Job]:
    # Why: almost all the time is in evolve.propagate_state, which runs a
    # per-step Taylor exponential on the 313-dimensional sector and an
    # 8-level eigensolve at each sample. There is one point, so the cli pool
    # does nothing. At 100 steps per ns the coherent fidelity is within 5e-5
    # of the shipped 857-step value; cutoff 10 is under-converged, so 12.
    target = rng.choice(sorted(_PHASE_PI))
    cfg = _cfg("single_qubit_gate", dict(EJ_EC, cutoff=12, phi_ext="0.995*pi"), {
        "target": target,
        "detuning_ratio": rng.uniform(0.977, 0.979),
        "phase_offset_pi": _PHASE_PI[target] + rng.uniform(-0.01, 0.01),
        "steps_per_ns": 100,
        "calibrate": False,
    }, seed, workers)
    return [Job(cfg, 1, ())]


def _large_basis(rng: random.Random, seed: int, workers: int) -> list[Job]:
    # Why: the same circuit and spectrum layers as static_sweep used the
    # opposite way: a few huge dense matrices of dimension 2209 (cutoff 23,
    # above spectrum.DENSE_DIM_LIMIT) and the Lanczos branch. A sparse
    # versus dense trade-off that helps one workload and costs the other
    # shows here, as does the memory taken by dense H. One point per
    # experiment keeps a single dense H in flight, so the peak RSS does not
    # depend on how two pool threads happen to overlap. Single-loop cutoff
    # 32 is left out: two of its points in flight peak at about 2.3 GB.
    # A reference eigensolve at this size takes seconds, so one row per
    # round is re-derived.
    # BENCHMARK.json does not list this workload, so that the listed ones
    # can each measure 32 s, which two_qubit_map needs to be steady, in a
    # bounded total benchmark time. Run it with --workload large_basis.
    configs = [
        _cfg("spectrum_vs_alpha", dict(EJ_EC, cutoff=23, variant="gradiometric"), {
            "alpha_start": rng.uniform(0.95, 1.0),
            "points": 1,
        }, seed, workers),
        _cfg("flux_dispersion", dict(EJ_EC, cutoff=23, variant="node_basis", alpha=1.0), {
            "phi_start_pi": rng.uniform(0.94, 0.96),
            "points": 1,
        }, seed, workers),
    ]
    checked = rng.randrange(len(configs))
    return [Job(cfg, 1, (0,) if i == checked else ()) for i, cfg in enumerate(configs)]


GENERATORS = {
    "static_sweep": _static_sweep,
    "two_qubit_map": _two_qubit_map,
    "driven_gate": _driven_gate,
    "large_basis": _large_basis,
}

# Wrapped functions each workload is meant to call; the traced run fails
# if one of them records no span.
EXPECTED_SPANS = {
    "static_sweep": {
        "circuit.build_hamiltonian", "circuit.build_operator",
        "spectrum.diagonalize", "spectrum.qubit_eigensolution",
        "coherence.relaxation_rates", "coherence.dephasing_rates",
        "coherence.coherence_report", "gradiometric.omega_q_at_global_flux",
        "readout.dispersive_shift", "cli.run", "cli.write_csv",
    },
    "two_qubit_map": {
        "circuit.build_hamiltonian", "circuit.build_operator",
        "circuit.hamiltonian_decomposition", "spectrum.diagonalize",
        "spectrum.qubit_eigensolution", "spectrum.align_gauge",
        "coherence.relaxation_rates", "evolve.propagate_subspace_unitary",
        "evolve.TwoQubitFrame.ensure_range", "evolve.TwoQubitFrame.frame_overlap",
        "gates.Gamma1Interpolator", "gates.run_two_qubit_gate",
        "gates.gate_fidelity", "gates.fsim_decompose", "gates.zz_strength",
        "cli.run", "cli.write_csv",
    },
    "driven_gate": {
        "circuit.build_hamiltonian", "circuit.build_operator",
        "circuit.hamiltonian_decomposition", "spectrum.diagonalize",
        "spectrum.qubit_eigensolution", "spectrum.align_gauge",
        "coherence.relaxation_rates", "evolve.propagate_state",
        "gates.Gamma1Interpolator", "gates.run_single_qubit_gate",
        "gates.gate_fidelity", "cli.run", "cli.write_csv",
    },
    "large_basis": {
        "circuit.build_hamiltonian", "spectrum.diagonalize",
        "spectrum.qubit_eigensolution", "cli.run", "cli.write_csv",
    },
}


def generate(workload: str, seed: int, workers: int, rounds: int = ROUNDS) -> list[list[Job]]:
    """The workload's rounds for ``seed``; configs name ``workers`` cli threads."""
    make = GENERATORS[workload]
    return [
        make(random.Random(f"{workload}:{seed}:{r}"), seed, workers)
        for r in range(rounds)
    ]


def describe(cfg: dict) -> str:
    """Stated input size of one config: variant, cutoff, dimension, steps."""
    circuit = cfg["circuit"]
    params = cfg["params"]
    cutoff = circuit.get("cutoff", 12)
    d = 2 * cutoff + 1
    if cfg["experiment"] in ("two_qubit_map", "zz_map"):
        variant = "node_basis"
    elif cfg["experiment"] == "gradiometric_dispersion":
        variant = "gradiometric"
    else:
        variant = circuit.get("variant", "single_loop")
    if variant == "single_loop":
        dim = f"even_sector={(d * d + 1) // 2}"
    else:
        dim = f"basis={d * d}"
    text = f"{cfg['experiment']} variant={variant} cutoff={cutoff} {dim}"
    if "steps_per_ns" in params:
        text += f" steps_per_ns={params['steps_per_ns']}"
    return text
