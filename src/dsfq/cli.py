"""Configuration-driven experiment runner.

Each named experiment reproduces one analysis as CSV tables plus a JSON
manifest with checksums and timings. Configs are strict JSON: unknown
keys are rejected, and a fixed config + seed reproduces byte-identical
outputs.

Every parameter is declared once, in ``_ROOT_PARAMS`` (output, seed,
workers) or in its experiment's entry of ``_PARAMS``, with its default
and the type, range or names it may take; the ``MAX_*`` and ``MIN_*``
constants bound the sizes. ``validate_config`` checks each value and
fills the defaults, and the runners read the filled values. A bad
config exits with status 2 and writes nothing. A numerical failure exits
with status 3 and leaves a manifest whose status is ``FAILED`` and whose
``error`` holds the exception's type and message.

Each experiment runs its points in order, in the calling thread. The
``workers`` key, the ``--workers`` flag and ``DSFQ_WORKERS`` (the key's
default) are checked and accepted, and change no output. So is
``two_qubit_map``'s ``steps_per_ns``: a two-qubit gate integrates its
phases in closed form and takes no steps.

Usage:
    dsfq run <config.json> [--output DIR] [--workers N] [--dry-run]
    dsfq validate <config.json>
    dsfq version
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import math
import operator
import os
import sys
import time
from dataclasses import fields as dc_fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .circuit import (
    MAX_ALPHA,
    MIN_ALPHA,
    CircuitSpec,
    CoupledSpec,
    Variant,
    physical_sector_indices,
)
from .coherence import RateConventions, coherence_report
from .evolve import (
    ALPHA_MAX_ALLOWED,
    ALPHA_MIN_ALLOWED,
    MIN_STEPS_PER_NS,
    AlphaProfile,
    DrivePulse,
    PropagationSettings,
    TwoQubitFrame,
)
from .gates import (
    MAX_T_A_NS,
    Gamma1Interpolator,
    _frame_gamma1,
    _gate_engine,
    calibrate_drive,
    pauli_target,
    run_single_qubit_gate,
    run_two_qubit_gate,
    zz_strength,
)
from .gradiometric import (
    MAX_ASYMMETRY,
    LoopGeometry,
    compensation_delta,
    omega_q_at_global_flux,
)
from .readout import MIN_LEVELS, ResonatorSpec, dispersive_shift
from .spectrum import qubit_eigensolution, qubit_params

EXPERIMENTS = (
    "spectrum_vs_alpha",
    "flux_dispersion",
    "coherence_vs_alpha",
    "gradiometric_dispersion",
    "single_qubit_gate",
    "two_qubit_map",
    "zz_map",
    "dispersive_shift_sweep",
)

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Invalid experiment configuration."""


_CIRCUIT_KEYS = {f.name for f in dc_fields(CircuitSpec)}

# Largest charge cutoff a config may ask for: (2*23 + 1)^2 = 2209 basis
# states. Operators are sparse; the largest dense matrix is the one that a
# dense eigh fallback solves, 78 MB at 2209 states (cutoff 60: 3.4 GB).
MAX_CUTOFF = 23


def _require_keys(obj: dict, allowed, where: str) -> None:
    unknown = set(obj).difference(allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


MAX_PHASE_CHARS = 200
_PHASE_OPERATORS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
}


def _phase_value(text: str) -> float:
    """Value of a phase expression such as "0.997*pi".

    Numbers, ``pi``, ``+ - * /``, unary minus and parentheses are
    allowed; anything else, and a result that is not finite, raises
    ConfigError. Configs are untrusted, so nothing is passed to ``eval``.
    """

    def value(node: ast.AST) -> float:
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            return float(node.value)
        if isinstance(node, ast.Name) and node.id == "pi":
            return math.pi
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -value(node.operand)
        if isinstance(node, ast.BinOp) and type(node.op) in _PHASE_OPERATORS:
            return _PHASE_OPERATORS[type(node.op)](value(node.left), value(node.right))
        raise ConfigError(
            f"phase {text!r}: only numbers, pi, + - * / and unary minus are allowed"
        )

    if len(text) > MAX_PHASE_CHARS:  # bounds the parser's nesting depth
        raise ConfigError(f"phase expression longer than {MAX_PHASE_CHARS} characters")
    try:
        tree = ast.parse(text, mode="eval")
    except (SyntaxError, ValueError) as ex:  # ValueError: null bytes
        raise ConfigError(f"phase {text!r} cannot be parsed: {ex}") from ex
    try:
        result = value(tree.body)
    except ZeroDivisionError as ex:
        raise ConfigError(f"phase {text!r} divides by zero") from ex
    if not math.isfinite(result):
        raise ConfigError(f"phase {text!r} is not finite")
    return result


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a JSON object")
    return dict(value)


def _circuit_from(cfg: dict) -> CircuitSpec:
    block = _object(cfg.get("circuit", {}), "circuit")
    _require_keys(block, _CIRCUIT_KEYS, "circuit")
    for key in ("phi_ext", "phi_ext1", "phi_ext2"):
        if key in block and isinstance(block[key], str):
            block[key] = _phase_value(block[key])
    for key, value in block.items():
        if key not in ("variant", "cutoff") and not _is_number(value):
            raise ConfigError(f"invalid circuit block: {key} {value!r} is not a finite number")
    cutoff = block.get("cutoff", 12)
    if type(cutoff) is not int or not 1 <= cutoff <= MAX_CUTOFF:
        raise ConfigError(f"invalid circuit block: cutoff {cutoff!r} is not an "
                          f"integer in [1, {MAX_CUTOFF}]")
    try:
        if "variant" in block:
            block["variant"] = Variant(block["variant"])
        return CircuitSpec(**block)
    except (TypeError, ValueError) as ex:  # a bad variant, type or range
        raise ConfigError(f"invalid circuit block: {ex}") from ex


# Sizes an experiment may ask for. Times were measured on a 2-vCPU host
# with BLAS on one thread.
# A grid point takes 3-20 ms at cutoff 12 (20 ms: gradiometric_dispersion's
# three 625-state solves) and 30-120 ms at MAX_CUTOFF, so 1001 points take
# at most 20 s at cutoff 12 and 2 min at MAX_CUTOFF.
MAX_POINTS = 1001
# Retained eigenstates of a dispersive sum: at MAX_CUTOFF, 100 vectors of
# 2209 entries take 3.5 MB.
MAX_LEVELS = 100
# A step of a driven gate takes about 0.4 ms at cutoff 12 (the 2500 steps
# of a 25 ns gate at 100 steps/ns take 0.9-1.1 s), so the shipped 25 ns
# gate at 2000 steps/ns takes about 20 s, and 8 times that when it
# calibrates (857 steps/ns is the shipped value).
MAX_STEPS_PER_NS = 2000
# Longest ramp, pulse or two-qubit wait. A single_qubit_gate then lasts at
# most 300 ns: 600,000 steps at MAX_STEPS_PER_NS, about 4 min at cutoff 12
# and 8 times that when it calibrates, and its 3001 samples, 0.1 ns apart,
# keep two charge-basis states each: 60 MB at cutoff 12, 212 MB at
# MAX_CUTOFF. A two-qubit gate, at most 170 ns, takes no steps and keeps 35
# k x k samples, 5 ns apart (about 1 MB each).
MAX_DURATION_NS = 100.0
# Per-qubit levels of the two-qubit frame: 16 gives a 256-dim product
# space, and a cutoff-9 frame node then takes 90 ms and up to 1.2 MB.
MAX_PER_QUBIT_M = 16
# Frame node spacing: a two-qubit gate keeps alpha in [0.4, 1], so the
# frame holds at most 600 nodes, 30 s and 80 MB at the default sizes.
MIN_ALPHA_GRID = 1e-3
# Values of a t_a, t_w or alpha list: a 32 x 32 two_qubit_map runs 1024
# gates, about 12 min at 0.7 s a gate.
MAX_GRID_VALUES = 32
# Per-qubit levels of each zz_map point.
ZZ_LEVELS = 12


# Each helper below declares one parameter as (default, what it must be, check).
def _is_number(v) -> bool:
    """An int or a float, not a bool, and finite (json.loads accepts NaN)."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def _bounded(lo=None, hi=None, above=None, below=None):
    """(text, test) of a finite number in [lo, hi] and in (above, below);
    a bound left None does not apply."""
    limits = [(op, bound, test) for op, bound, test in (
        (">", above, operator.gt), (">=", lo, operator.ge),
        ("<=", hi, operator.le), ("<", below, operator.lt)) if bound is not None]
    text = " and ".join(f"{op} {bound:g}" for op, bound, _ in limits)
    return (" " + text if text else ""), lambda v: (
        _is_number(v) and all(test(v, bound) for _, bound, test in limits))


def _number(default, **bounds):
    text, ok = _bounded(**bounds)
    return default, "a finite number" + text, ok


def _count(default, lo, hi=None):
    what = f"an integer >= {lo}" if hi is None else f"an integer in [{lo}, {hi}]"
    return default, what, lambda v: (isinstance(v, int) and not isinstance(v, bool)
                                     and lo <= v and (hi is None or v <= hi))


def _numbers(default, **bounds):
    text, ok = _bounded(**bounds)
    return (tuple(default), f"a list of 1 to {MAX_GRID_VALUES} finite numbers" + text,
            lambda v: (isinstance(v, (list, tuple)) and 1 <= len(v) <= MAX_GRID_VALUES
                       and all(map(ok, v))))


def _choice(default, choices):
    return default, f"one of {choices}", lambda v: isinstance(v, str) and v in choices


def _names(choices):
    return (choices, f"a list of distinct names from {choices}",
            lambda v: (isinstance(v, (list, tuple)) and len(v) > 0
                       and all(isinstance(c, str) and c in choices for c in v)
                       and len(set(v)) == len(v)))


def _flag(default):
    return default, "true or false", lambda v: isinstance(v, bool)


def _text(default):
    return default, "a string", lambda v: isinstance(v, str)


_ROOT_PARAMS = {
    "output": _text("results"),
    "seed": _count(0, 0, 2**32 - 1),  # the seeds np.random.seed takes
    # accepted for configs that name it; points run in order in one thread
    "workers": _count(1, 1),
}
_COMMON_KEYS = {"schema_version", "experiment", "circuit", "params", *_ROOT_PARAMS}

# Physical ranges come from the constructors that enforce them: CircuitSpec
# (alpha), AlphaProfile (plateau_alpha, positive segment lengths),
# DrivePulse (ramp), CoupledSpec (cg_ratio), run_two_qubit_gate (T_a),
# compensation_delta (asymmetry) and ResonatorSpec (omega_r, g). A wait
# t_w is not negative: AlphaProfile.two_qubit would run a negative one as 0.
_ALPHA = {"lo": MIN_ALPHA, "hi": MAX_ALPHA}
_PAIR = {
    "cg_ratio": _number(0.3, lo=0.0),
    # qubit 2's ej is ej * (1 + detuning), which must stay positive
    "detuning": _number(0.0, above=-1.0),
}
_PARAMS = {
    "spectrum_vs_alpha": {
        "alpha_start": _number(1.0, **_ALPHA),
        "alpha_stop": _number(0.5, **_ALPHA),
        "points": _count(51, 1, MAX_POINTS),
    },
    "flux_dispersion": {
        "phi_start_pi": _number(0.94),
        "phi_stop_pi": _number(1.06),
        "points": _count(61, 1, MAX_POINTS),
    },
    "coherence_vs_alpha": {
        "alpha_start": _number(1.0, **_ALPHA),
        "alpha_stop": _number(0.5, **_ALPHA),
        "points": _count(26, 1, MAX_POINTS),
        "rate_convention": _choice("paper", ("paper", "si")),
    },
    "gradiometric_dispersion": {
        "asymmetry": _number(0.01, above=-MAX_ASYMMETRY, below=MAX_ASYMMETRY),
        "phi_g_start": _number(0.99),
        "phi_g_stop": _number(1.01),
        "points": _count(41, 1, MAX_POINTS),
        "cases": _names(("identical", "asymmetric", "compensated")),
    },
    "single_qubit_gate": {
        "target": _choice("x", ("x", "y", "xy")),
        "ramp_ns": _number(7.0, above=0.0, hi=MAX_DURATION_NS),
        "plateau_alpha": _number(0.7, lo=ALPHA_MIN_ALLOWED, hi=ALPHA_MAX_ALLOWED),
        "pulse_ns": _number(11.0, above=0.0, hi=MAX_DURATION_NS),
        "pulse_ramp_ns": _number(1.5, lo=0.0),
        "detuning_ratio": _number(0.979),
        "phase_offset_pi": _number(0.0),
        "steps_per_ns": _count(857, MIN_STEPS_PER_NS, MAX_STEPS_PER_NS),
        "calibrate": _flag(True),
    },
    "two_qubit_map": {
        **_PAIR,
        "t_a_values": _numbers(np.linspace(20, 65, 12).tolist(), above=0.0, hi=MAX_T_A_NS),
        "t_w_values": _numbers(np.linspace(0, 22, 12).tolist(), lo=0.0, hi=MAX_DURATION_NS),
        # checked and accepted, and changes no byte: a gate takes no steps
        "steps_per_ns": _count(286, MIN_STEPS_PER_NS, MAX_STEPS_PER_NS),
        # at least the four computational states; at most per_qubit_m**2
        "subspace_k": _count(24, 4, MAX_PER_QUBIT_M**2),
        "per_qubit_m": _count(12, 2, MAX_PER_QUBIT_M),
        "alpha_grid": _number(1e-3, lo=MIN_ALPHA_GRID),
    },
    "zz_map": {
        **_PAIR,
        "alpha_values": _numbers(np.linspace(0.5, 1.0, 11).tolist(), **_ALPHA),
    },
    "dispersive_shift_sweep": {
        "omega_r": _number(4.8, above=0.0),
        "g": _number(0.025, above=0.0),
        "phi_start_pi": _number(1.0),
        "phi_stop_pi": _number(1.035),
        "points": _count(36, 1, MAX_POINTS),
        "levels": _count(25, MIN_LEVELS, MAX_LEVELS),
    },
}


def _filled(block: dict, table: dict, where: str) -> dict:
    """The table's keys of ``block``, defaults filled, each value checked."""
    out = {}
    for key, (default, what, ok) in table.items():
        value = block.get(key, default)
        if not ok(value):
            raise ConfigError(f"{where}: {key} = {value!r} is not {what}")
        out[key] = value
    return out


# What sets the number of lowest levels of one circuit that an experiment
# solves for, and that number. The others solve for 3, and the smallest
# circuit (cutoff 1, single loop) holds 5 physical states.
_LEVELS = {
    "single_qubit_gate": lambda p: ("spectral_k", PropagationSettings().spectral_k),
    "two_qubit_map": lambda p: ("per_qubit_m", p["per_qubit_m"]),
    "zz_map": lambda p: ("per-qubit levels", ZZ_LEVELS),
    "dispersive_shift_sweep": lambda p: ("levels", p["levels"]),
}


def _check_levels(exp: str, params: dict, spec: CircuitSpec, where: str) -> None:
    """ConfigError when an experiment asks for more levels than its circuit holds."""
    if exp not in _LEVELS:
        return
    name, levels = _LEVELS[exp](params)
    if exp in ("two_qubit_map", "zz_map"):  # both run the circuit in its node basis
        spec = replace(spec, variant=Variant.NODE_BASIS)
    states = (physical_sector_indices(spec.basis).size if spec.variant is Variant.SINGLE_LOOP
              else spec.basis.dim)
    if levels > states:
        raise ConfigError(f"{where}: {name} = {levels} exceeds the {states} states of the "
                          f"{spec.variant.value} circuit at cutoff = {spec.cutoff}")


def validate_config(cfg: dict) -> dict:
    """Check structure, types and sizes; returns the config with defaults filled."""
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    _require_keys(cfg, _COMMON_KEYS, "config root")
    if cfg.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(f"schema_version must be {SCHEMA_VERSION}")
    exp = cfg.get("experiment")
    if exp not in EXPERIMENTS:
        raise ConfigError(f"experiment must be one of {EXPERIMENTS}, got {exp!r}")
    where = f"params for {exp}"
    params = _object(cfg.get("params", {}), where)
    _require_keys(params, _PARAMS[exp], where)
    params = _filled(params, _PARAMS[exp], where)
    if exp == "two_qubit_map" and params["subspace_k"] > params["per_qubit_m"] ** 2:
        raise ConfigError(f"{where}: subspace_k = {params['subspace_k']} exceeds "
                          f"per_qubit_m**2 = {params['per_qubit_m'] ** 2}, the product space")
    if exp == "single_qubit_gate" and 2 * params["pulse_ramp_ns"] > params["pulse_ns"]:
        raise ConfigError(f"{where}: pulse_ramp_ns = {params['pulse_ramp_ns']} exceeds "
                          f"pulse_ns / 2 = {params['pulse_ns'] / 2}, a negative flat top")
    _check_levels(exp, params, _circuit_from(cfg), where)  # validates the circuit block
    out = dict(cfg)
    env_workers = os.environ.get("DSFQ_WORKERS")  # the default for a config that names none
    if env_workers is not None:
        try:  # int() refuses '²', which isdigit() passes, and numbers of over 4300 digits
            env_workers = int(env_workers)
        except ValueError:
            pass  # the check below refuses the text
        out.setdefault("workers", env_workers)
    out.update(_filled(out, _ROOT_PARAMS, "config root"), params=params)
    return out


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


def write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Experiment implementations. Each returns {filename: (header, rows)} plus
# optional notes for the manifest.


def _exp_spectrum_vs_alpha(cfg, spec):
    p = cfg["params"]
    alphas = np.linspace(p["alpha_start"], p["alpha_stop"], p["points"])
    def one(a):
        qp = qubit_params(qubit_eigensolution(spec.with_alpha(float(a)), 3))
        return (a, qp.omega_q, qp.anharmonicity)
    rows = [one(a) for a in alphas]
    return {"spectrum_vs_alpha.csv": (
        ["alpha", "omega_q_GHz", "anharmonicity_GHz"], rows)}, {}


def _exp_flux_dispersion(cfg, spec):
    p = cfg["params"]
    phis = np.linspace(p["phi_start_pi"], p["phi_stop_pi"], p["points"])
    def one(x):
        qp = qubit_params(qubit_eigensolution(replace(spec, phi_ext=x * math.pi), 3))
        return (x, qp.omega_q, qp.anharmonicity)
    rows = [one(x) for x in phis]
    return {"flux_dispersion.csv": (
        ["phi_ext_per_pi", "omega_q_GHz", "anharmonicity_GHz"], rows)}, {}


def _exp_coherence_vs_alpha(cfg, spec):
    p = cfg["params"]
    conv = RateConventions(rate_scale=p["rate_convention"])
    alphas = np.linspace(p["alpha_start"], p["alpha_stop"], p["points"])
    def one(a):
        rep = coherence_report(spec.with_alpha(float(a)), conventions=conv)
        return (a, rep.t1, rep.tphi, rep.t2,
                rep.gamma1_by_channel.get("dielectric", 0.0),
                rep.gamma1_by_channel.get("flux_1f", 0.0))
    rows = [one(a) for a in alphas]
    return {"coherence_vs_alpha.csv": (
        ["alpha", "t1_us", "tphi_us", "t2_us",
         "gamma1_dielectric_per_ns", "gamma1_flux_per_ns"], rows)}, {}


def _exp_gradiometric_dispersion(cfg, spec):
    p = cfg["params"]
    r = p["asymmetry"]
    us = np.linspace(p["phi_g_start"], p["phi_g_stop"], p["points"])
    base = replace(spec, variant=Variant.GRADIOMETRIC)
    cases = {
        "identical": (LoopGeometry(), 0.0),
        "asymmetric": (LoopGeometry(a1=1 + r, a2=1 - r), 0.0),
        "compensated": (LoopGeometry(a1=1 + r, a2=1 - r), compensation_delta(r)[0]),
    }
    wanted = p["cases"]
    header = ["phi_g_phi0"] + [f"omega_q_GHz_{c}" for c in wanted]
    rows = [(u, *(omega_q_at_global_flux(base, geom, u, delta)
                  for geom, delta in (cases[c] for c in wanted)))
            for u in us]
    return {"gradiometric_dispersion.csv": (header, rows)}, {}


def _exp_single_qubit_gate(cfg, spec):
    p = cfg["params"]
    plateau = p["plateau_alpha"]
    profile = AlphaProfile.single_qubit(
        ramp_ns=p["ramp_ns"], plateau_ns=p["pulse_ns"], alpha_min=plateau,
    )
    settings = PropagationSettings(steps_per_ns=p["steps_per_ns"], sample_interval_ns=0.1)
    # one engine for the point: the plateau solve, the rates, the calibration
    # scan and the gate all solve in its window [plateau, 1]
    engine = _gate_engine(spec, profile, settings)
    plateau_energies = engine.lowest(plateau, 3)[0]
    omega_plateau = float(plateau_energies[1] - plateau_energies[0])
    pulse0 = DrivePulse(
        amplitude=0.0,
        carrier_freq=p["detuning_ratio"] * omega_plateau,
        phase_offset=p["phase_offset_pi"] * math.pi,
        ramp_ns=p["pulse_ramp_ns"],
        flat_ns=p["pulse_ns"] - 2 * p["pulse_ramp_ns"],
        t_start=p["ramp_ns"],
    )
    target = pauli_target(p["target"])
    gamma1 = Gamma1Interpolator(spec, plateau, _engine=engine)
    pulse = calibrate_drive(
        spec, profile, pulse0, math.pi,
        target=target if p["calibrate"] else None,
        settings=settings, gamma1=gamma1, _engine=engine,
    )
    report = run_single_qubit_gate(spec, profile, pulse, target, settings, gamma1=gamma1,
                                   _engine=engine)
    traj = report.extras["trajectory"]
    weights = traj.spectral_weights[:, :, 0]  # the |0> column
    series = [
        (traj.times[i], *weights[i]) for i in range(len(traj.times))
    ]
    k = weights.shape[1]
    summary = [(
        p["target"], report.coherent_fidelity, report.t1_limited_fidelity,
        report.leakage, report.gate_time, pulse.amplitude, pulse.carrier_freq,
    )]
    return {
        "gate_summary.csv": (
            ["target", "coherent_fidelity", "t1_limited_fidelity", "leakage",
             "gate_time_ns", "drive_amplitude_hGHz", "drive_freq_GHz"], summary),
        "spectral_weights.csv": (
            ["time_ns"] + [f"weight_{i}" for i in range(k)], series),
    }, {"calibrated_amplitude": pulse.amplitude}


def _two_qubit_system(cfg, spec):
    p = cfg["params"]
    q1 = replace(spec, variant=Variant.NODE_BASIS)
    q2 = replace(q1, ej=q1.ej * (1.0 + p["detuning"]))
    return CoupledSpec(q1, q2, cg_ratio=p["cg_ratio"])


def _exp_two_qubit_map(cfg, spec):
    p = cfg["params"]
    coupled = _two_qubit_system(cfg, spec)
    t_a_values, t_w_values = p["t_a_values"], p["t_w_values"]
    settings = PropagationSettings(
        subspace_k=p["subspace_k"],
        per_qubit_m=p["per_qubit_m"],
        alpha_grid=p["alpha_grid"],
        sample_interval_ns=5.0,
    )
    # the longest T_a lowers alpha furthest; its schedule is checked before
    # the frame is built down to it
    alpha_lo = AlphaProfile.two_qubit(max(t_a_values), 0.0).alpha_min
    frame = TwoQubitFrame(coupled, settings)
    gamma1 = _frame_gamma1(frame, alpha_lo)  # shared by every gate of the map
    def one(t_a, t_w):
        rep = run_two_qubit_gate(
            coupled, t_a, t_w, settings, frame=frame, gamma1=gamma1
        )
        return (rep.extras["entangling_power"], rep.fsim[1], rep.fsim[0])
    pairs = [(ta, tw) for ta in t_a_values for tw in t_w_values]
    results = [one(*pair) for pair in pairs]
    def table(idx):
        return [(ta, tw, res[idx]) for (ta, tw), res in zip(pairs, results)]
    return {
        "entangling_power.csv": (
            ["t_a_ns", "t_w_ns", "entangling_power"], table(0)),
        "phi_cphase.csv": (["t_a_ns", "t_w_ns", "phi_cphase_rad"], table(1)),
        "theta_swap.csv": (["t_a_ns", "t_w_ns", "theta_swap_rad"], table(2)),
    }, {}


def _exp_zz_map(cfg, spec):
    p = cfg["params"]
    coupled = _two_qubit_system(cfg, spec)
    alphas = p["alpha_values"]
    levels = {}  # each qubit's engine and per-alpha levels, shared by the points
    def one(a1, a2):
        z, info = zz_strength(coupled, a1, a2, m=ZZ_LEVELS, _levels=levels)
        return (a1, a2, z, info["min_overlap"])
    rows = [one(a1, a2) for a1 in alphas for a2 in alphas]
    return {"zz_map.csv": (
        ["alpha1", "alpha2", "zeta_zz_GHz", "assignment_overlap"], rows)}, {}


def _exp_dispersive_shift_sweep(cfg, spec):
    p = cfg["params"]
    res = ResonatorSpec(omega_r=p["omega_r"], g=p["g"])
    phis = np.linspace(p["phi_start_pi"], p["phi_stop_pi"], p["points"])
    def one(x):
        ds = dispersive_shift(replace(spec, phi_ext=x * math.pi), res, levels=p["levels"])
        return (x, ds.chi, int(ds.valid))
    rows = [one(x) for x in phis]
    return {"dispersive_shift.csv": (
        ["phi_ext_per_pi", "chi_GHz", "dispersive_valid"], rows)}, {}


_RUNNERS = {
    "spectrum_vs_alpha": _exp_spectrum_vs_alpha,
    "flux_dispersion": _exp_flux_dispersion,
    "coherence_vs_alpha": _exp_coherence_vs_alpha,
    "gradiometric_dispersion": _exp_gradiometric_dispersion,
    "single_qubit_gate": _exp_single_qubit_gate,
    "two_qubit_map": _exp_two_qubit_map,
    "zz_map": _exp_zz_map,
    "dispersive_shift_sweep": _exp_dispersive_shift_sweep,
}


def run(cfg: dict, output: str | None = None, workers: int | None = None,
        dry_run: bool = False) -> dict:
    """Execute an experiment config; returns the manifest dict."""
    cfg = validate_config(cfg)
    out_dir = Path(output or cfg["output"])
    spec = _circuit_from(cfg)
    if workers is not None:  # the --workers flag, checked as the config's key is
        _filled({"workers": workers}, {"workers": _ROOT_PARAMS["workers"]}, "--workers")
    config_hash = hashlib.sha256(
        json.dumps(cfg, sort_keys=True).encode()
    ).hexdigest()
    manifest = {
        "tool_version": __version__,
        "schema_version": SCHEMA_VERSION,
        "experiment": cfg["experiment"],
        "config_hash": config_hash,
        "seed": cfg["seed"],
        "status": "DRY_RUN" if dry_run else "PARTIAL",
        "files": {},
        "timings_s": {},
        "notes": {},
    }
    if dry_run:
        return manifest
    np.random.seed(cfg["seed"])
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.monotonic()
    try:
        tables, notes = _RUNNERS[cfg["experiment"]](cfg, spec)
        manifest["notes"] = notes
        for name, (header, rows) in tables.items():
            t0 = time.monotonic()
            path = out_dir / name
            write_csv(path, header, rows)
            manifest["files"][name] = _sha256(path)
            manifest["timings_s"][name] = round(time.monotonic() - t0, 6)
        manifest["status"] = "OK"
    except Exception as ex:
        manifest["status"] = "FAILED"
        manifest["error"] = {"type": type(ex).__name__, "message": str(ex)}
        raise
    finally:
        manifest["timings_s"]["total"] = round(time.monotonic() - started, 3)
        manifest_path = out_dir / "manifest.json"
        with open(manifest_path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="dsfq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config", type=Path)
    p_run.add_argument("--output", default=None)
    p_run.add_argument("--workers", type=int, default=None)
    p_run.add_argument("--dry-run", action="store_true")
    p_val = sub.add_parser("validate", help="validate a config file")
    p_val.add_argument("config", type=Path)
    sub.add_parser("version", help="print the tool version")
    args = parser.parse_args(argv)

    if args.command == "version":
        print(__version__)
        return 0
    try:
        cfg = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as ex:
        print(f"error: cannot read config: {ex}", file=sys.stderr)
        return 2
    if args.command == "validate":
        try:
            validate_config(cfg)
        except ConfigError as ex:
            print(f"invalid config: {ex}", file=sys.stderr)
            return 2
        print("config OK")
        return 0
    # run
    try:
        manifest = run(cfg, output=args.output, workers=args.workers,
                       dry_run=args.dry_run)
    except ConfigError as ex:
        print(f"invalid config: {ex}", file=sys.stderr)
        return 2
    except Exception as ex:  # numerical failure: structured report, exit 3
        print(json.dumps({"error": type(ex).__name__, "message": str(ex)}),
              file=sys.stderr)
        return 3
    print(json.dumps({"status": manifest["status"],
                      "files": sorted(manifest["files"])}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
