"""Configuration-driven experiment runner.

Each named experiment reproduces one analysis as CSV tables plus a JSON
manifest with checksums and timings. Configs are strict JSON: unknown
keys are rejected, and a fixed config + seed reproduces byte-identical
outputs.

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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields as dc_fields
from pathlib import Path

import numpy as np

from . import __version__
from .circuit import CircuitSpec, CoupledSpec, Variant
from .coherence import RateConventions, coherence_report
from .evolve import AlphaProfile, DrivePulse, PropagationSettings, TwoQubitFrame
from .gates import (
    Gamma1Interpolator,
    calibrate_drive,
    pauli_target,
    run_single_qubit_gate,
    run_two_qubit_gate,
    zz_strength,
)
from .gradiometric import LoopGeometry, compensation_delta, global_dispersion
from .readout import ResonatorSpec, dispersive_shift
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
# states, 78 MB per dense complex operator (cutoff 60: 3.4 GB).
MAX_CUTOFF = 23

_COMMON_KEYS = {
    "schema_version",
    "experiment",
    "circuit",
    "output",
    "seed",
    "workers",
    "params",
}


def _require_keys(obj: dict, allowed: set, where: str) -> None:
    unknown = set(obj) - allowed
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


def _circuit_from(cfg: dict) -> CircuitSpec:
    block = dict(cfg.get("circuit", {}))
    _require_keys(block, _CIRCUIT_KEYS, "circuit")
    for key in ("phi_ext", "phi_ext1", "phi_ext2"):
        if key in block and isinstance(block[key], str):
            block[key] = _phase_value(block[key])
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


_PARAM_KEYS = {
    "spectrum_vs_alpha": {"alpha_start", "alpha_stop", "points"},
    "flux_dispersion": {"phi_start_pi", "phi_stop_pi", "points"},
    "coherence_vs_alpha": {"alpha_start", "alpha_stop", "points", "rate_convention"},
    "gradiometric_dispersion": {
        "asymmetry", "phi_g_start", "phi_g_stop", "points", "cases",
    },
    "single_qubit_gate": {
        "target", "ramp_ns", "plateau_alpha", "pulse_ns", "pulse_ramp_ns",
        "detuning_ratio", "phase_offset_pi", "steps_per_ns", "calibrate",
    },
    "two_qubit_map": {
        "cg_ratio", "detuning", "t_a_values", "t_w_values", "steps_per_ns",
        "subspace_k", "per_qubit_m", "alpha_grid",
    },
    "zz_map": {"cg_ratio", "detuning", "alpha_values"},
    "dispersive_shift_sweep": {"omega_r", "g", "phi_start_pi", "phi_stop_pi", "points", "levels"},
}


def validate_config(cfg: dict) -> dict:
    """Check structure and types; returns the config with defaults filled."""
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    _require_keys(cfg, _COMMON_KEYS, "config root")
    if cfg.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(f"schema_version must be {SCHEMA_VERSION}")
    exp = cfg.get("experiment")
    if exp not in EXPERIMENTS:
        raise ConfigError(f"experiment must be one of {EXPERIMENTS}, got {exp!r}")
    params = dict(cfg.get("params", {}))
    _require_keys(params, _PARAM_KEYS[exp], f"params for {exp}")
    _circuit_from(cfg)  # validates the circuit block
    out = dict(cfg)
    out["params"] = params
    out.setdefault("seed", 0)
    out.setdefault("workers", int(os.environ.get("DSFQ_WORKERS", "1")))
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


def _exp_spectrum_vs_alpha(cfg, spec, pool):
    p = cfg["params"]
    alphas = np.linspace(p.get("alpha_start", 1.0), p.get("alpha_stop", 0.5),
                         int(p.get("points", 51)))
    def one(a):
        qp = qubit_params(qubit_eigensolution(spec.with_alpha(float(a)), 3))
        return (a, qp.omega_q, qp.anharmonicity)
    rows = list(pool.map(one, alphas))
    return {"spectrum_vs_alpha.csv": (
        ["alpha", "omega_q_GHz", "anharmonicity_GHz"], rows)}, {}


def _exp_flux_dispersion(cfg, spec, pool):
    p = cfg["params"]
    phis = np.linspace(p.get("phi_start_pi", 0.94), p.get("phi_stop_pi", 1.06),
                       int(p.get("points", 61)))
    def one(x):
        from dataclasses import replace
        qp = qubit_params(qubit_eigensolution(replace(spec, phi_ext=x * math.pi), 3))
        return (x, qp.omega_q, qp.anharmonicity)
    rows = list(pool.map(one, phis))
    return {"flux_dispersion.csv": (
        ["phi_ext_per_pi", "omega_q_GHz", "anharmonicity_GHz"], rows)}, {}


def _exp_coherence_vs_alpha(cfg, spec, pool):
    p = cfg["params"]
    conv = RateConventions(rate_scale=p.get("rate_convention", "paper"))
    alphas = np.linspace(p.get("alpha_start", 1.0), p.get("alpha_stop", 0.5),
                         int(p.get("points", 26)))
    def one(a):
        rep = coherence_report(spec.with_alpha(float(a)), conventions=conv)
        return (a, rep.t1, rep.tphi, rep.t2,
                rep.gamma1_by_channel.get("dielectric", 0.0),
                rep.gamma1_by_channel.get("flux_1f", 0.0))
    rows = list(pool.map(one, alphas))
    return {"coherence_vs_alpha.csv": (
        ["alpha", "t1_us", "tphi_us", "t2_us",
         "gamma1_dielectric_per_ns", "gamma1_flux_per_ns"], rows)}, {}


def _exp_gradiometric_dispersion(cfg, spec, pool):
    from dataclasses import replace
    p = cfg["params"]
    r = p.get("asymmetry", 0.01)
    us = np.linspace(p.get("phi_g_start", 0.99), p.get("phi_g_stop", 1.01),
                     int(p.get("points", 41)))
    base = replace(spec, variant=Variant.GRADIOMETRIC)
    cases = {
        "identical": (LoopGeometry(), 0.0),
        "asymmetric": (LoopGeometry(a1=1 + r, a2=1 - r), 0.0),
        "compensated": (LoopGeometry(a1=1 + r, a2=1 - r), compensation_delta(r)[0]),
    }
    wanted = p.get("cases", list(cases))
    header = ["phi_g_phi0"] + [f"omega_q_GHz_{c}" for c in wanted]
    results = {}
    for c in wanted:
        geom, delta = cases[c]
        disp = global_dispersion(base, geom, us, delta=delta)
        results[c] = disp["omega_q"]
    rows = [(u, *(results[c][i] for c in wanted)) for i, u in enumerate(us)]
    return {"gradiometric_dispersion.csv": (header, rows)}, {}


def _exp_single_qubit_gate(cfg, spec, pool):
    p = cfg["params"]
    plateau = p.get("plateau_alpha", 0.7)
    profile = AlphaProfile.single_qubit(
        ramp_ns=p.get("ramp_ns", 7.0),
        plateau_ns=p.get("pulse_ns", 11.0),
        alpha_min=plateau,
    )
    plateau_sol = qubit_eigensolution(spec.with_alpha(plateau), 3)
    omega_plateau = float(plateau_sol.energies[1] - plateau_sol.energies[0])
    pulse0 = DrivePulse(
        amplitude=0.0,
        carrier_freq=p.get("detuning_ratio", 0.979) * omega_plateau,
        phase_offset=p.get("phase_offset_pi", 0.0) * math.pi,
        ramp_ns=p.get("pulse_ramp_ns", 1.5),
        flat_ns=p.get("pulse_ns", 11.0) - 2 * p.get("pulse_ramp_ns", 1.5),
        t_start=p.get("ramp_ns", 7.0),
    )
    target = pauli_target(p.get("target", "x"))
    settings = PropagationSettings(
        steps_per_ns=int(p.get("steps_per_ns", 857)), sample_interval_ns=0.1
    )
    gamma1 = Gamma1Interpolator(spec, plateau)
    pulse = calibrate_drive(
        spec, profile, pulse0, math.pi,
        target=target if p.get("calibrate", True) else None,
        settings=settings, gamma1=gamma1,
    )
    report = run_single_qubit_gate(spec, profile, pulse, target, settings, gamma1=gamma1)
    traj = report.extras["trajectory"]
    weights = traj.spectral_weights[:, :, 0]  # the |0> column
    series = [
        (traj.times[i], *weights[i]) for i in range(len(traj.times))
    ]
    k = weights.shape[1]
    summary = [(
        p.get("target", "x"), report.coherent_fidelity, report.t1_limited_fidelity,
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
    from dataclasses import replace
    p = cfg["params"]
    q1 = replace(spec, variant=Variant.NODE_BASIS)
    q2 = replace(q1, ej=q1.ej * (1.0 + p.get("detuning", 0.0)))
    return CoupledSpec(q1, q2, cg_ratio=p.get("cg_ratio", 0.3))


def _exp_two_qubit_map(cfg, spec, pool):
    p = cfg["params"]
    coupled = _two_qubit_system(cfg, spec)
    t_a_values = p.get("t_a_values") or np.linspace(20, 65, 12).tolist()
    t_w_values = p.get("t_w_values") or np.linspace(0, 22, 12).tolist()
    settings = PropagationSettings(
        steps_per_ns=int(p.get("steps_per_ns", 286)),
        subspace_k=int(p.get("subspace_k", 24)),
        per_qubit_m=int(p.get("per_qubit_m", 12)),
        alpha_grid=p.get("alpha_grid", 1e-3),
        sample_interval_ns=5.0,
    )
    frame = TwoQubitFrame(coupled, settings)
    frame.ensure_range(1.0 - max(t_a_values) / 140.0)
    gamma1 = Gamma1Interpolator(
        coupled.qubit1, 1.0 - max(t_a_values) / 140.0,
        charging_scale=coupled.charging_scale,
    )
    def one(pair):
        t_a, t_w = pair
        rep = run_two_qubit_gate(
            coupled, t_a, t_w, settings, frame=frame, gamma1=gamma1
        )
        return (rep.extras["entangling_power"], rep.fsim[1], rep.fsim[0],
                rep.coherent_fidelity, rep.t1_limited_fidelity, rep.leakage)
    pairs = [(ta, tw) for ta in t_a_values for tw in t_w_values]
    results = list(pool.map(one, pairs))
    def table(idx):
        rows = []
        for (ta, tw), res in zip(pairs, results):
            rows.append((ta, tw, res[idx]))
        return rows
    return {
        "entangling_power.csv": (
            ["t_a_ns", "t_w_ns", "entangling_power"], table(0)),
        "phi_cphase.csv": (["t_a_ns", "t_w_ns", "phi_cphase_rad"], table(1)),
        "theta_swap.csv": (["t_a_ns", "t_w_ns", "theta_swap_rad"], table(2)),
    }, {}


def _exp_zz_map(cfg, spec, pool):
    p = cfg["params"]
    coupled = _two_qubit_system(cfg, spec)
    alphas = p.get("alpha_values") or np.linspace(0.5, 1.0, 11).tolist()
    pairs = [(a1, a2) for a1 in alphas for a2 in alphas]
    def one(pair):
        z, info = zz_strength(coupled, *pair)
        return (z, info["min_overlap"])
    results = list(pool.map(one, pairs))
    rows = [(a1, a2, z, q) for (a1, a2), (z, q) in zip(pairs, results)]
    return {"zz_map.csv": (
        ["alpha1", "alpha2", "zeta_zz_GHz", "assignment_overlap"], rows)}, {}


def _exp_dispersive_shift_sweep(cfg, spec, pool):
    p = cfg["params"]
    res = ResonatorSpec(omega_r=p.get("omega_r", 4.8), g=p.get("g", 0.025))
    phis = np.linspace(p.get("phi_start_pi", 1.0), p.get("phi_stop_pi", 1.035),
                       int(p.get("points", 36)))
    levels = int(p.get("levels", 25))
    def one(x):
        from dataclasses import replace
        ds = dispersive_shift(replace(spec, phi_ext=x * math.pi), res, levels=levels)
        return (x, ds.chi, int(ds.valid))
    rows = list(pool.map(one, phis))
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
    out_dir = Path(output or cfg.get("output", "results"))
    spec = _circuit_from(cfg)
    n_workers = workers or cfg["workers"]
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
    pool = ThreadPoolExecutor(max_workers=max(1, int(n_workers)))
    try:
        tables, notes = _RUNNERS[cfg["experiment"]](cfg, spec, pool)
        manifest["notes"] = notes
        for name, (header, rows) in tables.items():
            t0 = time.monotonic()
            path = out_dir / name
            write_csv(path, header, rows)
            manifest["files"][name] = _sha256(path)
            manifest["timings_s"][name] = round(time.monotonic() - t0, 6)
        manifest["status"] = "OK"
    finally:
        pool.shutdown(wait=True)
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
