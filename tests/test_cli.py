import json
import math
import threading
from dataclasses import replace
from pathlib import Path

import pytest

from dsfq.cli import (
    MAX_CUTOFF,
    MAX_DURATION_NS,
    MAX_GRID_VALUES,
    MAX_LEVELS,
    MAX_PER_QUBIT_M,
    MAX_POINTS,
    MAX_STEPS_PER_NS,
    MIN_ALPHA_GRID,
    ConfigError,
    _circuit_from,
    main,
    run,
    validate_config,
)

from dsfq import coherence, evolve, gates
from dsfq.circuit import MAX_ALPHA, MIN_ALPHA, Variant
from dsfq.coherence import RateConventions, coherence_report
from dsfq.evolve import ALPHA_MAX_ALLOWED, ALPHA_MIN_ALLOWED
from dsfq.gates import MAX_T_A_NS
from dsfq.gradiometric import (
    MAX_ASYMMETRY,
    LoopGeometry,
    compensation_delta,
    omega_q_at_global_flux,
)
from dsfq.readout import ResonatorSpec, dispersive_shift
from dsfq.spectrum import qubit_eigensolution, qubit_params

EXPERIMENTS_DIR = Path(__file__).resolve().parent.parent / "experiments"


def _gate_config(**circuit):
    # a short gate on a small basis: 2 ns ramps around a 4 ns pulse, sector dim 145
    return {
        "schema_version": 1,
        "experiment": "single_qubit_gate",
        "circuit": {"ej": 10.0, "ec": 0.1, "cutoff": 8, "phi_ext": "0.995*pi", **circuit},
        "params": {"target": "x", "steps_per_ns": 50, "calibrate": False,
                   "ramp_ns": 2.0, "pulse_ns": 4.0, "pulse_ramp_ns": 1.0},
    }


def test_phase_expression_parses_to_the_same_float():
    spec = _circuit_from(_gate_config(phi_ext="0.997*pi"))
    assert spec.phi_ext == 0.997 * math.pi
    assert _circuit_from(_gate_config(phi_ext="-(2 - 0.5)*pi/4")).phi_ext == -(2 - 0.5) * math.pi / 4
    assert _circuit_from(_gate_config(phi_ext=3.0)).phi_ext == 3.0


@pytest.mark.parametrize("phase", [
    "().__class__", "__import__('os')", "2**9999", "1/0", "1e308*10", "pi()", "x",
    "True", "1j", "", "9" * 201,
])
def test_phase_expression_outside_whitelist_is_rejected(phase):
    with pytest.raises(ConfigError):
        validate_config(_gate_config(phi_ext=phase))


def test_validate_config_rejects_bad_structure(tmp_path):
    good = _gate_config()
    validate_config(good)
    with pytest.raises(ConfigError, match="schema_version"):
        validate_config({**good, "schema_version": 2})
    with pytest.raises(ConfigError, match="unknown keys in config root"):
        validate_config({**good, "extra": 1})
    with pytest.raises(ConfigError, match="unknown keys in circuit"):
        validate_config(_gate_config(colour="blue"))
    with pytest.raises(ConfigError, match="unknown keys in params"):
        validate_config({**good, "params": {"points": 3}})
    for block in ("params", "circuit"):
        with pytest.raises(ConfigError, match="must be a JSON object"):
            validate_config({**good, block: [1]})
    # a bad variant, wrongly typed fields and out-of-range values; a basis
    # size must be a plain integer no larger than MAX_CUTOFF
    for bad in ({"variant": "nonsense"}, {"cutoff": "twelve"}, {"ej": -1.0},
                {"cutoff": 60}, {"cutoff": 12.5}, {"cutoff": True}, {"cutoff": 1000000},
                {"cutoff": 0}):
        with pytest.raises(ConfigError, match="invalid circuit block"):
            validate_config(_gate_config(**bad))
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(_gate_config(**bad)))
        assert main(["validate", str(path)]) == 2
        assert main(["run", str(path), "--output", str(tmp_path / "out")]) == 2
    assert MAX_CUTOFF >= 23  # the largest cutoff a shipped workload uses
    validate_config(_gate_config(cutoff=23))


@pytest.mark.parametrize("value", ["Infinity", "-Infinity", "NaN"])
@pytest.mark.parametrize("key", ["ej", "ec", "ng_phi", "phi_ext"])
def test_non_finite_circuit_number_is_a_config_error(tmp_path, key, value):
    # json.loads reads Infinity and NaN as floats
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_gate_config(**{key: float(value)})))
    assert value in path.read_text()
    assert main(["validate", str(path)]) == 2
    assert main(["run", str(path), "--output", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


def test_hamiltonian_norm_overflow_is_a_numerical_failure(tmp_path):
    # finite entries whose row sums overflow: ||H||_inf = inf bounds no residual
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({
        "schema_version": 1,
        "experiment": "spectrum_vs_alpha",
        "circuit": {"ej": 1e308, "ec": 0.1, "cutoff": 3},
        "params": {"points": 1},
    }))
    assert main(["validate", str(path)]) == 0
    assert main(["run", str(path), "--output", str(tmp_path / "out")]) == 3
    # the manifest says the run failed, and why
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["status"] == "FAILED"
    assert manifest["error"]["type"] == "SpectrumError"
    assert manifest["error"]["message"]


def _rerun_files(cfg: dict, tmp_path) -> list[str]:
    """Run ``cfg`` twice; check that every CSV comes out byte-identical."""
    first = run(cfg, output=str(tmp_path / "a"))
    second = run(cfg, output=str(tmp_path / "b"))
    assert first["status"] == second["status"] == "OK"
    for name in first["files"]:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    return sorted(first["files"])


def test_rerun_writes_byte_identical_csvs(tmp_path):
    files = _rerun_files(_gate_config(), tmp_path)
    assert files == ["gate_summary.csv", "spectral_weights.csv"]


@pytest.mark.parametrize("experiment, params, files", [
    ("zz_map", {"alpha_values": [0.8, 1.0]}, ["zz_map.csv"]),
    ("two_qubit_map", {"t_a_values": [20.0], "t_w_values": [5.0], "steps_per_ns": 50,
                       "alpha_grid": 5e-3, "per_qubit_m": 6, "subspace_k": 12},
     ["entangling_power.csv", "phi_cphase.csv", "theta_swap.csv"]),
], ids=["zz_map", "two_qubit_map"])
def test_two_qubit_rerun_writes_byte_identical_csvs(tmp_path, experiment, params, files):
    cfg = {
        "schema_version": 1,
        "experiment": experiment,
        "circuit": {"ej": 10.0, "ec": 0.1, "cutoff": 5, "phi_ext": "0.99*pi"},
        "params": params,
        "workers": 2,
    }
    assert _rerun_files(cfg, tmp_path) == files


def test_large_cutoff_rerun_writes_byte_identical_csvs(tmp_path):
    # a 2209-state gradiometric basis goes to the sparse branch, which
    # used to start ARPACK from a random vector: reruns then differed in
    # the 12th digit of omega_q
    cfg = {
        "schema_version": 1,
        "experiment": "spectrum_vs_alpha",
        "circuit": {"ej": 10.0, "ec": 0.1, "cutoff": MAX_CUTOFF, "variant": "gradiometric"},
        "params": {"alpha_start": 0.97, "points": 1},
    }
    assert _rerun_files(cfg, tmp_path) == ["spectrum_vs_alpha.csv"]


def test_gradiometric_points_run_in_row_order(tmp_path):
    # 2 points x 3 cases of 625 states: the same bytes from 1 and 2 workers,
    # each row holding its own point's three cases
    cfg = {
        "schema_version": 1,
        "experiment": "gradiometric_dispersion",
        "circuit": {"ej": 10.0, "ec": 0.1, "alpha1": 1.0, "alpha2": 1.0, "cutoff": 12},
        "params": {"phi_g_start": 0.99, "phi_g_stop": 1.03, "points": 2},
    }
    name = "gradiometric_dispersion.csv"
    for workers in (1, 2):
        run(cfg, output=str(tmp_path / str(workers)), workers=workers)
    assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()
    spec = replace(_circuit_from(validate_config(cfg)), variant=Variant.GRADIOMETRIC)
    r = 0.01
    geometries = {
        "identical": (LoopGeometry(), 0.0),
        "asymmetric": (LoopGeometry(a1=1 + r, a2=1 - r), 0.0),
        "compensated": (LoopGeometry(a1=1 + r, a2=1 - r), compensation_delta(r)[0]),
    }
    lines = (tmp_path / "1" / name).read_text().splitlines()
    assert lines[0].split(",")[1:] == [f"omega_q_GHz_{c}" for c in geometries]
    for line, phi_g in zip(lines[1:], (0.99, 1.03)):
        expected = [omega_q_at_global_flux(spec, geom, phi_g, delta)
                    for geom, delta in geometries.values()]
        assert [float(x) for x in line.split(",")] == pytest.approx([phi_g, *expected], abs=1e-11)


def _small_sweep_rows(tmp_path, experiment: str, params: dict) -> tuple[dict, list, list]:
    """Run a 2-point sweep of a cutoff-5 single loop twice; check that the
    reruns match byte for byte. Returns the filled config, the header and
    the rows of its one CSV."""
    cfg = {
        "schema_version": 1,
        "experiment": experiment,
        "circuit": {"ej": 10.0, "ec": 0.1, "cutoff": 5, "phi_ext": "0.997*pi"},
        "params": {**params, "points": 2},
    }
    (name,) = _rerun_files(cfg, tmp_path)
    header, *lines = (tmp_path / "a" / name).read_text().splitlines()
    return validate_config(cfg), header.split(","), [
        [float(x) for x in line.split(",")] for line in lines]


def test_flux_dispersion_rows_are_qubit_params(tmp_path):
    cfg, header, rows = _small_sweep_rows(tmp_path, "flux_dispersion",
                                          {"phi_start_pi": 0.98, "phi_stop_pi": 1.01})
    assert header == ["phi_ext_per_pi", "omega_q_GHz", "anharmonicity_GHz"]
    assert [row[0] for row in rows] == [0.98, 1.01]
    spec = _circuit_from(cfg)
    for x, *values in rows:
        qp = qubit_params(qubit_eigensolution(replace(spec, phi_ext=x * math.pi), 3))
        assert values == pytest.approx([qp.omega_q, qp.anharmonicity], rel=1e-11, abs=1e-11)


def test_coherence_vs_alpha_rows_are_coherence_reports(tmp_path):
    cfg, header, rows = _small_sweep_rows(tmp_path, "coherence_vs_alpha",
                                          {"alpha_start": 1.0, "alpha_stop": 0.8,
                                           "rate_convention": "si"})
    assert header == ["alpha", "t1_us", "tphi_us", "t2_us",
                      "gamma1_dielectric_per_ns", "gamma1_flux_per_ns"]
    assert [row[0] for row in rows] == [1.0, 0.8]
    spec = _circuit_from(cfg)
    for a, *values in rows:
        rep = coherence_report(spec.with_alpha(a), conventions=RateConventions(rate_scale="si"))
        expected = [rep.t1, rep.tphi, rep.t2, rep.gamma1_by_channel.get("dielectric", 0.0),
                    rep.gamma1_by_channel.get("flux_1f", 0.0)]
        assert values == pytest.approx(expected, rel=1e-11, abs=1e-11)


def test_dispersive_shift_sweep_rows_are_dispersive_shifts(tmp_path):
    cfg, header, rows = _small_sweep_rows(tmp_path, "dispersive_shift_sweep",
                                          {"phi_start_pi": 1.0, "phi_stop_pi": 1.02,
                                           "levels": 12})
    assert header == ["phi_ext_per_pi", "chi_GHz", "dispersive_valid"]
    assert [row[0] for row in rows] == [1.0, 1.02]
    spec, resonator = _circuit_from(cfg), ResonatorSpec(omega_r=4.8, g=0.025)
    for x, chi, valid in rows:
        ds = dispersive_shift(replace(spec, phi_ext=x * math.pi), resonator, levels=12)
        assert chi == pytest.approx(ds.chi, rel=1e-11, abs=1e-11)
        assert valid == int(ds.valid)


def _config(experiment: str, **params) -> dict:
    # cutoff 4 keeps every experiment cheap should a bad value get through
    return {
        "schema_version": 1,
        "experiment": experiment,
        "circuit": {"ej": 10.0, "ec": 0.1, "cutoff": 4, "phi_ext": "0.997*pi"},
        "params": params,
    }


# (experiment, key, value, cheap): a cheap value also goes through `dsfq run`;
# an oversize one is only validated, so no test asks for its work.
BAD_VALUES = [
    ("spectrum_vs_alpha", "points", "ten", True),
    ("spectrum_vs_alpha", "points", 1e9, False),
    ("spectrum_vs_alpha", "points", -3, True),
    ("spectrum_vs_alpha", "points", 6.7, True),
    ("spectrum_vs_alpha", "alpha_stop", "low", True),
    ("coherence_vs_alpha", "rate_convention", "cgs", True),
    ("single_qubit_gate", "target", "z", True),
    ("gradiometric_dispersion", "cases", ["bogus"], True),
    ("dispersive_shift_sweep", "levels", 5, True),
    ("spectrum_vs_alpha", "seed", "abc", True),
    ("spectrum_vs_alpha", "workers", "x", True),
    ("two_qubit_map", "subspace_k", -3, True),
    ("two_qubit_map", "per_qubit_m", 1e6, False),
    ("two_qubit_map", "steps_per_ns", 1e9, False),
    ("two_qubit_map", "alpha_grid", 1e-9, False),
    ("two_qubit_map", "t_a_values", [], True),
    ("zz_map", "alpha_values", "x", True),
    # each bound and type rule at its edge
    ("spectrum_vs_alpha", "points", 0, False),
    ("spectrum_vs_alpha", "points", MAX_POINTS + 1, False),
    ("spectrum_vs_alpha", "points", 10**9, False),
    ("spectrum_vs_alpha", "points", True, False),
    ("spectrum_vs_alpha", "alpha_start", float("nan"), False),
    ("spectrum_vs_alpha", "alpha_start", float("inf"), False),
    ("spectrum_vs_alpha", "alpha_start", 10**400, False),
    ("spectrum_vs_alpha", "alpha_start", False, False),
    ("spectrum_vs_alpha", "alpha_start", None, False),
    ("spectrum_vs_alpha", "seed", -1, False),
    ("spectrum_vs_alpha", "seed", 2**32, False),
    ("spectrum_vs_alpha", "workers", 0, False),
    ("spectrum_vs_alpha", "output", 7, False),
    ("gradiometric_dispersion", "cases", [], False),
    ("gradiometric_dispersion", "cases", ["identical", "identical"], False),
    ("gradiometric_dispersion", "cases", "identical", False),
    ("single_qubit_gate", "calibrate", 1, False),
    ("single_qubit_gate", "steps_per_ns", 49, False),
    ("single_qubit_gate", "steps_per_ns", MAX_STEPS_PER_NS + 1, False),
    ("single_qubit_gate", "ramp_ns", MAX_DURATION_NS + 1e-9, False),
    ("single_qubit_gate", "ramp_ns", 1e9, False),
    ("single_qubit_gate", "pulse_ns", MAX_DURATION_NS + 1e-9, False),
    ("dispersive_shift_sweep", "levels", MAX_LEVELS + 1, False),
    ("two_qubit_map", "per_qubit_m", 10**6, False),
    ("two_qubit_map", "per_qubit_m", MAX_PER_QUBIT_M + 1, False),
    ("two_qubit_map", "steps_per_ns", 10**9, False),
    ("two_qubit_map", "alpha_grid", MIN_ALPHA_GRID / 2, False),
    ("two_qubit_map", "t_w_values", [1.0] * (MAX_GRID_VALUES + 1), False),
    ("two_qubit_map", "t_w_values", [1.0, float("nan")], False),
    ("two_qubit_map", "t_w_values", None, False),
    ("two_qubit_map", "t_w_values", [5, MAX_DURATION_NS + 1e-9], False),
    ("two_qubit_map", "t_w_values", [1e9], False),
    ("zz_map", "alpha_values", [0.8, "1.0"], False),
    # physical ranges, checked before any work instead of failing inside the run
    ("single_qubit_gate", "ramp_ns", -1, True),
    ("spectrum_vs_alpha", "alpha_start", 5, True),
    ("dispersive_shift_sweep", "g", -1, True),
    ("spectrum_vs_alpha", "alpha_stop", MIN_ALPHA - 0.1, False),
    ("coherence_vs_alpha", "alpha_start", MAX_ALPHA + 0.1, False),
    ("single_qubit_gate", "ramp_ns", 0, False),
    ("single_qubit_gate", "pulse_ns", 0.0, False),
    ("single_qubit_gate", "pulse_ramp_ns", -0.5, False),
    ("single_qubit_gate", "pulse_ramp_ns", 6.0, True),  # two ramps longer than pulse_ns = 11
    ("single_qubit_gate", "pulse_ramp_ns", 5.5 + 1e-9, False),
    ("single_qubit_gate", "plateau_alpha", ALPHA_MIN_ALLOWED - 0.01, False),
    ("single_qubit_gate", "plateau_alpha", ALPHA_MAX_ALLOWED + 0.01, False),
    ("gradiometric_dispersion", "asymmetry", MAX_ASYMMETRY, False),
    ("gradiometric_dispersion", "asymmetry", -MAX_ASYMMETRY, False),
    ("two_qubit_map", "cg_ratio", -0.1, False),
    ("two_qubit_map", "detuning", -1, False),
    ("two_qubit_map", "t_a_values", [20, MAX_T_A_NS + 1], False),
    ("two_qubit_map", "t_a_values", [0], False),
    ("two_qubit_map", "t_w_values", [5, -1], False),
    ("zz_map", "alpha_values", [0.8, MAX_ALPHA + 0.5], False),
    ("zz_map", "cg_ratio", -1, False),
    ("dispersive_shift_sweep", "omega_r", 0, False),
    # more levels than the circuit holds: 41 even-sector states at cutoff 4,
    # 13 at cutoff 2 (against 25 levels), 5 at cutoff 1 (against the gate's
    # 8 spectral weights) and 9 node-basis states at cutoff 1 (against 12)
    ("dispersive_shift_sweep", "levels", 42, True),
    ("dispersive_shift_sweep", "cutoff", 2, True),
    ("single_qubit_gate", "cutoff", 1, True),
    ("two_qubit_map", "cutoff", 1, True),
    ("zz_map", "cutoff", 1, True),
]


def _with(experiment: str, key: str, value) -> dict:
    cfg = _config(experiment)
    if key in ("output", "seed", "workers"):
        cfg[key] = value
    elif key == "cutoff":
        cfg["circuit"][key] = value
    else:
        cfg["params"][key] = value
    return cfg


@pytest.mark.parametrize("experiment, key, value, cheap", BAD_VALUES,
                         ids=[f"{key}={value!r}"[:40] if key != "cutoff"
                              else f"{experiment}-cutoff={value}"
                              for experiment, key, value, _ in BAD_VALUES])
def test_bad_parameter_value_is_a_config_error(tmp_path, experiment, key, value, cheap):
    cfg = _with(experiment, key, value)
    with pytest.raises(ConfigError, match=f"{key} = "):
        validate_config(cfg)
    if not cheap:
        return
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main(["validate", str(path)]) == 2
    assert main(["run", str(path), "--output", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()  # no PARTIAL manifest is left behind


def test_subspace_k_is_bounded_by_the_product_space():
    validate_config(_config("two_qubit_map", per_qubit_m=4, subspace_k=16))
    with pytest.raises(ConfigError, match="subspace_k = 17 exceeds per_qubit_m"):
        validate_config(_config("two_qubit_map", per_qubit_m=4, subspace_k=17))


def test_physical_range_edges_validate():
    # each bound that a physics constructor enforces, taken at its edge
    validate_config(_config("spectrum_vs_alpha", alpha_start=MAX_ALPHA, alpha_stop=MIN_ALPHA))
    validate_config(_config("single_qubit_gate", plateau_alpha=ALPHA_MIN_ALLOWED, pulse_ramp_ns=0))
    validate_config(_config("single_qubit_gate", plateau_alpha=ALPHA_MAX_ALLOWED))
    validate_config(_config("single_qubit_gate", pulse_ns=3.0, pulse_ramp_ns=1.5))
    validate_config(_config("gradiometric_dispersion", asymmetry=-0.199))
    validate_config(_config("two_qubit_map", cg_ratio=0, detuning=-0.5,
                            t_a_values=[MAX_T_A_NS], t_w_values=[0]))
    validate_config(_config("zz_map", alpha_values=[MIN_ALPHA, MAX_ALPHA]))


def test_largest_sizes_validate():
    validate_config(_config("spectrum_vs_alpha", points=MAX_POINTS))
    # a cutoff-12 sector holds 313 states
    validate_config({**_config("dispersive_shift_sweep", levels=MAX_LEVELS),
                     "circuit": {"ej": 10.0, "ec": 0.1, "cutoff": 12}})
    validate_config(_config("single_qubit_gate", steps_per_ns=MAX_STEPS_PER_NS))
    validate_config(_config("single_qubit_gate", ramp_ns=MAX_DURATION_NS,
                            pulse_ns=MAX_DURATION_NS))
    validate_config(_config("two_qubit_map", t_w_values=[0, MAX_DURATION_NS]))
    validate_config(_config(
        "two_qubit_map", per_qubit_m=MAX_PER_QUBIT_M, subspace_k=MAX_PER_QUBIT_M**2,
        alpha_grid=MIN_ALPHA_GRID, t_a_values=[20] * MAX_GRID_VALUES,
    ))
    validate_config({**_config("spectrum_vs_alpha"), "seed": 2**32 - 1, "workers": 512})


def test_defaults_are_filled_and_values_pass_unchanged():
    cfg = _config("two_qubit_map", t_a_values=[20, 24.5])
    filled = validate_config(cfg)
    assert cfg["params"] == {"t_a_values": [20, 24.5]}  # the input is not modified
    p = filled["params"]
    assert p["t_a_values"] == [20, 24.5] and type(p["t_a_values"][0]) is int
    assert p["steps_per_ns"] == 286 and p["per_qubit_m"] == 12 and p["alpha_grid"] == 1e-3
    assert list(p["t_w_values"]) == [2.0 * i for i in range(12)]
    assert (filled["seed"], filled["output"]) == (0, "results")
    gradiometric = validate_config(_config("gradiometric_dispersion"))["params"]
    assert list(gradiometric["cases"]) == ["identical", "asymmetric", "compensated"]


@pytest.mark.parametrize("path", sorted(EXPERIMENTS_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_shipped_config_validates_and_dry_runs(tmp_path, path):
    validate_config(json.loads(path.read_text()))
    assert main(["run", str(path), "--dry-run", "--output", str(tmp_path / "out")]) == 0


def test_workers_default_comes_from_the_environment(monkeypatch):
    cfg = _config("spectrum_vs_alpha")
    monkeypatch.delenv("DSFQ_WORKERS", raising=False)
    assert validate_config(cfg)["workers"] == 1
    monkeypatch.setenv("DSFQ_WORKERS", "3")
    assert validate_config(cfg)["workers"] == 3
    assert validate_config({**cfg, "workers": 2})["workers"] == 2
    for bad in ("x", "0", "-1", "\u00b2", "1" * 4301):  # '²' passes str.isdigit()
        monkeypatch.setenv("DSFQ_WORKERS", bad)
        with pytest.raises(ConfigError, match="workers = "):
            validate_config(cfg)


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_bad_workers_flag_exits_2(tmp_path, workers):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_config("spectrum_vs_alpha")))
    out = tmp_path / "out"
    assert main(["run", str(path), "--workers", workers, "--output", str(out)]) == 2
    assert not out.exists()



@pytest.mark.parametrize("experiment, params", [
    ("spectrum_vs_alpha", {"points": 3}),
    ("zz_map", {"alpha_values": [0.8, 1.0]}),
], ids=["spectrum_vs_alpha", "zz_map"])
def test_points_run_in_the_calling_thread(tmp_path, monkeypatch, experiment, params):
    # a worker count is accepted, starts no thread and changes no byte
    def refuse(thread):
        raise RuntimeError(f"{thread.name} was started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    cfg = _config(experiment, **params)
    for workers in (4, 1):
        manifest = run({**cfg, "workers": workers}, output=str(tmp_path / str(workers)))
        assert manifest["status"] == "OK"
    name = f"{experiment}.csv"
    assert (tmp_path / "4" / name).read_bytes() == (tmp_path / "1" / name).read_bytes()

@pytest.mark.parametrize("detuning, decompositions, qubit_solves", [(0.0, 1, 3), (0.02, 2, 6)])
def test_zz_map_solves_each_qubit_and_alpha_once(tmp_path, monkeypatch, detuning,
                                                 decompositions, qubit_solves):
    # A 3 x 3 map builds one engine per distinct qubit, which splits its H
    # once, and solves each qubit once per alpha through that engine; the
    # coupled 144-dim H is solved at every point.
    counts = {"split": 0, "qubit": 0, "coupled": 0}
    split, solve, eigh = (evolve.hamiltonian_decomposition, evolve.qubit_eigensolution,
                          gates.scipy.linalg.eigh)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def counting_eigh(a, *args, **kwargs):
        if a.shape[0] == 144:
            counts["coupled"] += 1
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(evolve, "hamiltonian_decomposition", counting("split", split))
    monkeypatch.setattr(evolve, "qubit_eigensolution", counting("qubit", solve))
    monkeypatch.setattr(gates.scipy.linalg, "eigh", counting_eigh)
    # the points run in order, so each solve is counted once
    cfg = {**_config("zz_map", alpha_values=[0.6, 0.8, 1.0], detuning=detuning), "workers": 1}
    assert run(cfg, output=str(tmp_path))["status"] == "OK"
    assert counts == {"split": decompositions, "qubit": qubit_solves, "coupled": 9}


def test_detuned_map_builds_one_rate_interpolator_per_qubit(tmp_path, monkeypatch):
    built = []
    init = gates.Gamma1Interpolator.__init__

    def counting(self, spec, *args, **kwargs):
        built.append(spec.ej)
        init(self, spec, *args, **kwargs)

    monkeypatch.setattr(gates.Gamma1Interpolator, "__init__", counting)
    cfg = {**_config("two_qubit_map", detuning=0.02, t_a_values=[20.0, 22.0],
                     t_w_values=[4.0, 5.0], steps_per_ns=50, alpha_grid=5e-3,
                     per_qubit_m=6, subspace_k=12),
           "circuit": {"ej": 10.0, "ec": 0.1, "cutoff": 5, "phi_ext": "0.99*pi"}}
    assert run(cfg, output=str(tmp_path))["status"] == "OK"
    assert built == [10.0, 10.0 * 1.02]


def test_gate_point_builds_one_engine_and_the_noise_operators_once(tmp_path, monkeypatch):
    # A single_qubit_gate point splits its circuit's H once: the plateau
    # solve, the rates, the drive element and the gate share one engine.
    # The rates build each of their 4 noise operators once.
    counts = {"split": 0, "noise": 0}
    split, build = evolve.hamiltonian_decomposition, coherence.build_operator

    def counting_split(*args, **kwargs):
        counts["split"] += 1
        return split(*args, **kwargs)

    def counting_build(kind, *args, **kwargs):
        counts["noise"] += kind in ("dH_dphi_ext", "dH_dng_phi", "dH_dng_theta", "phi_grid")
        return build(kind, *args, **kwargs)

    monkeypatch.setattr(evolve, "hamiltonian_decomposition", counting_split)
    monkeypatch.setattr(coherence, "build_operator", counting_build)
    assert run(_gate_config(cutoff=6), output=str(tmp_path))["status"] == "OK"
    assert counts["split"] == 1
    assert 0 < counts["noise"] <= 4


def test_shipped_schedule_calibrates_at_cutoff_6(tmp_path):
    # The shipped 7/11/1.5 ns schedule at cutoff 6 and 50 steps per ns has
    # its fidelity maximum far above the rotating-wave seed amplitude, out
    # of the +-5% scan, which exited 3 before the scan could extend.
    cfg = _gate_config(cutoff=6)
    cfg["params"] = {"target": "x", "steps_per_ns": 50, "calibrate": True}
    manifest = run(cfg, output=str(tmp_path))
    assert manifest["status"] == "OK"
    assert manifest["notes"]["calibrated_amplitude"] > 0
