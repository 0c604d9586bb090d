import json
import math

import pytest

from dsfq.cli import MAX_CUTOFF, ConfigError, _circuit_from, main, run, validate_config


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
