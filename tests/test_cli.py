import json
import math

import pytest

from dsfq.cli import ConfigError, _circuit_from, main, run, validate_config


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
    # a bad variant, a wrongly typed field and an out-of-range value
    for bad in ({"variant": "nonsense"}, {"cutoff": "twelve"}, {"ej": -1.0}):
        with pytest.raises(ConfigError, match="invalid circuit block"):
            validate_config(_gate_config(**bad))
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(_gate_config(**bad)))
        assert main(["validate", str(path)]) == 2
        assert main(["run", str(path), "--output", str(tmp_path / "out")]) == 2


def test_rerun_writes_byte_identical_csvs(tmp_path):
    cfg = _gate_config()
    first = run(cfg, output=str(tmp_path / "a"))
    second = run(cfg, output=str(tmp_path / "b"))
    assert first["status"] == second["status"] == "OK"
    assert sorted(first["files"]) == ["gate_summary.csv", "spectral_weights.csv"]
    for name in first["files"]:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
