"""Fast tests of the benchmark's generator, output checks and span timing.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import copy
import json

import pytest

import checks
import common
from spans import Span, layer_metrics, self_times
from workloads import GENERATORS, Job, generate

cli = common.import_dsfq()


@pytest.mark.parametrize("workload", sorted(GENERATORS))
def test_generator_is_a_function_of_the_seed(workload):
    first = generate(workload, seed=5, workers=2, rounds=4)
    assert generate(workload, seed=5, workers=2, rounds=4) == first
    assert generate(workload, seed=6, workers=2, rounds=4) != first
    configs = [job.cfg for jobs in first for job in jobs]
    assert len({repr(c) for c in configs}) == len(configs)  # no round repeats a config
    for job in (job for jobs in first for job in jobs):
        cli.validate_config(copy.deepcopy(job.cfg))
        assert all(0 <= i < job.rows for i in job.check_rows)


@pytest.fixture(scope="module")
def spectrum_output(tmp_path_factory):
    cfg = {
        "schema_version": 1,
        "experiment": "spectrum_vs_alpha",
        "circuit": {"ej": 10.0, "ec": 0.1, "phi_ext": "0.997*pi", "cutoff": 12},
        "params": {"alpha_start": 0.97, "alpha_stop": 0.52, "points": 3},
    }
    out = tmp_path_factory.mktemp("spectrum")
    cli.run(cfg, output=str(out))
    return Job(cfg, 3, (0, 1, 2)), out / "spectrum_vs_alpha.csv"


def _rewrite(path, edit):
    lines = path.read_text().splitlines()
    edit(lines)
    path.write_text("\n".join(lines) + "\n")


def _corrupt(spectrum_output, tmp_path, edit):
    job, original = spectrum_output
    copy_path = tmp_path / original.name
    copy_path.write_text(original.read_text())
    _rewrite(copy_path, edit)
    return checks.check(job, tmp_path)


def test_checks_pass_program_output(spectrum_output, tmp_path):
    assert _corrupt(spectrum_output, tmp_path, lambda lines: None) == [None, None, None]


def test_checks_reject_nan_row(spectrum_output, tmp_path):
    def nan_row(lines):
        x, _, anh = lines[2].split(",")
        lines[2] = f"{x},nan,{anh}"

    errors = _corrupt(spectrum_output, tmp_path, nan_row)
    assert errors[1] and not errors[0] and not errors[2]


def test_checks_reject_missing_row(spectrum_output, tmp_path):
    errors = _corrupt(spectrum_output, tmp_path, lambda lines: lines.pop())
    assert errors[2] == "row missing" and not errors[0]


def test_checks_reject_omega_off_by_1e_6(spectrum_output, tmp_path):
    def shift(lines):
        x, omega, anh = lines[1].split(",")
        lines[1] = f"{x},{float(omega) + 1e-6!r},{anh}"

    errors = _corrupt(spectrum_output, tmp_path, shift)
    assert "differs from reference" in errors[0] and not errors[1]


def test_self_time_on_synthetic_span_tree():
    # run [0, 10] on the main thread; a [1, 4] nested on the main thread with
    # child c [2, 3]; b [3, 6] is a worker-thread point under run.
    spans = [
        Span(1, "cli.run", 0.0, 10.0, None, 1, 1),
        Span(2, "a", 1.0, 4.0, 1, 1, 1),
        Span(3, "c", 2.0, 3.0, 2, 1, 1),
        Span(4, "b", 3.0, 6.0, 1, 2, 4),
    ]
    assert self_times(spans) == pytest.approx({1: 5.0, 2: 2.0, 3: 1.0, 4: 3.0})


def test_benchmark_json_names_what_the_run_prints():
    doc = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in doc["workloads"]} <= set(GENERATORS)  # large_basis runs by name
    printed = set(layer_metrics([])) | {"trace.overhead_ratio"}
    assert {m["name"] for m in doc["per_layer"]} == printed
