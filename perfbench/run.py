"""dsfq benchmark: seeded experiment workloads through ``dsfq.cli.run``.

Run from the repository root:

    python3 perfbench/run.py --workload static_sweep --seed 1 --seconds 10 --trace 0

One client runs a closed loop: it submits the workload's next generated
config to ``dsfq.cli.run`` when the previous one returns, round after
round, and checks every output row. The loop stops at the round boundary
nearest to ``--seconds`` after its start, after at least one round (two
when tracing), so a run's length does not depend on where a long round
happens to end. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` (rows) and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones:
  setup_s       median over fresh interpreters of the time from process
                start until ``import dsfq`` is done and the workload's
                configs have passed ``dsfq.cli.validate_config``
  points_per_s  checked output rows per second of ``cli.run`` wall time
                summed over the run's rounds. On a shared host the
                speed drifts between slower and faster spells of several
                seconds; the summed rate averages them, where a median
                over rounds of several seconds jumps between them.
  peak_rss_mb   peak resident set size of this process
failed_ratio (failed rows over attempted rows) is printed above the JSON
line, and its parts are the JSON ``failed`` and ``attempted``.

With ``--trace 1`` rounds alternate between untraced and traced, and the
metrics are the per-layer ones from ``spans.layer_metrics`` plus
``trace.overhead_ratio``.
"""

from __future__ import annotations

import common  # first: pins the BLAS thread pools before numpy loads

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import numpy
import scipy

import checks
import spans
from workloads import GENERATORS, EXPECTED_SPANS, describe, generate

SETUP_SAMPLES = 3


def set_up(workload: str, seed: int):
    """Import dsfq and build the workload's validated rounds."""
    cli = common.import_dsfq()
    rounds = generate(workload, seed, common.nproc())
    for jobs in rounds:
        for job in jobs:
            cli.validate_config(job.cfg)
    return cli, rounds


def measure_setup(workload: str, seed: int) -> list[float]:
    """Set-up times of fresh interpreters, from spawn to validated configs."""
    probe = os.path.join(os.path.dirname(os.path.abspath(__file__)), "setup_probe.py")
    samples = []
    for _ in range(SETUP_SAMPLES):
        started = time.monotonic()
        done = subprocess.run(
            [sys.executable, probe, "--workload", workload, "--seed", str(seed)],
            cwd=common.ROOT, capture_output=True, text=True, check=True, timeout=120,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]) - started)
    return samples


class Loop:
    """The closed-loop client: runs rounds and keeps their results."""

    def __init__(self, cli, out_dir):
        self.cli = cli
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run_round(self, jobs) -> tuple[int, float]:
        """Run one round; returns (rows that passed, summed cli.run wall)."""
        passed, wall = 0, 0.0
        for job in jobs:
            shutil.rmtree(self.out_dir, ignore_errors=True)
            started = time.perf_counter()
            try:
                self.cli.run(job.cfg, output=str(self.out_dir))
                raised = None
            except Exception as ex:  # an aborted experiment fails all its rows
                raised = f"{type(ex).__name__}: {ex}"
            wall += time.perf_counter() - started
            errors = [raised] * job.rows if raised else checks.check(job, self.out_dir)
            bad = [e for e in errors if e]
            self.attempted += job.rows
            self.failed += len(bad)
            passed += job.rows - len(bad)
            self.errors += [f"{job.cfg['experiment']}: {e}" for e in bad]
        return passed, wall


def environment(workload: str, rounds) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": workload,
        "nproc": common.nproc(),
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "inputs": sorted({describe(job.cfg) for job in rounds[0]}),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        cli, rounds = set_up(args.workload, args.seed)
        setup = [] if args.trace else measure_setup(args.workload, args.seed)
    except (common.MissingProgram, subprocess.SubprocessError) as ex:
        print(f"set-up failed: {ex}", file=sys.stderr)
        return 2
    env = environment(args.workload, rounds)
    print("environment " + json.dumps(env), flush=True)

    out_dir = common.ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    loop = Loop(cli, out_dir)
    tracer = spans.Tracer() if args.trace else None
    walls = {False: [0.0, 0, 0], True: [0.0, 0, 0]}  # traced -> [wall, rows, passed]
    labels = []
    started = time.perf_counter()
    try:
        r = 0
        while True:
            traced = tracer is not None and r % 2 == 1
            if traced:
                tracer.install()
            try:
                passed, wall = loop.run_round(rounds[r % len(rounds)])
            finally:
                if traced:
                    tracer.uninstall()
            rows = sum(job.rows for job in rounds[r % len(rounds)])
            walls[traced][0] += wall
            walls[traced][1] += rows
            walls[traced][2] += passed
            labels.append(f"{passed / wall:.4f}{'*' if traced else ''}")
            r += 1
            elapsed = time.perf_counter() - started
            # Another round ends nearer the deadline iff it starts before
            # the deadline less half a round.
            if elapsed + elapsed / r / 2 >= args.seconds and (tracer is None or r >= 2):
                break
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        if out_dir.parent.exists() and not any(out_dir.parent.iterdir()):
            out_dir.parent.rmdir()

    for line in loop.errors[:20]:
        print(f"failed row: {line}")
    failed_ratio = loop.failed / loop.attempted
    print(f"rounds {r} in {elapsed:.1f} s  rows attempted {loop.attempted}  failed {loop.failed}  "
          f"failed_ratio {failed_ratio:.6g} (ratio)")
    print(f"round rates (1/s, * traced): {', '.join(labels)}")

    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "points_per_s": (walls[False][2] / walls[False][0], "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        print(f"setup samples (s): {', '.join(f'{s:.4f}' for s in setup)}")
    else:
        metrics = spans.layer_metrics(tracer.spans)
        per_row = {k: wall / rows for k, (wall, rows, _) in walls.items()}
        metrics["trace.overhead_ratio"] = (per_row[True] / per_row[False] - 1.0, "ratio")
        recorded = {name for name in spans.SPAN_NAMES if metrics[f"{name}.calls"][0]}
        missing = sorted(EXPECTED_SPANS[args.workload] - recorded)
        if missing:
            print(f"span coverage: no spans from {missing} on {args.workload}; "
                  "a wrapper missed a binding", file=sys.stderr)
            return 3

    for name, (value, unit) in metrics.items():
        moves = spans.MOVES.get(name) if tracer else None
        note = f"  (moves {moves[0]} on {moves[1]})" if moves else ""
        print(f"{name}: {value:.6g} {unit}{note}")
    print(f"correct: {loop.failed == 0}")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # report, and exit without a result line
        traceback.print_exc()
        sys.exit(1)
