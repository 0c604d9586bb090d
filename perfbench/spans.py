"""Span tracing of the dsfq layers, installed from outside the package.

Each public function named in ``TARGETS`` is replaced by a wrapper that
records a span: name, start, end, parent, thread and point id. The
modules import each other with ``from .x import y``, so a wrapper replaces
the name in every dsfq module that binds it, not only where it is defined.
Spans stay in memory until the run ends.

Each thread keeps its own parent stack, because the cli pool runs points
in worker threads. A span that starts on an empty stack while ``cli.run``
is open is a point: its parent is that ``cli.run`` span and it opens a new
point id. A span's self time is its duration minus the part of it that
its child spans, on any thread, cover.

Per-layer metrics, with the end-to-end metric each should move and the
workload it moves on (``MOVES``), are derived in ``layer_metrics``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import statistics
import sys
import threading
import time
import weakref
from dataclasses import dataclass, field

TARGETS = {
    "circuit": ["build_hamiltonian", "build_operator", "hamiltonian_decomposition"],
    "spectrum": ["diagonalize", "qubit_eigensolution", "align_gauge"],
    "coherence": ["relaxation_rates", "dephasing_rates", "coherence_report"],
    "gradiometric": ["omega_q_at_global_flux"],
    "readout": ["dispersive_shift"],
    "evolve": ["propagate_state", "propagate_subspace_unitary",
               "TwoQubitFrame.ensure_range", "TwoQubitFrame.frame_overlap"],
    "gates": ["Gamma1Interpolator.__init__", "run_single_qubit_gate", "run_two_qubit_gate",
              "gate_fidelity", "fsim_decompose", "zz_strength"],
    "cli": ["run", "write_csv"],
}


def span_name(module: str, target: str) -> str:
    return f"{module}.{target.removesuffix('.__init__')}"


SPAN_NAMES = [span_name(m, t) for m, targets in TARGETS.items() for t in targets]

# per-layer metric -> (end-to-end metric it should move, workloads it moves on)
MOVES = {
    "circuit.build_operator.repeat_ratio": ("points_per_s", "static_sweep"),
    "circuit.build_hamiltonian.bytes": ("peak_rss_mb", "large_basis"),
    "spectrum.diagonalize.dense.calls": ("points_per_s", "static_sweep"),
    "spectrum.diagonalize.dense.self_ms": ("points_per_s", "static_sweep"),
    "spectrum.diagonalize.lanczos.calls": ("points_per_s, peak_rss_mb", "large_basis"),
    "spectrum.diagonalize.lanczos.self_ms": ("points_per_s, peak_rss_mb", "large_basis"),
    "coherence.relaxation_rates.self_ms": ("points_per_s", "static_sweep"),
    "coherence.dephasing_rates.self_ms": ("points_per_s", "static_sweep"),
    "coherence.coherence_report.self_ms": ("points_per_s", "static_sweep"),
    "readout.dispersive_shift.self_ms": ("points_per_s", "static_sweep"),
    "gradiometric.omega_q_at_global_flux.self_ms": ("points_per_s", "static_sweep"),
    "cli.run.pool_efficiency": ("points_per_s", "static_sweep (none on driven_gate)"),
    "evolve.propagate_state.us_per_step": ("points_per_s", "driven_gate"),
    "evolve.propagate_subspace_unitary.us_per_step": ("points_per_s", "two_qubit_map"),
    "evolve.TwoQubitFrame.ensure_range.ms_per_node": ("points_per_s", "two_qubit_map"),
    "gates.gate_fidelity.self_ms": ("points_per_s", "two_qubit_map"),
    "gates.zz_strength.self_ms": ("points_per_s", "two_qubit_map"),
    "gates.run_two_qubit_gate.p50_ms": ("points_per_s", "two_qubit_map"),
    "gates.Gamma1Interpolator.self_ms": ("points_per_s", "driven_gate, two_qubit_map"),
}


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    point: int
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total, reach = 0.0, start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.sid: s.duration - covered(children.get(s.sid, []), s.start, s.end)
        for s in spans
    }


class Tracer:
    """Records spans from wrappers; ``install`` puts them into dsfq."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._open_run: Span | None = None
        self._restore: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()
        self._frame_lowest = weakref.WeakKeyDictionary()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, info=None):
        """``fn`` recording a ``name`` span.

        ``info(tracer, arguments, result)``, when given, returns data kept
        with the span; it runs after the call, outside the span's time.
        """
        signature = inspect.signature(fn) if info else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            if stack:
                parent, point = stack[-1].sid, stack[-1].point
            else:
                run = self._open_run
                parent, point = (run.sid if run else None), sid
            span = Span(sid, name, time.perf_counter(), 0.0, parent,
                        threading.get_ident(), point)
            stack.append(span)
            if name == "cli.run":
                self._open_run = span
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if name == "cli.run":
                    self._open_run = None
                self.spans.append(span)
            if info is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.info = info(self, bound.arguments, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target wherever a dsfq module binds it."""
        modules = [m for n, m in list(sys.modules.items()) if n == "dsfq" or n.startswith("dsfq.")]
        for module_name, targets in TARGETS.items():
            module = importlib.import_module(f"dsfq.{module_name}")
            for target in targets:
                name = span_name(module_name, target)
                owner_name, _, attr = target.rpartition(".")
                if owner_name:  # a method: the class object is shared by all importers
                    owner = getattr(module, owner_name)
                    original = owner.__dict__[attr]
                    self._replace(owner, attr, original,
                                  self.wrap(name, original, _INFO.get(name)))
                    continue
                original = getattr(module, attr)
                wrapper = self.wrap(name, original, _INFO.get(name))
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._replace(mod, key, original, wrapper)

    def _replace(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Data recorded with particular spans


def _operator_key(tracer, args, result):
    return {"key": (args["kind"], args["spec"], args["grid_points"])}


def _hamiltonian_bytes(tracer, args, result):
    return {"bytes": result.matrix.nbytes}


def _diagonalize_dim(tracer, args, result):
    from dsfq.circuit import physical_sector_indices
    from dsfq.spectrum import DENSE_DIM_LIMIT

    op, sector = args["op"], args["sector"]
    dim = op.matrix.shape[0] if hasattr(op, "matrix") else len(op)
    if sector is not None:
        basis = getattr(op, "basis", None) or args["basis"]
        dim = physical_sector_indices(basis, 0 if sector == "even" else 1).size
    return {"dim": dim, "lanczos": dim > DENSE_DIM_LIMIT}


def _steps(settings, default_steps_per_ns, profile) -> int:
    steps_per_ns = settings.steps_per_ns if settings is not None else default_steps_per_ns
    return round(profile.duration * steps_per_ns)


def _state_steps(tracer, args, result):
    from dsfq.evolve import PropagationSettings

    return {"steps": _steps(args["settings"], PropagationSettings().steps_per_ns, args["profile"])}


def _subspace_steps(tracer, args, result):
    # propagate_subspace_unitary defaults to 286 steps per ns
    return {"steps": _steps(args["settings"], 286, args["profile"])}


def _frame_nodes(tracer, args, result):
    """Nodes built by this call, from the alpha grid and the range so far."""
    frame, grid = args["self"], args["self"].grid
    if grid is None:
        return {"nodes": 0}
    key_lo = round(args["alpha_lo"] / grid)
    with tracer._lock:
        lowest = tracer._frame_lowest.get(frame, round(1.0 / grid) + 1)
        tracer._frame_lowest[frame] = min(lowest, key_lo)
    return {"nodes": max(0, lowest - key_lo)}


def _run_workers(tracer, args, result):
    return {"workers": max(1, int(args["workers"] or args["cfg"].get("workers", 1)))}


_INFO = {
    "circuit.build_operator": _operator_key,
    "circuit.build_hamiltonian": _hamiltonian_bytes,
    "spectrum.diagonalize": _diagonalize_dim,
    "evolve.propagate_state": _state_steps,
    "evolve.propagate_subspace_unitary": _subspace_steps,
    "evolve.TwoQubitFrame.ensure_range": _frame_nodes,
    "cli.run": _run_workers,
}


# ---------------------------------------------------------------------------
# Per-layer metrics


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-layer metric name -> (value, unit) over the recorded spans."""
    own = self_times(spans)
    by_name: dict[str, list[Span]] = {n: [] for n in SPAN_NAMES}
    for s in sorted(spans, key=lambda s: s.start):
        by_name[s.name].append(s)

    def self_ms(group) -> float:
        return 1e3 * sum(own[s.sid] for s in group)

    def inclusive_ms(group) -> float:
        return 1e3 * sum(s.duration for s in group)

    out: dict[str, tuple[float, str]] = {}
    for name, group in by_name.items():
        out[f"{name}.calls"] = (len(group), "count")
        out[f"{name}.self_ms"] = (self_ms(group), "ms")
    total_self = sum(own.values()) or 1.0
    for module in TARGETS:
        share = sum(own[s.sid] for s in spans if s.name.startswith(module + ".")) / total_self
        out[f"{module}.self_share"] = (share, "ratio")

    seen, repeats = set(), 0
    for s in by_name["circuit.build_operator"]:
        key = s.info.get("key")
        repeats += key in seen
        seen.add(key)
    calls = len(by_name["circuit.build_operator"])
    out["circuit.build_operator.repeat_ratio"] = (repeats / calls if calls else 0.0, "ratio")
    out["circuit.build_hamiltonian.bytes"] = (
        max((s.info.get("bytes", 0) for s in by_name["circuit.build_hamiltonian"]), default=0), "B")

    for branch, lanczos in (("dense", False), ("lanczos", True)):
        group = [s for s in by_name["spectrum.diagonalize"] if s.info.get("lanczos") is lanczos]
        out[f"spectrum.diagonalize.{branch}.calls"] = (len(group), "count")
        out[f"spectrum.diagonalize.{branch}.self_ms"] = (self_ms(group), "ms")

    runs = by_name["cli.run"]
    run_ids = {s.sid for s in runs}
    point_s = sum(s.duration for s in spans
                  if s.parent in run_ids and s.point == s.sid)
    capacity = sum(s.info.get("workers", 1) * s.duration for s in runs)
    out["cli.run.pool_efficiency"] = (point_s / capacity if capacity else 0.0, "ratio")

    for name in ("evolve.propagate_state", "evolve.propagate_subspace_unitary"):
        steps = sum(s.info.get("steps", 0) for s in by_name[name])
        out[f"{name}.us_per_step"] = (1e3 * inclusive_ms(by_name[name]) / steps if steps else 0.0, "us")
    group = by_name["evolve.TwoQubitFrame.ensure_range"]
    nodes = sum(s.info.get("nodes", 0) for s in group)
    out["evolve.TwoQubitFrame.ensure_range.ms_per_node"] = (
        inclusive_ms(group) / nodes if nodes else 0.0, "ms")
    gate_ms = [1e3 * s.duration for s in by_name["gates.run_two_qubit_gate"]]
    out["gates.run_two_qubit_gate.p50_ms"] = (statistics.median(gate_ms) if gate_ms else 0.0, "ms")
    return out
