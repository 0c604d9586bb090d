"""Output checks for benchmark experiments.

The checks hold for any correct program, not for the numbers one version
happens to print: rows are finite and complete, sit on the requested
grid, and obey bounds that follow from the physics. For the rows a job
names, omega_q is re-derived from an independent construction of the
charge-basis Hamiltonian and ``numpy.linalg.eigvalsh`` of its physical
sector.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from workloads import Job

OMEGA_ATOL = 1e-8  # h GHz; solver and CSV rounding errors are below 1e-10
REL_TOL = 1e-9
MAX_LEAKAGE = 0.05  # the program refuses a gate above this
MIN_GATE_FIDELITY = 0.9  # a calibrated-amplitude pi pulse does far better
MIN_ASSIGNMENT_OVERLAP = 0.5
# Identical qubits at equal alpha are exchange-symmetric: 01 and 10 are
# degenerate and hybridize fully, so each dressed level holds at most half
# of a bare label. There the bound asks that at least 95% of that half stay.
MIN_SYMMETRIC_OVERLAP = 0.5 * 0.95


class RowFailure(ValueError):
    """A row broke a check."""


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        table = list(csv.reader(fh))
    if not table:
        raise RowFailure(f"{path.name} is empty")
    return table[0], table[1:]


def _floats(row: list[str]) -> list[float]:
    values = [float(v) for v in row]
    if not all(math.isfinite(v) for v in values):
        raise RowFailure(f"non-finite value in row {row}")
    return values


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise RowFailure(message)


# ---------------------------------------------------------------------------
# Independent reference Hamiltonian


def _phase(value) -> float:
    if isinstance(value, str):  # the config form "0.997*pi"
        factor, _, unit = value.partition("*")
        if unit != "pi":
            raise ValueError(f"unsupported phase expression {value!r}")
        return float(factor) * math.pi
    return float(value)


def reference_hamiltonian(circuit: dict) -> np.ndarray:
    """Physical-sector H of a circuit block, built element by element.

    Charges n_a, n_b run over [-cutoff, cutoff]; a term exp(i*(k_a*x_a +
    k_b*x_b)) moves |n_a, n_b> to |n_a + k_a, n_b + k_b>. Single loop
    (phi, theta): 2EC(n_a^2 + n_b^2) - 2EJ cos(phi)cos(theta)
    - alpha EJ cos(2 phi + phi_ext), restricted to even n_a + n_b.
    Node variables: charging per variant, -EJ cos(phi1) - EJ cos(phi2)
    - sum_k w_k EJ cos(phi1 - phi2 + p_k).
    """
    variant = circuit.get("variant", "single_loop")
    ej, ec, c = float(circuit["ej"]), float(circuit["ec"]), int(circuit["cutoff"])
    d = 2 * c + 1
    n = np.arange(-c, c + 1)
    na, nb = (m.ravel() for m in np.meshgrid(n, n, indexing="ij"))
    ng_phi = float(circuit.get("ng_phi", 0.0))
    ng_theta = float(circuit.get("ng_theta", 0.0))
    h = np.zeros((d * d, d * d), dtype=complex)
    terms: list[tuple[int, int, complex]] = []  # (k_a, k_b, amplitude), h.c. added below
    if variant == "single_loop":
        diag = 2 * ec * ((na - ng_phi) ** 2 + (nb - ng_theta) ** 2)
        terms += [(1, 1, -ej / 2), (1, -1, -ej / 2)]
        alpha = float(circuit.get("alpha", 1.0))
        terms.append((2, 0, -alpha * ej / 2 * np.exp(1j * _phase(circuit.get("phi_ext", 0.997 * math.pi)))))
    else:
        if variant == "gradiometric":
            diag = 2 * ec * ((na - nb - ng_phi) ** 2 + (na + nb - ng_theta) ** 2)
            loops = [
                (float(circuit.get("alpha1", 1.0)) / 2, _phase(circuit.get("phi_ext1", math.pi))),
                (float(circuit.get("alpha2", 1.0)) / 2, _phase(circuit.get("phi_ext2", -math.pi))),
            ]
        elif variant == "node_basis":
            ng1, ng2 = (ng_theta + ng_phi) / 2, (ng_theta - ng_phi) / 2
            diag = 4 * ec * ((na - ng1) ** 2 + (nb - ng2) ** 2)
            loops = [(float(circuit.get("alpha", 1.0)), _phase(circuit.get("phi_ext", 0.997 * math.pi)))]
        else:
            raise ValueError(f"unknown variant {variant!r}")
        terms += [(1, 0, -ej / 2), (0, 1, -ej / 2)]
        terms += [(1, -1, -w * ej / 2 * np.exp(1j * p)) for w, p in loops]
    for ka, kb, amp in terms:
        ok = (np.abs(na + ka) <= c) & (np.abs(nb + kb) <= c)
        src = np.nonzero(ok)[0]
        dst = (na[ok] + ka + c) * d + (nb[ok] + kb + c)
        h[dst, src] += amp
    h += h.conj().T  # conj() copies, so the in-place add reads no updated entries
    h[np.diag_indices_from(h)] += diag
    if variant == "single_loop":
        even = np.nonzero((na + nb) % 2 == 0)[0]
        h = h[np.ix_(even, even)]
    return h


def reference_omega_q(circuit: dict) -> float:
    energies = np.linalg.eigvalsh(reference_hamiltonian(circuit))
    return float(energies[1] - energies[0])


def _gradiometric_circuit(circuit: dict, asymmetry: float, case: str, phi_g: float) -> dict:
    """Circuit block of one gradiometric case at global flux ``phi_g``.

    The geometry-to-phase map and the compensating junction asymmetry are
    the program's own definitions, so they are taken from dsfq.
    """
    from dsfq.gradiometric import LoopGeometry, compensation_delta, flux_phases

    r = asymmetry
    geom = LoopGeometry() if case == "identical" else LoopGeometry(a1=1 + r, a2=1 - r)
    delta = compensation_delta(r)[0] if case == "compensated" else 0.0
    pe1, pe2 = flux_phases(geom.at_global_flux(phi_g))
    alpha1 = float(circuit.get("alpha1", 1.0))
    return dict(circuit, variant="gradiometric", alpha2=min(alpha1 * (1 + delta), 1.5),
                phi_ext1=pe1, phi_ext2=pe2)


def _check_omega(expected: float, got: float, where: str) -> None:
    _expect(abs(expected - got) <= OMEGA_ATOL,
            f"{where}: omega_q {got!r} differs from reference {expected!r}")


# ---------------------------------------------------------------------------
# Per-experiment row checks. Each returns one error message (or None) per
# expected row; rows missing from the CSV count as failed.


def _rows_against_grid(header, rows, want_header, grid, check_row):
    errors = [None] * len(grid)
    if header != want_header:
        return [f"header {header} != {want_header}"] * len(grid)
    for i in range(len(grid)):
        if i >= len(rows):
            errors[i] = "row missing"
            continue
        try:
            values = _floats(rows[i])
            _expect(abs(values[0] - grid[i]) <= REL_TOL * max(1.0, abs(grid[i])),
                    f"grid value {values[0]} != {grid[i]}")
            check_row(i, values)
        except ValueError as ex:  # RowFailure or an unparsable value
            errors[i] = str(ex)
    if len(rows) > len(grid):
        errors = [e or f"{len(rows) - len(grid)} extra rows" for e in errors]
    return errors


def _check_spectrum_like(job: Job, out: Path, filename: str, x_name: str,
                         start_key: str, stop_key: str, defaults: tuple, circuit_at):
    p = job.cfg["params"]
    grid = np.linspace(p.get(start_key, defaults[0]), p.get(stop_key, defaults[1]), job.rows)
    header, rows = read_csv(out / filename)

    def check_row(i, values):
        if i in job.check_rows:
            _check_omega(reference_omega_q(circuit_at(grid[i])), values[1], f"row {i}")

    return _rows_against_grid(header, rows, [x_name, "omega_q_GHz", "anharmonicity_GHz"],
                              grid, check_row)


def check_spectrum_vs_alpha(job: Job, out: Path):
    circuit = job.cfg["circuit"]
    alpha_keys = ("alpha1", "alpha2") if circuit.get("variant") == "gradiometric" else ("alpha",)
    return _check_spectrum_like(
        job, out, "spectrum_vs_alpha.csv", "alpha", "alpha_start", "alpha_stop", (1.0, 0.5),
        lambda a: dict(circuit, **{k: a for k in alpha_keys}))


def check_flux_dispersion(job: Job, out: Path):
    circuit = job.cfg["circuit"]
    return _check_spectrum_like(
        job, out, "flux_dispersion.csv", "phi_ext_per_pi", "phi_start_pi", "phi_stop_pi",
        (0.94, 1.06), lambda x: dict(circuit, phi_ext=x * math.pi))


def check_coherence_vs_alpha(job: Job, out: Path):
    p = job.cfg["params"]
    grid = np.linspace(p.get("alpha_start", 1.0), p.get("alpha_stop", 0.5), job.rows)
    header, rows = read_csv(out / "coherence_vs_alpha.csv")

    def check_row(i, values):
        _, t1, tphi, t2, g_diel, g_flux = values
        _expect(t1 > 0 and tphi > 0 and t2 > 0, f"non-positive coherence time in {values}")
        _expect(t2 <= 2 * t1 * (1 + REL_TOL), f"T2 {t2} exceeds 2*T1 {2 * t1}")
        _expect(g_diel >= 0 and g_flux >= 0, f"negative rate in {values}")

    return _rows_against_grid(
        header, rows,
        ["alpha", "t1_us", "tphi_us", "t2_us", "gamma1_dielectric_per_ns", "gamma1_flux_per_ns"],
        grid, check_row)


def check_dispersive_shift_sweep(job: Job, out: Path):
    p = job.cfg["params"]
    grid = np.linspace(p.get("phi_start_pi", 1.0), p.get("phi_stop_pi", 1.035), job.rows)
    header, rows = read_csv(out / "dispersive_shift.csv")

    def check_row(i, values):
        _expect(values[2] in (0.0, 1.0), f"dispersive_valid {values[2]} is not a flag")

    return _rows_against_grid(header, rows, ["phi_ext_per_pi", "chi_GHz", "dispersive_valid"],
                              grid, check_row)


def check_gradiometric_dispersion(job: Job, out: Path):
    p = job.cfg["params"]
    cases = p.get("cases", ["identical", "asymmetric", "compensated"])
    grid = np.linspace(p.get("phi_g_start", 0.99), p.get("phi_g_stop", 1.01), job.rows)
    header, rows = read_csv(out / "gradiometric_dispersion.csv")
    circuit = job.cfg["circuit"]

    def check_row(i, values):
        if i not in job.check_rows:
            return
        for case, got in zip(cases, values[1:]):
            ref = _gradiometric_circuit(circuit, p.get("asymmetry", 0.01), case, grid[i])
            _check_omega(reference_omega_q(ref), got, f"row {i} case {case}")

    return _rows_against_grid(
        header, rows, ["phi_g_phi0"] + [f"omega_q_GHz_{c}" for c in cases], grid, check_row)


def check_single_qubit_gate(job: Job, out: Path):
    header, rows = read_csv(out / "gate_summary.csv")
    try:
        _expect(len(rows) == 1, f"{len(rows)} summary rows, expected 1")
        target, *rest = rows[0]
        fid, t1_fid, leakage, gate_time, amplitude, freq = _floats(rest)
        _expect(target == job.cfg["params"].get("target", "x"), f"target {target}")
        _expect(0.0 <= leakage <= MAX_LEAKAGE, f"leakage {leakage}")
        _expect(MIN_GATE_FIDELITY <= fid <= 1 + REL_TOL, f"coherent fidelity {fid}")
        _expect(0.0 < t1_fid <= 1 + REL_TOL, f"T1-limited fidelity {t1_fid}")
        _expect(gate_time > 0 and amplitude > 0 and freq > 0,
                f"gate time, amplitude, frequency {gate_time}, {amplitude}, {freq}")
        _, samples = read_csv(out / "spectral_weights.csv")
        _expect(len(samples) > 1, "no spectral-weight samples")
        for sample in samples:
            t, *weights = _floats(sample)
            total = sum(weights)
            # The propagator is unitary: tracked weights never exceed the
            # norm, and at most the leakage bound escapes the tracked levels.
            _expect(all(-REL_TOL <= w <= 1 + 1e-6 for w in weights), f"weight out of [0, 1] at t={t}")
            _expect(1 - MAX_LEAKAGE <= total <= 1 + 1e-6, f"weights sum to {total} at t={t}")
    except ValueError as ex:  # RowFailure or an unparsable value
        return [str(ex)]
    return [None]


_PAULI_STATES = [
    np.array(v, dtype=complex) / np.linalg.norm(v)
    for v in ([1, 1], [1, -1], [1, 1j], [1, -1j], [1, 0], [0, 1])
]


def fsim_entangling_power(theta: float, phi: float) -> float:
    """Mean linear entropy of fSim(theta, phi) on product Pauli states, CZ = 1."""
    c, s = math.cos(theta), math.sin(theta)
    u = np.array([[1, 0, 0, 0], [0, c, -1j * s, 0], [0, -1j * s, c, 0],
                  [0, 0, 0, np.exp(-1j * phi)]])
    total = 0.0
    for a in _PAULI_STATES:
        for b in _PAULI_STATES:
            m = (u @ np.kron(a, b)).reshape(2, 2)
            rho = m @ m.conj().T
            total += 1.0 - float(np.trace(rho @ rho).real)
    return total / 36.0 / (2.0 / 9.0)


def check_two_qubit_map(job: Job, out: Path):
    p = job.cfg["params"]
    pairs = [(ta, tw) for ta in p["t_a_values"] for tw in p["t_w_values"]]
    tables = {}
    for name, column in (("entangling_power.csv", "entangling_power"),
                         ("phi_cphase.csv", "phi_cphase_rad"),
                         ("theta_swap.csv", "theta_swap_rad")):
        header, rows = read_csv(out / name)
        if header != ["t_a_ns", "t_w_ns", column]:
            return [f"{name} header {header}"] * len(pairs)
        tables[column] = rows
    errors = []
    for i, (ta, tw) in enumerate(pairs):
        try:
            values = {}
            for column, rows in tables.items():
                _expect(i < len(rows), f"row missing in {column}")
                row_ta, row_tw, values[column] = _floats(rows[i])
                _expect((row_ta, row_tw) == (ta, tw), f"pair {(row_ta, row_tw)} != {(ta, tw)}")
            theta, phi = values["theta_swap_rad"], values["phi_cphase_rad"]
            power = values["entangling_power"]
            _expect(0.0 <= theta <= math.pi / 2 + REL_TOL, f"theta {theta} outside [0, pi/2]")
            _expect(abs(phi) <= math.pi + REL_TOL, f"phi {phi} outside [-pi, pi]")
            _expect(-REL_TOL <= power <= 1 + 1e-6, f"entangling power {power} outside [0, 1]")
            _expect(abs(power - fsim_entangling_power(theta, phi)) <= 1e-6,
                    f"entangling power {power} inconsistent with fSim({theta}, {phi})")
            errors.append(None)
        except ValueError as ex:  # RowFailure or an unparsable value
            errors.append(str(ex))
    return errors


def check_zz_map(job: Job, out: Path):
    params = job.cfg["params"]
    alphas = params["alpha_values"]
    pairs = [(a1, a2) for a1 in alphas for a2 in alphas]
    identical = params.get("detuning", 0.0) == 0.0
    header, rows = read_csv(out / "zz_map.csv")
    if header != ["alpha1", "alpha2", "zeta_zz_GHz", "assignment_overlap"]:
        return [f"header {header}"] * len(pairs)
    errors = []
    for i, pair in enumerate(pairs):
        try:
            _expect(i < len(rows), "row missing")
            a1, a2, _, overlap = _floats(rows[i])  # _floats rejects a non-finite zeta
            _expect((a1, a2) == pair, f"alpha pair {(a1, a2)} != {pair}")
            bound = MIN_SYMMETRIC_OVERLAP if identical and a1 == a2 else MIN_ASSIGNMENT_OVERLAP
            _expect(bound <= overlap <= 1 + REL_TOL, f"assignment overlap {overlap} < {bound}")
            errors.append(None)
        except ValueError as ex:  # RowFailure or an unparsable value
            errors.append(str(ex))
    return errors


CHECKS = {
    "spectrum_vs_alpha": check_spectrum_vs_alpha,
    "flux_dispersion": check_flux_dispersion,
    "coherence_vs_alpha": check_coherence_vs_alpha,
    "dispersive_shift_sweep": check_dispersive_shift_sweep,
    "gradiometric_dispersion": check_gradiometric_dispersion,
    "single_qubit_gate": check_single_qubit_gate,
    "two_qubit_map": check_two_qubit_map,
    "zz_map": check_zz_map,
}


def check(job: Job, out: Path) -> list[str | None]:
    """One error message (None when the row passed) per expected row."""
    try:
        errors = CHECKS[job.cfg["experiment"]](job, out)
    except (OSError, RowFailure) as ex:  # a missing or empty output file
        errors = [str(ex)] * job.rows
    if len(errors) != job.rows:
        errors = [f"{len(errors)} rows checked, expected {job.rows}"] * job.rows
    return errors
