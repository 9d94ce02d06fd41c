"""Output checks, made apart from the program.

The formulas below are the benchmark's own transcription of the paper's
single-interface results; nothing is imported from ``timescatter.scatter``
or ``timescatter.cascade``.  Every check compares a program output with
these formulas or with a property the output must have.  No check
compares with a stored copy of earlier output.

Each ``check_*`` function returns a list of problems; an empty list
means the output passed.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math

import numpy as np

REL = 1e-12  # closed-form quantities, as in the acceptance suite
GRID_REL = 1e-13  # grid values the CLI expands from the same start/stop/num
RESIDUAL_REL = 1e-10  # jump-condition residuals against the amplitude scale
CASCADE_REL = 1e-9  # 1000-event matrix products accumulate rounding
ORACLE_MAX_ERROR = 1e-2  # acceptance criterion 5 at the narrowest ramp
BAND_EDGE = 1e-9  # cells this close to |tr/2| = 1 have no decidable gap flag
SHARP_SWITCH_TOL = 1e-6  # oracle vs cascade through sharp switches


# --- the paper's formulas --------------------------------------------------

def speed(eps, mu, branch):
    """Signed phase speed branch / sqrt(eps * mu), with c = 1."""
    return branch / np.sqrt(np.abs(np.multiply(eps, mu)))


def scattered_frequencies(omega1, v_minus, v_plus, transmitted):
    """(omega2, omega3): |omega3| = |v+/v-| omega1, sign by convention, omega2 = -omega3."""
    magnitude = np.abs(np.divide(v_plus, v_minus)) * omega1
    omega3 = magnitude if transmitted == "forward" else -magnitude
    return -omega3, omega3


def rt_factors(omega1, omega2, omega3, eps_minus, eps_plus):
    """Amplitude factors r = (1 - q3 e-/e+)/(q2 - q3), t = (q2 e-/e+ - 1)/(q2 - q3)."""
    q2 = np.divide(omega1, omega2)
    q3 = np.divide(omega1, omega3)
    ratio = np.divide(eps_minus, eps_plus)
    return (1.0 - q3 * ratio) / (q2 - q3), (q2 * ratio - 1.0) / (q2 - q3)


def impedance_ordered_sum(eps_m, mu_m, eps_p, mu_p):
    """R + T under the default convention: e-/e+ if Z1 < Z2, else sqrt(e- mu- / (e+ mu+))."""
    z1 = np.sqrt(np.divide(mu_m, eps_m))
    z2 = np.sqrt(np.divide(mu_p, eps_p))
    return np.where(
        z1 < z2,
        np.divide(eps_m, eps_p),
        np.sqrt(np.divide(np.multiply(eps_m, mu_m), np.multiply(eps_p, mu_p))),
    )


def interface(eps_m, mu_m, branch_m, eps_p, mu_p, branch_p):
    """[[t, r], [r, t]] for one switch, and the frequency factor |v+/v-|."""
    v_m, v_p = speed(eps_m, mu_m, branch_m), speed(eps_p, mu_p, branch_p)
    omega2, omega3 = scattered_frequencies(1.0, v_m, v_p, "forward")
    r, t = rt_factors(1.0, omega2, omega3, eps_m, eps_p)
    return np.array([[t, r], [r, t]], dtype=complex), abs(v_p / v_m)


def propagation(omega, duration):
    """diag(exp(-i|w|d), exp(+i|w|d))."""
    phase = abs(omega) * duration
    return np.array([[cmath.exp(-1j * phase), 0.0], [0.0, cmath.exp(1j * phase)]])


def cascade_product(segments, omega1):
    """Own cascade: per-event (omega, forward, backward), net matrix, final omega.

    ``segments`` is a list of (eps, mu, branch, duration).
    """
    omega = omega1
    net = np.eye(2, dtype=complex)
    events = []
    for j, (eps, mu, branch, duration) in enumerate(segments):
        net = propagation(omega, duration) @ net
        events.append((omega, net[0, 0], net[1, 0]))
        if j + 1 < len(segments):
            eps_n, mu_n, branch_n, _ = segments[j + 1]
            step, factor = interface(eps, mu, branch, eps_n, mu_n, branch_n)
            net = step @ net
            omega *= factor
            events.append((omega, net[0, 0], net[1, 0]))
    return events, net, omega


def period_matrix(segments, omega1):
    """One-period matrix of a cell, closed by a switch back to the first medium."""
    _, net, _ = cascade_product(segments, omega1)
    first, last = segments[0][:3], segments[-1][:3]
    if first != last:
        step, _ = interface(*last, *first)
        net = step @ net
    return net


# --- helpers -----------------------------------------------------------------

class Problems(list):
    """Collects failed expectations with a short description each."""

    def close(self, what, actual, expected, scale, rel):
        actual = np.asarray(actual)
        expected = np.asarray(expected)
        err = np.max(np.abs(actual - expected) / np.maximum(scale, 1e-300))
        if not err <= rel:
            self.append(f"{what}: relative error {err:.3e} > {rel:.0e}")

    def expect(self, condition, what):
        if not condition:
            self.append(what)


def read_csv(text):
    """Rows of an RFC-4180 CSV document; a leading timestamp comment line is skipped."""
    if text.startswith("# generated_at="):
        text = text.split("\r\n", 1)[1]
    return list(csv.DictReader(io.StringIO(text, newline="")))


def flatten(value, prefix="", out=None):
    """Dotted-path view of a JSON result, matching the CSV column names."""
    out = {} if out is None else out
    if isinstance(value, dict):
        for key, sub in value.items():
            flatten(sub, f"{prefix}.{key}" if prefix else key, out)
    elif isinstance(value, list):
        for i, sub in enumerate(value):
            flatten(sub, f"{prefix}[{i}]", out)
    elif value is not None:
        out[prefix] = value
    return out


def _vector(flat, path):
    if f"{path}[0].re" not in flat:
        return np.zeros(3, dtype=complex)
    return np.array(
        [complex(float(flat[f"{path}[{j}].re"]), float(flat[f"{path}[{j}].im"])) for j in range(3)]
    )


# --- sweep-grid --------------------------------------------------------------

SWEEP_COLUMNS = ["index", "after.epsilon", "after.mu", "omega2", "omega3", "R", "T", "energy_sum"]


def check_sweep(text, spec):
    """A 2-axis sweep over after.epsilon x after.mu, written as JSON."""
    problems = Problems()
    doc = json.loads(text)
    problems.expect(doc.get("schema_version") == 1, "sweep: schema_version is not 1")
    problems.expect(doc.get("columns") == SWEEP_COLUMNS, f"sweep: columns {doc.get('columns')}")
    rows = doc.get("rows", [])
    eps_axis, mu_axis = spec["eps_values"], spec["mu_values"]
    n = len(eps_axis) * len(mu_axis)
    problems.expect(len(rows) == n, f"sweep: {len(rows)} rows, expected {n}")
    if problems:
        return problems
    table = np.array([[row[c] for c in SWEEP_COLUMNS] for row in rows], dtype=float)
    index, eps_p, mu_p, omega2, omega3, R, T, total = table.T
    problems.expect(np.array_equal(index, np.arange(n)), "sweep: rows out of index order")
    grid_eps = np.repeat(eps_axis, len(mu_axis))
    grid_mu = np.tile(mu_axis, len(eps_axis))
    problems.close("sweep after.epsilon", eps_p, grid_eps, np.abs(grid_eps), GRID_REL)
    problems.close("sweep after.mu", mu_p, grid_mu, np.abs(grid_mu), GRID_REL)

    eps_m, mu_m, branch_m = spec["before"]
    omega1 = spec["omega1"]
    v_m = speed(eps_m, mu_m, branch_m)
    v_p = speed(grid_eps, grid_mu, spec["after_branch"])
    w2, w3 = scattered_frequencies(omega1, v_m, v_p, spec["transmitted"])
    problems.close("sweep omega3", omega3, w3, np.abs(w3), REL)
    problems.close("sweep omega2", omega2, w2, np.abs(w2), REL)
    r, t = rt_factors(omega1, w2, w3, eps_m, grid_eps)
    scale = np.abs(r) + np.abs(t)
    problems.close("sweep R", R, np.abs(r), scale, REL)
    problems.close("sweep T", T, np.abs(t), scale, REL)
    problems.close("sweep energy_sum", total, R + T, scale, REL)
    if spec["transmitted"] == "forward" and eps_m > 0 and spec["after_branch"] == 1:
        identity = impedance_ordered_sum(eps_m, mu_m, grid_eps, grid_mu)
        problems.close("sweep impedance-ordered R + T", total, identity, scale, REL)
    return problems


# --- solve-stream ------------------------------------------------------------

def check_solve(text, fmt, spec):
    """One solve result, from JSON or from its one-row CSV."""
    problems = Problems()
    if fmt == "json":
        doc = json.loads(text)
        problems.expect(doc.get("schema_version") == 1, "solve: schema_version is not 1")
        flat = flatten(doc["result"])
    else:
        rows = read_csv(text)
        problems.expect(len(rows) == 1, f"solve: {len(rows)} CSV rows, expected 1")
        flat = rows[0]
    num = lambda key: float(flat[key])  # noqa: E731

    eps_m, mu_m, branch_m = spec["before"]
    eps_p, mu_p, branch_p = spec["after"]
    omega1, t0 = spec["omega1"], spec["t0"]
    amplitude = np.asarray(spec["amplitude"], dtype=complex)
    k = np.asarray(spec["k"])
    v_m, v_p = speed(eps_m, mu_m, branch_m), speed(eps_p, mu_p, branch_p)
    w2, w3 = scattered_frequencies(omega1, v_m, v_p, spec["transmitted"])
    r, t = rt_factors(omega1, w2, w3, eps_m, eps_p)
    scale = abs(r) + abs(t)

    problems.close("solve omega1", num("omega1"), omega1, omega1, REL)
    problems.close("solve omega3", num("omega3"), w3, abs(w3), REL)
    problems.close("solve omega2", num("omega2"), w2, abs(w2), REL)
    problems.close("solve R", num("R"), abs(r), scale, REL)
    problems.close("solve T", num("T"), abs(t), scale, REL)
    problems.close("solve energy_sum", num("energy_sum"), num("R") + num("T"), scale, REL)
    if spec["transmitted"] == "forward" and branch_m == 1 and branch_p == 1:
        identity = impedance_ordered_sum(eps_m, mu_m, eps_p, mu_p)
        problems.close("solve impedance-ordered R + T", num("energy_sum"), identity, scale, REL)

    b_i = _vector(flat, "incident.amplitude_at_interface")
    b_r = _vector(flat, "reflected.amplitude_at_interface")
    b_t = _vector(flat, "transmitted.amplitude_at_interface")
    norm_i = np.linalg.norm(b_i)
    problems.close("solve B_i", b_i, amplitude * cmath.exp(-1j * omega1 * t0), norm_i, REL)
    problems.close("solve B_r", b_r, r * b_i, scale * norm_i, REL)
    problems.close("solve B_t", b_t, t * b_i, scale * norm_i, REL)
    problems.close("solve B_r + B_t", b_r + b_t, (eps_m / eps_p) * b_i, scale * norm_i, REL)
    for name, omega in (("reflected", w2), ("transmitted", w3)):
        if f"{name}.omega" in flat:
            problems.close(f"solve {name}.omega", num(f"{name}.omega"), omega, abs(omega), REL)
            sign = math.copysign(1.0, (omega1 / omega) * (v_p / v_m))
            k_out = np.array([num(f"{name}.k[{j}]") for j in range(3)])
            problems.close(f"solve {name}.k", k_out, sign * k, 1.0, REL)

    # Residual scale: the largest of eps*E and mu*H among the three waves.
    amp_scale = norm_i * max(1.0, abs(eps_m), abs(eps_p), 1.0 / abs(v_m), 1.0 / abs(v_p)) * (1.0 + scale)
    for key in ("boundary_residuals.res_E", "boundary_residuals.res_H"):
        res = num(key)
        problems.expect(res <= RESIDUAL_REL * amp_scale, f"solve {key} = {res:.3e} over {RESIDUAL_REL:.0e} x {amp_scale:.3g}")
    return problems


# --- oracle-ramps ------------------------------------------------------------

def check_oracle(text, spec):
    """Analytic values, error columns, accuracy and convergence of one oracle run."""
    problems = Problems()
    doc = json.loads(text)
    result = doc["result"]
    eps_m, mu_m, _ = spec["before"]
    eps_p, mu_p, _ = spec["after"]
    e = eps_m / eps_p
    rho = math.sqrt(eps_m * mu_m) / math.sqrt(eps_p * mu_p)
    R, T = 0.5 * abs(e - rho), 0.5 * (e + rho)
    problems.close("oracle R_analytic", result["R_analytic"], R, R + T, REL)
    problems.close("oracle T_analytic", result["T_analytic"], T, R + T, REL)
    for x in ("R", "T"):
        err = abs(result[f"{x}_numeric"] - result[f"{x}_analytic"])
        problems.close(f"oracle {x}_error", result[f"{x}_error"], err, R + T, REL)
        problems.expect(result[f"{x}_error"] <= ORACLE_MAX_ERROR, f"oracle {x}_error at tau={spec['tau']} above 1e-2")
    rows = doc.get("convergence", {}).get("rows", [])
    taus = [row["tau"] for row in rows]
    problems.expect(taus == list(spec["tau_list"]), f"oracle convergence taus {taus}")
    for x in ("R", "T"):
        errors = [row[f"{x}_error"] for row in rows]
        problems.expect(
            all(b < a for a, b in zip(errors, errors[1:])),
            f"oracle {x}_error does not fall strictly as tau shrinks: {errors}",
        )
        problems.expect(bool(errors) and errors[-1] <= ORACLE_MAX_ERROR, f"oracle {x}_error at the narrowest width above 1e-2")
    return problems


# --- crystal-cascade ---------------------------------------------------------

def check_floquet(problems, what, floquet, segments, omega1):
    """Floquet record of a closed cell against the benchmark's own period matrix."""
    matrix = period_matrix(segments, omega1)
    half_trace = 0.5 * (matrix[0, 0] + matrix[1, 1])
    scale = max(1.0, float(np.max(np.abs(matrix))))
    problems.close(f"{what} half_trace", floquet["half_trace"], half_trace, scale, CASCADE_REL)
    lam1, lam2 = floquet["eigenvalues"]
    problems.close(f"{what} lambda1 * lambda2", lam1 * lam2, 1.0, 1.0, CASCADE_REL)
    top = max(abs(lam1), abs(lam2))
    if abs(abs(half_trace) - 1.0) > BAND_EDGE:
        problems.expect(
            floquet["momentum_gap"] == (top > 1.0 + BAND_EDGE),
            f"{what} momentum_gap={floquet['momentum_gap']} but max|lambda| = {top!r}",
        )


def check_cascade(text, fmt, spec):
    """A cascade run's trace, net matrix, final amplitudes and Floquet record."""
    problems = Problems()
    segments, omega1 = spec["segments"], spec["omega1"]
    events, net, _ = cascade_product(segments, omega1)
    if fmt == "json":
        doc = json.loads(text)
        rows = doc["trace"]["rows"]
    else:
        rows = read_csv(text)
    problems.expect(len(rows) == 2 * len(segments) - 1, f"cascade: {len(rows)} trace events for {len(segments)} segments")
    if problems:
        return problems
    own = np.array([[w, f.real, f.imag, b.real, b.imag] for w, f, b in events])
    columns = ["omega", "forward_re", "forward_im", "backward_re", "backward_im"]
    got = np.array([[float(row[c]) for c in columns] for row in rows])
    kinds = [row["kind"] for row in rows]
    problems.expect(
        kinds == ["propagate", "interface"] * (len(segments) - 1) + ["propagate"],
        "cascade: trace events out of order",
    )
    scale = max(1.0, float(np.max(np.abs(own[:, 1:]))))
    problems.close("cascade trace omega", got[:, 0], own[:, 0], np.abs(own[:, 0]), CASCADE_REL)
    problems.close("cascade trace amplitudes", got[:, 1:], own[:, 1:], scale, CASCADE_REL)
    if fmt == "json":
        result = doc["result"]
        decode = lambda z: complex(z["re"], z["im"])  # noqa: E731
        got_net = np.array([[decode(z) for z in row] for row in result["net_matrix"]])
        net_scale = max(1.0, float(np.max(np.abs(net))))
        problems.close("cascade net_matrix", got_net, net, net_scale, CASCADE_REL)
        final = np.array([decode(result["forward"]), decode(result["backward"])])
        problems.close("cascade final amplitudes", final, net[:, 0], net_scale, CASCADE_REL)
        floquet = doc["floquet"]
        record = {
            "half_trace": decode(floquet["half_trace"]),
            "eigenvalues": [decode(z) for z in floquet["eigenvalues"]],
            "momentum_gap": floquet["momentum_gap"],
        }
        check_floquet(problems, "cascade floquet", record, segments, omega1)
    return problems


def check_gap_map(results, spec):
    """Floquet records of every cell of the momentum-gap map."""
    problems = Problems()
    for cell, fl in zip(spec["cells"], results):
        record = {
            "half_trace": fl.half_trace,
            "eigenvalues": list(fl.eigenvalues),
            "momentum_gap": fl.momentum_gap,
        }
        check_floquet(problems, f"gap map {cell}", record, list(cell), spec["omega1"])
        if len(problems) > 5:
            break
    return problems
