"""Config-driven command line front end.

One JSON configuration document drives every run; a few flags override
fields for convenience.  Commands:

* ``solve``   -- one temporal interface, full scattering record.
* ``sweep``   -- grid of interfaces, one row per grid point.
* ``oracle``  -- ODE-integrated (R, T) and optional ramp-width convergence table.
* ``cascade`` -- multi-interface timeline trace plus Floquet diagnostics.
* ``verify``  -- exponential-sum residual report and forced-equality verdict.

Output is JSON (complex numbers as {"re", "im"} pairs, schema_version 1)
or RFC-4180-style CSV with a fixed, documented column order.  Identical
configs produce byte-identical output apart from the timestamp header,
which ``--no-timestamp`` suppresses.  Exit codes: 0 success, 2 config
error, 3 numerical error, 4 degenerate-case error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, replace
from datetime import datetime, timezone
from typing import Optional

import numpy as np

from .cascade import TimelineSegment, cascade_scatter, floquet_exponent
from .errors import (
    ConfigError,
    DegenerateCaseError,
    GridChecks,
    NoSolutionError,
    TimescatterError,
)
from .media import MediumState, TemporalProfile, check_medium, wave_speed
from .oracle import DEFAULT_TOL, convergence_study, numeric_rt
from .scatter import (
    DEFAULT_CONVENTION,
    FrequencyConvention,
    ScatteringResult,
    boundary_residual,
    coefficients,
    scatter_grid,
    scatter_interface,
)
from .verify import (
    ExponentialSum,
    assert_forced_equality,
    canonical_grid,
    sum_residual,
    vandermonde_product,
)
from .waves import PlaneWave

__all__ = ["RunConfig", "parse_config", "execute", "run", "main"]

SCHEMA_VERSION = 1
OUTPUT_DIR_ENV = "TIMESCATTER_OUTPUT_DIR"
COMMANDS = ("solve", "sweep", "oracle", "cascade", "verify")
_RESIDUAL_SAMPLES = 100
_RESIDUAL_SEED = 0


@dataclass(frozen=True)
class IncidentSpec:
    amplitude: tuple
    omega1: float
    k: tuple

    def plane_wave(self, medium: MediumState) -> PlaneWave:
        return PlaneWave(
            np.array(self.amplitude, dtype=np.complex128),
            self.omega1,
            np.array(self.k, dtype=np.float64),
            wave_speed(medium),
        )


@dataclass(frozen=True)
class RunConfig:
    """Validated run description with defaults filled in."""

    command: str
    before: Optional[MediumState] = None
    after: Optional[MediumState] = None
    timeline: tuple = ()
    incident: Optional[IncidentSpec] = None
    t0: float = 0.0
    convention: FrequencyConvention = DEFAULT_CONVENTION
    oracle_tau: float = 1e-3
    oracle_tol: float = DEFAULT_TOL
    tau_list: tuple = ()
    sweep_axes: tuple = ()
    floquet: bool = False
    verify_terms: tuple = ()
    verify_tol: float = 1e-9
    output_path: Optional[str] = None
    output_format: str = "json"
    timestamp: bool = True


def _check_keys(mapping: dict, allowed, path: str):
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ConfigError(f"{path}: unknown keys {unknown}; allowed keys are {sorted(allowed)}")


def _require(mapping: dict, key: str, path: str):
    if key not in mapping:
        raise ConfigError(f"{path}: missing required key {key!r}")
    return mapping[key]


def _as_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    return number


def _parse_medium(raw, path: str) -> MediumState:
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected an object with epsilon/mu")
    _check_keys(raw, {"epsilon", "mu", "branch"}, path)
    eps = _as_number(_require(raw, "epsilon", path), f"{path}.epsilon")
    mu = _as_number(_require(raw, "mu", path), f"{path}.mu")
    branch = raw.get("branch", 1)
    if branch not in (1, -1):
        raise ConfigError(f"{path}.branch: must be 1 or -1, got {branch!r}")
    try:
        return MediumState(eps, mu, branch)
    except TimescatterError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_complex(value, path: str) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(_as_number(value, path))
    if isinstance(value, list) and len(value) == 2:
        return complex(_as_number(value[0], path), _as_number(value[1], path))
    if isinstance(value, dict) and set(value) <= {"re", "im"}:
        return complex(
            _as_number(value.get("re", 0.0), path), _as_number(value.get("im", 0.0), path)
        )
    raise ConfigError(f"{path}: expected number, [re, im] or {{re, im}}, got {value!r}")


def _parse_incident(raw, path: str) -> IncidentSpec:
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected an object")
    _check_keys(raw, {"amplitude", "omega1", "k"}, path)
    amp_raw = _require(raw, "amplitude", path)
    if not isinstance(amp_raw, list) or len(amp_raw) != 3:
        raise ConfigError(f"{path}.amplitude: expected a 3-element list")
    amplitude = tuple(_parse_complex(v, f"{path}.amplitude[{i}]") for i, v in enumerate(amp_raw))
    if all(abs(a) == 0.0 for a in amplitude):
        raise ConfigError(f"{path}.amplitude: must be nonzero")
    omega1 = _as_number(_require(raw, "omega1", path), f"{path}.omega1")
    if omega1 <= 0.0:
        raise ConfigError(f"{path}.omega1: must be > 0 (got {omega1})")
    k_raw = _require(raw, "k", path)
    if not isinstance(k_raw, list) or len(k_raw) != 3:
        raise ConfigError(f"{path}.k: expected a 3-element list")
    k = np.array([_as_number(v, f"{path}.k[{i}]") for i, v in enumerate(k_raw)])
    norm = float(np.linalg.norm(k))
    if norm == 0.0:
        raise ConfigError(f"{path}.k: must be nonzero")
    if abs(norm - 1.0) > 1e-6:
        raise ConfigError(f"{path}.k: must be a unit vector (|k| = {norm})")
    return IncidentSpec(amplitude, omega1, tuple(k / norm))


def _parse_convention(raw, path: str) -> FrequencyConvention:
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected an object")
    _check_keys(raw, {"transmitted", "reflected"}, path)
    try:
        return FrequencyConvention(
            raw.get("transmitted", "forward"), raw.get("reflected", "negative")
        )
    except TimescatterError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_axis(raw, path: str) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected an object")
    _check_keys(raw, {"path", "values", "start", "stop", "num", "spacing"}, path)
    target = _require(raw, "path", path)
    allowed_paths = {"before.epsilon", "before.mu", "after.epsilon", "after.mu", "incident.omega1"}
    if target not in allowed_paths:
        raise ConfigError(f"{path}.path: {target!r} not in {sorted(allowed_paths)}")
    if "values" in raw:
        values = [_as_number(v, f"{path}.values") for v in raw["values"]]
        if len(values) < 1:
            raise ConfigError(f"{path}.values: must be non-empty")
    else:
        start = _as_number(_require(raw, "start", path), f"{path}.start")
        stop = _as_number(_require(raw, "stop", path), f"{path}.stop")
        num = raw.get("num")
        if not isinstance(num, int) or num < 1:
            raise ConfigError(f"{path}.num: expected a positive integer")
        spacing = raw.get("spacing", "linear")
        if spacing not in ("linear", "log"):
            raise ConfigError(f"{path}.spacing: must be 'linear' or 'log'")
        if spacing == "log":
            if start <= 0.0 or stop <= 0.0:
                raise ConfigError(f"{path}: log spacing needs positive start/stop")
            values = list(np.geomspace(start, stop, num))
        else:
            values = list(np.linspace(start, stop, num))
    if target == "incident.omega1":
        for v in values:
            if not v > 0.0:
                raise ConfigError(f"{path}: incident.omega1 must be > 0 (got {float(v)})")
    return {"path": target, "values": [float(v) for v in values]}


def _parse_timeline(raw, path: str) -> tuple:
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"{path}: expected a non-empty list of segments")
    segments = []
    for i, seg in enumerate(raw):
        seg_path = f"{path}[{i}]"
        if not isinstance(seg, dict):
            raise ConfigError(f"{seg_path}: expected an object")
        _check_keys(seg, {"epsilon", "mu", "branch", "duration"}, seg_path)
        medium = _parse_medium(
            {k: v for k, v in seg.items() if k != "duration"}, seg_path
        )
        duration = _as_number(_require(seg, "duration", seg_path), f"{seg_path}.duration")
        if duration < 0.0:
            raise ConfigError(f"{seg_path}.duration: must be >= 0")
        segments.append(TimelineSegment(medium, duration))
    return tuple(segments)


def _parse_verify_terms(raw, path: str) -> tuple:
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"{path}: expected a non-empty list of terms")
    terms = []
    for i, term in enumerate(raw):
        term_path = f"{path}[{i}]"
        if not isinstance(term, dict):
            raise ConfigError(f"{term_path}: expected an object")
        _check_keys(term, {"amplitude", "omega"}, term_path)
        amp_raw = _require(term, "amplitude", term_path)
        if not isinstance(amp_raw, list) or not amp_raw:
            raise ConfigError(f"{term_path}.amplitude: expected a non-empty list")
        amp = np.array(
            [_parse_complex(v, f"{term_path}.amplitude[{j}]") for j, v in enumerate(amp_raw)]
        )
        omega = _as_number(_require(term, "omega", term_path), f"{term_path}.omega")
        terms.append((amp, omega))
    lengths = {len(a) for a, _ in terms}
    if len(lengths) != 1:
        raise ConfigError(f"{path}: all amplitude vectors must have the same length")
    return tuple(terms)


def parse_config(text: str) -> RunConfig:
    """Validate a JSON configuration document into a RunConfig."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    allowed = {
        "command",
        "media",
        "timeline",
        "incident",
        "t0",
        "convention",
        "oracle",
        "sweep",
        "floquet",
        "verify",
        "output",
    }
    _check_keys(raw, allowed, "config")
    command = _require(raw, "command", "config")
    if command not in COMMANDS:
        raise ConfigError(f"config.command: {command!r} not in {list(COMMANDS)}")

    config = RunConfig(command=command)

    if "media" in raw:
        media = raw["media"]
        if not isinstance(media, dict):
            raise ConfigError("config.media: expected an object")
        _check_keys(media, {"before", "after"}, "config.media")
        config = replace(
            config,
            before=_parse_medium(_require(media, "before", "config.media"), "config.media.before"),
            after=_parse_medium(_require(media, "after", "config.media"), "config.media.after"),
        )
    if "incident" in raw:
        config = replace(config, incident=_parse_incident(raw["incident"], "config.incident"))
    if "t0" in raw:
        config = replace(config, t0=_as_number(raw["t0"], "config.t0"))
    if "convention" in raw:
        config = replace(config, convention=_parse_convention(raw["convention"], "config.convention"))
    if "timeline" in raw:
        config = replace(config, timeline=_parse_timeline(raw["timeline"], "config.timeline"))
    if "floquet" in raw:
        if not isinstance(raw["floquet"], bool):
            raise ConfigError("config.floquet: expected true or false")
        config = replace(config, floquet=raw["floquet"])
    if "oracle" in raw:
        oracle = raw["oracle"]
        if not isinstance(oracle, dict):
            raise ConfigError("config.oracle: expected an object")
        _check_keys(oracle, {"tau", "tol", "tau_list"}, "config.oracle")
        if "tau" in oracle:
            tau = _as_number(oracle["tau"], "config.oracle.tau")
            if tau <= 0.0:
                raise ConfigError("config.oracle.tau: must be > 0")
            config = replace(config, oracle_tau=tau)
        if "tol" in oracle:
            tol = _as_number(oracle["tol"], "config.oracle.tol")
            if tol <= 0.0:
                raise ConfigError("config.oracle.tol: must be > 0")
            config = replace(config, oracle_tol=tol)
        if "tau_list" in oracle:
            taus = oracle["tau_list"]
            if not isinstance(taus, list) or len(taus) < 3:
                raise ConfigError("config.oracle.tau_list: expected a list of >= 3 widths")
            taus = tuple(_as_number(v, "config.oracle.tau_list") for v in taus)
            if not all(math.isfinite(v) and v > 0.0 for v in taus):
                raise ConfigError(f"config.oracle.tau_list: widths must be finite and > 0 (got {list(taus)})")
            if any(b >= a for a, b in zip(taus, taus[1:])):
                raise ConfigError(f"config.oracle.tau_list: widths must be strictly decreasing (got {list(taus)})")
            config = replace(config, tau_list=taus)
    if "sweep" in raw:
        sweep = raw["sweep"]
        if not isinstance(sweep, dict):
            raise ConfigError("config.sweep: expected an object")
        _check_keys(sweep, {"axes"}, "config.sweep")
        axes_raw = _require(sweep, "axes", "config.sweep")
        if not isinstance(axes_raw, list) or not axes_raw:
            raise ConfigError("config.sweep.axes: expected a non-empty list")
        axes = tuple(
            _parse_axis(axis, f"config.sweep.axes[{i}]") for i, axis in enumerate(axes_raw)
        )
        config = replace(config, sweep_axes=axes)
    if "verify" in raw:
        verify = raw["verify"]
        if not isinstance(verify, dict):
            raise ConfigError("config.verify: expected an object")
        _check_keys(verify, {"terms", "tol"}, "config.verify")
        config = replace(
            config,
            verify_terms=_parse_verify_terms(
                _require(verify, "terms", "config.verify"), "config.verify.terms"
            ),
        )
        if "tol" in verify:
            tol = _as_number(verify["tol"], "config.verify.tol")
            if tol <= 0.0:
                raise ConfigError("config.verify.tol: must be > 0")
            config = replace(config, verify_tol=tol)
    if "output" in raw:
        output = raw["output"]
        if not isinstance(output, dict):
            raise ConfigError("config.output: expected an object")
        _check_keys(output, {"path", "format", "timestamp"}, "config.output")
        if "path" in output:
            if not isinstance(output["path"], str):
                raise ConfigError("config.output.path: expected a string")
            config = replace(config, output_path=output["path"])
        if "format" in output:
            if output["format"] not in ("json", "csv"):
                raise ConfigError("config.output.format: must be 'json' or 'csv'")
            config = replace(config, output_format=output["format"])
        if "timestamp" in output:
            if not isinstance(output["timestamp"], bool):
                raise ConfigError("config.output.timestamp: expected true or false")
            config = replace(config, timestamp=output["timestamp"])

    _validate_command_fields(config)
    return config


def _validate_command_fields(config: RunConfig):
    need_media = config.command in ("solve", "sweep", "oracle")
    if need_media and (config.before is None or config.after is None):
        raise ConfigError(f"config.media: required for command {config.command!r}")
    if config.command in ("solve", "sweep", "oracle", "cascade") and config.incident is None:
        raise ConfigError(f"config.incident: required for command {config.command!r}")
    if config.command == "sweep" and not config.sweep_axes:
        raise ConfigError("config.sweep: required for command 'sweep'")
    if config.command == "cascade" and not config.timeline:
        raise ConfigError("config.timeline: required for command 'cascade'")
    if config.command == "verify" and not config.verify_terms:
        raise ConfigError("config.verify.terms: required for command 'verify'")


def _complex_json(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def _vector_json(vec) -> list:
    arr = np.asarray(vec)
    if np.iscomplexobj(arr):
        return [_complex_json(complex(z)) for z in arr]
    return [float(x) for x in arr]


def _wave_json(wave: Optional[PlaneWave], t0: float) -> Optional[dict]:
    if wave is None:
        return None
    b_amp = wave.amplitude * np.exp(-1j * wave.omega * t0)
    return {
        "amplitude": _vector_json(wave.amplitude),
        "amplitude_at_interface": _vector_json(b_amp),
        "omega": wave.omega,
        "k": _vector_json(wave.k),
        "v": wave.v,
    }


def _scattering_json(result: ScatteringResult) -> dict:
    rng = np.random.default_rng(_RESIDUAL_SEED)
    samples = rng.uniform(-10.0, 10.0, size=(_RESIDUAL_SAMPLES, 3))
    res_E, res_H = boundary_residual(result, samples)
    return {
        "omega1": result.incident.omega,
        "omega2": result.omega2,
        "omega3": result.omega3,
        "R": result.R,
        "T": result.T,
        "energy_sum": result.energy_sum,
        "degenerate": result.degenerate,
        "t0": result.t0,
        "incident": _wave_json(result.incident, result.t0),
        "reflected": _wave_json(result.reflected, result.t0),
        "transmitted": _wave_json(result.transmitted, result.t0),
        "boundary_residuals": {"res_E": res_E, "res_H": res_H},
    }


def _sweep_rows(config: RunConfig) -> list:
    """One row per grid point, in row-major order, from one array evaluation.

    A repeated axis path keeps its first place and its last axis's values.
    Media are checked after each axis, as replacing one field at a time would.
    """
    names = [axis["path"] for axis in config.sweep_axes]
    grids = np.meshgrid(*(axis["values"] for axis in config.sweep_axes), indexing="ij")
    assignment = dict(zip(names, grids))
    media = {"before": asdict(config.before), "after": asdict(config.after)}
    omega1 = config.incident.omega1
    checks = GridChecks()
    for path, grid in assignment.items():
        owner, attr = path.split(".")
        if owner == "incident":
            omega1 = grid
        else:
            media[owner][attr] = grid
            with np.errstate(all="ignore"):
                check_medium(**media[owner], reject=checks.reject)
    omega2, omega3, R, T = scatter_grid(
        omega1,
        config.incident.amplitude,
        config.incident.k,
        tuple(media["before"].values()),
        tuple(media["after"].values()),
        config.convention,
        checks,
    )
    columns = [*assignment.values(), omega2, omega3, R, T, R + T]
    keys = [*assignment, "omega2", "omega3", "R", "T", "energy_sum"]
    values = zip(*(np.broadcast_to(c, grids[0].shape).ravel().tolist() for c in columns))
    return [dict(zip(keys, row), index=i) for i, row in enumerate(values)]


def execute(config: RunConfig) -> dict:
    """Run one validated configuration and return the output payload."""
    payload = {"schema_version": SCHEMA_VERSION, "command": config.command}

    if config.command == "solve":
        wave = config.incident.plane_wave(config.before)
        profile = TemporalProfile.step(config.before, config.after, config.t0)
        result = scatter_interface(wave, profile, config.convention)
        payload["result"] = _scattering_json(result)

    elif config.command == "sweep":
        paths = [axis["path"] for axis in config.sweep_axes]
        payload["columns"] = ["index", *paths, "omega2", "omega3", "R", "T", "energy_sum"]
        payload["rows"] = _sweep_rows(config)

    elif config.command == "oracle":
        wave = config.incident.plane_wave(config.before)
        tau_abs = config.oracle_tau * wave.period
        profile = TemporalProfile.ramp(config.before, config.after, config.t0, tau_abs)
        R_num, T_num = numeric_rt(profile, wave, tol=config.oracle_tol)
        R, T, _ = coefficients(config.before, config.after)
        payload["result"] = {
            "tau": config.oracle_tau,
            "R_numeric": R_num,
            "T_numeric": T_num,
            "R_analytic": R,
            "T_analytic": T,
            "R_error": abs(R_num - R),
            "T_error": abs(T_num - T),
        }
        if config.tau_list:
            study = convergence_study(
                config.before,
                config.after,
                wave,
                config.tau_list,
                t0=config.t0,
                tol=config.oracle_tol,
            )
            payload["convergence"] = {
                "columns": ["tau", "R_error", "T_error"],
                "rows": [
                    {"tau": tau, "R_error": r, "T_error": t}
                    for tau, r, t in study.rows()
                ],
                "empirical_order": study.empirical_order,
            }

    elif config.command == "cascade":
        wave = config.incident.plane_wave(config.timeline[0].medium)
        result = cascade_scatter(config.timeline, wave)
        payload["result"] = {
            "forward": _complex_json(result.amplitudes.forward),
            "backward": _complex_json(result.amplitudes.backward),
            "forward_modulus": abs(result.amplitudes.forward),
            "backward_modulus": abs(result.amplitudes.backward),
            "omega_final": result.omega_final,
            "net_matrix": [_vector_json(row) for row in result.net_matrix.entries],
        }
        payload["trace"] = {
            "columns": ["step", "kind", "index", "omega", "forward_re", "forward_im", "backward_re", "backward_im"],
            "rows": [
                {
                    "step": i,
                    "kind": s.kind,
                    "index": s.index,
                    "omega": s.omega,
                    "forward_re": s.forward.real,
                    "forward_im": s.forward.imag,
                    "backward_re": s.backward.real,
                    "backward_im": s.backward.imag,
                }
                for i, s in enumerate(result.trace)
            ],
        }
        if config.floquet:
            fl = floquet_exponent(config.timeline, config.incident.omega1)
            payload["floquet"] = {
                "exponents": [_complex_json(e) for e in fl.exponents],
                "eigenvalues": [_complex_json(e) for e in fl.eigenvalues],
                "eigenvalue_moduli": [abs(e) for e in fl.eigenvalues],
                "half_trace": _complex_json(fl.half_trace),
                "momentum_gap": fl.momentum_gap,
                "period": fl.period,
            }

    elif config.command == "verify":
        amps = np.vstack([a[None, :] for a, _ in config.verify_terms])
        omegas = np.array([w for _, w in config.verify_terms])
        exp_sum = ExponentialSum(amps, omegas)
        grid = canonical_grid(omegas)
        residual = sum_residual(exp_sum, grid)
        amp_scale = float(np.sum(np.linalg.norm(amps, axis=1)))
        cancelling = residual <= config.verify_tol * amp_scale
        # Raises ResolutionError (exit 3) for sub-resolution gaps or an
        # unsound cancellation claim.
        all_equal = assert_forced_equality(exp_sum, config.verify_tol)
        verdict = "cancelling-forced-equal" if cancelling else "non-cancelling"
        payload["result"] = {
            "residual": residual,
            "amplitude_scale": amp_scale,
            "tol": config.verify_tol,
            "grid_points": int(grid.size),
            "vandermonde": _complex_json(vandermonde_product(omegas)),
            "frequencies_all_equal": all_equal,
            "verdict": verdict,
        }

    return payload


def _flatten_for_csv(payload: dict) -> tuple[list, list]:
    """Columns and rows for CSV output of any command payload."""
    command = payload["command"]
    if command == "sweep":
        return payload["columns"], payload["rows"]
    if command == "oracle" and "convergence" in payload:
        return payload["convergence"]["columns"], payload["convergence"]["rows"]
    if command == "cascade":
        return payload["trace"]["columns"], payload["trace"]["rows"]
    # Single-record commands: one flat row.
    flat = {}

    def walk(prefix, value):
        if isinstance(value, dict):
            for key, sub in value.items():
                walk(f"{prefix}.{key}" if prefix else key, sub)
        elif isinstance(value, list):
            for i, sub in enumerate(value):
                walk(f"{prefix}[{i}]", sub)
        elif value is not None:
            flat[prefix] = value

    walk("", payload.get("result", {}))
    return list(flat.keys()), [flat]


def render_json(payload: dict, timestamp: bool) -> str:
    document = dict(payload)
    if timestamp:
        document = {"generated_at": datetime.now(timezone.utc).isoformat(), **document}
    return json.dumps(document, indent=2, sort_keys=False) + "\n"


def render_csv(payload: dict, timestamp: bool) -> str:
    columns, rows = _flatten_for_csv(payload)
    buffer = io.StringIO()
    if timestamp:
        buffer.write(f"# generated_at={datetime.now(timezone.utc).isoformat()}\r\n")
    writer = csv.DictWriter(buffer, fieldnames=columns, extrasaction="ignore", lineterminator="\r\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buffer.getvalue()


def _resolve_output_path(path: Optional[str]) -> Optional[str]:
    if path is None:
        return None
    override = os.environ.get(OUTPUT_DIR_ENV)
    if override and not os.path.isabs(path):
        return os.path.join(override, path)
    return path


def run(config: RunConfig) -> int:
    """Execute a config and emit its artifact; returns 0 on success."""
    payload = execute(config)
    if config.output_format == "json":
        text = render_json(payload, config.timestamp)
    else:
        text = render_csv(payload, config.timestamp)
    path = _resolve_output_path(config.output_path)
    if path is None:
        sys.stdout.write(text)
    else:
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    return 0


def _apply_override(raw: dict, dotted: str, value_text: str):
    try:
        value = json.loads(value_text)
    except json.JSONDecodeError:
        value = value_text
    keys = dotted.split(".")
    target = raw
    for key in keys[:-1]:
        if not isinstance(target.get(key), dict):
            target[key] = {}
        target = target[key]
    target[keys[-1]] = value


def _error_payload(code: int, exc: Exception) -> str:
    return json.dumps(
        {"error": {"code": code, "type": type(exc).__name__, "message": str(exc)}}
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="timescatter",
        description="Scattering of plane waves at temporal interfaces.",
    )
    parser.add_argument("config", help="path to a JSON configuration file")
    parser.add_argument("--out", help="override output.path")
    parser.add_argument("--format", choices=("json", "csv"), help="override output.format")
    parser.add_argument(
        "--no-timestamp", action="store_true", help="suppress the timestamp header"
    )
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="PATH=VALUE",
        help="override a config field, e.g. --set media.after.epsilon=9",
    )
    args = parser.parse_args(argv)

    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        sys.stderr.write(_error_payload(2, exc) + "\n")
        return 2

    try:
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise ConfigError("config root must be an object")
        for override in args.set:
            if "=" not in override:
                raise ConfigError(f"--set expects PATH=VALUE, got {override!r}")
            dotted, value_text = override.split("=", 1)
            _apply_override(raw, dotted, value_text)
        if args.out is not None:
            raw.setdefault("output", {})["path"] = args.out
        if args.format is not None:
            raw.setdefault("output", {})["format"] = args.format
        if args.no_timestamp:
            raw.setdefault("output", {})["timestamp"] = False
        config = parse_config(json.dumps(raw))
    except json.JSONDecodeError as exc:
        sys.stderr.write(_error_payload(2, ConfigError(f"config is not valid JSON: {exc}")) + "\n")
        return 2
    except ConfigError as exc:
        sys.stderr.write(_error_payload(2, exc) + "\n")
        return 2

    try:
        return run(config)
    except (DegenerateCaseError, NoSolutionError) as exc:
        sys.stderr.write(_error_payload(4, exc) + "\n")
        return 4
    except TimescatterError as exc:
        sys.stderr.write(_error_payload(3, exc) + "\n")
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
