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
import functools
import io
import json
import math
import os
import sys
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from typing import Optional

import numpy as np

# floquet_exponent, numeric_rt and coefficients are not called here; bench/tracing.py wraps them by name.
from .cascade import TimelineSegment, _event_labels, cascade_scatter, floquet_exponent, floquet_from_net  # noqa: F401
from .errors import (
    ConfigError,
    DegenerateCaseError,
    DomainError,
    NoSolutionError,
    TimescatterError,
)
from .media import MediumState, TemporalProfile, wave_speed
from .oracle import DEFAULT_TOL, convergence_study, numeric_rt  # noqa: F401
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
    _amplitude_scale,
    assert_forced_equality,
    canonical_grid,
    sum_residual,
    vandermonde_product,
)
from .waves import PlaneWave

__all__ = ["RunConfig", "parse_config", "execute", "run", "main"]

SCHEMA_VERSION = 1
OUTPUT_DIR_ENV = "TIMESCATTER_OUTPUT_DIR"


@dataclass(frozen=True)
class IncidentSpec:
    amplitude: tuple
    omega1: float
    k: tuple

    def plane_wave(self, medium: MediumState) -> PlaneWave:
        return PlaneWave(self.amplitude, self.omega1, self.k, wave_speed(medium))


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


# Config parsing.  A check maps (value, path) to the parsed value or raises
# a ConfigError that names the path.  _object makes the check of a JSON
# object from rows (key, field, check[, default]), one per key, in the
# order the keys are checked.

_REQUIRED = object()  # default of a key that must be present
_ABSENT = object()  # default of a key whose field stays unset when it is missing


def _fail(path: str, message: str):
    raise ConfigError(f"{path}: {message}")


def _raw(value, path: str):
    return value


def _number(value, path: str) -> float:
    if type(value) is float and math.isfinite(value):  # most config numbers
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        _fail(path, f"expected a finite number, got {value!r}")
    return number


def _complex(value, path: str) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(_number(value, path))
    if isinstance(value, list) and len(value) == 2:
        return complex(_number(value[0], path), _number(value[1], path))
    if isinstance(value, dict) and set(value) <= {"re", "im"}:
        return complex(_number(value.get("re", 0.0), path), _number(value.get("im", 0.0), path))
    _fail(path, f"expected number, [re, im] or {{re, im}}, got {value!r}")


def _where(parse, ok, message: str):
    """``parse``, then fail with ``message.format(parsed)`` unless ``ok(parsed)``."""

    def check(value, path):
        parsed = parse(value, path)
        if not ok(parsed):
            _fail(path, message.format(parsed))
        return parsed

    return check


def _one_of(options, message: str):
    return _where(_raw, lambda value: value in options, message)


def _list(item, message: str, min_size=1, max_size=math.inf, indexed=True):
    """A JSON list of min_size to max_size entries, as a tuple of ``item``-checked entries."""

    def check(value, path):
        if not isinstance(value, list) or not min_size <= len(value) <= max_size:
            _fail(path, message)
        return tuple(item(v, f"{path}[{i}]" if indexed else path) for i, v in enumerate(value))

    return check


def _object(*rows, message: str = "expected an object"):
    """The check of a JSON object with one row per key; unknown keys fail first.

    A missing key fails if its default is _REQUIRED, leaves its field unset
    if it is _ABSENT (the default) and otherwise stands in for the value.
    A row with field None is a section: its check returns fields to merge.
    A row with key None builds its field as ``check(**fields so far)``, and
    a TimescatterError it raises becomes a ConfigError at the object's path;
    if it is the last row, that field is the object's value, else all fields are.
    The check's ``keys`` attribute is the set of allowed keys.
    """
    rows = [row if len(row) == 4 else (*row, _ABSENT) for row in rows]
    keys = frozenset(row[0] for row in rows if row[0] is not None)
    allowed = sorted(keys)
    value_field = rows[-1][1] if rows[-1][0] is None else None

    def walk(raw, path):
        if not isinstance(raw, dict):
            _fail(path, message)
        if not keys.issuperset(raw):
            _fail(path, f"unknown keys {sorted(set(raw) - keys)}; allowed keys are {allowed}")
        fields = {}
        for key, field, check, default in rows:
            if key is None:
                try:
                    fields[field] = check(**fields)
                except TimescatterError as exc:
                    raise ConfigError(f"{path}: {exc}") from exc
                continue
            if key in raw:
                value = raw[key]
            elif default is _REQUIRED:
                _fail(path, f"missing required key {key!r}")
            elif default is _ABSENT:
                continue
            else:
                value = default
            parsed = check(value, f"{path}.{key}")
            if field is None:
                fields.update(parsed)
            else:
                fields[field] = parsed
        return fields if value_field is None else fields[value_field]

    walk.keys = keys
    return walk


def _unit_vector(value, path: str) -> tuple:
    k = np.array(_list(_number, "expected a 3-element list", 3, 3)(value, path))
    with np.errstate(over="ignore"):  # an overflowing |k| fails below
        norm = float(np.linalg.norm(k))
    if norm == 0.0:
        _fail(path, "must be nonzero")
    if abs(norm - 1.0) > 1e-6:
        _fail(path, f"must be a unit vector (|k| = {norm})")
    return tuple(k / norm)


def _widths(value, path: str) -> tuple:
    taus = _list(_number, "expected a list of >= 3 widths", 3, indexed=False)(value, path)
    if not all(v > 0.0 for v in taus):
        _fail(path, f"widths must be finite and > 0 (got {list(taus)})")
    if any(b >= a for a, b in zip(taus, taus[1:])):
        _fail(path, f"widths must be strictly decreasing (got {list(taus)})")
    return taus


def _axis_values(path, values=None, start=None, stop=None, num=None, spacing=None) -> dict:
    if values is None:
        if spacing == "log" and (start <= 0.0 or stop <= 0.0):
            raise DomainError("log spacing needs positive start/stop")
        if num > sys.maxsize // 16:  # near numpy's index limit its errors do not name the size
            raise DomainError(f"{num} values do not fit in memory: as float64 they take {8 * num} bytes")
        try:
            values = (np.geomspace if spacing == "log" else np.linspace)(start, stop, num)
        except MemoryError as exc:  # numpy's message names the size
            raise DomainError(f"{num} values do not fit in memory: {exc}") from exc
    if path == "incident.omega1":
        for v in values:
            if not v > 0.0:
                raise DomainError(f"incident.omega1 must be > 0 (got {float(v)})")
    return {"path": path, "values": [float(v) for v in values]}


_POSITIVE = _where(_number, lambda x: x > 0.0, "must be > 0")
_FLAG = _where(_raw, lambda v: isinstance(v, bool), "expected true or false")
_MEDIUM_ROWS = (
    ("epsilon", "epsilon", _number, _REQUIRED),
    ("mu", "mu", _number, _REQUIRED),
    ("branch", "branch", _one_of((1, -1), "must be 1 or -1, got {!r}")),
    (None, "medium", MediumState),
)
_MEDIUM = _object(*_MEDIUM_ROWS, message="expected an object with epsilon/mu")
_SEGMENT = _object(
    *_MEDIUM_ROWS,
    ("duration", "duration", _where(_number, lambda d: d >= 0.0, "must be >= 0"), _REQUIRED),
    (None, "segment", lambda medium, duration, **_: TimelineSegment(medium, duration)),
)
_SEGMENTS = _list(_SEGMENT, "expected a non-empty list of segments")


def _timeline(value, path: str) -> tuple:
    """_SEGMENTS's value, taking plain segments directly and building each distinct medium once.

    A plain segment is a dict of allowed keys with finite epsilon, mu and
    duration >= 0, each a float or an int (taken as its float, as _number
    does), and, if present, an int branch.  At the first other segment, or
    one whose medium is invalid, the whole list goes through _SEGMENTS, so
    every error message is its own.
    """
    if isinstance(value, list) and value:
        keys, media, segments = _SEGMENT.keys, {}, []
        for raw in value:
            if type(raw) is not dict or not keys.issuperset(raw):
                break
            try:
                epsilon, mu, duration = (
                    float(x) if type(x) is int else x for x in (raw.get("epsilon"), raw.get("mu"), raw.get("duration"))
                )
            except OverflowError:  # an int beyond the float range
                break
            branch = raw.get("branch", 1)
            if not (
                type(epsilon) is float and type(mu) is float and type(duration) is float and type(branch) is int
                and math.isfinite(epsilon) and math.isfinite(mu) and 0.0 <= duration < math.inf
            ):
                break
            medium = media.get((epsilon, mu, branch))
            if medium is None:
                try:
                    medium = media[epsilon, mu, branch] = MediumState(epsilon, mu, branch)
                except TimescatterError:
                    break
            segments.append(TimelineSegment(medium, duration))
        else:
            return tuple(segments)
    return _SEGMENTS(value, path)


_AMPLITUDE = _where(_list(_complex, "expected a 3-element list", 3, 3), any, "must be nonzero")
_INCIDENT = _object(
    ("amplitude", "amplitude", _AMPLITUDE, _REQUIRED),
    ("omega1", "omega1", _where(_number, lambda w: w > 0.0, "must be > 0 (got {})"), _REQUIRED),
    ("k", "k", _unit_vector, _REQUIRED),
    (None, "incident", IncidentSpec),
)
_CONVENTION = _object(
    ("transmitted", "transmitted", _raw),
    ("reflected", "reflected", _raw),
    (None, "convention", FrequencyConvention),
)
_AXIS_PATHS = ["after.epsilon", "after.mu", "before.epsilon", "before.mu", "incident.omega1"]
_AXIS_PATH = ("path", "path", _one_of(_AXIS_PATHS, f"{{!r}} not in {_AXIS_PATHS}"), _REQUIRED)
_VALUES = _where(_list(_number, "expected a list of numbers", 0, indexed=False), len, "must be non-empty")
_POSITIVE_INT = _where(_raw, lambda n: isinstance(n, int) and n >= 1, "expected a positive integer")
_SPACING = _one_of(("linear", "log"), "must be 'linear' or 'log'")
# An axis lists its values or spans a range; given values, the range keys go unread.
_VALUES_AXIS = _object(
    _AXIS_PATH,
    ("values", "values", _VALUES),
    *((key, key, _raw) for key in ("start", "stop", "num", "spacing")),
    (None, "axis", _axis_values),
)
_RANGE_AXIS = _object(
    _AXIS_PATH,
    ("values", "values", _raw),  # never present: this table is for axes without values
    ("start", "start", _number, _REQUIRED),
    ("stop", "stop", _number, _REQUIRED),
    ("num", "num", _POSITIVE_INT, None),
    ("spacing", "spacing", _SPACING, "linear"),
    (None, "axis", _axis_values),
)
_TERMS = _where(
    _list(
        _object(
            ("amplitude", "amplitude", _list(_complex, "expected a non-empty list"), _REQUIRED),
            ("omega", "omega", _number, _REQUIRED),
            (None, "term", lambda amplitude, omega: (np.array(amplitude), omega)),
        ),
        "expected a non-empty list of terms",
    ),
    lambda terms: len({len(amplitude) for amplitude, _ in terms}) == 1,
    "all amplitude vectors must have the same length",
)


def _axis(value, path: str) -> dict:
    values_given = isinstance(value, dict) and "values" in value
    return (_VALUES_AXIS if values_given else _RANGE_AXIS)(value, path)


# The sections each command needs, in the order they are checked.
_NEEDS = {
    "solve": ("media", "incident"),
    "sweep": ("media", "incident", "sweep"),
    "oracle": ("media", "incident"),
    "cascade": ("incident", "timeline"),
    "verify": ("verify.terms",),
}
# (config path, RunConfig field, check[, default]); a section nests its own rows.
_CONFIG = _object(
    ("command", "command", _one_of(list(_NEEDS), f"{{!r}} not in {list(_NEEDS)}"), _REQUIRED),
    ("media", None, _object(
        ("before", "before", _MEDIUM, _REQUIRED),
        ("after", "after", _MEDIUM, _REQUIRED),
    )),
    ("incident", "incident", _INCIDENT),
    ("t0", "t0", _number),
    ("convention", "convention", _CONVENTION),
    ("timeline", "timeline", _timeline),
    ("floquet", "floquet", _FLAG),
    ("oracle", None, _object(
        ("tau", "oracle_tau", _POSITIVE),
        ("tol", "oracle_tol", _POSITIVE),
        ("tau_list", "tau_list", _widths),
    )),
    ("sweep", None, _object(("axes", "sweep_axes", _list(_axis, "expected a non-empty list"), _REQUIRED))),
    ("verify", None, _object(("terms", "verify_terms", _TERMS, _REQUIRED), ("tol", "verify_tol", _POSITIVE))),
    ("output", None, _object(
        ("path", "output_path", _where(_raw, lambda p: isinstance(p, str), "expected a string")),
        ("format", "output_format", _one_of(("json", "csv"), "must be 'json' or 'csv'")),
        ("timestamp", "timestamp", _FLAG),
    )),
)


def _loads(text, what: str):
    """json.loads, with a value nested deeper than the decoder can follow as a ConfigError."""
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise ConfigError(f"{what} is nested too deeply to decode") from exc


def _document(config) -> dict:
    """The config document as a dict, decoded first if it is JSON text."""
    if isinstance(config, (str, bytes, bytearray)):
        try:
            config = _loads(config, "config")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config root must be an object")
    return config


def parse_config(config) -> RunConfig:
    """Validate a configuration document, as JSON text or decoded, into a RunConfig."""
    raw = _document(config)
    fields = _CONFIG(raw, "config")
    for section in _NEEDS[fields["command"]]:
        if section.split(".")[0] not in raw:
            raise ConfigError(f"config.{section}: required for command {fields['command']!r}")
    return RunConfig(**fields)


def _complex_json(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def _vector_json(vec) -> list:
    return [_complex_json(z) if isinstance(z, complex) else float(z) for z in np.asarray(vec).tolist()]


def _wave_json(wave: Optional[PlaneWave], b_amp: np.ndarray) -> Optional[dict]:
    if wave is None:
        return None
    return {
        "amplitude": _vector_json(wave.amplitude),
        "amplitude_at_interface": _vector_json(b_amp),
        "omega": wave.omega,
        "k": _vector_json(wave.k),
        "v": wave.v,
    }


@functools.cache
def _residual_samples() -> np.ndarray:
    """The 100 read-only points where solve checks the jumps; drawn on first use, so import skips numpy.random."""
    samples = np.random.default_rng(0).uniform(-10.0, 10.0, size=(100, 3))
    samples.setflags(write=False)
    return samples


def _scattering_json(result: ScatteringResult) -> dict:
    res_E, res_H = boundary_residual(result, _residual_samples())
    return {
        "omega1": result.incident.omega,
        "omega2": result.omega2,
        "omega3": result.omega3,
        "R": result.R,
        "T": result.T,
        "energy_sum": result.energy_sum,
        "degenerate": result.degenerate,
        "t0": result.t0,
        "incident": _wave_json(result.incident, result.B_incident),
        "reflected": _wave_json(result.reflected, result.B_reflected),
        "transmitted": _wave_json(result.transmitted, result.B_transmitted),
        "boundary_residuals": {"res_E": res_E, "res_H": res_H},
    }


# Row tables.  The rows of a sweep, a cascade trace or a convergence study
# are kept as columns.  They render to the bytes json.dumps(indent=2) and
# csv.writer give for the same row dicts: each column's texts are made
# once and interleaved with the separators of the row shape.  The rest of
# a JSON document still goes through json.dumps.

_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_TABLE_MARK = "\0row table\0"  # stands in for a table's rows in the json.dumps text


def _csv_field(value) -> str:
    """One field as csv.writer writes it in a row of several."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\r\n").writerow([value, None])
    return buffer.getvalue()[:-3]


def _texts(values, as_json: bool) -> list:
    """Each value as json.dumps (as_json) or csv.writer writes it."""
    kinds = set(map(type, values))
    if kinds == {float}:
        texts = list(map(float.__repr__, values))
        if as_json and not math.isfinite(sum(values)):  # NaN and +-inf, or a sum that overflows
            texts = [_JSON_NON_FINITE.get(text, text) for text in texts]
        return texts
    if kinds == {int}:
        return list(map(int.__repr__, values))
    encode = json.dumps if as_json else _csv_field
    if kinds == {str}:
        known = {value: encode(value) for value in set(values)}
        return [known[value] for value in values]
    return [encode(value) for value in values]


class RowTable(Sequence):
    """Read-only rows, one dict per row, kept as columns.

    ``columns`` maps each key to a full column.  ``axes`` lists the
    (key, values) axes of a row-major grid, whose keys come first: each
    value of an axis is stored once and repeats for every point of the
    axes after it.  A repeated axis key keeps its first place and takes
    its last axis's values.
    """

    def __init__(self, columns: dict, axes=()):
        if axes:
            self._length = math.prod(len(values) for _, values in axes)
        else:
            self._length = len(next(iter(columns.values())))
        self._columns = {}  # key -> (values, repeat): row i holds values[i // repeat % len(values)]
        repeat = self._length
        for key, values in axes:
            repeat //= len(values)
            self._columns[key] = (values, repeat)
        self._columns.update((key, (values, 1)) for key, values in columns.items())

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(self._length))]
        if not -self._length <= i < self._length:
            raise IndexError("row index out of range")
        i %= self._length
        return {key: values[i // repeat % len(values)] for key, (values, repeat) in self._columns.items()}

    def _column_texts(self, key: str, as_json: bool) -> list:
        values, repeat = self._columns[key]
        texts = _texts(values, as_json)
        if repeat > 1:
            texts = [text for text in texts for _ in range(repeat)]
        if len(texts) < self._length:  # an axis before the last repeats as a whole
            texts *= self._length // len(texts)
        return texts

    def _rows(self, keys: list, separators: list, as_json: bool) -> list:
        """Each row as separators[0], its text under keys[0], separators[1], ..., separators[-1]."""
        texts = {key: self._column_texts(key, as_json) for key in dict.fromkeys(keys)}
        stride = 2 * len(keys) + 1
        parts = [None] * (stride * self._length)
        for j, separator in enumerate(separators):
            parts[2 * j::stride] = [separator] * self._length
        for j, key in enumerate(keys):
            parts[2 * j + 1::stride] = texts[key]
        return parts

    def json_parts(self, pad: str, out: list):
        """Append the rows as json.dumps(indent=2) writes a list at indent ``pad``."""
        if not self._length:
            out.append("[]")
            return
        fields = [f"\n{pad}    {json.dumps(key)}: " for key in self._columns]
        separators = [f"{pad}  {{{fields[0]}", *("," + field for field in fields[1:]), f"\n{pad}  }},\n"]
        out.append("[\n")
        out.extend(self._rows(list(self._columns), separators, True))
        out[-1] = f"\n{pad}  }}\n{pad}]"  # the last row takes no comma

    def csv_parts(self, header: list, out: list):
        """Append the header and rows as csv.writer writes them, row by row; a repeated name repeats its column."""
        out.append(",".join(map(_csv_field, header)) + "\r\n")
        out.extend(self._rows(header, ["", *[","] * (len(header) - 1), "\r\n"], False))


def _sweep_rows(config: RunConfig) -> RowTable:
    """One row per grid point, in row-major order, from one array evaluation.

    A repeated axis path keeps its first place and its last axis's values.
    Each point's before and after media are checked once all axes are set.
    """
    names = [axis["path"] for axis in config.sweep_axes]
    try:
        grids = np.meshgrid(*(axis["values"] for axis in config.sweep_axes), indexing="ij")
    except (MemoryError, ValueError) as exc:  # numpy's message names the size, or says it is too big
        raise DomainError(f"the sweep grid does not fit in memory: {exc}") from exc
    assignment = dict(zip(names, grids))
    fields = {"before": asdict(config.before), "after": asdict(config.after)}
    fields["incident"] = {"omega1": config.incident.omega1}
    for path, grid in assignment.items():
        owner, attr = path.split(".")
        fields[owner][attr] = grid
    omega2, omega3, R, T = scatter_grid(
        fields["incident"]["omega1"],
        config.incident.amplitude,
        config.incident.k,
        tuple(fields["before"].values()),
        tuple(fields["after"].values()),
        config.convention,
    )
    columns = {
        key: np.broadcast_to(c, grids[0].shape).ravel().tolist()
        for key, c in zip(("omega2", "omega3", "R", "T", "energy_sum"), (omega2, omega3, R, T, R + T))
    }
    columns["index"] = range(grids[0].size)
    return RowTable(columns, axes=[(axis["path"], axis["values"]) for axis in config.sweep_axes])


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
        tau = config.oracle_tau
        studies = [
            convergence_study(config.before, config.after, wave, taus, t0=config.t0, tol=config.oracle_tol)
            for taus in ((tau,) if tau not in config.tau_list else (), config.tau_list)
            if taus
        ]
        at, i = studies[0], studies[0].taus.index(tau)
        payload["result"] = {
            "tau": tau,
            "R_numeric": at.R_numeric[i],
            "T_numeric": at.T_numeric[i],
            "R_analytic": at.R_analytic,
            "T_analytic": at.T_analytic,
            "R_error": at.R_errors[i],
            "T_error": at.T_errors[i],
        }
        if config.tau_list:
            study = studies[-1]
            columns = {"tau": study.taus, "R_error": study.R_errors, "T_error": study.T_errors}
            payload["convergence"] = {
                "columns": list(columns),
                "rows": RowTable(columns),
                "empirical_order": study.empirical_order,
            }

    elif config.command == "cascade":
        wave = config.incident.plane_wave(config.timeline[0].medium)
        result = cascade_scatter(config.timeline, wave)
        fl = floquet_from_net(config.timeline, result.net_matrix) if config.floquet else None
        payload["result"] = {
            "forward": _complex_json(result.amplitudes.forward),
            "backward": _complex_json(result.amplitudes.backward),
            "forward_modulus": abs(result.amplitudes.forward),
            "backward_modulus": abs(result.amplitudes.backward),
            "omega_final": result.omega_final,
            "net_matrix": [_vector_json(row) for row in result.net_matrix],
        }
        forward, backward = result.trace_amplitudes.T
        kinds, indices = _event_labels(len(result.trace_omega))
        columns = {
            "step": range(len(result.trace_omega)),
            "kind": kinds,
            "index": indices,
            "omega": result.trace_omega,
            "forward_re": forward.real.tolist(),
            "forward_im": forward.imag.tolist(),
            "backward_re": backward.real.tolist(),
            "backward_im": backward.imag.tolist(),
        }
        payload["trace"] = {"columns": list(columns), "rows": RowTable(columns)}
        if fl is not None:
            payload["floquet"] = {
                "exponents": [_complex_json(e) for e in fl.exponents],
                "eigenvalues": [_complex_json(e) for e in fl.eigenvalues],
                "eigenvalue_moduli": [abs(e) for e in fl.eigenvalues],
                "half_trace": _complex_json(fl.half_trace),
                "momentum_gap": fl.momentum_gap,
                "period": fl.period,
            }

    elif config.command == "verify":
        exp_sum = ExponentialSum.from_terms(config.verify_terms)
        omegas = exp_sum.omegas
        grid = canonical_grid(omegas)
        residual = sum_residual(exp_sum, grid)
        amp_scale = _amplitude_scale(exp_sum)
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


def _flatten_for_csv(payload: dict) -> tuple[list, Sequence]:
    """CSV header and rows: the payload's row table (top level or a section), else the result's values as one row."""
    for section in (payload, *payload.values()):
        if isinstance(section, dict) and isinstance(section.get("rows"), RowTable):
            return section["columns"], section["rows"]
    # No table: the result as one flat row.
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
    return list(flat), list(flat.values())


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def render_json(payload: dict, timestamp: bool) -> str:
    document = {"generated_at": _timestamp(), **payload} if timestamp else payload
    tables = []

    def hold(value):
        """json.dumps's hook for a row table: a mark whose place the table's rows take."""
        if not isinstance(value, RowTable):
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        tables.append(value)
        return _TABLE_MARK

    pieces = json.dumps(document, indent=2, default=hold).split(json.dumps(_TABLE_MARK))
    out = [pieces[0]]
    for table, piece in zip(tables, pieces[1:]):
        line = out[-1][out[-1].rfind("\n") + 1:]
        table.json_parts(line[: len(line) - len(line.lstrip())], out)
        out.append(piece)
    out.append("\n")
    return "".join(out)


def render_csv(payload: dict, timestamp: bool) -> str:
    columns, rows = _flatten_for_csv(payload)
    out = [f"# generated_at={_timestamp()}\r\n"] if timestamp else []
    if isinstance(rows, RowTable):
        rows.csv_parts(columns, out)
    else:  # one flat record, for which csv.writer is cheaper than a table's set-up
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\r\n").writerows([columns, rows])
        out.append(buffer.getvalue())
    return "".join(out)


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
        try:
            handle = open(path, "w", encoding="utf-8", newline="")
        except OSError:  # a missing directory is made; any other failure recurs on the second open
            directory = os.path.dirname(path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            handle = open(path, "w", encoding="utf-8", newline="")
        with handle:
            handle.write(text)
    return 0


def _apply_override(raw: dict, dotted: str, value):
    """Set the config field at a dotted path; ConfigError if a section on the way is not an object."""
    keys = dotted.split(".")
    target = raw
    for depth, key in enumerate(keys[:-1], 1):
        target = target.setdefault(key, {})
        if not isinstance(target, dict):
            raise ConfigError(f"config.{'.'.join(keys[:depth])}: expected an object")
    target[keys[-1]] = value


def _exit_with(code: int, exc: Exception) -> int:
    """Write ``exc``'s error record to stderr and return the exit code."""
    sys.stderr.write(json.dumps({"error": {"code": code, "type": type(exc).__name__, "message": str(exc)}}) + "\n")
    return code


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """main's one parser, built on first use rather than at import; parse_args copies --set's default list."""
    parser = argparse.ArgumentParser(
        prog="timescatter", description="Scattering of plane waves at temporal interfaces."
    )
    parser.add_argument("config", help="path to a JSON configuration file")
    parser.add_argument("--out", help="override output.path")
    parser.add_argument("--format", choices=("json", "csv"), help="override output.format")
    parser.add_argument("--no-timestamp", action="store_true", help="suppress the timestamp header")
    parser.add_argument(
        "--set", action="append", default=[], metavar="PATH=VALUE",
        help="override a config field, e.g. --set media.after.epsilon=9",
    )
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            raw = _document(handle.read())
        for override in args.set:
            if "=" not in override:
                raise ConfigError(f"--set expects PATH=VALUE, got {override!r}")
            dotted, value_text = override.split("=", 1)
            try:
                value = _loads(value_text, f"--set {dotted}")
            except json.JSONDecodeError:
                value = value_text
            _apply_override(raw, dotted, value)
        flags = {"path": args.out, "format": args.format, "timestamp": False if args.no_timestamp else None}
        for key, value in flags.items():
            if value is not None:
                _apply_override(raw, f"output.{key}", value)
        return run(parse_config(raw))
    except (OSError, UnicodeDecodeError, ConfigError) as exc:  # unreadable config, bad config, unwritable output
        return _exit_with(2, exc)
    except (DegenerateCaseError, NoSolutionError) as exc:
        return _exit_with(4, exc)
    except TimescatterError as exc:
        return _exit_with(3, exc)
