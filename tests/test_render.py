"""Row tables render to the same bytes as json.dumps and csv.DictWriter over row dicts.

The reference renderers here are the dict-per-row renderers the CLI used
before row tables: ``json.dumps(indent=2)`` over the whole document and
``csv.DictWriter`` over one dict per row.  The property tests build row
tables with 1-3 grid axes (a repeated axis path included) and columns of
awkward floats, mirrored and repeating columns among them; the config
tests run reduced forms of the benchmark's sweep and cascade configs
through ``execute``.
"""

import csv
import io
import itertools
import json
import math
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from timescatter import cli
from timescatter.cli import Mirror, RowTable, execute, parse_config, render_csv, render_json

EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
    1e300, -1e300, 1e-300, -1e-300, 1e16, 1e-5, math.nan, math.inf, -math.inf,
]
FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
PATHS = ["after.epsilon", "after.mu", "incident.omega1"]
RESULTS = ["omega2", "omega3", "R", "T", "energy_sum"]
PROPERTY = settings(
    max_examples=60,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


class FixedDatetime(datetime):
    @classmethod
    def now(cls, tz=None):
        return datetime(2026, 1, 2, 3, 4, 5, 678901, tzinfo=tz)


STAMP = FixedDatetime.now(timezone.utc).isoformat()


@pytest.fixture(autouse=True)
def fixed_clock(monkeypatch):
    monkeypatch.setattr(cli, "datetime", FixedDatetime)


def plain(value):
    """The document with every row table as a list of row dicts."""
    if isinstance(value, RowTable):
        return [dict(row) for row in value]
    if isinstance(value, dict):
        return {key: plain(item) for key, item in value.items()}
    return value


def reference_json(document, timestamp):
    if timestamp:
        document = {"generated_at": STAMP, **document}
    return json.dumps(document, indent=2, sort_keys=False) + "\n"


def reference_csv(columns, rows, timestamp):
    buffer = io.StringIO()
    if timestamp:
        buffer.write(f"# generated_at={STAMP}\r\n")
    writer = csv.DictWriter(buffer, fieldnames=columns, extrasaction="ignore", lineterminator="\r\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buffer.getvalue()


def table_of(document):
    """The (columns, rows) section of a document with a row table."""
    for section in (document, document.get("trace"), document.get("convergence")):
        if section and "rows" in section:
            return section["columns"], section["rows"]
    raise AssertionError("no row table")


def assert_renders_like_reference(payload, reference_rows=None):
    document = plain(payload)
    columns, rows = table_of(document)
    if reference_rows is not None:
        assert rows == reference_rows
    for timestamp in (False, True):
        assert render_json(payload, timestamp) == reference_json(document, timestamp)
        assert render_csv(payload, timestamp) == reference_csv(columns, rows, timestamp)


@st.composite
def sweep_tables(draw):
    axes = [
        (draw(st.sampled_from(PATHS)), draw(st.lists(FLOATS, min_size=1, max_size=4)))
        for _ in range(draw(st.integers(1, 3)))
    ]
    size = math.prod(len(values) for _, values in axes)
    results = {key: draw(st.lists(FLOATS, min_size=size, max_size=size)) for key in RESULTS}
    return axes, results


@PROPERTY
@given(sweep_tables())
@example(([("after.epsilon", [1.0, 2.0]), ("after.mu", [3.0]), ("after.epsilon", [4.0, -0.0])],
          {key: [math.nan, math.inf, -math.inf, 5e-324] for key in RESULTS}))
def test_sweep_tables_render_like_row_dicts(table):
    axes, results = table
    paths = [path for path, _ in axes]
    columns = dict(results, index=range(len(results["R"])))
    payload = {
        "schema_version": 1,
        "command": "sweep",
        "columns": ["index", *paths, *RESULTS],
        "rows": RowTable(columns, axes=axes),
    }
    # A repeated path keeps its first place and takes its last axis's value.
    expected = [
        dict(zip(paths, point), **{key: column[i] for key, column in columns.items()})
        for i, point in enumerate(itertools.product(*(values for _, values in axes)))
    ]
    assert_renders_like_reference(payload, expected)
    rows = payload["rows"]
    assert len(rows) == len(expected) and list(rows) == expected
    assert rows[-1] == expected[-1] and rows[1:3] == expected[1:3]


TEXTS = st.sampled_from(["propagate", "interface", "a,b", 'say "hi"', "two\nlines", "", "ünï", "50%"])


@st.composite
def trace_tables(draw):
    n = draw(st.integers(1, 6))
    cell = lambda strategy: draw(st.lists(strategy, min_size=n, max_size=n))  # noqa: E731
    return {
        "step": range(n),
        "kind": cell(TEXTS),
        "index": cell(st.integers(-3, 10**20)),
        "omega": cell(FLOATS),
        "forward_re": cell(FLOATS),
        "mixed": cell(st.one_of(FLOATS, st.integers(), st.booleans(), st.none())),
    }


@PROPERTY
@given(trace_tables(), FLOATS)
def test_cascade_and_oracle_shaped_tables(columns, scalar):
    cascade = {
        "schema_version": 1,
        "command": "cascade",
        "result": {"forward": {"re": scalar, "im": -0.0}, "net_matrix": [[{"re": 1.0, "im": scalar}]]},
        "trace": {"columns": list(columns), "rows": RowTable(columns)},
        "floquet": {"exponents": [], "momentum_gap": False, "period": scalar},
    }
    assert_renders_like_reference(cascade)
    oracle = {
        "schema_version": 1,
        "command": "oracle",
        "result": {"tau": scalar},
        "convergence": {"columns": ["omega", "kind", "omega"], "rows": RowTable(columns), "empirical_order": scalar},
    }
    assert_renders_like_reference(oracle)


def bits(values):
    """Each float's bit pattern, so -0.0 and +0.0 (and NaNs of either sign) differ."""
    return np.array(values, dtype=np.float64).view(np.uint64).tolist()


@PROPERTY
@given(
    st.lists(FLOATS, min_size=1, max_size=8),
    st.sampled_from([1, -1]),
    st.sampled_from([["omega2", "omega3", "R"], ["omega2"], ["R", "omega2", "omega2", "index"]]),
)
@example(EDGE_FLOATS, -1, ["omega2", "omega3", "R"])
@example(EDGE_FLOATS, 1, ["omega2", "omega3", "R"])
@example([-math.nan, math.nan, float("nan"), -0.0, 0.0], -1, ["omega2"])
def test_mirrored_column_renders_like_its_plain_column(values, sign, header):
    """A Mirror renders and reads as the column numpy's negation (or the source itself) gives."""
    plain_column = (np.negative(values) if sign < 0 else np.array(values)).tolist()
    columns = {"omega2": Mirror("omega3", sign), "omega3": values, "R": values[::-1], "index": range(len(values))}
    payload = {"schema_version": 1, "command": "sweep", "columns": header, "rows": RowTable(columns)}
    assert_renders_like_reference(payload)
    rows = payload["rows"]
    assert len(rows) == len(values)
    assert bits([row["omega2"] for row in rows]) == bits(plain_column)
    assert [row["omega3"] for row in rows] == values and [row["R"] for row in rows] == values[::-1]
    assert bits([rows[i]["omega2"] for i in range(-len(values), 0)]) == bits(plain_column)


@PROPERTY
@given(st.lists(st.sampled_from([*EDGE_FLOATS, 1.5, -2.25]), min_size=1, max_size=12))
@example([0.0, -0.0, 1.5, 0.0, 1.5, -0.0])
@example([math.nan, float("nan"), math.nan, math.inf, math.inf, -math.inf])
def test_repeating_column_renders_like_its_plain_column(values):
    """Each distinct float formatted once gives the texts of each float formatted where it stands."""
    columns = {"omega": values, "forward_re": values[::-1]}
    payload = {"command": "cascade", "trace": {"columns": list(columns), "rows": RowTable(columns, repeating=["omega"])}}
    assert_renders_like_reference(payload, [{"omega": a, "forward_re": b} for a, b in zip(values, values[::-1])])


def test_empty_table_renders_as_empty_list():
    payload = {"command": "cascade", "trace": {"columns": ["x"], "rows": RowTable({"x": []})}}
    assert render_json(payload, False) == reference_json(plain(payload), False)
    assert render_csv(payload, False) == "x\r\n"


# Reduced forms of the benchmark's sweep-grid and crystal-cascade configs.
INCIDENT = {
    "amplitude": [[0.3, -0.27], [0.53, 0.41], [0.4, -0.36]],  # transversal to k
    "omega1": 1.1374,
    "k": [0.8, 0.0, -0.6],
}
SWEEP_BASE = {
    "command": "sweep",
    "media": {"before": {"epsilon": 2.31, "mu": 1.42, "branch": 1}, "after": {"epsilon": 4.0, "mu": 1.0}},
    "incident": INCIDENT,
}
LOG_AXES = [
    {"path": "after.epsilon", "start": 0.17, "stop": 23.4, "num": 20, "spacing": "log"},
    {"path": "after.mu", "start": 0.21, "stop": 17.9, "num": 10, "spacing": "log"},
]
NEGATIVE_AXES = [
    {"path": "after.epsilon", "values": [-0.17 * 1.3**i for i in range(20)]},
    {"path": "after.mu", "values": [-0.21 * 1.6**i for i in range(10)]},
]
SWEEPS = {
    "forward": dict(SWEEP_BASE, convention={"transmitted": "forward", "reflected": "negative"}, sweep={"axes": LOG_AXES}),
    "backward": dict(SWEEP_BASE, convention={"transmitted": "backward", "reflected": "negative"}, sweep={"axes": LOG_AXES}),
    "double-negative": dict(
        SWEEP_BASE,
        media={"before": SWEEP_BASE["media"]["before"], "after": {"epsilon": -2.0, "mu": -1.0, "branch": -1}},
        sweep={"axes": NEGATIVE_AXES},
    ),
    # omega2 = +omega3 merges the scattered waves, which needs impedance-matched media at every point.
    "reflected-positive": dict(
        SWEEP_BASE,
        media={"before": SWEEP_BASE["media"]["before"], "after": {"epsilon": 4 * 2.31, "mu": 4 * 1.42}},
        convention={"transmitted": "forward", "reflected": "positive"},
        sweep={"axes": [{"path": "incident.omega1", "start": 0.3, "stop": 3.0, "num": 200, "spacing": "log"}]},
    ),
}
CELLS = {
    "positive": [{"epsilon": 1.52, "mu": 1.21, "duration": 0.71}, {"epsilon": 3.37, "mu": 1.48, "duration": 0.46}],
    "double-negative": [
        {"epsilon": 1.83, "mu": 1.09, "duration": 0.52},
        {"epsilon": -2.64, "mu": -1.37, "branch": -1, "duration": 1.12},
    ],
}


@pytest.mark.parametrize("variant", sorted(SWEEPS))
def test_bench_sweeps_render_like_row_dicts(variant):
    payload = execute(parse_config(SWEEPS[variant]))
    assert len(payload["rows"]) == 200
    assert_renders_like_reference(payload)


def test_sweep_with_omega2_one_ulp_off_is_not_mirrored(monkeypatch):
    """omega2 is omega3's mirror only when their bits agree; else its own values are rendered."""
    real_scatter_grid = cli.scatter_grid

    def one_ulp_off(*args):
        omega2, omega3, R, T = real_scatter_grid(*args)
        omega2 = omega2.copy()
        omega2.flat[7] = np.nextafter(omega2.flat[7], math.inf)
        return omega2, omega3, R, T

    monkeypatch.setattr(cli, "scatter_grid", one_ulp_off)
    payload = execute(parse_config(SWEEPS["forward"]))
    rows = payload["rows"]
    assert rows[7]["omega2"] == np.nextafter(-rows[7]["omega3"], math.inf) != -rows[7]["omega3"]
    assert all(rows[i]["omega2"] == -rows[i]["omega3"] for i in range(len(rows)) if i != 7)
    assert_renders_like_reference(payload)


@pytest.mark.parametrize("kind", sorted(CELLS))
def test_bench_cascades_render_like_row_dicts(kind):
    config = {"command": "cascade", "timeline": CELLS[kind] * 100, "incident": INCIDENT, "floquet": True}
    payload = execute(parse_config(config))
    assert len(payload["trace"]["rows"]) == 399
    assert_renders_like_reference(payload)
