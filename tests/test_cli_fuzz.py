"""CLI fuzz: mutated configs exit 0, 2, 3 or 4, never with a traceback.

Each example takes a valid solve, sweep (at most 4 points), cascade (at
most 6 segments) or verify config and applies one to three mutations: a
key deleted, an unknown key added, a number negated, or a value replaced
by a wrong type, a list or object, 0, a negative, +-1e+-300 or +-1e308.  A
non-zero exit must leave exactly one error record on stderr, and exit-0
output must be strict JSON, without NaN or Infinity.
"""

import contextlib
import copy
import io
import json
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from timescatter.cli import main

INCIDENT = {"amplitude": [0, [1, 0.5], 0], "omega1": 1.0, "k": [1, 0, 0]}
MEDIA = {"before": {"epsilon": 1, "mu": 1}, "after": {"epsilon": 4, "mu": 1}}
BASES = {
    "solve": {"command": "solve", "media": MEDIA, "incident": INCIDENT, "t0": 0.2},
    "sweep": {
        "command": "sweep",
        "media": MEDIA,
        "incident": INCIDENT,
        "sweep": {
            "axes": [
                {"path": "after.epsilon", "values": [2.0, 9.0]},
                {"path": "incident.omega1", "start": 0.5, "stop": 2.0, "num": 2, "spacing": "log"},
            ]
        },
    },
    "cascade": {
        "command": "cascade",
        "timeline": [
            {"epsilon": 1, "mu": 1, "duration": 1.0},
            {"epsilon": 4, "mu": 1, "duration": 0.7},
            {"epsilon": -2, "mu": -1, "branch": -1, "duration": 0.3},
        ] * 2,
        "incident": INCIDENT,
        "floquet": True,
    },
    "verify": {
        "command": "verify",
        "verify": {
            "terms": [{"amplitude": [1.0, [0, 1]], "omega": 1.0}, {"amplitude": [-1.0, 2.0], "omega": 2.0}],
            "tol": 1e-9,
        },
    },
}
REPLACEMENTS = ["x", True, None, [], [1.0], {}, {"re": 1}, 0, -1, -2.5, 1e300, -1e300, 1e-300, -1e-300, 1e308, -1e308]


def paths(node, prefix=()):
    """Every key path below the root of a JSON document."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield prefix + (key,)
        yield from paths(child, prefix + (key,))


@st.composite
def mutated(draw, base):
    config = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 3))):
        candidates = list(paths(config))
        if not candidates:
            break
        *parent_path, key = draw(st.sampled_from(candidates))
        parent = config
        for step in parent_path:
            parent = parent[step]
        kind = draw(st.sampled_from(["replace", "negate", "delete", "unknown"]))
        value = parent[key]
        if kind == "delete" and isinstance(parent, dict):
            del parent[key]
        elif kind == "unknown" and isinstance(value, dict):
            value["bogus"] = copy.deepcopy(draw(st.sampled_from(REPLACEMENTS)))
        elif kind == "negate" and isinstance(value, (int, float)) and not isinstance(value, bool):
            parent[key] = -value
        else:
            parent[key] = copy.deepcopy(draw(st.sampled_from(REPLACEMENTS)))
    return config


def strict_json(text):
    def reject(constant):
        raise ValueError(f"{constant} is not strict JSON")

    return json.loads(text, parse_constant=reject)


def run_cli(tmp_path_factory, config):
    path = tmp_path_factory.mktemp("fuzz") / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    stdout, stderr = io.StringIO(), io.StringIO()
    # Numerical warnings are kept apart from what the CLI itself writes.
    with warnings.catch_warnings(record=True), contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        code = main([str(path), "--no-timestamp"])
    return code, stdout.getvalue(), stderr.getvalue()


@pytest.mark.parametrize("command", sorted(BASES))
def test_mutated_configs_exit_cleanly(command, tmp_path_factory):
    @settings(
        max_examples=100,
        derandomize=True,
        deadline=None,
        database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(mutated(BASES[command]))
    def check(config):
        code, stdout, stderr = run_cli(tmp_path_factory, config)
        assert code in (0, 2, 3, 4)
        if code == 0:
            assert not stderr
            strict_json(stdout)
            return
        assert stdout == ""
        lines = stderr.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])["error"]
        assert error["code"] == code and error["type"] and error["message"]

    check()


@pytest.mark.parametrize("command", sorted(BASES))
def test_base_configs_run(command, tmp_path_factory):
    code, stdout, _ = run_cli(tmp_path_factory, BASES[command])
    assert code == 0 and strict_json(stdout)["command"] == command
