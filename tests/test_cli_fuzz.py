"""CLI fuzz: mutated configs exit 0, 2, 3 or 4, never with a traceback.

Each example takes a valid solve, sweep (at most 4 points), oracle (a
coarse tolerance and three ramp widths), cascade (at most 6 segments) or
verify config and applies one to three mutations: a key deleted, an
unknown key added, a number negated, or a value replaced by a wrong type,
a list or object, 0, a negative, +-1e+-300 or +-1e308.  A non-zero exit
must leave exactly one error record on stderr, exit-0 output must be
strict JSON, without NaN or Infinity, and no run may raise a numpy
RuntimeWarning.

Two more mutations run on their own, where each run exits 0 or 2: a
value nested deeper than the JSON decoder follows, in the config file or
in a ``--set`` value, and an ``output.path`` that is a directory, lies
under a regular file or lies in a missing directory.
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
    "oracle": {
        "command": "oracle",
        "media": MEDIA,
        "incident": INCIDENT,
        "oracle": {"tau": 0.1, "tol": 1e-6, "tau_list": [0.2, 0.1, 0.05]},
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


def run_cli(tmp_path_factory, config, *flags):
    """main on ``config`` (a document, or its JSON text) and ``flags``: exit code, stdout, stderr."""
    text = config if isinstance(config, str) else json.dumps(config)
    path = tmp_path_factory.mktemp("fuzz") / "config.json"
    path.write_text(text, encoding="utf-8")
    stdout, stderr = io.StringIO(), io.StringIO()
    # Numerical warnings are kept apart from what the CLI itself writes, and none may be raised.
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        code = main([str(path), "--no-timestamp", *flags])
    numpy_warnings = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not numpy_warnings, f"RuntimeWarning from {text[:1000]}: {numpy_warnings}"
    return code, stdout.getvalue(), stderr.getvalue()


def error_record(code, stdout, stderr):
    """The one error record a failed run leaves on stderr, with nothing on stdout."""
    assert stdout == ""
    lines = stderr.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error["code"] == code and error["type"] and error["message"]
    return error


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


DEEP = "[" * 100_000 + "]" * 100_000  # far beyond the decoder's recursion limit
MARKER = "deeply nested value"


@pytest.mark.parametrize("command", sorted(BASES))
def test_too_deeply_nested_values_exit_2(command, tmp_path_factory):
    @settings(
        max_examples=10,
        derandomize=True,
        deadline=None,
        database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(path=st.sampled_from(list(paths(BASES[command]))), via_set=st.booleans())
    def check(path, via_set):
        if via_set:
            dotted = ".".join(map(str, path))
            run = run_cli(tmp_path_factory, BASES[command], "--set", f"{dotted}={DEEP}")
            what = f"--set {dotted}"
        else:
            config = copy.deepcopy(BASES[command])
            parent = config
            for step in path[:-1]:
                parent = parent[step]
            parent[path[-1]] = MARKER
            run = run_cli(tmp_path_factory, json.dumps(config).replace(json.dumps(MARKER), DEEP))
            what = "config"
        assert run[0] == 2
        assert error_record(*run) == {
            "code": 2, "type": "ConfigError", "message": f"{what} is nested too deeply to decode"
        }

    check()


@pytest.mark.parametrize("command", sorted(BASES))
@pytest.mark.parametrize("where", ["directory", "under-a-file", "missing-directory"])
def test_output_paths_that_cannot_be_opened_as_given(command, where, tmp_path_factory):
    root = tmp_path_factory.mktemp("out")
    (root / "file").write_text("", encoding="utf-8")
    target = {"directory": root, "under-a-file": root / "file" / "out.json", "missing-directory": root / "a" / "b.json"}
    config = dict(BASES[command], output={"path": str(target[where])})
    code, stdout, stderr = run_cli(tmp_path_factory, config)
    assert code in (0, 2)
    if code == 0:
        assert stdout == stderr == ""
        assert strict_json(target[where].read_text(encoding="utf-8"))["command"] == command
    else:
        assert error_record(code, stdout, stderr)["type"] in ("IsADirectoryError", "NotADirectoryError", "FileExistsError")


@pytest.mark.parametrize("command", sorted(BASES))
def test_base_configs_run(command, tmp_path_factory):
    code, stdout, _ = run_cli(tmp_path_factory, BASES[command])
    assert code == 0 and strict_json(stdout)["command"] == command
