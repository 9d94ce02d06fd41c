"""Record the CLI golden corpus: exit code, stderr and output of fixed configs.

    PYTHONPATH=src python tests/golden/record.py

runs every case below through ``timescatter.cli.main`` in-process and
writes ``cases.json`` and ``out/`` next to this file; tests/test_golden.py
replays them.  Record only from a tree whose behaviour is the reference:
a corpus recorded from changed code checks nothing.

The cases are one config per ``ConfigError`` the CLI raises, a few with
two faults that pin the order of the checks, each scatter check on the
solve and sweep paths, and small runs of every command whose JSON and
CSV output must stay byte-identical.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent

INCIDENT = {"amplitude": [0, 1, 0], "omega1": 1.0, "k": [1, 0, 0]}
SOLVE = {
    "command": "solve",
    "media": {"before": {"epsilon": 1, "mu": 1}, "after": {"epsilon": 4, "mu": 1}},
    "incident": INCIDENT,
}
AXIS = {"path": "after.epsilon", "values": [1.0, 2.0, 4.0]}
SWEEP = dict(SOLVE, command="sweep", sweep={"axes": [AXIS]})
ORACLE = dict(SOLVE, command="oracle", oracle={"tau": 0.05})
TIMELINE = [
    {"epsilon": 1, "mu": 1, "duration": 1.0},
    {"epsilon": 4, "mu": 1, "duration": 0.7},
    {"epsilon": 2.25, "mu": 1, "duration": 0.4},
]
CASCADE = {"command": "cascade", "timeline": TIMELINE, "incident": INCIDENT}
TERMS = [{"amplitude": [1.0], "omega": 1.0}, {"amplitude": [-1.0], "omega": 2.0}]
VERIFY = {"command": "verify", "verify": {"terms": TERMS}}


def edit(base, *changes):
    """A deep copy of ``base`` with (dotted path, value) changes; value DELETE removes the key."""
    config = copy.deepcopy(base)
    for path, value in changes:
        *parents, last = path.split(".")
        target = config
        for key in parents:
            target = target[int(key)] if isinstance(target, list) else target[key]
        if isinstance(target, list):
            target[int(last)] = value
        elif value is DELETE:
            del target[last]
        else:
            target[last] = value
    return config


DELETE = object()
NAN, INF = float("nan"), float("inf")


def axis(**fields):
    return edit(SWEEP, ("sweep.axes", [fields]))


def segment(index, **fields):
    return edit(CASCADE, (f"timeline.{index}", fields))


# (id, config object or {"text": raw text}, extra CLI arguments)
CONFIG_ERRORS = [
    # unknown keys, at every object that checks them
    ("unknown-root", edit(SOLVE, ("bogus", 1)), []),
    ("unknown-media", edit(SOLVE, ("media.during", {})), []),
    ("unknown-medium", edit(SOLVE, ("media.before.huh", 2)), []),
    ("unknown-incident", edit(SOLVE, ("incident.phase", 0)), []),
    ("unknown-convention", edit(SOLVE, ("convention", {"sense": 1})), []),
    ("unknown-oracle", edit(ORACLE, ("oracle.steps", 3)), []),
    ("unknown-sweep", edit(SWEEP, ("sweep.grid", 3)), []),
    ("unknown-axis", axis(path="after.mu", values=[1.0], step=2), []),
    ("unknown-segment", segment(1, epsilon=4, mu=1, duration=1.0, loss=0), []),
    ("unknown-verify", edit(VERIFY, ("verify.mode", "x")), []),
    ("unknown-term", edit(VERIFY, ("verify.terms.0", {"amplitude": [1.0], "omega": 1.0, "x": 0})), []),
    ("unknown-output", edit(SOLVE, ("output", {"indent": 2})), []),
    # missing required keys
    ("missing-command", edit(SOLVE, ("command", DELETE)), []),
    ("missing-media-after", edit(SOLVE, ("media.after", DELETE)), []),
    ("missing-epsilon", edit(SOLVE, ("media.before", {"mu": 1})), []),
    ("missing-mu", edit(SOLVE, ("media.after", {"epsilon": 4})), []),
    ("missing-amplitude", edit(SOLVE, ("incident.amplitude", DELETE)), []),
    ("missing-omega1", edit(SOLVE, ("incident.omega1", DELETE)), []),
    ("missing-k", edit(SOLVE, ("incident.k", DELETE)), []),
    ("missing-axis-path", axis(values=[1.0]), []),
    ("missing-axis-start", axis(path="after.mu", stop=2.0, num=3), []),
    ("missing-axis-stop", axis(path="after.mu", start=1.0, num=3), []),
    ("missing-axis-num", axis(path="after.mu", start=1.0, stop=2.0), []),
    ("missing-sweep-axes", edit(SWEEP, ("sweep", {})), []),
    ("missing-duration", segment(0, epsilon=1, mu=1), []),
    ("missing-segment-mu", segment(0, epsilon=1, duration=1.0), []),
    ("missing-verify-terms", edit(VERIFY, ("verify", {"tol": 1e-9})), []),
    ("missing-term-omega", edit(VERIFY, ("verify.terms.0", {"amplitude": [1.0]})), []),
    ("missing-term-amplitude", edit(VERIFY, ("verify.terms.1", {"omega": 2.0})), []),
    # numbers
    ("number-string", edit(SOLVE, ("t0", "x")), []),
    ("number-bool", edit(SOLVE, ("media.before.epsilon", True)), []),
    ("number-list", edit(SOLVE, ("incident.omega1", [1.0])), []),
    ("number-null", edit(SOLVE, ("media.after.mu", None)), []),
    ("number-nan", edit(SOLVE, ("t0", NAN)), []),
    ("number-inf", edit(SOLVE, ("media.after.epsilon", INF)), []),
    ("number-huge-int", edit(SOLVE, ("t0", 10**400)), []),
    ("number-k-component", edit(SOLVE, ("incident.k", [1, "0", 0])), []),
    ("number-axis-value", axis(path="after.mu", values=[1.0, "2"]), []),
    ("number-axis-start", axis(path="after.mu", start="1", stop=2.0, num=3), []),
    ("number-duration", segment(0, epsilon=1, mu=1, duration="1"), []),
    ("number-term-omega", edit(VERIFY, ("verify.terms.0.omega", None)), []),
    ("number-tau-list", edit(ORACLE, ("oracle.tau_list", [0.1, "x", 0.01])), []),
    # media
    ("medium-not-object", edit(SOLVE, ("media.before", 5)), []),
    ("medium-branch", edit(SOLVE, ("media.after.branch", 2)), []),
    ("medium-sign", edit(SOLVE, ("media.before", {"epsilon": -1, "mu": 1})), []),
    ("medium-branch-positive", edit(SOLVE, ("media.after", {"epsilon": 4, "mu": 1, "branch": -1})), []),
    ("medium-underflow", edit(SOLVE, ("media.after", {"epsilon": 1e-200, "mu": 1e-200})), []),
    ("media-not-object", edit(SOLVE, ("media", [])), []),
    # incident
    ("incident-not-object", edit(SOLVE, ("incident", [])), []),
    ("complex-string", edit(SOLVE, ("incident.amplitude", [0, "x", 0])), []),
    ("complex-short-pair", edit(SOLVE, ("incident.amplitude", [0, [1], 0])), []),
    ("complex-bad-object", edit(SOLVE, ("incident.amplitude", [0, {"re": 1, "zz": 2}, 0])), []),
    ("complex-pair-part", edit(SOLVE, ("incident.amplitude", [0, [1, NAN], 0])), []),
    ("complex-object-part", edit(SOLVE, ("incident.amplitude", [0, {"im": "1"}, 0])), []),
    ("amplitude-length", edit(SOLVE, ("incident.amplitude", [0, 1])), []),
    ("amplitude-not-list", edit(SOLVE, ("incident.amplitude", 1)), []),
    ("amplitude-zero", edit(SOLVE, ("incident.amplitude", [0, [0, 0], {"re": 0}])), []),
    ("omega1-zero", edit(SOLVE, ("incident.omega1", 0)), []),
    ("omega1-negative", edit(SOLVE, ("incident.omega1", -1.0)), []),
    ("k-length", edit(SOLVE, ("incident.k", [1, 0])), []),
    ("k-zero", edit(SOLVE, ("incident.k", [0, 0, 0])), []),
    ("k-not-unit", edit(SOLVE, ("incident.k", [2, 0, 0])), []),
    # convention
    ("convention-not-object", edit(SOLVE, ("convention", "forward")), []),
    ("convention-transmitted", edit(SOLVE, ("convention", {"transmitted": "sideways"})), []),
    ("convention-reflected", edit(SOLVE, ("convention", {"reflected": 0})), []),
    # sweep axes
    ("sweep-not-object", edit(SWEEP, ("sweep", [AXIS])), []),
    ("axes-empty", edit(SWEEP, ("sweep.axes", [])), []),
    ("axes-not-list", edit(SWEEP, ("sweep.axes", AXIS)), []),
    ("axis-not-object", edit(SWEEP, ("sweep.axes", [5])), []),
    ("axis-path", axis(path="after.sigma", values=[1.0]), []),
    ("axis-values-empty", axis(path="after.mu", values=[]), []),
    ("axis-num-zero", axis(path="after.mu", start=1.0, stop=2.0, num=0), []),
    ("axis-num-float", axis(path="after.mu", start=1.0, stop=2.0, num=2.5), []),
    ("axis-spacing", axis(path="after.mu", start=1.0, stop=2.0, num=3, spacing="cubic"), []),
    ("axis-log-negative", axis(path="after.mu", start=-1.0, stop=2.0, num=3, spacing="log"), []),
    ("axis-omega1-values", axis(path="incident.omega1", values=[1.0, -1.0]), []),
    ("axis-omega1-range", axis(path="incident.omega1", start=-1.0, stop=1.0, num=3), []),
    # timeline
    ("timeline-empty", edit(CASCADE, ("timeline", [])), []),
    ("timeline-not-list", edit(CASCADE, ("timeline", TIMELINE[0])), []),
    ("segment-not-object", edit(CASCADE, ("timeline.1", 5)), []),
    ("segment-duration-negative", segment(2, epsilon=2.25, mu=1, duration=-0.1), []),
    ("segment-medium", segment(1, epsilon=-4, mu=1, duration=0.7), []),
    ("segment-branch", segment(1, epsilon=4, mu=1, branch=0, duration=0.7), []),
    ("floquet-not-bool", edit(CASCADE, ("floquet", "yes")), []),
    # verify
    ("verify-not-object", edit(VERIFY, ("verify", TERMS)), []),
    ("terms-empty", edit(VERIFY, ("verify.terms", [])), []),
    ("term-not-object", edit(VERIFY, ("verify.terms.1", 5)), []),
    ("term-amplitude-empty", edit(VERIFY, ("verify.terms.0.amplitude", [])), []),
    ("term-amplitude-component", edit(VERIFY, ("verify.terms.0.amplitude", ["a"])), []),
    ("term-lengths", edit(VERIFY, ("verify.terms.1.amplitude", [1.0, 2.0])), []),
    ("verify-tol", edit(VERIFY, ("verify.tol", 0)), []),
    # oracle
    ("oracle-not-object", edit(ORACLE, ("oracle", 0.1)), []),
    ("oracle-tau", edit(ORACLE, ("oracle.tau", 0)), []),
    ("oracle-tol", edit(ORACLE, ("oracle.tol", -1)), []),
    ("tau-list-short", edit(ORACLE, ("oracle.tau_list", [0.1, 0.01])), []),
    ("tau-list-not-list", edit(ORACLE, ("oracle.tau_list", 0.1)), []),
    ("tau-list-positive", edit(ORACLE, ("oracle.tau_list", [0.1, 0.0, -0.1])), []),
    ("tau-list-decreasing", edit(ORACLE, ("oracle.tau_list", [0.001, 0.01, 0.1])), []),
    # output
    ("output-not-object", edit(SOLVE, ("output", "out.json")), []),
    ("output-path", edit(SOLVE, ("output", {"path": 5})), []),
    ("output-format", edit(SOLVE, ("output", {"format": "xml"})), []),
    ("output-timestamp", edit(SOLVE, ("output", {"timestamp": "no"})), []),
    # command and the sections it needs
    ("command-unknown", edit(SOLVE, ("command", "nope")), []),
    ("command-list", edit(SOLVE, ("command", ["solve"])), []),
    ("solve-needs-media", edit(SOLVE, ("media", DELETE)), []),
    ("oracle-needs-incident", edit(ORACLE, ("incident", DELETE)), []),
    ("sweep-needs-sweep", edit(SWEEP, ("sweep", DELETE)), []),
    ("cascade-needs-incident", edit(CASCADE, ("incident", DELETE)), []),
    ("cascade-needs-timeline", edit(CASCADE, ("timeline", DELETE)), []),
    ("verify-needs-terms", {"command": "verify"}, []),
    # the document and the command line
    ("root-not-object", {"text": "[1, 2]"}, []),
    ("invalid-json", {"text": "{not json"}, []),
    ("set-without-equals", SOLVE, ["--set", "media.after.epsilon"]),
    ("set-bad-medium", SOLVE, ["--set", "media.after.epsilon=-4"]),
    ("set-string-number", SOLVE, ["--set", "incident.omega1=abc"]),
    ("set-replaces-object", SOLVE, ["--set", "media.before=3"]),
    ("format-flag-unknown-key", edit(SOLVE, ("output", {"fmt": 1})), ["--format", "csv"]),
]

# Two faults in one config: the first check in the parser's order decides.
CHECK_ORDER = [
    ("order-unknown-before-command", edit(SOLVE, ("command", DELETE), ("bogus", 1)), []),
    ("order-command-before-media", edit(SOLVE, ("command", "nope"), ("media", 5)), []),
    ("order-media-before-incident", edit(SOLVE, ("media.before.mu", "x"), ("incident", 5)), []),
    ("order-before-medium-before-after-key", edit(SOLVE, ("media.before.branch", 3), ("media.after", DELETE)), []),
    ("order-amplitude-zero-before-omega1", edit(SOLVE, ("incident.amplitude", [0, 0, 0]), ("incident.omega1", -1)), []),
    ("order-segment-medium-before-duration", segment(1, epsilon=-4, mu=1, duration=-1.0), []),
    ("order-segment-medium-before-missing-duration", segment(1, epsilon=4, mu=-1), []),
    ("order-timeline-before-floquet", edit(CASCADE, ("timeline.0", 5), ("floquet", 1)), []),
    ("order-oracle-tau-before-tol", edit(ORACLE, ("oracle", {"tau": -1, "tol": -1})), []),
    ("order-verify-terms-before-tol", edit(VERIFY, ("verify.terms", []), ("verify.tol", -1)), []),
    ("order-sections-before-required", edit(SWEEP, ("sweep", DELETE), ("output", {"format": "xml"})), []),
    ("order-sweep-needs-media-first", edit(SWEEP, ("media", DELETE), ("incident", DELETE), ("sweep", DELETE)), []),
    ("order-sweep-needs-incident-before-sweep", edit(SWEEP, ("incident", DELETE), ("sweep", DELETE)), []),
    ("order-solve-needs-media-first", edit(SOLVE, ("media", DELETE), ("incident", DELETE)), []),
    ("order-oracle-needs-media-first", edit(ORACLE, ("media", DELETE), ("incident", DELETE)), []),
    ("order-cascade-needs-incident-first", edit(CASCADE, ("incident", DELETE), ("timeline", DELETE)), []),
    ("order-axis-values-ignore-range", axis(path="after.mu", values=[2.0], start="x", num=-1), ["--no-timestamp"]),
    ("order-axis-path-before-values", axis(path="x", values=[]), []),
    ("order-axis-values-before-omega1", axis(path="incident.omega1", values=[-1.0, "x"]), []),
    ("order-terms-item-before-lengths", edit(VERIFY, ("verify.terms.1", {"amplitude": [1, 2], "omega": "x"})), []),
]

# Each scatter check on the solve and on the sweep path.
_OVERFLOW = edit(SOLVE, ("media.after", {"epsilon": 1e200, "mu": 1e200}))
_TILTED = edit(SOLVE, ("incident.amplitude", [1, 1, 0]))
_UNDERFLOW = edit(
    SOLVE,
    ("media", {"before": {"epsilon": 1e-150, "mu": 1e-150}, "after": {"epsilon": 1e150, "mu": 1e150}}),
    ("incident.omega1", 1e-30),
)
_DEGENERATE = edit(SOLVE, ("media.after", {"epsilon": 2, "mu": 2}), ("convention", {"reflected": "positive"}))
_NO_SOLUTION = edit(SOLVE, ("convention", {"reflected": "positive"}))
_NON_FINITE = edit(SOLVE, ("media", {"before": {"epsilon": 1e200, "mu": 1e-200}, "after": {"epsilon": 1e-200, "mu": 1e200}}))
_NO_TIMESTAMP = ["--no-timestamp"]


def as_sweep(config, path, values):
    return edit(config, ("command", "sweep"), ("sweep", {"axes": [{"path": path, "values": values}]}))


SCATTER_CHECKS = [
    ("solve-speed-overflow", _OVERFLOW, _NO_TIMESTAMP),
    ("sweep-speed-overflow", as_sweep(edit(SOLVE, ("media.after.epsilon", 1e200)), "after.mu", [1.0, 1e200]), _NO_TIMESTAMP),
    ("solve-before-speed-overflow", edit(SOLVE, ("media.before", {"epsilon": 1e200, "mu": 1e200})), _NO_TIMESTAMP),
    ("sweep-before-speed-overflow", as_sweep(
        edit(SOLVE, ("media.before.epsilon", 1e200)), "before.mu", [1.0, 1e200, 2.0]
    ), _NO_TIMESTAMP),
    ("solve-not-transversal", _TILTED, _NO_TIMESTAMP),
    ("sweep-not-transversal", as_sweep(_TILTED, "after.epsilon", [2.0, 4.0]), _NO_TIMESTAMP),
    ("solve-omega3-underflow", _UNDERFLOW, _NO_TIMESTAMP),
    ("sweep-omega3-underflow", as_sweep(_UNDERFLOW, "after.mu", [1e150]), _NO_TIMESTAMP),
    ("solve-degenerate", _DEGENERATE, _NO_TIMESTAMP),
    ("sweep-degenerate", as_sweep(_DEGENERATE, "after.epsilon", [2.0]), _NO_TIMESTAMP),
    ("solve-no-solution", _NO_SOLUTION, _NO_TIMESTAMP),
    ("sweep-no-solution", as_sweep(_DEGENERATE, "after.epsilon", [2.0, 4.0, -1.0]), _NO_TIMESTAMP),
    ("solve-non-finite-amplitude", _NON_FINITE, _NO_TIMESTAMP),
    ("sweep-non-finite-amplitude", as_sweep(_NON_FINITE, "after.mu", [1e200]), _NO_TIMESTAMP),
    ("solve-speed-ratio-overflow", edit(
        SOLVE, ("media", {"before": {"epsilon": 1e154, "mu": 1e154}, "after": {"epsilon": 2.3e-162, "mu": 2.3e-162}})
    ), _NO_TIMESTAMP),
    ("solve-scattered-phase-overflow", edit(
        SOLVE, ("media.after", {"epsilon": 1e-100, "mu": 1e-100}), ("incident.omega1", 1e100), ("t0", 1e110)
    ), _NO_TIMESTAMP),
    ("sweep-medium-crossing-zero", axis(path="after.epsilon", start=2.0, stop=-2.0, num=9), _NO_TIMESTAMP),
    ("sweep-branch-crossing", as_sweep(
        edit(SOLVE, ("media.after", {"epsilon": -1, "mu": -1, "branch": -1})), "after.mu", [-1.0, 1.0]
    ), _NO_TIMESTAMP),
]

_DOUBLE_NEGATIVE = edit(SOLVE, ("media.after", {"epsilon": -2.0, "mu": -1.5, "branch": -1}))
_GRID_AXES = [
    {"path": "after.epsilon", "start": 0.5, "stop": 8.0, "num": 4, "spacing": "log"},
    {"path": "incident.omega1", "values": [0.5, 2.0]},
]
_CELL = [{"epsilon": 1, "mu": 1, "duration": 1.0}, {"epsilon": 4, "mu": 1, "duration": 0.7}]
_DN_CELL = [{"epsilon": 1, "mu": 1, "duration": 0.5}, {"epsilon": -2, "mu": -1, "branch": -1, "duration": 0.3}]
_GAP_CELL = [{"epsilon": 1, "mu": 1, "duration": 2.0}, {"epsilon": 9, "mu": 1, "duration": 1.5}]
_CSV = ["--no-timestamp", "--format", "csv"]
# The oracle benchmark's regime: tau = 1e-3 periods with a tau_list, an oblique k,
# an elliptic polarization and a nonzero t0, so the corpus pins the integrator's bits.
_OBLIQUE = {"amplitude": [[-0.8, -0.24], [0.6, 0.18], [0, 0.5]], "omega1": 1.02, "k": [0.6, 0.8, 0]}
_ORACLE_BENCH = edit(
    ORACLE, ("media.before", {"epsilon": 1.05, "mu": 1.02}), ("incident", _OBLIQUE),
    ("oracle", {"tau": 1e-3, "tau_list": [0.1, 0.01, 0.001]}),
)
# The solve benchmark's regime: random media (some double-negative), either
# convention and a nonzero t0, so the corpus pins the residuals and the B amplitudes.
_SOLVE_BENCH = edit(
    SOLVE, ("media", {"before": {"epsilon": 1.7, "mu": 0.6}, "after": {"epsilon": 3.1, "mu": 2.2}}),
    ("incident", _OBLIQUE), ("t0", 0.43),
)
_SOLVE_DOUBLE_NEGATIVE = edit(
    _SOLVE_BENCH, ("media.after", {"epsilon": -2.3, "mu": -0.8, "branch": -1}), ("t0", -0.71),
    ("convention", {"transmitted": "backward"}),
)
_SOLVE_FROM_DOUBLE_NEGATIVE = edit(
    _SOLVE_BENCH, ("media", {"before": {"epsilon": -1.4, "mu": -3.0, "branch": -1}, "after": {"epsilon": 0.3, "mu": 5.2}}),
    ("t0", 0.93), ("convention", {"transmitted": "backward"}),
)

OUTPUTS = [
    ("out-solve", SOLVE, _NO_TIMESTAMP),
    ("out-solve-csv", SOLVE, _CSV),
    ("out-solve-t0-complex", edit(SOLVE, ("t0", 0.3), ("incident.amplitude", [0, [1, 2], {"re": 0.5}])), _NO_TIMESTAMP),
    ("out-solve-backward-double-negative", edit(_DOUBLE_NEGATIVE, ("convention", {"transmitted": "backward"})), _NO_TIMESTAMP),
    ("out-solve-matched", edit(SOLVE, ("media.after", {"epsilon": 2, "mu": 2})), _NO_TIMESTAMP),
    ("out-solve-oblique", _SOLVE_BENCH, _NO_TIMESTAMP),
    ("out-solve-oblique-csv", _SOLVE_BENCH, _CSV),
    ("out-solve-oblique-double-negative-backward", _SOLVE_DOUBLE_NEGATIVE, _NO_TIMESTAMP),
    ("out-solve-oblique-from-double-negative-csv", _SOLVE_FROM_DOUBLE_NEGATIVE, _CSV),
    ("out-sweep", edit(SWEEP, ("sweep.axes", _GRID_AXES)), _NO_TIMESTAMP),
    ("out-sweep-csv", edit(SWEEP, ("sweep.axes", _GRID_AXES)), _CSV),
    ("out-sweep-double-negative", as_sweep(_DOUBLE_NEGATIVE, "after.mu", [-0.5, -3.0]), _NO_TIMESTAMP),
    ("out-sweep-intermediate-media", edit(
        SWEEP, ("sweep.axes", [{"path": "before.epsilon", "values": [-2, -3]}, {"path": "before.mu", "values": [-1, -4]}])
    ), _NO_TIMESTAMP),
    ("out-oracle", ORACLE, _NO_TIMESTAMP),
    ("out-oracle-tau-list", edit(ORACLE, ("oracle", {"tau": 0.05, "tau_list": [0.2, 0.1, 0.05]})), _NO_TIMESTAMP),
    ("out-oracle-tau-list-csv", edit(ORACLE, ("oracle", {"tau": 0.05, "tau_list": [0.2, 0.1, 0.05]})), _CSV),
    ("out-oracle-mu-up-oblique", edit(
        _ORACLE_BENCH, ("media.after", {"epsilon": 1.05, "mu": 4.1}), ("t0", 0.37)
    ), _NO_TIMESTAMP),
    ("out-oracle-both-up-oblique", edit(
        _ORACLE_BENCH, ("media.after", {"epsilon": 2.6, "mu": 2.0}), ("t0", -0.85)
    ), _NO_TIMESTAMP),
    ("out-oracle-both-up-oblique-csv", edit(
        _ORACLE_BENCH, ("media.after", {"epsilon": 2.6, "mu": 2.0}), ("t0", -0.85)
    ), _CSV),
    ("out-oracle-eps-down-oblique-csv", edit(
        _ORACLE_BENCH, ("media.after", {"epsilon": 0.26, "mu": 1.02}), ("t0", 0.61)
    ), _CSV),
    ("out-cascade", CASCADE, _NO_TIMESTAMP),
    ("out-cascade-csv", CASCADE, _CSV),
    ("out-cascade-floquet", edit(CASCADE, ("timeline", _CELL * 3), ("floquet", True)), _NO_TIMESTAMP),
    ("out-cascade-floquet-double-negative", edit(CASCADE, ("timeline", _DN_CELL * 2), ("floquet", True)), _NO_TIMESTAMP),
    ("out-cascade-floquet-gap", edit(CASCADE, ("timeline", _GAP_CELL * 5), ("floquet", True)), _NO_TIMESTAMP),
    ("out-cascade-floquet-csv", edit(CASCADE, ("timeline", _CELL * 3), ("floquet", True)), _CSV),
    ("out-verify", VERIFY, _NO_TIMESTAMP),
    ("out-verify-csv", VERIFY, _CSV),
    ("out-verify-forced-equal", edit(VERIFY, ("verify.terms.1.omega", 1.0)), _NO_TIMESTAMP),
    ("out-verify-large-cancelling", edit(
        VERIFY, ("verify.terms", [{"amplitude": [1e200], "omega": 1.0}, {"amplitude": [-1e200], "omega": 1.0}])
    ), _NO_TIMESTAMP),
    ("out-set-override", SOLVE, ["--no-timestamp", "--set", "media.after={\"epsilon\": 9, \"mu\": 1}"]),
]

# Errors that parse_config itself raises for JSON text.
PARSE_TEXT = [
    ("parse-invalid-json", "{not json"),
    ("parse-root-not-object", "[1, 2]"),
    ("parse-root-string", '"solve"'),
]


def run_case(config, args, workdir):
    """Exit code, stderr and stdout of ``timescatter <config> <args>``."""
    path = workdir / "config.json"
    text = config["text"] if "text" in config else json.dumps(config)
    path.write_text(text, encoding="utf-8")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(stdout):
        code = main([str(path), *args])
    return code, stderr.getvalue(), stdout.getvalue()


def record():
    cases = []
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for group in (CONFIG_ERRORS, CHECK_ORDER, SCATTER_CHECKS, OUTPUTS):
            for case_id, config, args in group:
                code, stderr, output = run_case(config, args, workdir)
                case = {"id": case_id, "args": args, "exit": code, "stderr": stderr}
                case.update(config if "text" in config else {"config": config})
                if code == 0:
                    name = f"{case_id}.{'csv' if '--format' in args else 'json'}"
                    (HERE / "out" / name).write_bytes(output.encode("utf-8"))
                    case["output"] = name
                cases.append(case)
    for case_id, text in PARSE_TEXT:
        try:
            parse_config(text)
        except ConfigError as exc:
            cases.append({"id": case_id, "parse_text": text, "error": str(exc)})
    with open(HERE / "cases.json", "w", encoding="utf-8") as handle:
        json.dump(cases, handle, indent=1)
        handle.write("\n")
    return cases


if __name__ == "__main__":
    from timescatter.cli import ConfigError, main, parse_config

    (HERE / "out").mkdir(exist_ok=True)
    recorded = record()
    codes = sorted({case.get("exit") for case in recorded if "exit" in case})
    sys.stdout.write(f"recorded {len(recorded)} cases, exit codes {codes}\n")
