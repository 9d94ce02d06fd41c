"""Replay the CLI golden corpus (tests/golden): exit codes, error records and outputs.

Every error case must give the recorded exit code and stderr byte for
byte, and every run the recorded JSON or CSV.  The one exception is the
cascade ``floquet`` block: the corpus predates the eigenvalue step that
takes det = 1 for a closed cell, so that block is compared to 1e-12
relative and the rest of the output byte for byte.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from timescatter.cli import ConfigError, main, parse_config

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))
FLOQUET_RTOL = 1e-12


def run(case, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(case["text"] if "text" in case else json.dumps(case["config"]), encoding="utf-8")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(stdout):
        code = main([str(path), *case["args"]])
    return code, stderr.getvalue(), stdout.getvalue()


def assert_close(value, expected):
    if isinstance(expected, dict):
        assert value.keys() == expected.keys()
        for key in expected:
            assert_close(value[key], expected[key])
    elif isinstance(expected, list):
        assert len(value) == len(expected)
        for item, ref in zip(value, expected):
            assert_close(item, ref)
    elif isinstance(expected, float):
        assert value == pytest.approx(expected, rel=FLOQUET_RTOL, abs=FLOQUET_RTOL * 1e-3)
    else:
        assert value == expected


@pytest.mark.parametrize("case", [c for c in CASES if "parse_text" not in c], ids=lambda c: c["id"])
def test_cli_case(case, tmp_path):
    code, stderr, stdout = run(case, tmp_path)
    assert (code, stderr) == (case["exit"], case["stderr"])
    if code != 0:
        assert stdout == ""
        return
    expected = (GOLDEN / "out" / case["output"]).read_bytes().decode("utf-8")
    head, marker, _ = expected.partition('  "floquet": ')
    if not marker:
        assert stdout == expected
        return
    assert stdout.startswith(head)
    assert_close(json.loads(stdout)["floquet"], json.loads(expected)["floquet"])


@pytest.mark.parametrize("case", [c for c in CASES if "parse_text" in c], ids=lambda c: c["id"])
def test_parse_config_text(case):
    with pytest.raises(ConfigError) as error:
        parse_config(case["parse_text"])
    assert str(error.value) == case["error"]
