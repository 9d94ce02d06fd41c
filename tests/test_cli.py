"""Config parsing, command execution, serialization, and exit codes."""

import csv
import dataclasses
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import timescatter
import timescatter.cli as cli_module
import timescatter.oracle as oracle_module
from timescatter import (
    ConfigError,
    DomainError,
    FrequencyConvention,
    MediumState,
    NoSolutionError,
    PlaneWave,
    StiffnessError,
    TemporalProfile,
    coefficients,
    floquet_exponent,
    numeric_rt,
    scatter_interface,
)
from timescatter.cli import (
    OUTPUT_DIR_ENV,
    execute,
    main,
    parse_config,
    render_csv,
    render_json,
)


def make_config(**overrides):
    base = {
        "command": "solve",
        "media": {"before": {"epsilon": 1, "mu": 1}, "after": {"epsilon": 4, "mu": 1}},
        "incident": {"amplitude": [0, 1, 0], "omega1": 1.0, "k": [1, 0, 0]},
    }
    base.update(overrides)
    return json.dumps(base)


class TestParseConfig:
    def test_minimal_solve_defaults(self):
        config = parse_config(make_config())
        assert config.command == "solve"
        assert config.convention.transmitted == "forward"
        assert config.convention.reflected == "negative"
        assert config.oracle_tol == 1e-10
        assert config.output_format == "json"
        assert config.timestamp is True

    def test_negative_omega1_rejected(self):
        bad = make_config(
            incident={"amplitude": [0, 1, 0], "omega1": -1.0, "k": [1, 0, 0]}
        )
        with pytest.raises(ConfigError, match="incident.omega1"):
            parse_config(bad)

    def test_non_positive_tau_list_rejected(self):
        bad = make_config(command="oracle", oracle={"tau_list": [0.1, 0.0, -0.1]})
        with pytest.raises(ConfigError, match="tau_list.*> 0"):
            parse_config(bad)

    def test_increasing_tau_list_rejected(self):
        bad = make_config(command="oracle", oracle={"tau_list": [0.001, 0.01, 0.1]})
        with pytest.raises(ConfigError, match="tau_list.*strictly decreasing"):
            parse_config(bad)

    def test_non_positive_omega1_axis_rejected(self):
        for axis in (
            {"path": "incident.omega1", "values": [1.0, -1.0]},
            {"path": "incident.omega1", "start": -1.0, "stop": 1.0, "num": 3},
        ):
            bad = make_config(command="sweep", sweep={"axes": [axis]})
            with pytest.raises(ConfigError, match=r"axes\[0\]: incident.omega1 must be > 0"):
                parse_config(bad)

    def test_unknown_keys_listed(self):
        with pytest.raises(ConfigError, match="bogus"):
            parse_config(make_config(bogus=1))
        with pytest.raises(ConfigError, match="media.before"):
            parse_config(
                make_config(media={"before": {"epsilon": 1, "mu": 1, "huh": 2},
                                   "after": {"epsilon": 4, "mu": 1}})
            )

    def test_log_sweep_expansion(self):
        config = parse_config(
            make_config(
                command="sweep",
                sweep={"axes": [{"path": "after.epsilon", "start": 0.1, "stop": 10, "num": 10, "spacing": "log"}]},
            )
        )
        values = config.sweep_axes[0]["values"]
        assert len(values) == 10
        assert values[0] == pytest.approx(0.1)
        assert values[-1] == pytest.approx(10.0)
        ratios = [b / a for a, b in zip(values, values[1:])]
        assert all(r == pytest.approx(ratios[0], rel=1e-9) for r in ratios)

    def test_missing_required_sections(self):
        with pytest.raises(ConfigError, match="config.media"):
            parse_config(json.dumps({"command": "solve"}))
        with pytest.raises(ConfigError, match="config.timeline"):
            parse_config(json.dumps({
                "command": "cascade",
                "incident": {"amplitude": [0, 1, 0], "omega1": 1.0, "k": [1, 0, 0]},
            }))

    def test_complex_amplitude_forms(self):
        config = parse_config(
            make_config(
                incident={"amplitude": [[0, 0], {"re": 1, "im": 1}, 0], "omega1": 1.0, "k": [1, 0, 0]}
            )
        )
        assert config.incident.amplitude[1] == 1 + 1j

    def test_invalid_json(self):
        with pytest.raises(ConfigError, match="JSON"):
            parse_config("{not json")


class TestExecute:
    def test_solve_worked_example(self):
        payload = execute(parse_config(make_config()))
        result = payload["result"]
        assert result["R"] == pytest.approx(0.125, abs=1e-12)
        assert result["T"] == pytest.approx(0.375, abs=1e-12)
        assert result["omega3"] == 0.5
        assert result["boundary_residuals"]["res_E"] <= 1e-10
        assert payload["schema_version"] == 1

    def test_json_floats_round_trip_exactly(self):
        payload = execute(parse_config(make_config()))
        text = render_json(payload, timestamp=False)
        reread = json.loads(text)

        def compare(a, b):
            if isinstance(a, dict):
                assert set(a) == set(b)
                for key in a:
                    compare(a[key], b[key])
            elif isinstance(a, list):
                assert len(a) == len(b)
                for x, y in zip(a, b):
                    compare(x, y)
            elif isinstance(a, float):
                assert a == b  # bit-exact
            else:
                assert a == b

        compare(payload, reread)

    def test_deterministic_output(self):
        config = parse_config(make_config())
        first = render_json(execute(config), timestamp=False)
        second = render_json(execute(config), timestamp=False)
        assert first == second

    def test_sweep_rows_ordered_by_index(self):
        config = parse_config(
            make_config(
                command="sweep",
                sweep={"axes": [{"path": "after.epsilon", "values": [1.0, 2.0, 4.0]}]},
            )
        )
        payload = execute(config)
        assert [row["index"] for row in payload["rows"]] == [0, 1, 2]
        assert payload["rows"][2]["R"] == pytest.approx(0.125, abs=1e-12)

    def test_sweep_csv_shape(self):
        config = parse_config(
            make_config(
                command="sweep",
                sweep={"axes": [{"path": "after.epsilon", "values": [1.0, 4.0]}]},
            )
        )
        text = render_csv(execute(config), timestamp=False)
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["index", "after.epsilon", "omega2", "omega3", "R", "T", "energy_sum"]
        assert len(rows) == 3

    def test_oracle_command(self):
        config = parse_config(
            make_config(command="oracle", oracle={"tau": 0.02, "tol": 1e-9})
        )
        payload = execute(config)
        assert payload["result"]["R_error"] <= 1e-2
        assert payload["result"]["T_error"] <= 1e-2

    def test_oracle_convergence_table_as_csv(self):
        config = parse_config(
            make_config(
                command="oracle",
                oracle={"tau": 0.1, "tol": 1e-9, "tau_list": [0.5, 0.1, 0.02]},
                output={"format": "csv"},
            )
        )
        payload = execute(config)
        text = render_csv(payload, timestamp=False)
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["tau", "R_error", "T_error"]
        assert len(rows) == 4
        errors = [float(row[1]) for row in rows[1:]]
        assert errors == sorted(errors, reverse=True)

    def test_cascade_trace_as_csv(self):
        config = parse_config(
            json.dumps(
                {
                    "command": "cascade",
                    "timeline": [
                        {"epsilon": 1, "mu": 1, "duration": 0.5},
                        {"epsilon": 4, "mu": 1, "duration": 0.5},
                    ],
                    "incident": {"amplitude": [0, 1, 0], "omega1": 1.0, "k": [1, 0, 0]},
                    "output": {"format": "csv"},
                }
            )
        )
        text = render_csv(execute(config), timestamp=False)
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0][:4] == ["step", "kind", "index", "omega"]
        assert [row[1] for row in rows[1:]] == ["propagate", "interface", "propagate"]

    def test_cascade_command_with_floquet(self):
        config = parse_config(
            json.dumps(
                {
                    "command": "cascade",
                    "timeline": [
                        {"epsilon": 1, "mu": 1, "duration": 1.0},
                        {"epsilon": 4, "mu": 1, "duration": 0.7},
                    ],
                    "incident": {"amplitude": [0, 1, 0], "omega1": 1.0, "k": [1, 0, 0]},
                    "floquet": True,
                }
            )
        )
        payload = execute(config)
        assert payload["trace"]["rows"][0]["kind"] == "propagate"
        assert "floquet" in payload
        assert len(payload["floquet"]["eigenvalues"]) == 2

    @pytest.mark.parametrize(
        "second",
        [{"epsilon": 4, "mu": 1}, {"epsilon": -4, "mu": -1, "branch": -1}],
        ids=["positive", "double-negative"],
    )
    def test_cascade_floquet_record_equals_floquet_exponent(self, second):
        cell = [{"epsilon": 1, "mu": 1, "duration": 1.0}, dict(second, duration=0.7)]
        timeline = cell * 3 + [{"epsilon": 2.25, "mu": 1, "duration": 0.4}]
        incident = {"amplitude": [0, 1, 0], "omega1": 1.3, "k": [1, 0, 0]}
        config = parse_config(
            json.dumps({"command": "cascade", "timeline": timeline, "incident": incident, "floquet": True})
        )
        expected = floquet_exponent(config.timeline, config.incident.omega1)

        def pair(z):
            return {"re": z.real, "im": z.imag}

        assert execute(config)["floquet"] == {
            "exponents": [pair(e) for e in expected.exponents],
            "eigenvalues": [pair(e) for e in expected.eigenvalues],
            "eigenvalue_moduli": [abs(e) for e in expected.eigenvalues],
            "half_trace": pair(expected.half_trace),
            "momentum_gap": expected.momentum_gap,
            "period": expected.period,
        }

    def test_verify_command_non_cancelling(self):
        config = parse_config(
            json.dumps(
                {
                    "command": "verify",
                    "verify": {
                        "terms": [
                            {"amplitude": [1.0], "omega": 1.0},
                            {"amplitude": [-1.0], "omega": 2.0},
                        ]
                    },
                }
            )
        )
        payload = execute(config)
        assert payload["result"]["verdict"] == "non-cancelling"
        assert payload["result"]["residual"] > 0.5

    def test_verify_command_forced_equal(self):
        config = parse_config(
            json.dumps(
                {
                    "command": "verify",
                    "verify": {
                        "terms": [
                            {"amplitude": [1.0], "omega": 2.0},
                            {"amplitude": [-1.0], "omega": 2.0},
                        ]
                    },
                }
            )
        )
        payload = execute(config)
        assert payload["result"]["verdict"] == "cancelling-forced-equal"


class TestMain:
    def write_config(self, tmp_path, text):
        path = tmp_path / "config.json"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_solve_to_file(self, tmp_path, capsys):
        out = tmp_path / "result.json"
        cfg = self.write_config(tmp_path, make_config(output={"path": str(out)}))
        assert main([cfg]) == 0
        payload = json.loads(out.read_text())
        assert payload["result"]["R"] == pytest.approx(0.125)
        assert "generated_at" in payload

    def test_no_timestamp_flag_gives_byte_identical_runs(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        cfg = self.write_config(tmp_path, make_config())
        assert main([cfg, "--out", str(out1), "--no-timestamp"]) == 0
        assert main([cfg, "--out", str(out2), "--no-timestamp"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_stdout_when_no_path(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, make_config())
        assert main([cfg, "--no-timestamp"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "solve"

    def test_config_error_exit_2(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, json.dumps({"command": "nope"}))
        assert main([cfg]) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["error"]["code"] == 2

    @pytest.mark.parametrize("command", ["nope", ["solve"], {"solve": 1}])
    def test_unknown_command_names_the_commands(self, command):
        message = f"config.command: {command!r} not in ['solve', 'sweep', 'oracle', 'cascade', 'verify']"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config({"command": command})

    def test_bad_oracle_and_sweep_values_exit_2(self, tmp_path, capsys):
        for config in (
            make_config(command="oracle", oracle={"tau_list": [0.1, 0.0, -0.1]}),
            make_config(command="sweep", sweep={"axes": [{"path": "incident.omega1", "values": [1.0, -1.0]}]}),
        ):
            assert main([self.write_config(tmp_path, config)]) == 2
            error = json.loads(capsys.readouterr().err)
            assert error["error"]["type"] == "ConfigError"

    def test_missing_file_exit_2(self, capsys):
        assert main(["/does/not/exist.json"]) == 2

    def test_undecodable_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(b'{"command": "\xff"}')
        assert main([str(path)]) == 2
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "UnicodeDecodeError"

    def test_degenerate_case_exit_4(self, tmp_path, capsys):
        cfg = self.write_config(
            tmp_path,
            make_config(convention={"reflected": "positive"}),
        )
        assert main([cfg]) == 4
        error = json.loads(capsys.readouterr().err)
        assert error["error"]["type"] == "NoSolutionError"

    def test_numerical_error_exit_3(self, tmp_path, capsys):
        cfg = self.write_config(
            tmp_path,
            json.dumps(
                {
                    "command": "verify",
                    "verify": {
                        "terms": [
                            {"amplitude": [1.0], "omega": 1.0},
                            {"amplitude": [-1.0], "omega": 1.0 + 1e-12},
                        ]
                    },
                }
            ),
        )
        assert main([cfg]) == 3
        error = json.loads(capsys.readouterr().err)
        assert error["error"]["type"] == "ResolutionError"

    def test_set_override(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, make_config())
        assert main([cfg, "--set", "media.after.epsilon=1", "--set", "media.after.mu=1",
                     "--no-timestamp"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"]["R"] == 0.0

    def test_format_override_csv(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, make_config())
        assert main([cfg, "--format", "csv", "--no-timestamp"]) == 0
        text = capsys.readouterr().out
        header = text.splitlines()[0]
        assert "R" in header.split(",")

    def test_missing_output_directories_are_created(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, make_config())
        out = tmp_path / "a" / "b" / "result.json"
        assert main([cfg, "--out", str(out), "--no-timestamp"]) == 0
        assert main([cfg, "--no-timestamp"]) == 0
        assert out.read_text(encoding="utf-8") == capsys.readouterr().out

    def test_output_dir_env_redirect(self, tmp_path, monkeypatch):
        outdir = tmp_path / "redirected"
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(outdir))
        cfg = self.write_config(tmp_path, make_config(output={"path": "result.json"}))
        assert main([cfg]) == 0
        assert (outdir / "result.json").exists()


def run_module(args):
    """``python -m timescatter`` in a fresh process that imports the same copy of the package as the tests."""
    env = dict(os.environ)
    package_root = str(Path(timescatter.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "timescatter", *args], env=env, capture_output=True, text=True, timeout=120
    )


class TestSharedParser:
    """main parses its flags with one parser per process; no call leaves anything behind for the next."""

    def fresh_process(self, args):
        done = run_module(args)
        assert done.returncode == 0, done.stderr
        return done.stdout

    def test_flags_of_one_call_do_not_reach_the_next(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(make_config(), encoding="utf-8")
        out = tmp_path / "first.json"
        assert main([str(config_path), "--set", "media.after.epsilon=9", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["result"]["R"] == pytest.approx(1 / 9)
        capsys.readouterr()
        assert main([str(config_path), "--no-timestamp"]) == 0
        second = capsys.readouterr().out
        assert second == self.fresh_process([str(config_path), "--no-timestamp"])
        assert json.loads(second)["result"]["R"] == pytest.approx(0.125)

    def test_help_exits_0_and_an_unknown_flag_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as help_exit:
            main(["--help"])
        assert help_exit.value.code == 0
        assert capsys.readouterr().out.startswith("usage: timescatter ")
        config_path = tmp_path / "config.json"
        config_path.write_text(make_config(), encoding="utf-8")
        with pytest.raises(SystemExit) as bad_flag:
            main([str(config_path), "--bogus"])
        assert bad_flag.value.code == 2
        assert "unrecognized arguments: --bogus" in capsys.readouterr().err
        assert main([str(config_path), "--no-timestamp"]) == 0
        assert capsys.readouterr().out == self.fresh_process([str(config_path), "--no-timestamp"])


class TestResidualSamples:
    def test_samples_are_the_seeded_draw_and_read_only(self):
        samples = cli_module._residual_samples()
        assert samples is cli_module._residual_samples()
        np.testing.assert_array_equal(samples, np.random.default_rng(0).uniform(-10, 10, (100, 3)))
        assert not samples.flags.writeable
        with pytest.raises(ValueError):
            samples[0, 0] = 0.0


class TestSolveExtremeMagnitudes:
    def test_huge_coefficients_stay_finite(self, tmp_path, capsys):
        media = {"before": {"epsilon": 1e200, "mu": 1e-200}, "after": {"epsilon": 1, "mu": 1}}
        assert run_main(tmp_path, make_config(media=media)) == 0

        def non_finite(name):
            raise ValueError(f"output holds {name}")

        result = json.loads(capsys.readouterr().out, parse_constant=non_finite)["result"]
        R, T, _ = coefficients(MediumState(1e200, 1e-200), MediumState(1, 1))
        assert (result["R"], result["T"]) == (R, T) == (5e199, 5e199)

    def test_overflowing_amplitude_exits_3_before_any_wave_is_built(self, tmp_path, capsys):
        # eps-/eps+ overflows, so r and t are infinite.
        media = {"before": {"epsilon": 1e200, "mu": 1e-200}, "after": {"epsilon": 1e-200, "mu": 1e200}}
        assert run_main(tmp_path, make_config(media=media)) == 3
        error = json.loads(capsys.readouterr().err)["error"]
        assert (error["type"], error["message"]) == ("DomainError", "amplitude must be finite")
        assert run_main(tmp_path, sweep_config([{"path": "after.mu", "values": [1e200]}], media=media)) == 3
        assert json.loads(capsys.readouterr().err)["error"] == error

    def test_underflowing_frequency_exits_3_as_the_sweep_does(self, tmp_path, capsys):
        media = {"before": {"epsilon": 1e-150, "mu": 1e-150}, "after": {"epsilon": 1e150, "mu": 1e150}}
        incident = {"amplitude": [0, 1, 0], "omega1": 1e-30, "k": [1, 0, 0]}
        assert run_main(tmp_path, make_config(media=media, incident=incident)) == 3
        solve_error = json.loads(capsys.readouterr().err)["error"]
        axes = [{"path": "after.mu", "values": [1e150]}]
        assert run_main(tmp_path, sweep_config(axes, media=media, incident=incident)) == 3
        assert json.loads(capsys.readouterr().err)["error"] == solve_error
        assert solve_error["type"] == "ConsistencyError"
        assert solve_error["message"].startswith("transmitted wave-vector scale has modulus inf")

    def test_overflowing_speed_ratio_exits_3_as_the_sweep_does(self, tmp_path, capsys):
        # |v+/v-| = 4.5e161 / 1e-154 overflows; the infinite frequencies used to read as a degenerate interface.
        media = {"before": {"epsilon": 1e154, "mu": 1e154}, "after": {"epsilon": 2.3e-162, "mu": 2.3e-162}}
        assert run_main(tmp_path, make_config(media=media)) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err)["error"]
        assert error["type"] == "DomainError"
        assert error["message"] == "speed ratio |v+/v-| = |4.4989137945431964e+161 / 1e-154| exceeds the float range"
        assert run_main(tmp_path, sweep_config([{"path": "after.mu", "values": [2.3e-162]}], media=media)) == 3
        assert json.loads(capsys.readouterr().err)["error"] == error

    def test_overflowing_ramp_width_exits_3_naming_tau(self, tmp_path, capsys):
        # tau (in periods) times the period 2*pi/omega1 overflows to inf.
        incident = {"amplitude": [0, 1, 0], "omega1": 1e-10, "k": [1, 0, 0]}
        config = make_config(command="oracle", incident=incident, oracle={"tau": 1e300})
        assert run_main(tmp_path, config) == 3
        error = json.loads(capsys.readouterr().err)["error"]
        assert (error["type"], error["message"]) == ("DomainError", "ramp width tau must be finite and >= 0, got inf")


class TestExtremeIncidentVectors:
    """An incident amplitude or wave vector whose squares leave the float range: the same ratios, no numpy warning."""

    @pytest.mark.parametrize("size", [1e-170, 1e-200, 1e200, 1e300])
    def test_oracle_gives_unit_amplitude_r_and_t(self, tmp_path, capsys, size):
        assert run_main(tmp_path, make_config(command="oracle", oracle={"tau": 0.01})) == 0
        unit = json.loads(capsys.readouterr().out)["result"]
        incident = {"amplitude": [0, size, 0], "omega1": 1.0, "k": [1, 0, 0]}
        assert run_main(tmp_path, make_config(command="oracle", incident=incident, oracle={"tau": 0.01})) == 0
        captured = capsys.readouterr()
        result = json.loads(captured.out)["result"]
        assert captured.err == ""
        for key in ("R_numeric", "T_numeric"):
            assert result[key] == pytest.approx(unit[key], rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("size", [1e-200, 1e300])
    def test_cascade_output_equals_unit_amplitude(self, tmp_path, capsys, size):
        def config(amplitude):
            incident = {"amplitude": [0, amplitude, 0], "omega1": 1.0, "k": [1, 0, 0]}
            return json.dumps({"command": "cascade", "timeline": GAP_CELL * 2, "incident": incident, "floquet": True})

        assert run_main(tmp_path, config(1.0)) == 0
        unit = capsys.readouterr()
        assert run_main(tmp_path, config(size)) == 0
        assert capsys.readouterr() == unit

    def test_overflowing_wave_vector_norm_is_a_config_error(self, tmp_path, capsys):
        incident = {"amplitude": [0, 0, 1], "omega1": 1.0, "k": [1, -1e308, 0]}
        assert run_main(tmp_path, make_config(incident=incident)) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["message"] == "config.incident.k: must be a unit vector (|k| = inf)"


NAN, INF = float("nan"), float("inf")
VERIFY_TERMS = [{"amplitude": [1.0], "omega": 1.0}, {"amplitude": [-1.0], "omega": 2.0}]


class TestNonFiniteNumbers:
    @pytest.mark.parametrize(
        "config, path",
        [
            (make_config(command="oracle", oracle={"tau": NAN}), "config.oracle.tau"),
            (make_config(command="oracle", oracle={"tol": NAN}), "config.oracle.tol"),
            (make_config(command="oracle", oracle={"tol": INF}), "config.oracle.tol"),
            (make_config(t0=NAN), "config.t0"),
            (json.dumps({"command": "verify", "verify": {"terms": VERIFY_TERMS, "tol": NAN}}), "config.verify.tol"),
            (
                make_config(command="sweep", sweep={"axes": [{"path": "after.epsilon", "values": [1.0, NAN]}]}),
                "config.sweep.axes[0].values",
            ),
            (
                make_config(incident={"amplitude": [0, INF, 0], "omega1": 1.0, "k": [1, 0, 0]}),
                "config.incident.amplitude[1]",
            ),
        ],
        ids=[
            "oracle.tau-nan",
            "oracle.tol-nan",
            "oracle.tol-inf",
            "t0-nan",
            "verify.tol-nan",
            "sweep-axis-nan",
            "amplitude-inf",
        ],
    )
    def test_rejected_with_exit_2(self, tmp_path, capsys, config, path):
        config_path = tmp_path / "config.json"
        config_path.write_text(config, encoding="utf-8")
        assert main([str(config_path)]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "ConfigError"
        assert error["message"].startswith(f"{path}: expected a finite number")

    def test_integer_beyond_float_range_rejected(self):
        with pytest.raises(ConfigError, match="config.t0: expected a finite number"):
            parse_config(make_config(t0=10**400))


def sweep_config(axes, **overrides):
    return make_config(command="sweep", sweep={"axes": axes}, **overrides)


def per_point_rows(config):
    """The sweep computed point by point through scatter_interface."""
    paths = [axis["path"] for axis in config.sweep_axes]
    rows = []
    for values in itertools.product(*(axis["values"] for axis in config.sweep_axes)):
        assignment = dict(zip(paths, values))
        media = {"before": config.before, "after": config.after}
        omega1 = config.incident.omega1
        for path, value in assignment.items():
            owner, attr = path.split(".")
            if owner == "incident":
                omega1 = value
            else:
                media[owner] = dataclasses.replace(media[owner], **{attr: value})
        incident = dataclasses.replace(config.incident, omega1=omega1)
        profile = TemporalProfile.step(media["before"], media["after"], config.t0)
        result = scatter_interface(incident.plane_wave(media["before"]), profile, config.convention)
        rows.append(
            {
                **assignment,
                "omega2": result.omega2,
                "omega3": result.omega3,
                "R": result.R,
                "T": result.T,
                "energy_sum": result.energy_sum,
                "index": len(rows),
            }
        )
    return rows


def assert_rows_match(rows, expected):
    """Same keys in the same order; R, T and energy_sum within 4 ulp, the rest exact."""
    assert [list(row) for row in rows] == [list(row) for row in expected]
    tol = 4 * np.finfo(float).eps
    for row, ref in zip(rows, expected):
        for key in row:
            if key in ("R", "T", "energy_sum"):
                assert abs(row[key] - ref[key]) <= tol * abs(ref[key])
            else:
                assert row[key] == ref[key]


def run_main(tmp_path, config_text):
    config_path = tmp_path / "config.json"
    config_path.write_text(config_text, encoding="utf-8")
    return main([str(config_path), "--no-timestamp"])


LOG_AXES = [
    {"path": "after.epsilon", "start": 0.1, "stop": 30.0, "num": 23, "spacing": "log"},
    {"path": "after.mu", "start": 0.1, "stop": 30.0, "num": 11, "spacing": "log"},
]


class TestSweepGrid:
    @pytest.mark.parametrize(
        "config_text",
        [
            sweep_config(LOG_AXES),
            sweep_config(LOG_AXES, convention={"transmitted": "backward"}),
            sweep_config(
                [
                    {"path": "after.epsilon", "values": [-0.2, -1.0, -3.5, -12.0]},
                    {"path": "after.mu", "values": [-0.3, -2.0, -7.0]},
                ],
                media={"before": {"epsilon": 2.0, "mu": 1.5}, "after": {"epsilon": -1, "mu": -1, "branch": -1}},
            ),
            sweep_config(
                [
                    {"path": "before.epsilon", "start": 0.2, "stop": 9.0, "num": 13, "spacing": "log"},
                    {"path": "incident.omega1", "start": 0.1, "stop": 10.0, "num": 7, "spacing": "log"},
                ],
                t0=0.4,
                incident={"amplitude": [[0, 0], [0.3, 0.4], [1, -2]], "omega1": 1.0, "k": [1, 0, 0]},
            ),
        ],
        ids=["forward", "backward", "double-negative", "before.epsilon-x-omega1"],
    )
    def test_rows_match_per_point_solves(self, config_text):
        config = parse_config(config_text)
        assert_rows_match(execute(config)["rows"], per_point_rows(config))

    def test_output_byte_identical_between_runs(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(sweep_config(LOG_AXES), encoding="utf-8")
        outputs = [tmp_path / "a.json", tmp_path / "b.json"]
        for out in outputs:
            assert main([str(config_path), "--out", str(out), "--no-timestamp"]) == 0
        assert outputs[0].read_bytes() == outputs[1].read_bytes()

    def test_repeated_axis_path_last_wins(self):
        config = parse_config(
            sweep_config(
                [
                    {"path": "after.epsilon", "values": [1.0, 2.0]},
                    {"path": "after.mu", "values": [3.0]},
                    {"path": "after.epsilon", "values": [4.0, 9.0]},
                ]
            )
        )
        payload = execute(config)
        columns = ["index", "after.epsilon", "after.mu", "after.epsilon", "omega2", "omega3", "R", "T", "energy_sum"]
        assert payload["columns"] == columns
        rows = payload["rows"]
        assert [row["after.epsilon"] for row in rows] == [4.0, 9.0, 4.0, 9.0]
        assert list(rows[0]) == ["after.epsilon", "after.mu", "omega2", "omega3", "R", "T", "energy_sum", "index"]
        assert_rows_match(rows, per_point_rows(config))

    def expect_error(self, tmp_path, capsys, config_text, code, error_type, message):
        assert run_main(tmp_path, config_text) == code
        error = json.loads(capsys.readouterr().err)["error"]
        assert (error["type"], error["message"]) == (error_type, message)

    def test_after_epsilon_crossing_zero(self, tmp_path, capsys):
        axes = [{"path": "after.epsilon", "start": 2.0, "stop": -2.0, "num": 9}]
        with pytest.raises(DomainError) as point:
            MediumState(0.0, 1.0)
        self.expect_error(tmp_path, capsys, sweep_config(axes), 3, "DomainError", str(point.value))

    def test_positive_reflected_convention_fails_at_first_bad_point(self, tmp_path, capsys):
        # Point 0 meets the compatibility condition, point 1 does not and
        # point 2 is not a valid medium: point 1 decides the error.
        media = {"before": {"epsilon": 1, "mu": 1}, "after": {"epsilon": 2, "mu": 2}}
        conv = {"reflected": "positive"}
        axes = [{"path": "after.epsilon", "values": [2.0, 4.0, -1.0]}]
        wave = PlaneWave(np.array([0, 1, 0], dtype=complex), 1.0, np.array([1.0, 0, 0]), 1.0)
        with pytest.raises(NoSolutionError) as point:
            scatter_interface(
                wave,
                TemporalProfile.step(MediumState(1, 1), MediumState(4.0, 2.0)),
                FrequencyConvention(reflected="positive"),
            )
        config_text = sweep_config(axes, media=media, convention=conv)
        self.expect_error(tmp_path, capsys, config_text, 4, "NoSolutionError", str(point.value))

    def test_only_final_media_are_checked(self, tmp_path, capsys):
        # After the first axis alone, before = (-2, 1.2) is not a medium;
        # every point's final before medium is double-negative and valid.
        media = {"before": {"epsilon": 1.5, "mu": 1.2}, "after": {"epsilon": 1, "mu": 1}}
        axes = [{"path": "before.epsilon", "values": [-2, -3]}, {"path": "before.mu", "values": [-1, -4]}]
        config_text = sweep_config(axes, media=media)
        assert run_main(tmp_path, config_text) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [(row["before.epsilon"], row["before.mu"]) for row in rows] == [
            (-2.0, -1.0), (-2.0, -4.0), (-3.0, -1.0), (-3.0, -4.0)
        ]
        config = parse_config(config_text)
        for row in rows:
            before = MediumState(row["before.epsilon"], row["before.mu"])
            profile = TemporalProfile.step(before, config.after)
            result = scatter_interface(config.incident.plane_wave(before), profile)
            assert (row["omega3"], row["R"], row["T"]) == (result.omega3, result.R, result.T)

    def test_non_transversal_incident(self, tmp_path, capsys):
        incident = {"amplitude": [1, 1, 0], "omega1": 1.0, "k": [1, 0, 0]}
        axes = [{"path": "after.epsilon", "values": [2.0, 4.0]}]
        self.expect_error(
            tmp_path, capsys, sweep_config(axes, incident=incident), 3,
            "DomainError", "incident wave is not transversal (A.k != 0)",
        )

    def test_grid_too_large_for_memory_exits_3(self, tmp_path, capsys):
        # Four axes of 1e5 values each are 1e20 points; numpy rejects the shape before allocating it.
        paths = ["after.epsilon", "after.mu", "before.epsilon", "before.mu"]
        axes = [{"path": path, "start": 1.0, "stop": 2.0, "num": 100000} for path in paths]
        assert run_main(tmp_path, sweep_config(axes)) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err)["error"]
        assert error["type"] == "DomainError"
        assert error["message"].startswith("the sweep grid does not fit in memory: ")


class TestTableParser:
    def test_decoded_document_parses_like_its_text(self):
        document = json.loads(sweep_config(LOG_AXES, convention={"transmitted": "backward"}, t0=0.4))
        before = json.dumps(document)
        from_dict, from_text = parse_config(document), parse_config(json.dumps(document))
        assert json.dumps(document) == before
        assert from_dict.sweep_axes == from_text.sweep_axes
        assert dataclasses.replace(from_dict, sweep_axes=()) == dataclasses.replace(from_text, sweep_axes=())

    def test_root_must_be_an_object(self):
        for document in ([1, 2], 5, None, "[1, 2]"):
            with pytest.raises(ConfigError, match="^config root must be an object$"):
                parse_config(document)

    @pytest.mark.parametrize(
        "axis, message",
        [
            ({"path": "after.mu", "values": 5}, "config.sweep.axes[0].values: expected a list of numbers"),
            ({"path": "after.mu", "values": "12"}, "config.sweep.axes[0].values: expected a list of numbers"),
            (
                {"path": ["x"], "values": [1]},
                "config.sweep.axes[0].path: ['x'] not in "
                "['after.epsilon', 'after.mu', 'before.epsilon', 'before.mu', 'incident.omega1']",
            ),
            (
                {"path": {"after": "mu"}, "values": [1]},
                "config.sweep.axes[0].path: {'after': 'mu'} not in "
                "['after.epsilon', 'after.mu', 'before.epsilon', 'before.mu', 'incident.omega1']",
            ),
        ],
        ids=["values-number", "values-string", "path-list", "path-object"],
    )
    def test_malformed_sweep_axis_exits_2(self, tmp_path, capsys, axis, message):
        assert run_main(tmp_path, sweep_config([axis])) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert (error["type"], error["message"]) == ("ConfigError", message)

    @pytest.mark.parametrize("flags", [["--no-timestamp"], ["--format", "csv"], ["--out", "result.json"]])
    def test_output_flags_need_an_output_object(self, tmp_path, capsys, flags):
        config_path = tmp_path / "config.json"
        config_path.write_text(make_config(output="result.json"), encoding="utf-8")
        assert main([str(config_path), *flags]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert (error["type"], error["message"]) == ("ConfigError", "config.output: expected an object")


GAP_CELL = [{"epsilon": 1, "mu": 1, "duration": 2.0}, {"epsilon": 9, "mu": 1, "duration": 1.5}]


class TestCascadeFloquetUnitDeterminant:
    @pytest.mark.parametrize("repeats", [50, 200])
    def test_amplifying_timeline_exits_0(self, tmp_path, capsys, repeats):
        config = json.dumps(
            {"command": "cascade", "timeline": GAP_CELL * repeats, "incident": make_incident(), "floquet": True}
        )
        assert run_main(tmp_path, config) == 0
        floquet = json.loads(capsys.readouterr().out)["floquet"]
        lam1, lam2 = (complex(z["re"], z["im"]) for z in floquet["eigenvalues"])
        assert abs(lam1 * lam2 - 1.0) <= 1e-9
        assert floquet["momentum_gap"] is True

    def test_overflowing_timeline_exits_3(self, tmp_path, capsys):
        config = json.dumps(
            {"command": "cascade", "timeline": GAP_CELL * 2000, "incident": make_incident(), "floquet": True}
        )
        assert run_main(tmp_path, config) == 3
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "DomainError"
        assert error["message"] == (
            "cascade overflows at trace step 6679 (interface 3339): "
            "the amplitudes or the frequency exceed the float range"
        )

    def test_overflow_error_does_not_depend_on_floquet(self, tmp_path, capsys):
        records = []
        for floquet in (False, True):
            config = json.dumps(
                {"command": "cascade", "timeline": GAP_CELL * 3000, "incident": make_incident(), "floquet": floquet}
            )
            assert run_main(tmp_path, config) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            records.append(captured.err)
        assert records[0] == records[1]
        assert json.loads(records[0])["error"]["type"] == "DomainError"


def make_incident():
    return {"amplitude": [0, 1, 0], "omega1": 1.0, "k": [1, 0, 0]}


# Values a mutation puts in a segment: wrong types, ints, non-finite and huge numbers, a bad branch.
ODD_VALUES = [True, False, None, "1", [], 1, 4, -1, 2, 0.0, -0.0, -0.5, -1.0, math.nan, math.inf, -math.inf, 10**400, 1e308]


@st.composite
def mutated_timelines(draw):
    """Segments over a small pool of media (some double-negative, some integer-valued), then 0 to 3 mutations."""
    number = st.floats(0.2, 9.0) | st.integers(1, 9)
    pool = draw(st.lists(st.tuples(number, number, st.booleans()), min_size=1, max_size=3))
    timeline = []
    for eps, mu, negative in draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8)):
        segment = {"epsilon": -eps, "mu": -mu, "branch": -1} if negative else {"epsilon": eps, "mu": mu}
        timeline.append(dict(segment, duration=draw(st.floats(0.0, 3.0) | st.integers(0, 3))))
    for _ in range(draw(st.integers(0, 3))):
        index = draw(st.integers(0, len(timeline) - 1))
        segment = timeline[index]
        if not isinstance(segment, dict):
            continue
        key = draw(st.sampled_from(["epsilon", "mu", "branch", "duration"]))
        kind = draw(st.sampled_from(["value", "extra", "delete", "negate", "not-object"]))
        if kind == "value":
            segment[key] = draw(st.sampled_from(ODD_VALUES))
        elif kind == "extra":
            segment["loss"] = 0.0
        elif kind == "delete":
            segment.pop(key, None)
        elif kind == "negate":  # epsilon*mu <= 0, a branch that may not fit the medium, or a negative duration
            value = segment.get(key, 1)
            segment[key] = -value if isinstance(value, (int, float)) else value
        else:
            timeline[index] = draw(st.sampled_from([5, [], "segment"]))
    return timeline


def timeline_outcome(check, timeline):
    """repr of the parsed segments (so -0.0 and a bool branch show), or the error text."""
    try:
        return repr(check(timeline))
    except ConfigError as exc:
        return str(exc)


class TestTimelineRow:
    """The timeline row gives the per-segment walk's values or error text, taking plain segments directly."""

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(timeline=mutated_timelines())
    @example(timeline=[])
    @example(timeline={"epsilon": 1.0, "mu": 1.0, "duration": 1.0})
    @example(timeline=[{"epsilon": 1.0, "mu": 1.0, "duration": -0.0}, {"epsilon": 1.0, "mu": 1.0, "duration": 0.0}])
    @example(timeline=[{"epsilon": 1e200, "mu": 1e200, "duration": 1.0}, {"epsilon": 4.0, "mu": 1.0, "duration": 1.0}])
    @example(timeline=[{"epsilon": 4, "mu": 1, "duration": 1}, {"epsilon": 10**400, "mu": 1, "duration": 1}])
    @example(timeline=[{"epsilon": 4, "mu": 1, "duration": -1}])
    @example(timeline=[{"epsilon": 4, "mu": 1, "branch": True, "duration": 1}])
    @example(timeline=[{"epsilon": True, "mu": 1, "duration": 1}, {"epsilon": 4, "mu": 1, "duration": False}])
    @example(timeline=[{"epsilon": 4, "mu": 1, "duration": False}])
    def test_same_segments_or_message_as_the_segment_walk(self, timeline):
        config = {"command": "cascade", "timeline": timeline, "incident": make_incident()}
        parsed = timeline_outcome(lambda value: parse_config(dict(config, timeline=value)).timeline, timeline)
        assert parsed == timeline_outcome(lambda value: cli_module._SEGMENTS(value, "config.timeline"), timeline)

    @pytest.mark.parametrize("epsilon, mu, duration", [(4.0, 1.0, 0.5), (4, 1, 1)], ids=["floats", "ints"])
    def test_equal_media_share_one_medium_state(self, epsilon, mu, duration):
        # Integer-valued configs, as written by hand, take the direct path too.
        segments = [{"epsilon": epsilon, "mu": mu, "duration": duration}, {"epsilon": 1.0, "mu": 1.0, "duration": 0.5}] * 3
        timeline = parse_config({"command": "cascade", "timeline": segments, "incident": make_incident()}).timeline
        assert len({id(segment.medium) for segment in timeline}) == 2


def run_with_flags(tmp_path, config_text, *flags):
    config_path = tmp_path / "config.json"
    config_path.write_text(config_text, encoding="utf-8")
    return main([str(config_path), "--no-timestamp", *flags])


class TestSetOverride:
    @pytest.mark.parametrize(
        "setting, message",
        [
            ("output.format=csv", "config.output: expected an object"),
            ("media.after.epsilon.value=9", "config.media.after.epsilon: expected an object"),
        ],
    )
    def test_section_that_is_not_an_object_exits_2(self, tmp_path, capsys, setting, message):
        assert run_with_flags(tmp_path, make_config(output="result.json"), "--set", setting) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err)["error"]
        assert (error["type"], error["message"]) == ("ConfigError", message)

    def test_missing_section_is_created(self, tmp_path, capsys):
        assert run_with_flags(tmp_path, make_config(), "--set", "output.format=csv") == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 2 and "R" in rows[0]


class TestOverflowExits3:
    """Inputs whose output would hold NaN or Infinity fail with a DomainError that names the overflow."""

    def expect_domain_error(self, tmp_path, capsys, config_text, message):
        assert run_main(tmp_path, config_text) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err)["error"]
        assert error["type"] == "DomainError" and message in error["message"]

    def test_solve_phase_overflow(self, tmp_path, capsys):
        incident = {"amplitude": [0, 1, 0], "omega1": 1e308, "k": [1, 0, 0]}
        self.expect_domain_error(tmp_path, capsys, make_config(incident=incident), "boundary residuals overflow")

    def test_solve_field_norm_overflow(self, tmp_path, capsys):
        # The squares in the residual norms overflow, the norms do not: they are taken on rescaled jumps.
        incident = {"amplitude": [0, 1e200, 0], "omega1": 1.0, "k": [1, 0, 0]}
        assert run_main(tmp_path, make_config(incident=incident)) == 0
        residuals = json.loads(capsys.readouterr().out)["result"]["boundary_residuals"]
        assert residuals["res_E"] == pytest.approx(1.9e184, rel=0.01)
        assert residuals["res_H"] == pytest.approx(8.5e183, rel=0.01)

    def test_solve_jump_overflow(self, tmp_path, capsys):
        # eps- |A| = 1e350: the E jump itself leaves the float range; the H jump stays finite.
        media = {"before": {"epsilon": 1e150, "mu": 1}, "after": {"epsilon": 4e150, "mu": 1}}
        incident = {"amplitude": [0, 1e200, 0], "omega1": 1.0, "k": [1, 0, 0]}
        assert run_main(tmp_path, make_config(media=media, incident=incident)) == 3
        captured = capsys.readouterr()
        error = json.loads(captured.err)["error"]
        prefix = "boundary residuals overflow (res_E = nan, res_H = "
        assert captured.out == "" and error["type"] == "DomainError" and error["message"].startswith(prefix)
        assert math.isfinite(float(error["message"][len(prefix):].split(")")[0]))

    def test_verify_spread_overflow(self, tmp_path, capsys):
        terms = [{"amplitude": [1.0], "omega": 1e308}, {"amplitude": [2.0], "omega": -1e308}]
        config = json.dumps({"command": "verify", "verify": {"terms": terms}})
        self.expect_domain_error(tmp_path, capsys, config, "frequency spread 1e+308 - (-1e+308) overflows")

    def test_verify_vandermonde_overflow(self, tmp_path, capsys):
        terms = [{"amplitude": [1.0], "omega": k * 1e40} for k in range(10)]
        config = json.dumps({"command": "verify", "verify": {"terms": terms}})
        self.expect_domain_error(tmp_path, capsys, config, "Vandermonde product of 10 frequencies overflows")

    def test_cascade_period_overflow(self, tmp_path, capsys):
        timeline = [{"epsilon": 1, "mu": 1, "duration": 1e308}, {"epsilon": 4, "mu": 1, "duration": 1e308}]
        config = json.dumps({"command": "cascade", "timeline": timeline, "incident": make_incident(), "floquet": True})
        self.expect_domain_error(tmp_path, capsys, config, "cell total duration overflows")

    @pytest.mark.parametrize("command", ["cascade", "oracle"])
    def test_longitudinal_wave_exits_3_before_solving(self, tmp_path, capsys, command):
        incident = {"amplitude": [1, 0, 0], "omega1": 1.0, "k": [1, 0, 0]}
        timeline = [{"epsilon": 1, "mu": 1, "duration": 1.0}, {"epsilon": 4, "mu": 1, "duration": 1.0}]
        config = make_config(command=command, incident=incident, timeline=timeline)
        self.expect_domain_error(tmp_path, capsys, config, "incident wave is not transversal (A.k != 0)")

    def test_huge_longitudinal_amplitude_is_not_transversal(self, tmp_path, capsys):
        incident = {"amplitude": [1e308, [1, 0.5], 0], "omega1": 1.0, "k": [1, 0, 0]}
        self.expect_domain_error(tmp_path, capsys, make_config(incident=incident), "not transversal")

    def test_cascade_amplitude_overflow_without_floquet(self, tmp_path, capsys):
        # With "floquet": true the same timeline fails with the same message (test_overflowing_timeline_exits_3).
        config = json.dumps({"command": "cascade", "timeline": GAP_CELL * 3000, "incident": make_incident()})
        self.expect_domain_error(tmp_path, capsys, config, "cascade overflows at trace step 6679 (interface 3339)")

    def test_cascade_modulus_overflow_with_finite_parts(self, tmp_path, capsys):
        # The last switch leaves |forward| just above the float maximum while its real and
        # imaginary parts, and every earlier amplitude, stay finite.
        tail = [{"epsilon": 1, "mu": 1, "duration": 2.0}, {"epsilon": 9, "mu": 1, "duration": 12.25}]
        timeline = GAP_CELL * 1668 + tail + [{"epsilon": 1, "mu": 1, "duration": 0.0}]
        config = json.dumps({"command": "cascade", "timeline": timeline, "incident": make_incident()})
        self.expect_domain_error(tmp_path, capsys, config, "cascade overflows at trace step 6675 (interface 3337)")

    def test_cascade_frequency_overflow(self, tmp_path, capsys):
        # Each switch speeds the wave up 1e5 times; omega passes 1.8e308 at interface 21.
        timeline = [{"epsilon": 10.0 ** (77 - 5 * k), "mu": 10.0 ** (77 - 5 * k), "duration": 1.0} for k in range(31)]
        incident = dict(make_incident(), omega1=1e200)
        config = json.dumps({"command": "cascade", "timeline": timeline, "incident": incident})
        self.expect_domain_error(tmp_path, capsys, config, "cascade overflows at trace step 43 (interface 21)")

    def test_verify_residual_overflow(self, tmp_path, capsys):
        terms = [{"amplitude": [1e308, 1e308], "omega": 1.0}, {"amplitude": [1e308, 1.0], "omega": 2.0}]
        config = json.dumps({"command": "verify", "verify": {"terms": terms}})
        self.expect_domain_error(tmp_path, capsys, config, "residual of a sum of 2 terms overflows")

    def test_oracle_state_overflow(self, tmp_path, capsys):
        # D and B near the float maximum would overflow in the first Dormand-Prince step; numeric_rt
        # launches at unit scale instead, so the run succeeds with the unit-amplitude R and T.
        results = []
        for amplitude in (1.0, 1e308):
            incident = {"amplitude": [0, amplitude, 0], "omega1": 1.0, "k": [1, 0, 0]}
            assert run_main(tmp_path, make_config(command="oracle", incident=incident)) == 0
            results.append(json.loads(capsys.readouterr().out)["result"])
        for key in ("R_numeric", "T_numeric"):
            assert results[1][key] == pytest.approx(results[0][key], rel=1e-13, abs=0.0)

    def test_oracle_unresolvable_ramp(self, tmp_path, capsys):
        # t0 -+ tau/2 round to t0 = 1e17, so the ramp would be a sharp switch: rejected by name.
        config = make_config(command="oracle", t0=1e17, oracle={"tau": 0.05})
        self.expect_domain_error(tmp_path, capsys, config, "ramp width tau=0.3141592653589793 rounds to zero at the switch instant t=1e+17")

    @pytest.mark.parametrize("omega1", [1e-300, 1e-160])
    def test_oracle_phase_vector_underflow(self, tmp_path, capsys, omega1):
        # |m|**2 is 0 or subnormal: np.linalg.norm gives 0 (a ZeroDivisionError) or a value 6e-6 off.
        incident = {"amplitude": [0, 1, 0], "omega1": omega1, "k": [1, 0, 0]}
        start = time.perf_counter()
        self.expect_domain_error(tmp_path, capsys, make_config(command="oracle", incident=incident), "|m|**2 must be a normal float")
        assert time.perf_counter() - start < 1.0

    def test_verify_tiny_amplitude_is_not_zero(self, tmp_path, capsys):
        terms = [{"amplitude": [1e-200], "omega": 1.0}, {"amplitude": [1.0], "omega": 2.0}]
        assert run_main(tmp_path, json.dumps({"command": "verify", "verify": {"terms": terms}})) == 0
        assert json.loads(capsys.readouterr().out)["result"]["verdict"] == "non-cancelling"

    @pytest.mark.parametrize("terms, expected", [
        ([(1e200, 1.0), (-1e200, 1.0)], ("cancelling-forced-equal", 0.0, 2e200)),
        ([(1e200, 1.0), (1e200, 2.0)], ("non-cancelling", 2e200, 2e200)),
        ([(1e-200, 1.0)], ("non-cancelling", 1e-200, 1e-200)),
    ], ids=["huge-cancelling", "huge", "tiny-alone"])
    def test_verify_norms_of_huge_and_tiny_amplitudes(self, tmp_path, capsys, terms, expected):
        # The squares of 1e200 overflow and those of 1e-200 underflow (a lone tiny term read as
        # cancelling); the norms are taken on a copy scaled by a power of two.
        terms = [{"amplitude": [a], "omega": w} for a, w in terms]
        assert run_main(tmp_path, json.dumps({"command": "verify", "verify": {"terms": terms}})) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert (result["verdict"], result["residual"], result["amplitude_scale"]) == expected

    def test_verify_amplitude_scale_overflow(self, tmp_path, capsys):
        # The two terms cancel exactly, so the residual is 0, but the sum of the amplitude norms overflows.
        terms = [{"amplitude": [1e308], "omega": 1.0}, {"amplitude": [-1e308], "omega": 1.0}]
        config = json.dumps({"command": "verify", "verify": {"terms": terms}})
        self.expect_domain_error(tmp_path, capsys, config, "amplitude scale of 2 terms overflows")


class TestExit2WithOneRecord:
    """Inputs that used to end in a traceback exit 2 with one error record."""

    def expect_exit_2(self, tmp_path, capsys, config_text, *flags):
        assert run_with_flags(tmp_path, config_text, *flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        return json.loads(line)["error"]

    def test_deeply_nested_config(self, tmp_path, capsys):
        depth = 100_000
        error = self.expect_exit_2(tmp_path, capsys, '{"command": ' + "[" * depth + "]" * depth + "}")
        assert (error["type"], error["message"]) == ("ConfigError", "config is nested too deeply to decode")

    def test_deeply_nested_set_value(self, tmp_path, capsys):
        depth = 100_000
        error = self.expect_exit_2(tmp_path, capsys, make_config(), "--set", "t0=" + "[" * depth + "]" * depth)
        assert (error["type"], error["message"]) == ("ConfigError", "--set t0 is nested too deeply to decode")

    def test_output_path_is_a_directory(self, tmp_path, capsys):
        error = self.expect_exit_2(tmp_path, capsys, make_config(), "--out", str(tmp_path))
        assert error["type"] == "IsADirectoryError" and str(tmp_path) in error["message"]

    def test_output_path_under_a_regular_file(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        error = self.expect_exit_2(tmp_path, capsys, make_config(), "--out", str(blocker / "result.json"))
        assert error["type"] == "FileExistsError" and str(blocker) in error["message"]
        assert blocker.read_text() == "x"

    def test_sweep_axis_too_large_to_allocate(self, tmp_path, capsys):
        # numpy refuses a 7.11 PiB request at once, without touching memory.
        axis = {"path": "after.epsilon", "start": 1.0, "stop": 2.0, "num": 1000000000000000}
        error = self.expect_exit_2(tmp_path, capsys, sweep_config([axis]))
        assert error["type"] == "ConfigError"
        assert error["message"].startswith("config.sweep.axes[0]: 1000000000000000 values do not fit in memory")
        assert "7.11 PiB" in error["message"]

    def test_sweep_axis_beyond_the_index_limit(self, tmp_path, capsys):
        axis = {"path": "after.epsilon", "start": 1.0, "stop": 2.0, "num": 10**20}
        error = self.expect_exit_2(tmp_path, capsys, sweep_config([axis]))
        assert (error["type"], error["message"]) == (
            "ConfigError",
            f"config.sweep.axes[0]: {10**20} values do not fit in memory: as float64 they take {8 * 10**20} bytes",
        )


class TestModuleEntryPoint:
    """``python -m timescatter`` is ``main``: the same stdout, stderr and exit code."""

    @pytest.mark.parametrize(
        "config_text, code", [(make_config(), 0), (json.dumps({"command": "nope"}), 2)], ids=["solve", "config-error"]
    )
    def test_matches_main(self, tmp_path, capsys, config_text, code):
        config_path = tmp_path / "config.json"
        config_path.write_text(config_text, encoding="utf-8")
        args = [str(config_path), "--no-timestamp"]
        done = run_module(args)
        assert main(args) == code
        captured = capsys.readouterr()
        assert (done.returncode, done.stdout, done.stderr) == (code, captured.out, captured.err)


class TestOracleRoute:
    """The oracle result is a row of convergence_study, and each ramp width is integrated once per run."""

    @pytest.mark.parametrize(
        "oracle, calls",
        [
            ({"tau": 1e-3, "tau_list": [0.1, 0.01, 1e-3]}, 3),
            ({"tau": 0.05, "tau_list": [0.1, 0.01, 1e-3]}, 4),
            ({"tau": 0.05}, 1),
        ],
        ids=["tau-in-list", "tau-not-in-list", "no-list"],
    )
    def test_numeric_rt_calls_per_run(self, tmp_path, capsys, monkeypatch, oracle, calls):
        counted = []

        def counting(*args, **kwargs):
            counted.append(args[0])
            return numeric_rt(*args, **kwargs)

        for module in (oracle_module, cli_module):
            monkeypatch.setattr(module, "numeric_rt", counting)
        assert run_main(tmp_path, make_config(command="oracle", t0=0.3, oracle=oracle)) == 0
        capsys.readouterr()
        assert len(counted) == calls

    def test_width_not_in_the_table_is_a_direct_numeric_rt(self):
        config = parse_config(
            make_config(command="oracle", t0=0.3, oracle={"tau": 0.05, "tau_list": [0.5, 0.1, 0.02]})
        )
        wave = config.incident.plane_wave(config.before)
        profile = TemporalProfile.ramp(config.before, config.after, config.t0, 0.05 * wave.period)
        R_num, T_num = numeric_rt(profile, wave)
        R, T, _ = coefficients(config.before, config.after)
        assert execute(config)["result"] == {
            "tau": 0.05,
            "R_numeric": R_num,
            "T_numeric": T_num,
            "R_analytic": R,
            "T_analytic": T,
            "R_error": abs(R_num - R),
            "T_error": abs(T_num - T),
        }

    def test_first_width_to_fail_in_table_order_is_reported(self, tmp_path, capsys):
        # At t0 = 1e11 every width underflows the step floor; the widest is integrated first.
        config = make_config(command="oracle", t0=1e11, oracle={"tau": 0.05, "tau_list": [0.2, 0.1, 0.05]})
        assert run_main(tmp_path, config) == 3
        error = json.loads(capsys.readouterr().err)["error"]
        wave = parse_config(config).incident.plane_wave(MediumState(1, 1))
        failures = []
        for tau in (0.2, 0.05):
            with pytest.raises(StiffnessError) as failure:
                numeric_rt(TemporalProfile.ramp(MediumState(1, 1), MediumState(4, 1), 1e11, tau * wave.period), wave)
            failures.append(str(failure.value))
        assert failures[0] != failures[1]
        assert (error["type"], error["message"]) == ("StiffnessError", failures[0])

    @pytest.mark.parametrize("t0", [1e14, 1e15])
    def test_ramp_below_the_step_floor_exits_3(self, tmp_path, capsys, t0):
        # Crossed unchanged, the ramp gave R of the sharp step (t0 = 1e14) or a value 12.9 % off (1e15).
        assert run_main(tmp_path, make_config(command="oracle", t0=t0, oracle={"tau": 0.05})) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err)["error"]
        assert error["type"] == "StiffnessError"
        assert "is narrower than the step floor 1e-14 * max(1, |t|)" in error["message"]
