"""The four workloads: inputs made from the seed, the operations, their checks.

Each workload yields rounds of operations.  An operation has an untimed
``prepare`` (write its config file), a timed ``run`` (one CLI call through
``timescatter.cli.main``, or one library call) and an untimed ``check`` of
what it produced.  ``units`` is the work an operation completes, in the
workload's unit of throughput.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

import checks
import timescatter.cascade as cascade_mod
import timescatter.cli as cli_mod
import timescatter.oracle as oracle_mod
from timescatter.errors import StiffnessError
from timescatter.media import MediumState, TemporalProfile
from timescatter.waves import PlaneWave, phase_vector


class CliFailure(Exception):
    """A CLI call returned a non-zero exit code."""

    def __init__(self, code):
        super().__init__(f"exit code {code}")


@dataclass
class Op:
    label: str
    units: float
    run: Callable[[], Any]
    check: Callable[[Any], list]
    prepare: Callable[[], None] = lambda: None
    known_fault: Optional[type] = None  # the exception a named program fault raises
    output: Optional[str] = None  # file a CLI op writes


def cli_op(workdir, name, config, fmt, units, check):
    """One CLI call on a config file, output written to a file in workdir."""
    config_path = workdir / f"{name}.config.json"
    out_path = workdir / f"{name}.out.{fmt}"
    text = json.dumps(dict(config, output={"path": str(out_path), "format": fmt}))

    def prepare():
        config_path.write_text(text, encoding="utf-8")
        out_path.unlink(missing_ok=True)

    def run():
        code = cli_mod.main([str(config_path)])
        if code != 0:
            raise CliFailure(code)

    def check_output(_):
        with open(out_path, encoding="utf-8", newline="") as handle:
            return check(handle.read())

    return Op(name, units, run, check_output, prepare, output=str(out_path))


def random_incident(rng, omega_spread=0.1):
    """Unit wave vector, transversal complex (elliptic) amplitude, omega1 within 10**(+-omega_spread)."""
    k = rng.normal(size=3)
    k /= np.linalg.norm(k)
    raw = rng.normal(size=3) + 1j * rng.normal(size=3)
    amplitude = raw - np.dot(raw, k) * k
    amplitude /= np.linalg.norm(amplitude)
    omega1 = float(10.0 ** rng.uniform(-omega_spread, omega_spread))
    return {
        "amplitude": [[float(z.real), float(z.imag)] for z in amplitude],
        "omega1": omega1,
        "k": [float(x) for x in k],
    }


def medium_json(eps, mu, branch=1):
    return {"epsilon": float(eps), "mu": float(mu), "branch": branch}


# --- sweep-grid ---------------------------------------------------------------

class SweepGrid:
    """20k-point log grids of after.epsilon x after.mu, written as JSON."""

    name = "sweep-grid"
    unit = "grid points"
    N_EPS, N_MU = 200, 100

    def __init__(self, seed, workdir):
        rng = np.random.default_rng([seed, 1])
        self.ops = [self._op(rng, workdir, variant) for variant in ("forward", "backward", "double-negative")]

    def _op(self, rng, workdir, variant):
        before = (float(rng.uniform(1.0, 3.0)), float(rng.uniform(1.0, 2.0)), 1)
        incident = random_incident(rng)
        lo_e, hi_e, lo_m, hi_m = (float(x) for x in rng.uniform([0.1, 10.0, 0.1, 10.0], [0.3, 30.0, 0.3, 30.0]))
        eps_values = np.geomspace(lo_e, hi_e, self.N_EPS)
        mu_values = np.geomspace(lo_m, hi_m, self.N_MU)
        if variant == "double-negative":
            eps_values, mu_values = -eps_values, -mu_values
            after = medium_json(-2.0, -1.0, -1)
            axes = [
                {"path": "after.epsilon", "values": [float(x) for x in eps_values]},
                {"path": "after.mu", "values": [float(x) for x in mu_values]},
            ]
        else:
            after = medium_json(4.0, 1.0)
            axes = [
                {"path": "after.epsilon", "start": lo_e, "stop": hi_e, "num": self.N_EPS, "spacing": "log"},
                {"path": "after.mu", "start": lo_m, "stop": hi_m, "num": self.N_MU, "spacing": "log"},
            ]
        transmitted = "backward" if variant == "backward" else "forward"
        config = {
            "command": "sweep",
            "media": {"before": medium_json(*before), "after": after},
            "incident": incident,
            "convention": {"transmitted": transmitted, "reflected": "negative"},
            "sweep": {"axes": axes},
        }
        spec = {
            "before": before,
            "after_branch": after["branch"],
            "omega1": incident["omega1"],
            "transmitted": transmitted,
            "eps_values": eps_values,
            "mu_values": mu_values,
        }
        units = self.N_EPS * self.N_MU
        return cli_op(workdir, f"sweep-{variant}", config, "json", units, lambda text: checks.check_sweep(text, spec))

    def round(self, index):
        return [self.ops[index % len(self.ops)]]


# --- solve-stream ---------------------------------------------------------------

class SolveStream:
    """Single solves on random medium pairs, alternating JSON and CSV output."""

    name = "solve-stream"
    unit = "solves"

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def _medium(self, rng):
        eps, mu = 10.0 ** rng.uniform(-1.0, 1.0, size=2)
        if rng.uniform() < 0.25:
            return (-float(eps), -float(mu), -1)
        return (float(eps), float(mu), 1)

    def round(self, index):
        rng = np.random.default_rng([self.seed, 2, index])
        before, after = self._medium(rng), self._medium(rng)
        incident = random_incident(rng)
        transmitted = "forward" if rng.uniform() < 0.75 else "backward"
        t0 = float(rng.uniform(-1.0, 1.0))
        fmt = "json" if index % 2 == 0 else "csv"
        config = {
            "command": "solve",
            "media": {"before": medium_json(*before), "after": medium_json(*after)},
            "incident": incident,
            "t0": t0,
            "convention": {"transmitted": transmitted, "reflected": "negative"},
        }
        spec = {
            "before": before,
            "after": after,
            "omega1": incident["omega1"],
            "amplitude": [complex(*z) for z in incident["amplitude"]],
            "k": incident["k"],
            "t0": t0,
            "transmitted": transmitted,
        }
        return [cli_op(self.workdir, f"solve-{fmt}", config, fmt, 1, lambda text: checks.check_solve(text, fmt, spec))]


# --- oracle-ramps -----------------------------------------------------------------

SHARP_PERIOD = 2.0
SHARP_PERIODS = 3


def sharp_switch_op():
    """Oracle through a sharp periodic profile against cascade_scatter on the same timeline.

    Fixed inputs, independent of the seed.  The integrator today stops at
    the first switch instant with StiffnessError (ROADMAP open item 3), so
    the operation counts as failed until that is mended.
    """
    before, after = MediumState(1.0, 1.0), MediumState(4.0, 1.0)
    wave = PlaneWave(np.array([0.0, 1.0, 0.0], dtype=complex), 1.0, np.array([1.0, 0.0, 0.0]), 1.0)
    profile = TemporalProfile.periodic(before, after, t0=0.0, period=SHARP_PERIOD, duty=0.5)
    lead, half = 0.25 * SHARP_PERIOD, 0.5 * SHARP_PERIOD
    t_start, t_end = -lead, SHARP_PERIODS * SHARP_PERIOD - lead
    timeline = [cascade_mod.TimelineSegment(before, lead)]
    for _ in range(SHARP_PERIODS - 1):
        timeline += [cascade_mod.TimelineSegment(after, half), cascade_mod.TimelineSegment(before, half)]
    timeline += [cascade_mod.TimelineSegment(after, half), cascade_mod.TimelineSegment(before, half - lead)]

    def run():
        m = phase_vector(wave)
        initial = oracle_mod.plane_wave_mode_state(wave, before, t_start)
        final = oracle_mod.integrate(profile, m, initial, t_end)
        start = oracle_mod.mode_decompose(initial, before, m)
        end = oracle_mod.mode_decompose(final, before, m)
        # E-field scalars relative to the incident amplitude, on its polarization.
        turn = np.vdot(start.polarization, end.polarization) / start.forward
        oracle = np.array([end.forward, end.backward]) * turn
        cascade = cascade_mod.cascade_scatter(timeline, wave).amplitudes
        return oracle, np.array([cascade.forward, cascade.backward])

    def check(result):
        oracle, cascade = result
        problems = checks.Problems()
        problems.close("sharp switch oracle vs cascade", oracle, cascade, 1.0, checks.SHARP_SWITCH_TOL)
        return problems

    return Op("sharp-switch", 1, run, check, known_fault=StiffnessError)


class OracleRamps:
    """Oracle runs with a tau_list over four kinds of switch, plus the sharp-switch check."""

    name = "oracle-ramps"
    unit = "operations"
    TAU = 1e-3
    TAU_LIST = [1e-1, 1e-2, 1e-3]

    def __init__(self, seed, workdir):
        rng = np.random.default_rng([seed, 3])
        # Narrow ranges: the integrator's work depends on the contrast and on
        # omega1, and runs on different seeds must do about the same work.
        eps0, mu0 = (float(x) for x in rng.uniform(1.0, 1.1, size=2))
        a, b, c, d, e = (float(x) for x in rng.uniform([3.8, 3.8, 2.4, 1.9, 3.8], [4.2, 4.2, 2.6, 2.1, 4.2]))
        switches = {
            "eps-up": (eps0 * a, mu0),
            "mu-up": (eps0, mu0 * b),
            "both-up": (eps0 * c, mu0 * d),
            "eps-down": (eps0 / e, mu0),
        }
        self.ops = []
        for label, (eps1, mu1) in switches.items():
            config = {
                "command": "oracle",
                "media": {"before": medium_json(eps0, mu0), "after": medium_json(eps1, mu1)},
                "incident": random_incident(rng, omega_spread=0.01),
                "t0": float(rng.uniform(-1.0, 1.0)),
                "oracle": {"tau": self.TAU, "tau_list": self.TAU_LIST},
            }
            spec = {"before": (eps0, mu0, 1), "after": (eps1, mu1, 1), "tau": self.TAU, "tau_list": self.TAU_LIST}
            self.ops.append(
                cli_op(workdir, f"oracle-{label}", config, "json", 1,
                       lambda text, spec=spec: checks.check_oracle(text, spec))
            )
        self.ops.append(sharp_switch_op())

    def round(self, index):
        return self.ops


# --- crystal-cascade ---------------------------------------------------------------

class CrystalCascade:
    """1000-segment pass-band cascades (JSON and CSV) and a momentum-gap map."""

    name = "crystal-cascade"
    unit = "interfaces"
    PERIODS = 500
    DWELLS = np.linspace(0.1, 3.0, 20)

    def __init__(self, seed, workdir):
        rng = np.random.default_rng([seed, 4])
        omega1 = float(10.0 ** rng.uniform(-0.1, 0.1))
        self.ops = []
        for kind, fmt in (("positive", "json"), ("double-negative", "csv")):
            cell = self._pass_band_cell(rng, omega1, kind)
            segments = cell * self.PERIODS
            incident = random_incident(rng)
            incident["omega1"] = omega1
            config = {
                "command": "cascade",
                "timeline": [dict(medium_json(e, m, b), duration=d) for e, m, b, d in segments],
                "incident": incident,
                "floquet": True,
            }
            spec = {"segments": segments, "omega1": omega1}
            self.ops.append(
                cli_op(workdir, f"cascade-{kind}", config, fmt, len(segments) - 1,
                       lambda text, fmt=fmt, spec=spec: checks.check_cascade(text, fmt, spec))
            )
        self.ops.append(self._gap_map(rng, omega1))

    @staticmethod
    def _medium_pair(rng, kind):
        first = (float(rng.uniform(1.0, 2.0)), float(rng.uniform(1.0, 1.5)), 1)
        eps, mu = (float(x) for x in rng.uniform([2.0, 1.0], [5.0, 2.0]))
        second = (-eps, -mu, -1) if kind == "double-negative" else (eps, mu, 1)
        return first, second

    def _pass_band_cell(self, rng, omega1, kind):
        """A two-segment cell with |tr/2| <= 0.9, so 500 periods stay bounded."""
        while True:
            first, second = self._medium_pair(rng, kind)
            d1, d2 = (float(x) for x in rng.uniform(0.3, 1.5, size=2))
            cell = [(*first, d1), (*second, d2)]
            matrix = checks.period_matrix(cell, omega1)
            if abs(0.5 * (matrix[0, 0] + matrix[1, 1])) <= 0.9:
                return cell

    def _gap_map(self, rng, omega1):
        cells = []
        for kind in ("positive", "double-negative"):
            first, second = self._medium_pair(rng, kind)
            cells += [((*first, float(d1)), (*second, float(d2))) for d1 in self.DWELLS for d2 in self.DWELLS]
        segment_lists = [
            [cascade_mod.TimelineSegment(MediumState(e, m, b), d) for e, m, b, d in cell] for cell in cells
        ]
        spec = {"cells": cells, "omega1": omega1}

        def run():
            return [cascade_mod.floquet_exponent(segments, omega1) for segments in segment_lists]

        return Op("gap-map", 2 * len(cells), run, lambda results: checks.check_gap_map(results, spec))

    def round(self, index):
        return self.ops


WORKLOADS = {w.name: w for w in (SweepGrid, SolveStream, OracleRamps, CrystalCascade)}
