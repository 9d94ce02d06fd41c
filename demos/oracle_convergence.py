#!/usr/bin/env python3
"""Walkthrough: checking the analytic solver against the mode-ODE oracle.

The closed-form interface solution assumes a sudden switch.  The oracle
makes no such assumption: it integrates the exact single-mode Maxwell
equations through a smooth C1 ramp of width tau and reads off R and T by
eigenmode decomposition.  As tau shrinks, the two must meet: this script
prints the convergence table for two canonical switches.
"""

import numpy as np

from timescatter import (
    MediumState,
    PlaneWave,
    TemporalProfile,
    coefficients,
    convergence_study,
    numeric_rt,
)

vacuum = MediumState(1.0, 1.0)
incident = PlaneWave(np.array([0, 1, 0], dtype=complex), 1.0, np.array([1.0, 0, 0]), 1.0)

taus = [0.5, 0.1, 0.02, 4e-3, 1e-3]  # ramp widths in units of the incident period

for name, after in [("eps: 1 -> 4", MediumState(4.0, 1.0)),
                    ("mu:  1 -> 4", MediumState(1.0, 4.0))]:
    R, T, _ = coefficients(vacuum, after)
    print(f"\n{name}   (analytic R = {R}, T = {T})")
    print(f"  {'tau/period':>12} {'|R_num - R|':>14} {'|T_num - T|':>14}")
    study = convergence_study(vacuum, after, incident, taus)
    for tau, err_r, err_t in zip(study.taus, study.R_errors, study.T_errors):
        print(f"  {tau:>12.0e} {err_r:>14.3e} {err_t:>14.3e}")
    print(f"  empirical order in tau: {study.empirical_order:.2f}")

# A slow (adiabatic) ramp behaves differently: almost nothing reflects.
slow = TemporalProfile.ramp(vacuum, MediumState(4.0, 1.0), t0=0.0, tau=20 * incident.period)
R_slow, T_slow = numeric_rt(slow, incident)
print(f"\nadiabatic contrast: a 20-period ramp reflects R = {R_slow:.2e} "
      f"(sudden switch reflects R = 0.125)")
