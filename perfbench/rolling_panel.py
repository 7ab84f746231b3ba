"""Input panel for the ``rolling`` workload, generated from the workload seed.

The panel is shaped like FRED-MD (about 130 monthly series, 370 months), so a
120-month window has more series than time points (p > T).  It is plain numpy
and deliberately independent of ``suffcast.simulation`` and
``suffcast.panel_data.save_csv``: a later change to either cannot change the
rolling inputs.

Model: ``K`` AR(1) factors with coefficients drawn from U(0.2, 0.8), loadings
from U(-1, 2), i.i.d. N(0, 1) idiosyncratic errors, and a target that is a
nonlinear function of two indices of the factors plus N(0, 0.5^2) noise.  Row
``t`` of the CSV holds the predictors at month ``t`` and the target observed
one month later, which is the alignment ``load_csv`` documents.
"""
from __future__ import annotations

import csv
import io
from pathlib import Path

import numpy as np

N_SERIES = 130
N_MONTHS = 370
N_FACTORS = 6
N_INDICES = 2
BURN_IN = 100
TARGET_COLUMN = "target"

PHI1 = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0]) / np.sqrt(3.0)
PHI2 = np.array([1.0, 0.0, 0.0, 0.0, 1.0, 3.0]) / np.sqrt(11.0)


def make_panel(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(x, y)``: the ``T x p`` predictors and the length-``T`` target."""
    rng = np.random.default_rng(seed)
    alpha = rng.uniform(0.2, 0.8, size=N_FACTORS)
    shocks = rng.standard_normal((BURN_IN + N_MONTHS, N_FACTORS))
    factors = np.empty_like(shocks)
    prev = np.zeros(N_FACTORS)
    for t, e in enumerate(shocks):
        prev = alpha * prev + e
        factors[t] = prev
    factors = factors[BURN_IN:]
    loadings = rng.uniform(-1.0, 2.0, size=(N_SERIES, N_FACTORS))
    x = factors @ loadings.T + rng.standard_normal((N_MONTHS, N_SERIES))
    v1 = factors @ PHI1
    v2 = factors @ PHI2
    y = 0.4 * v1**2 + 3.0 * np.sin(v2 / 4.0) + 0.5 * rng.standard_normal(N_MONTHS)
    return x, y


def write_panel_csv(seed: int, path: Path) -> None:
    """Write the seed's panel as ``date,s001,...,s130,target`` with monthly labels."""
    x, y = make_panel(seed)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["date", *(f"s{j + 1:03d}" for j in range(N_SERIES)), TARGET_COLUMN])
    for t in range(N_MONTHS):
        year, month = divmod(t, 12)
        writer.writerow(
            [f"{1990 + year}-{month + 1:02d}", *map(repr, x[t].tolist()), repr(float(y[t]))]
        )
    path.write_text(buf.getvalue())
