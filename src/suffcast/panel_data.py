"""Panel ingestion and standardization.

Conventions used throughout the package:

* predictor panels are stored as a ``p x T`` matrix ``x`` (series in rows,
  time in columns);
* the target array ``y`` is aligned so that ``y[t]`` is the outcome observed
  one period after the predictors in column ``t``.  All downstream modules
  rely on this alignment, so any off-by-one handling lives here.
"""
from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class DataError(ValueError):
    """Raised for malformed or unusable input data files."""


@dataclass(frozen=True, eq=False)
class PanelData:
    """An observed predictor panel plus the scalar target series.

    ``x`` has one row per series and one column per time point; ``y[t]`` is
    the target observed one period after ``x[:, t]``.
    """

    x: np.ndarray
    series_names: tuple[str, ...]
    time_labels: tuple[str, ...]
    y: np.ndarray
    target_name: str = "target"
    n_dropped: int = 0

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "series_names", tuple(str(s) for s in self.series_names))
        object.__setattr__(self, "time_labels", tuple(str(s) for s in self.time_labels))
        if x.ndim != 2:
            raise ValueError("x must be a 2-D matrix (series x time)")
        p, t_len = x.shape
        if p < 1:
            raise ValueError("panel needs at least one series")
        if t_len < 2:
            raise DataError("panel needs at least 2 usable time points")
        if y.shape != (t_len,):
            raise ValueError(f"y has length {y.shape}, expected ({t_len},)")
        if len(self.series_names) != p:
            raise ValueError("series_names length does not match x rows")
        if len(self.time_labels) != t_len:
            raise ValueError("time_labels length does not match x columns")
        if not np.all(np.isfinite(x)):
            raise ValueError("x contains missing or non-finite values")
        if not np.all(np.isfinite(y)):
            raise ValueError("y contains missing or non-finite values")
        for a, b in zip(self.time_labels, self.time_labels[1:]):
            if not a < b:
                raise ValueError(f"time labels not strictly increasing at {a!r} >= {b!r}")

    @property
    def p(self) -> int:
        return self.x.shape[0]

    @property
    def t_len(self) -> int:
        return self.x.shape[1]


def load_csv(
    path: str | Path,
    target_column: str,
    delimiter: str = ",",
) -> PanelData:
    """Read a panel CSV: first column time label, remaining columns numeric.

    Rows with any missing or unparseable value (in the series or the target)
    are dropped; the drop count is reported on ``PanelData.n_dropped`` and in
    a warning.  The target column is excluded from the predictor matrix, so a
    series is never used to predict itself.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file, header row required") from None
        rows = list(reader)
    if len(header) < 3:
        raise DataError(f"{path}: need a time column, a target column and at least one series")
    column_names = [h.strip() for h in header[1:]]
    if target_column not in column_names:
        raise DataError(f"{path}: target column not found: {target_column!r}")
    target_idx = column_names.index(target_column)

    labels: list[str] = []
    values: list[list[float]] = []
    dropped: list[str] = []
    for i, row in enumerate(rows):
        if len(row) != len(header):
            dropped.append(f"row {i + 2}: expected {len(header)} cells, got {len(row)}")
            continue
        parsed = []
        bad = None
        for j, cell in enumerate(row[1:]):
            cell = cell.strip()
            if cell == "" or cell.upper() in ("NA", "NAN"):
                bad = f"row {i + 2}, column {column_names[j]!r}: missing value"
                break
            try:
                v = float(cell)
            except ValueError:
                bad = f"row {i + 2}, column {column_names[j]!r}: unparseable cell {cell!r}"
                break
            if not np.isfinite(v):
                bad = f"row {i + 2}, column {column_names[j]!r}: non-finite value"
                break
            parsed.append(v)
        if bad is not None:
            dropped.append(bad)
            continue
        labels.append(row[0].strip())
        values.append(parsed)

    if dropped:
        warnings.warn(
            f"{path}: dropped {len(dropped)} row(s); first: {dropped[0]}", stacklevel=2
        )
    if len(values) < 2:
        raise DataError(f"{path}: fewer than 2 usable time points after dropping rows")

    table = np.asarray(values, dtype=float)
    y = table[:, target_idx]
    x = np.delete(table, target_idx, axis=1).T
    series_names = tuple(n for k, n in enumerate(column_names) if k != target_idx)
    return PanelData(
        x=x,
        series_names=series_names,
        time_labels=tuple(labels),
        y=y,
        target_name=target_column,
        n_dropped=len(dropped),
    )


def _standardize_array(x: np.ndarray, series_names) -> np.ndarray:
    """Scale each row of ``x`` to mean 0 and sample sd 1.

    A flat series is a ``ValueError`` naming it.
    """
    means = x.mean(axis=1)
    sds = x.std(axis=1, ddof=1)
    flat = np.nonzero(sds == 0)[0]
    if flat.size:
        raise ValueError(f"zero-variance series over window: {series_names[flat[0]]!r}")
    return (x - means[:, None]) / sds[:, None]


def standardize(panel: PanelData) -> PanelData:
    """Standardize every series to mean 0 and sample sd 1 over all columns."""
    return PanelData(
        x=_standardize_array(panel.x, panel.series_names),
        series_names=panel.series_names,
        time_labels=panel.time_labels,
        y=panel.y,
        target_name=panel.target_name,
        n_dropped=panel.n_dropped,
    )
