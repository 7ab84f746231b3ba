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
    the target observed one period after ``x[:, t]``.  ``x`` is stored in
    Fortran order, the order of the transposed table :func:`load_csv` reads,
    so a panel built in memory standardizes to the bits of its read-back.
    """

    x: np.ndarray
    series_names: tuple[str, ...]
    time_labels: tuple[str, ...]
    y: np.ndarray
    n_dropped: int = 0

    def __post_init__(self):
        x = np.asfortranarray(self.x, dtype=float)
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
                raise DataError(f"time labels not strictly increasing at {a!r} >= {b!r}")

    @property
    def p(self) -> int:
        return self.x.shape[0]

    @property
    def t_len(self) -> int:
        return self.x.shape[1]


def load_csv(path: str | Path, target_column: str) -> PanelData:
    """Read a comma-separated panel: first column time label, remaining columns numeric.

    A row with a bad value (in the series or the target) or the wrong cell
    count is dropped (see :func:`_parse_row`); the drop count is reported on
    ``PanelData.n_dropped`` and in a warning naming the first dropped row's
    first bad cell.  A blank line, before or after the header, is skipped
    and not counted; a line of only spaces is a row of one bad cell.  The
    target column is excluded from the predictor matrix, so a series is never
    used to predict itself; header names must be unique, so a second copy of
    the target cannot stay behind as a series.  A file
    that cannot be read, decoded or split into records raises
    :class:`DataError`, and so does a record over more than one line: a stray
    quote would otherwise join the lines after it into one cell.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    column_names: list[str] | None = None
    labels: list[str] = []
    values = []
    dropped: list[str] = []
    line = 0  # the last line of the records read so far
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            # each record is converted as it is read, so no row's strings are kept
            for record in reader:
                if reader.line_num > line + 1:
                    raise DataError(
                        f"{path}: line {line + 1}: a quoted cell runs over "
                        f"{reader.line_num - line} lines"
                    )
                line = reader.line_num
                if not record:  # a blank line is no row
                    continue
                if column_names is None:
                    column_names, target_idx = _read_header(record, path, target_column)
                    continue
                parsed = _parse_row(record, line, column_names)
                if isinstance(parsed, str):
                    dropped.append(parsed)
                else:
                    labels.append(record[0].strip())
                    values.append(parsed)
    except (OSError, UnicodeDecodeError) as e:
        raise DataError(f"{path}: cannot read the file: {e}") from e
    except csv.Error as e:
        raise DataError(f"{path}: line {line + 1}: {e}") from e
    if column_names is None:
        raise DataError(f"{path}: empty file, header row required")

    if dropped:
        warnings.warn(
            f"{path}: dropped {len(dropped)} row(s); first: {dropped[0]}", stacklevel=2
        )
    if len(labels) < 2:
        raise DataError(f"{path}: fewer than 2 usable time points after dropping rows")

    table = np.array(values, dtype=float)
    y = table[:, target_idx]
    x = np.delete(table, target_idx, axis=1).T
    series_names = tuple(n for k, n in enumerate(column_names) if k != target_idx)
    return PanelData(
        x=x,
        series_names=series_names,
        time_labels=tuple(labels),
        y=y,
        n_dropped=len(dropped),
    )


def _read_header(header: list[str], path: Path, target_column: str) -> tuple[list[str], int]:
    """The column names after the time label, and the target's position among them."""
    if len(header) < 3:
        raise DataError(f"{path}: need a time column, a target column and at least one series")
    names = [h.strip() for h in header]
    seen: set[str] = set()
    for name in names:
        if name in seen:
            raise DataError(f"{path}: repeated column name {name!r}; names must be unique")
        seen.add(name)
    column_names = names[1:]
    if target_column not in column_names:
        raise DataError(f"{path}: target column not found: {target_column!r}")
    return column_names, column_names.index(target_column)


def _parse_row(row: list[str], line: int, column_names: list[str]):
    """The values of file line ``line``, or a message naming its first bad cell.

    numpy converts the row in one call, each cell as Python's ``float`` does.
    Only a row it rejects, or one holding a non-finite value, is read cell by
    cell: a missing (empty, ``NA`` or ``NaN``), unparseable or non-finite
    cell is bad, and so is a row without one cell per column.
    """
    if len(row) != len(column_names) + 1:
        return f"row {line}: expected {len(column_names) + 1} cells, got {len(row)}"
    try:
        values = np.array(row[1:], dtype=float)
        if np.isfinite(values).all():
            return values
    except ValueError:
        pass
    parsed = []
    for name, cell in zip(column_names, row[1:]):
        cell = cell.strip()
        if cell == "" or cell.upper() in ("NA", "NAN"):
            return f"row {line}, column {name!r}: missing value"
        try:
            v = float(cell)
        except ValueError:
            return f"row {line}, column {name!r}: unparseable cell {cell!r}"
        if not np.isfinite(v):
            return f"row {line}, column {name!r}: non-finite value"
        parsed.append(v)
    return parsed


def _standardize_array(x: np.ndarray, series_names) -> np.ndarray:
    """Scale each row of ``x`` to mean 0 and sample sd 1.

    The mean is computed once and its deviations serve both the sd and the
    result, with the bits of ``x.std(axis=1, ddof=1)`` and of
    ``x - x.mean(axis=1)``.  A flat series is a :class:`DataError` naming it.
    """
    dev = x - x.mean(axis=1, keepdims=True)
    sds = np.sqrt(np.square(dev).sum(axis=1, keepdims=True) / (x.shape[1] - 1))
    flat = np.nonzero(sds[:, 0] == 0)[0]
    if flat.size:
        raise DataError(f"zero-variance series over window: {series_names[flat[0]]!r}")
    dev /= sds
    return dev


def _check_count(name: str, value, auto: bool = False, minimum: int = 1) -> None:
    """The package's one integer rule, for a count argument or config field ``name``.

    ``value`` passes if it is an ``int`` or a numpy integer, never a ``bool``,
    that is at least ``minimum``, or ``"auto"`` where ``auto`` allows it.
    """
    if auto and isinstance(value, str) and value == "auto":
        return
    allowed = ' or "auto"' if auto else ""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer{allowed}, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}{allowed}, got {value!r}")


def _check_target_varies(y: np.ndarray, where: str) -> None:
    """A target constant over ``where`` is a :class:`DataError`: it cannot be sliced or scored."""
    if np.all(y == y[0]):
        raise DataError(f"the target is constant over {where}")
