import csv
import io
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from suffcast import DataError, PanelData, load_csv
from suffcast import panel_data
from suffcast.forecaster import RollingConfig, _forward_mean
from suffcast.panel_data import _standardize_array


def save_csv(panel: PanelData, path, target_name="target") -> None:
    """Write a panel in the format ``load_csv`` reads, round-trip exact.

    The target is the last column, headed ``target_name``.  Floats are
    written with ``repr`` so reading the file back reproduces the panel
    bit-exactly.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["date", *panel.series_names, target_name])
    for t in range(panel.t_len):
        writer.writerow(
            [panel.time_labels[t]]
            + [repr(float(v)) for v in panel.x[:, t]]
            + [repr(float(panel.y[t]))]
        )
    Path(path).write_text(buf.getvalue())


def same_panel(a: PanelData, b: PanelData) -> bool:
    return (
        np.array_equal(a.x, b.x)
        and np.array_equal(a.y, b.y)
        and a.series_names == b.series_names
        and a.time_labels == b.time_labels
    )


def write(tmp_path, text, name="panel.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


CSV_SIMPLE = """date,a,b
2001-01,1.0,10.0
2001-02,2.0,11.0
2001-03,3.0,12.0
2001-04,4.0,13.0
2001-05,5.0,14.0
"""


class TestLoadCsv:
    def test_simple_panel_shapes(self, tmp_path):
        panel = load_csv(write(tmp_path, CSV_SIMPLE), target_column="b")
        assert panel.p == 1
        assert panel.t_len == 5
        assert panel.series_names == ("a",)
        assert np.array_equal(panel.y, [10.0, 11.0, 12.0, 13.0, 14.0])
        assert np.array_equal(panel.x, [[1.0, 2.0, 3.0, 4.0, 5.0]])

    def test_bad_cell_drops_row(self, tmp_path):
        text = CSV_SIMPLE.replace("3.0,12.0", "oops,12.0")
        with pytest.warns(UserWarning, match="dropped 1"):
            panel = load_csv(write(tmp_path, text), target_column="b")
        assert panel.t_len == 4
        assert panel.n_dropped == 1
        assert 3.0 not in panel.x

    @pytest.mark.parametrize("where", ["start", "middle", "end"])
    def test_blank_lines_are_not_rows(self, tmp_path, where):
        lines = CSV_SIMPLE.splitlines()
        at = {"start": 0, "middle": 3, "end": len(lines)}[where]
        text = "\n".join(lines[:at] + ["", ""] + lines[at:]) + "\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            panel = load_csv(write(tmp_path, text), target_column="b")
        assert identical_panels(panel, load_csv(write(tmp_path, CSV_SIMPLE, "clean.csv"), "b"))
        assert panel.n_dropped == 0

    def test_line_of_spaces_is_a_dropped_row(self, tmp_path):
        text = CSV_SIMPLE.replace("2001-03,3.0,12.0\n", "2001-03,3.0,12.0\n  \n")
        with pytest.warns(UserWarning) as record:
            panel = load_csv(write(tmp_path, text), target_column="b")
        assert str(record[0].message).endswith(
            "dropped 1 row(s); first: row 5: expected 3 cells, got 1"
        )
        assert panel.n_dropped == 1
        assert panel.t_len == 5

    def test_missing_target_column(self, tmp_path):
        with pytest.raises(DataError, match="target column not found"):
            load_csv(write(tmp_path, CSV_SIMPLE), target_column="zzz")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "nope.csv", target_column="b")

    def test_too_few_rows(self, tmp_path):
        text = "date,a,b\n2001-01,1.0,2.0\n"
        with pytest.raises(DataError, match="fewer than 2"):
            load_csv(write(tmp_path, text), target_column="b")

    @pytest.mark.parametrize(
        "n_rows,message",
        [
            (40, "line 6: a quoted cell runs over 36 lines"),
            (6000, "line 6: field larger than field limit"),
        ],
    )
    def test_stray_quote_is_a_data_error(self, tmp_path, n_rows, message):
        # the quote opened on line 6 is never closed, so the csv reader joins
        # every later line into one cell, past its field limit in the long file
        rows = [f"2000-{t:05d}-{t % 12 + 1:02d},{t % 7}.5,{t % 5}.25" for t in range(n_rows)]
        rows[4] = rows[4].replace(",", ',"', 1)
        path = write(tmp_path, "\n".join(["date,a,target", *rows]) + "\n")
        with pytest.raises(DataError, match=re.escape(f"{path}: {message}")):
            load_csv(path, target_column="target")

    def test_deterministic(self, tmp_path):
        path = write(tmp_path, CSV_SIMPLE)
        assert same_panel(load_csv(path, target_column="b"), load_csv(path, target_column="b"))

    def test_save_load_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        panel = PanelData(
            x=rng.standard_normal((3, 7)),
            series_names=("s1", "s2", "s3"),
            time_labels=tuple(f"t{i:03d}" for i in range(7)),
            y=rng.standard_normal(7),
        )
        path = tmp_path / "out.csv"
        save_csv(panel, path)
        back = load_csv(path, target_column="target")
        assert same_panel(back, panel)
        save_csv(back, tmp_path / "out2.csv")
        assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "out2.csv").read_bytes()


def identical_panels(a: PanelData, b: PanelData) -> bool:
    """Same names, labels, drop count and the same bits in the same layout."""
    return (
        same_panel(a, b)
        and a.n_dropped == b.n_dropped
        and a.x.tobytes("A") == b.x.tobytes("A")
        and a.x.strides == b.x.strides
        and a.y.tobytes() == b.y.tobytes()
    )


def python_float_row(cells: list[str], line: int, names=("a", "b", "c")):
    """A row's value cells as Python's ``float`` reads them, or its first bad cell's message."""
    if len(cells) != len(names):
        return f"row {line}: expected {len(names) + 1} cells, got {len(cells) + 1}"
    values = []
    for name, cell in zip(names, cells):
        cell = cell.strip()
        if cell == "" or cell.upper() in ("NA", "NAN"):
            return f"row {line}, column {name!r}: missing value"
        try:
            v = float(cell)
        except ValueError:
            return f"row {line}, column {name!r}: unparseable cell {cell!r}"
        if not math.isfinite(v):
            return f"row {line}, column {name!r}: non-finite value"
        values.append(v)
    return values


# every float written with repr, including -0.0, subnormals and the extremes
CLEAN_CELL = st.tuples(
    st.sampled_from(["", " ", "\t"]), st.floats(allow_nan=False, allow_infinity=False)
).map(lambda c: c[0] + repr(c[1]) + c[0])
ANY_CELL = st.one_of(
    CLEAN_CELL,
    st.sampled_from(["", " ", "NA", " na ", "NaN", "nan", "inf", "-Infinity", "1e400", "1_000",
                     "oops", "0x10", "1.2.3"]),
    # any text a one-line CSV cell can hold
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n\x00"),
            max_size=4),
)


class TestTableParse:
    @settings(deadline=None, max_examples=80)
    @given(
        st.lists(
            st.one_of(
                st.lists(CLEAN_CELL, min_size=3, max_size=3),
                st.lists(ANY_CELL, min_size=3, max_size=3),
                # short and long rows
                st.lists(ANY_CELL, min_size=0, max_size=5),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_rows_read_as_python_float_or_named_by_first_bad_cell(self, tmp_path_factory, rows):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["date", "a", "b", "c"])
        # time labels are stripped like the value cells
        writer.writerows([f" t{t:03d} ", *row] for t, row in enumerate(rows))
        path = tmp_path_factory.mktemp("table") / "panel.csv"
        path.write_text(buf.getvalue())
        parsed = [python_float_row(row, t + 2) for t, row in enumerate(rows)]
        kept = [t for t, values in enumerate(parsed) if not isinstance(values, str)]
        dropped = [message for message in parsed if isinstance(message, str)]
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            if len(kept) < 2:
                with pytest.raises(DataError, match="fewer than 2 usable time points"):
                    load_csv(path, target_column="b")
            else:
                panel = load_csv(path, target_column="b")
        assert [str(w.message) for w in record] == (
            [f"{path}: dropped {len(dropped)} row(s); first: {dropped[0]}"] if dropped else []
        )
        # the warning names the first dropped row; each one is named by its first bad cell
        for t, row in enumerate(rows):
            if isinstance(parsed[t], str):
                message = panel_data._parse_row([f"t{t:03d}", *row], t + 2, ["a", "b", "c"])
                assert message == parsed[t]
        if len(kept) < 2:
            return
        table = np.array([parsed[t] for t in kept])
        expected = PanelData(
            x=np.delete(table, 1, axis=1).T,
            series_names=("a", "c"),
            time_labels=tuple(f"t{t:03d}" for t in kept),
            y=table[:, 1],
            n_dropped=len(dropped),
        )
        # bit for bit, in the layout every later step reads
        assert identical_panels(panel, expected)

    def test_bad_rows_fall_back_to_the_cell_parse(self, tmp_path):
        text = (
            "date,a,b\n"
            "2001-01,1.0,10.0\n"
            "2001-02,NA,11.0\n"
            "2001-03,3.0,12.0\n"
            "2001-04,4.0,nan\n"
            "2001-05,5.0,14.0\n"
            "2001-06,oops,15.0\n"
            "2001-07,7.0\n"
            "2001-08,8.0,18.0\n"
        )
        path = write(tmp_path, text)
        with pytest.warns(UserWarning) as record:
            panel = load_csv(path, target_column="b")
        assert [str(w.message) for w in record] == [
            f"{path}: dropped 4 row(s); first: row 3, column 'a': missing value"
        ]
        assert panel.n_dropped == 4
        assert panel.time_labels == ("2001-01", "2001-03", "2001-05", "2001-08")
        assert np.array_equal(panel.x, [[1.0, 3.0, 5.0, 8.0]])
        assert np.array_equal(panel.y, [10.0, 12.0, 14.0, 18.0])
        # each bad row alone is named by its own message
        for bad, message in [
            ("2001-02,NA,11.0", "row 3, column 'a': missing value"),
            ("2001-02,2.0,nan", "row 3, column 'b': missing value"),
            ("2001-02,inf,11.0", "row 3, column 'a': non-finite value"),
            ("2001-02,oops,11.0", "row 3, column 'a': unparseable cell 'oops'"),
            ("2001-02,2.0", "row 3: expected 3 cells, got 2"),
        ]:
            one = write(tmp_path, CSV_SIMPLE.replace("2001-02,2.0,11.0", bad), "one.csv")
            with pytest.warns(UserWarning, match="dropped 1 row") as record:
                panel = load_csv(one, target_column="b")
            assert str(record[0].message).endswith("first: " + message)
            assert panel.n_dropped == 1
            assert "2001-02" not in panel.time_labels

    @pytest.mark.parametrize(
        "header,name",
        [("date,a,b,b", "b"), ("date,a,a,b", "a"), ("date, a ,a,b", "a"), ("b,a,b", "b")],
    )
    def test_repeated_column_name_rejected(self, tmp_path, header, name):
        # with two "b" columns the second would stay a series equal to y
        text = header + "\n" + "".join(
            f"t{t}," + ",".join(["1.0"] + ["2.0"] * (header.count(",") - 1)) + "\n"
            for t in range(3)
        )
        with pytest.raises(DataError, match=f"repeated column name {name!r}"):
            load_csv(write(tmp_path, text), target_column="b")


class TestStandardize:
    def standardize(self, values):
        x = np.atleast_2d(np.asarray(values, dtype=float))
        return _standardize_array(x, tuple(f"s{i}" for i in range(x.shape[0])))

    def test_full_window(self):
        # mean 4, sample sd 2
        out = self.standardize([2.0, 4.0, 6.0])
        assert np.array_equal(out, [[-1.0, 0.0, 1.0]])

    def test_constant_series_rejected(self):
        with pytest.raises(ValueError, match="zero-variance series.*'s0'"):
            self.standardize([5.0, 5.0, 5.0])

    def test_partial_window(self):
        # a rolling window is standardized by its own statistics: columns 0:2
        # have mean 1 and sample sd sqrt(2), columns 1:3 mean 3 and sd sqrt(2)
        x = np.array([[0.0, 2.0, 4.0]])
        expected = np.array([[-1.0, 1.0]]) / np.sqrt(2.0)
        assert np.allclose(_standardize_array(x[:, 0:2], ("s0",)), expected, atol=1e-12)
        assert np.allclose(_standardize_array(x[:, 1:3], ("s0",)), expected, atol=1e-12)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_one_mean_gives_the_bits_of_std_and_mean(self, order):
        # a rolling window of a panel in either memory order: load_csv's is a
        # Fortran-ordered view, a panel built in memory is C-ordered
        rng = np.random.default_rng(4)
        x = np.asarray(rng.standard_normal((130, 300)) * 3.0 + 1.5, order=order)[:, 57:177]
        expected = (x - x.mean(axis=1, keepdims=True)) / x.std(axis=1, ddof=1, keepdims=True)
        out = _standardize_array(x, tuple(f"s{i}" for i in range(130)))
        assert out.tobytes() == expected.tobytes()

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        out = self.standardize(rng.standard_normal((4, 9)) * 5 + 2)
        assert np.allclose(out.mean(axis=1), 0.0, atol=1e-12)
        assert np.allclose(out.std(axis=1, ddof=1), 1.0, rtol=1e-12)

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 10_000))
    def test_round_trip_property(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((3, 8)) * rng.uniform(0.1, 10) + rng.uniform(-5, 5)
        out = self.standardize(x)
        assert np.allclose(out.mean(axis=1), 0.0, atol=1e-12)
        assert np.allclose(out.std(axis=1, ddof=1), 1.0, rtol=1e-12)


class TestHStepTarget:
    """The rolling evaluator's h-step target: ``out[t] = mean(y[t..t+h-1])``.

    ``y[t]`` is already observed one period after column ``t``, so the window
    starts at ``t`` itself.
    """

    def test_one_step_is_shift(self):
        # the alignment has done the one-period shift: h=1 is y itself
        y = np.array([1.0, 2.0, 3.0, 4.0])
        assert np.array_equal(_forward_mean(y, 1), y)

    def test_two_step_average(self):
        assert np.array_equal(_forward_mean(np.array([1.0, 2.0, 3.0, 4.0]), 2), [1.5, 2.5, 3.5])

    def test_horizon_too_large(self):
        assert np.array_equal(_forward_mean(np.array([1.0, 2.0, 3.0]), 3), [2.0])
        with pytest.raises(ValueError, match="larger than input"):
            _forward_mean(np.array([1.0, 2.0, 3.0]), 4)

    def test_bad_horizon(self):
        # a horizon below 1 is stopped by the rolling configuration
        with pytest.raises(ValueError, match=">= 1"):
            RollingConfig(horizon=0)

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 10_000), st.integers(1, 5))
    def test_windows_are_forward_means(self, seed, h):
        y = np.random.default_rng(seed).standard_normal(12)
        out = _forward_mean(y, h)
        assert out.shape == (12 - h + 1,)
        for t in range(len(out)):
            assert np.isclose(out[t], y[t : t + h].mean(), rtol=1e-12)


class TestPanelValidation:
    def test_time_labels_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            PanelData(
                x=np.ones((1, 3)),
                series_names=("a",),
                time_labels=("t2", "t1", "t3"),
                y=np.zeros(3),
            )

    @pytest.mark.parametrize(
        "changes,message",
        [
            ({"x": np.ones(3)}, "x must be a 2-D matrix"),
            ({"x": np.ones((0, 3)), "series_names": ()}, "at least one series"),
            ({"y": np.zeros(2)}, r"y has length \(2,\), expected \(3,\)"),
            ({"y": np.zeros((3, 1))}, r"y has length \(3, 1\)"),
            ({"series_names": ("a", "b")}, "series_names length does not match"),
            ({"time_labels": ("a", "b", "c", "d")}, "time_labels length does not match"),
            ({"y": np.array([0.0, np.nan, 0.0])}, "y contains missing or non-finite"),
            ({"y": np.array([0.0, 0.0, np.inf])}, "y contains missing or non-finite"),
        ],
    )
    def test_shape_length_and_target_checks(self, changes, message):
        fields = {"x": np.ones((1, 3)), "series_names": ("a",), "time_labels": ("a", "b", "c"),
                  "y": np.zeros(3), **changes}
        with pytest.raises(ValueError, match=message):
            PanelData(**fields)

    def test_one_time_point_is_too_short(self):
        # load_csv stops a short file first; a panel built in memory meets this check
        with pytest.raises(DataError, match="^panel needs at least 2 usable time points$"):
            PanelData(x=np.ones((2, 1)), series_names=("a", "b"), time_labels=("t1",),
                      y=np.zeros(1))

    def test_non_finite_rejected(self):
        x = np.ones((1, 3))
        x[0, 1] = np.nan
        with pytest.raises(ValueError, match="missing or non-finite"):
            PanelData(x=x, series_names=("a",), time_labels=("a", "b", "c"), y=np.zeros(3))
