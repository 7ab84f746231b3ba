import csv
import io
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from suffcast import DataError, PanelData, load_csv, standardize
from suffcast.forecaster import RollingConfig, _forward_mean
from suffcast.panel_data import _standardize_array


def save_csv(panel: PanelData, path) -> None:
    """Write a panel in the format ``load_csv`` reads, round-trip exact.

    Floats are written with ``repr`` so reading the file back reproduces the
    panel bit-exactly.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["date", *panel.series_names, panel.target_name])
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
        and a.target_name == b.target_name
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


class TestStandardize:
    def panel(self, values):
        values = np.atleast_2d(np.asarray(values, dtype=float))
        t = values.shape[1]
        return PanelData(
            x=values,
            series_names=tuple(f"s{i}" for i in range(values.shape[0])),
            time_labels=tuple(f"t{i:03d}" for i in range(t)),
            y=np.zeros(t),
        )

    def test_full_window(self):
        # mean 4, sample sd 2
        out = standardize(self.panel([2.0, 4.0, 6.0]))
        assert np.array_equal(out.x, [[-1.0, 0.0, 1.0]])

    def test_constant_series_rejected(self):
        with pytest.raises(ValueError, match="zero-variance series.*'s0'"):
            standardize(self.panel([5.0, 5.0, 5.0]))

    def test_partial_window(self):
        # a rolling window is standardized by its own statistics: columns 0:2
        # have mean 1 and sample sd sqrt(2), columns 1:3 mean 3 and sd sqrt(2)
        x = np.array([[0.0, 2.0, 4.0]])
        expected = np.array([[-1.0, 1.0]]) / np.sqrt(2.0)
        assert np.allclose(_standardize_array(x[:, 0:2], ("s0",)), expected, atol=1e-12)
        assert np.allclose(_standardize_array(x[:, 1:3], ("s0",)), expected, atol=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        panel = self.panel(rng.standard_normal((4, 9)) * 5 + 2)
        out = standardize(panel)
        assert np.allclose(out.x.mean(axis=1), 0.0, atol=1e-12)
        assert np.allclose(out.x.std(axis=1, ddof=1), 1.0, rtol=1e-12)

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 10_000))
    def test_round_trip_property(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((3, 8)) * rng.uniform(0.1, 10) + rng.uniform(-5, 5)
        panel = self.panel(x)
        out = standardize(panel)
        assert np.allclose(out.x.mean(axis=1), 0.0, atol=1e-12)
        assert np.allclose(out.x.std(axis=1, ddof=1), 1.0, rtol=1e-12)


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

    def test_non_finite_rejected(self):
        x = np.ones((1, 3))
        x[0, 1] = np.nan
        with pytest.raises(ValueError, match="missing or non-finite"):
            PanelData(x=x, series_names=("a",), time_labels=("a", "b", "c"), y=np.zeros(3))
