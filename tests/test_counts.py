"""The one integer rule, ``panel_data._check_count``, at every config field and count argument."""
import os
import typing
from dataclasses import fields

import numpy as np
import pytest

from suffcast import (
    DgpSpec,
    PanelData,
    RollingConfig,
    StudyConfig,
    build_kernels,
    fit_indices,
    monte_carlo_study,
    rolling_evaluate,
    sample_dgp,
    select_and_fit_factors,
    select_dimension,
    slice_target,
)
from suffcast import cli, simulation
from suffcast.factor_analysis import K_MAX
from suffcast.sdr import N_SLICES

RNG = np.random.default_rng(30)
X = RNG.standard_normal((12, 40))
F = RNG.standard_normal((40, 3))
Y = F[:, 0] ** 2 + 0.1 * RNG.standard_normal(40)
KERNEL = build_kernels(["dr"], F, slice_target(Y, N_SLICES))["dr"]


def dgp(**kw):
    return (sample_dgp(DgpSpec(**{"p": 8, "t_len": 30, "seed": 1, **kw}), 0).x,)


def study(**kw):
    config = {"methods": ("pc",), "metrics": ("oos", "k_selection"), "n_reps": 2, "n_test": 5,
              "jobs": 1, **kw}
    values = monte_carlo_study(DgpSpec(p=8, t_len=30, seed=1), StudyConfig(**config)).values
    return tuple(values[key] for key in sorted(values))


def rolling(**kw):
    panel = PanelData(x=X[:5], series_names=tuple("abcde"),
                      time_labels=tuple(f"t{i:02d}" for i in range(40)), y=Y)
    config = {"window": 30, "horizon": 1, "method": "dr", "k": 2, "l": 1, "n_eval": 2, **kw}
    report = rolling_evaluate(panel, RollingConfig(**config))
    return report.origins, report.forecasts, report.baseline


def factors(k):
    _, fit = select_and_fit_factors(X, K_MAX, cli.FactorsConfig(k=k).k)
    return (fit.factors,)


def fitted(k_max=4, k=2):
    selection, fit = select_and_fit_factors(X, k_max, k)
    return selection.log_resid, fit.factors


def slices(h_count):
    s = slice_target(Y, h_count)
    return s.labels, s.counts, s.h_count


def indices(l=2, p=12):
    return tuple(phi for _, phi in fit_indices(["sir", "dr"], F, Y, p, l).values())


def dimension(p=12, t_len=40):
    selection = select_dimension(KERNEL, p, t_len)
    return selection.objective, selection.l_hat, selection.c_t


#: (owner.name, call of one value, a valid value, the least valid one, takes "auto")
COUNTS = [
    ("DgpSpec.p", lambda v: dgp(p=v), 8, 1, False),
    ("DgpSpec.t_len", lambda v: dgp(t_len=v), 30, 1, False),
    ("DgpSpec.seed", lambda v: dgp(seed=v), 1, 0, False),
    ("StudyConfig.n_reps", lambda v: study(n_reps=v), 2, 1, False),
    ("StudyConfig.n_test", lambda v: study(n_test=v), 5, 1, False),
    ("StudyConfig.jobs", lambda v: study(jobs=v), 1, 0, False),
    ("RollingConfig.window", lambda v: rolling(window=v), 30, 1, False),
    ("RollingConfig.horizon", lambda v: rolling(horizon=v), 2, 1, False),
    ("RollingConfig.k", lambda v: rolling(k=v), 2, 1, True),
    ("RollingConfig.l", lambda v: rolling(l=v), 1, 1, True),
    ("RollingConfig.n_eval", lambda v: rolling(n_eval=v), 2, 1, False),
    ("FactorsConfig.k", factors, 3, 1, True),
    ("select_and_fit_factors.k_max", lambda v: fitted(k_max=v), 4, 1, False),
    ("select_and_fit_factors.k", lambda v: fitted(k=v), 3, 1, True),
    ("slice_target.h_count", slices, 4, 1, False),
    ("fit_indices.l", indices, 2, 1, True),
    ("fit_indices.p", lambda v: indices(p=v), 12, 1, False),
    ("select_dimension.p", lambda v: dimension(p=v), 12, 1, False),
    ("select_dimension.t_len", lambda v: dimension(t_len=v), 40, 1, False),
]
CONFIGS = (DgpSpec, StudyConfig, RollingConfig, cli.SelectConfig, cli.FactorsConfig)


def each_count(test):
    return pytest.mark.parametrize("count", COUNTS, ids=[c[0] for c in COUNTS])(test)


@pytest.fixture(autouse=True)
def one_cpu(monkeypatch):
    """One usable CPU: every study and rolling run computes in this process."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)


def test_every_integer_config_field_is_listed():
    integer_fields = {
        f"{cls.__name__}.{f.name}"
        for cls in CONFIGS
        for f in fields(cls)
        if typing.get_type_hints(cls)[f.name] in (int, int | str)
    }
    owners = {cls.__name__ for cls in CONFIGS}
    assert integer_fields == {c[0] for c in COUNTS if c[0].split(".")[0] in owners}


@each_count
@pytest.mark.parametrize("bad", [2.5, True, "3"])
def test_a_non_integer_is_named(count, bad):
    where, call, _, _, auto = count
    allowed = ' or "auto"' if auto else ""
    message = f"^{where.split('.')[1]} must be an integer{allowed}, got {bad!r}$"
    with pytest.raises(ValueError, match=message):
        call(bad)


@each_count
def test_a_count_below_the_least_is_named(count):
    where, call, _, least, auto = count
    allowed = ' or "auto"' if auto else ""
    message = f"^{where.split('.')[1]} must be >= {least}{allowed}, got {least - 1}$"
    with pytest.raises(ValueError, match=message):
        call(least - 1)


@each_count
def test_a_numpy_integer_gives_the_int_result(count):
    _, call, good, _, _ = count
    expected = call(good)
    got = call(np.int64(good))
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert np.array_equal(a, b)


def test_a_non_integer_study_is_refused_before_it_draws(monkeypatch):
    def drawing(*args):
        raise AssertionError("drew a replicate of an invalid study")

    monkeypatch.setattr(simulation, "_chunk_panels", drawing)
    monkeypatch.setattr(simulation, "_loadings", drawing)
    with pytest.raises(ValueError, match="^p must be an integer, got 30.5$"):
        monte_carlo_study(DgpSpec(p=30.5), StudyConfig(n_reps=2, jobs=1))
