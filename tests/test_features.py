import datetime as dt

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import synthetic_panel
from wqpanel.features import (MONTH_VOCAB, SEASON_VOCAB, WEEKDAY_VOCAB, Categoricals,
                              Strategy, StrategyConfig, apply_standardizer,
                              assemble_design, fit_standardizer,
                              numeric_block, one_hot_encode, UnseenLabelError)
from wqpanel.panel import StackedTable, stack_panel


def test_one_hot_hand_enumeration():
    out = one_hot_encode(["a", "b", "a"], ["a", "b"])
    np.testing.assert_array_equal(out, [[1, 0], [0, 1], [1, 0]])


def test_one_hot_single_category():
    out = one_hot_encode(["x", "x", "x"], ["x"])
    np.testing.assert_array_equal(out, [[1], [1], [1]])


def test_one_hot_many_sites_rows_sum_to_one():
    vocab = [f"s{i}" for i in range(37)]
    rng = np.random.default_rng(0)
    values = [vocab[i] for i in rng.integers(0, 37, size=100)]
    out = one_hot_encode(values, vocab)
    assert out.shape == (100, 37)
    np.testing.assert_array_equal(out.sum(axis=1), np.ones(100))


def test_one_hot_zero_values():
    out = one_hot_encode([], ["a", "b"])
    assert out.shape == (0, 2) and out.dtype == float


def test_one_hot_unseen_label_named():
    with pytest.raises(UnseenLabelError, match="'c'"):
        one_hot_encode(["a", "c"], ["a", "b"])


def test_fit_standardizer_hand_arithmetic():
    params = fit_standardizer(np.array([[0.0], [2.0]]))
    assert params.mean[0] == 1.0
    assert params.sd[0] == pytest.approx(np.sqrt(2.0))


def test_fit_standardizer_constant_column():
    params = fit_standardizer(np.full((5, 1), 3.3))
    assert params.mean[0] == pytest.approx(3.3)
    assert params.sd[0] == 0.0


def test_standardize_train_gives_zero_mean_unit_sd():
    rng = np.random.default_rng(1)
    X = rng.normal(3.0, 2.0, size=(40, 3))
    params = fit_standardizer(X)
    z = apply_standardizer(params, X)
    np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(z.std(axis=0, ddof=1), 1.0, atol=1e-12)


def test_apply_standardizer_hand_value_and_degenerate():
    params = fit_standardizer(np.array([[0.0], [2.0]]))
    z = apply_standardizer(params, np.array([[3.0]]))
    assert z[0, 0] == pytest.approx(2.0 / np.sqrt(2.0))  # ~1.4142

    const = fit_standardizer(np.full((3, 1), 9.0))
    assert apply_standardizer(const, np.array([[123.0]]))[0, 0] == 0.0

    with pytest.raises(ValueError):
        apply_standardizer(params, np.zeros((2, 3)))


def test_train_statistics_used_on_test_rows():
    train = np.array([[0.0], [2.0]])
    test = np.array([[10.0]])
    params = fit_standardizer(train)
    z = apply_standardizer(params, test)
    assert z[0, 0] == pytest.approx((10.0 - 1.0) / np.sqrt(2.0))


@given(st.integers(0, 100))
def test_standardization_round_trip(seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(10, 2)) * [1.0, 5.0] + [2.0, -1.0]
    params = fit_standardizer(X)
    z = apply_standardizer(params, X)
    back = z * params.sd + params.mean
    np.testing.assert_allclose(back, X, atol=1e-12)


@pytest.fixture
def stacked():
    return stack_panel(synthetic_panel(10, 3, 11, seed=9))


def test_strategy1_eleven_numeric_columns(stacked):
    design = assemble_design(stacked, StrategyConfig(strategy=Strategy.RAW_NUMERIC))
    assert design.n_cols == 11
    assert design.column_names == stacked.feature_names
    assert design.groups == {}  # no one-hot block
    np.testing.assert_array_equal(design.X, stacked.X)


def test_strategy2_equals_strategy1_standardized(stacked):
    cfg1 = StrategyConfig(strategy=Strategy.RAW_NUMERIC)
    cfg2 = StrategyConfig(strategy=Strategy.STANDARDIZED_NUMERIC)
    _, numeric = numeric_block(stacked, cfg2)
    params = fit_standardizer(numeric)
    d1 = assemble_design(stacked, cfg1)
    d2 = assemble_design(stacked, cfg2, params)
    assert d1.column_names == d2.column_names
    np.testing.assert_array_equal(d2.X, apply_standardizer(params, d1.X))
    np.testing.assert_array_equal(d1.y, d2.y)


def test_strategy2_requires_params(stacked):
    with pytest.raises(ValueError, match="requires standardization params"):
        assemble_design(stacked, StrategyConfig(strategy=Strategy.STANDARDIZED_NUMERIC))


def test_strategy3_column_budget(stacked):
    cfg = StrategyConfig(strategy=Strategy.STANDARDIZED_PLUS_CATEGORICAL)
    _, numeric = numeric_block(stacked, cfg)
    params = fit_standardizer(numeric)
    design = assemble_design(stacked, cfg, params)
    # 11 numerics + 3 sites + 12 months + 7 weekdays + 4 seasons
    assert design.n_cols == 11 + 3 + len(MONTH_VOCAB) + len(WEEKDAY_VOCAB) + len(SEASON_VOCAB)
    assert set(design.groups) == {"site", "month", "weekday", "season"}
    for cols in design.groups.values():
        np.testing.assert_array_equal(design.X[:, cols].sum(axis=1), 1.0)
    # numerics first in X order, then group blocks in fixed order
    assert design.column_names[:11] == stacked.feature_names
    assert design.column_names[11].startswith("site=")
    assert design.column_names[14] == "month=1"


def test_strategy3_one_hot_column_sums_match_frequencies(stacked):
    cfg = StrategyConfig(strategy=Strategy.STANDARDIZED_PLUS_CATEGORICAL)
    _, numeric = numeric_block(stacked, cfg)
    design = assemble_design(stacked, cfg, fit_standardizer(numeric))
    month_cols = design.groups["month"]
    counts = design.X[:, month_cols].sum(axis=0)
    from collections import Counter
    freq = Counter(d.month for d in stacked.dates)
    np.testing.assert_array_equal(counts, [freq.get(m, 0) for m in MONTH_VOCAB])


def test_strategy3_ordinals_optional(stacked):
    cfg = StrategyConfig(strategy=Strategy.STANDARDIZED_PLUS_CATEGORICAL,
                         categoricals=Categoricals(year_ordinal=True, day_ordinal=True))
    names, numeric = numeric_block(stacked, cfg)
    assert names[-2:] == ["year", "day"]
    design = assemble_design(stacked, cfg, fit_standardizer(numeric))
    assert "year" in design.column_names and "day" in design.column_names


def test_strategy3_requires_site_onehot():
    with pytest.raises(ValueError, match="site one-hot"):
        StrategyConfig(strategy=Strategy.STANDARDIZED_PLUS_CATEGORICAL,
                       categoricals=Categoricals(site=False))


def test_assemble_deterministic(stacked):
    cfg = StrategyConfig(strategy=Strategy.STANDARDIZED_PLUS_CATEGORICAL)
    _, numeric = numeric_block(stacked, cfg)
    params = fit_standardizer(numeric)
    a = assemble_design(stacked, cfg, params)
    b = assemble_design(stacked, cfg, params)
    assert a.column_names == b.column_names
    assert a.X.tobytes() == b.X.tobytes()


def test_site_vocabulary_reuse_and_unseen_site(stacked):
    cfg = StrategyConfig(strategy=Strategy.STANDARDIZED_PLUS_CATEGORICAL)
    _, numeric = numeric_block(stacked, cfg)
    params = fit_standardizer(numeric)
    vocab = ("site00", "site01", "site02")
    design = assemble_design(stacked, cfg, params, site_vocabulary=vocab)
    assert design.column_names[11:14] == ("site=site00", "site=site01", "site=site02")
    with pytest.raises(UnseenLabelError):
        assemble_design(stacked, cfg, params, site_vocabulary=("site00", "site01"))


SEASON_BY_MONTH = {12: "Winter", 1: "Winter", 2: "Winter",
                   3: "Spring", 4: "Spring", 5: "Spring",
                   6: "Summer", 7: "Summer", 8: "Summer",
                   9: "Fall", 10: "Fall", 11: "Fall"}


def oracle_strategy3(table, params):
    """The default strategy-3 design built one row at a time: each date
    splits into its month, weekday (Monday = 0) and meteorological season,
    and each row writes its four one-hot entries one by one."""
    vocab = ([("site", s) for s in dict.fromkeys(table.site_ids)]
             + [("month", m) for m in range(1, 13)]
             + [("weekday", w) for w in range(7)]
             + [("season", s) for s in ("Winter", "Spring", "Summer", "Fall")])
    column = {key: j for j, key in enumerate(vocab)}
    onehot = np.zeros((table.row_count, len(vocab)))
    for r, (site, date) in enumerate(zip(table.site_ids, table.dates)):
        for key in (("site", site), ("month", date.month),
                    ("weekday", date.weekday()),
                    ("season", SEASON_BY_MONTH[date.month])):
            onehot[r, column[key]] = 1.0
    names = (*table.feature_names, *(f"{group}={label}" for group, label in vocab))
    return names, np.column_stack([apply_standardizer(params, table.X), onehot])


def calendar_labels(date):
    """The month, weekday and season one-hot columns a strategy-3 design
    sets for one date, as their column names."""
    table = StackedTable(dates=(date, date), site_ids=("s0", "s0"), feature_names=("X1",),
                         X=np.array([[0.0], [1.0]]), y=np.zeros(2))
    design = assemble_design(
        table, StrategyConfig(strategy=Strategy.STANDARDIZED_PLUS_CATEGORICAL),
        fit_standardizer(table.X))
    return {design.column_names[j] for group, columns in design.groups.items()
            if group != "site" for j in columns if design.X[0, j] == 1.0}


def test_decompose_winter_thursday():
    assert calendar_labels(dt.date(2016, 1, 28)) == {"month=1", "weekday=3", "season=Winter"}


def test_decompose_leap_day():
    assert calendar_labels(dt.date(2016, 2, 29)) == {"month=2", "weekday=0", "season=Winter"}


def test_decompose_iso_week_monday():
    assert calendar_labels(dt.date(2018, 1, 1)) == {"month=1", "weekday=0", "season=Winter"}


@given(st.dates(min_value=dt.date(1990, 1, 1), max_value=dt.date(2030, 12, 31)))
def test_decompose_consistent_with_calendar(date):
    assert calendar_labels(date) == {f"month={date.month}", f"weekday={date.weekday()}",
                                     f"season={SEASON_BY_MONTH[date.month]}"}


def _week_from(start):
    return [start + dt.timedelta(days=i) for i in range(7)]


@given(st.lists(st.dates(min_value=dt.date(1990, 1, 1), max_value=dt.date(2030, 12, 31)),
                min_size=2, max_size=30))
@example(_week_from(dt.date(2016, 2, 25)))  # leap day, Feb to Mar, every weekday
@example(_week_from(dt.date(2015, 12, 28)))  # December to January
@example([dt.date(2016, 1, 28), dt.date(2018, 1, 1)])  # a Thursday, a Monday
def test_strategy3_calendar_columns_match_per_row_oracle(dates):
    rng = np.random.default_rng(len(dates))
    table = StackedTable(dates=tuple(dates),
                         site_ids=tuple(f"s{i % 3}" for i in range(len(dates))),
                         feature_names=("X1", "X2"),
                         X=rng.uniform(size=(len(dates), 2)), y=rng.uniform(size=len(dates)))
    params = fit_standardizer(table.X)
    design = assemble_design(
        table, StrategyConfig(strategy=Strategy.STANDARDIZED_PLUS_CATEGORICAL), params)
    names, X = oracle_strategy3(table, params)
    assert design.column_names == names
    assert design.X.tobytes() == X.tobytes()
