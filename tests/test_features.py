import dataclasses
import datetime as dt

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import synthetic_panel
from wqpanel.features import (MONTH_VOCAB, SEASON_VOCAB, WEEKDAY_VOCAB, Categoricals,
                              Strategy, apply_standardizer, assemble_design,
                              check_strategy, fit_pipeline, fit_standardizer,
                              numeric_block, UnseenLabelError)
from wqpanel.panel import PanelDataset, StackedTable, stack_panel


def one_hot_encode(values, vocabulary) -> np.ndarray:
    """One column per vocabulary entry; each row has exactly one 1. Unseen
    labels raise UnseenLabelError. The oracle's encoder: one label per row."""
    vocabulary = list(vocabulary)
    index = {label: i for i, label in enumerate(vocabulary)}
    try:
        codes = np.fromiter((index[value] for value in values), dtype=np.intp,
                            count=len(values))
    except KeyError as exc:
        raise UnseenLabelError(exc.args[0]) from None
    out = np.zeros((len(values), len(vocabulary)), dtype=float)
    out[np.arange(len(values)), codes] = 1.0
    return out


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


@pytest.mark.parametrize("block", [np.array([[0.0, 2.0]]), np.array([0.0, 2.0])],
                         ids=["one_row", "one_dimensional"])
def test_fit_standardizer_refuses_a_one_row_or_one_dimensional_block(block):
    # a one-row training panel reaches this guard through fit_pipeline;
    # either fault alone is refused
    with pytest.raises(ValueError, match=">= 2 rows"):
        fit_standardizer(block)


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


RAW, STANDARDIZED, CATEGORICAL = Strategy


def fitted_design(table, strategy, categoricals=Categoricals()):
    """The design of the table under a pipeline fit on the table itself."""
    return assemble_design(table, fit_pipeline(table, strategy, categoricals))


def test_strategy1_eleven_numeric_columns(stacked):
    design = fitted_design(stacked, RAW)
    assert design.n_cols == 11
    assert design.column_names == stacked.feature_names
    assert design.groups == {}  # no one-hot block
    np.testing.assert_array_equal(design.X, stacked.X)


def test_strategy2_equals_strategy1_standardized(stacked):
    _, numeric = numeric_block(stacked, STANDARDIZED, Categoricals())
    params = fit_standardizer(numeric)
    state = fit_pipeline(stacked, STANDARDIZED, Categoricals())
    assert state.standardizer.mean.tobytes() == params.mean.tobytes()
    assert state.standardizer.sd.tobytes() == params.sd.tobytes()
    d1 = fitted_design(stacked, RAW)
    d2 = assemble_design(stacked, state)
    assert d1.column_names == d2.column_names
    np.testing.assert_array_equal(d2.X, apply_standardizer(params, d1.X))
    np.testing.assert_array_equal(d1.y, d2.y)


def test_strategy2_requires_params(stacked):
    state = fit_pipeline(stacked, RAW, Categoricals())
    with pytest.raises(ValueError, match="standardizer must be null for strategy 1 and only then"):
        dataclasses.replace(state, strategy=STANDARDIZED)


def test_strategy3_column_budget(stacked):
    design = fitted_design(stacked, CATEGORICAL)
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
    design = fitted_design(stacked, CATEGORICAL)
    month_cols = design.groups["month"]
    counts = design.X[:, month_cols].sum(axis=0)
    from collections import Counter
    freq = Counter(d.month for d in stacked.dates for _ in stacked.site_ids)
    np.testing.assert_array_equal(counts, [freq.get(m, 0) for m in MONTH_VOCAB])


def test_strategy3_ordinals_optional(stacked):
    categoricals = Categoricals(year_ordinal=True, day_ordinal=True)
    names, _ = numeric_block(stacked, CATEGORICAL, categoricals)
    assert names[-2:] == ["year", "day"]
    design = fitted_design(stacked, CATEGORICAL, categoricals)
    assert "year" in design.column_names and "day" in design.column_names


def test_strategy3_requires_site_onehot(stacked):
    with pytest.raises(ValueError, match="site one-hot"):
        check_strategy(CATEGORICAL, Categoricals(site=False))
    with pytest.raises(ValueError, match="site one-hot"):
        fit_pipeline(stacked, CATEGORICAL, Categoricals(site=False))


def test_assemble_deterministic(stacked):
    state = fit_pipeline(stacked, CATEGORICAL, Categoricals())
    a = assemble_design(stacked, state)
    b = assemble_design(stacked, state)
    assert a.column_names == b.column_names
    assert a.X.tobytes() == b.X.tobytes()


def test_site_vocabulary_reuse_and_unseen_site(stacked):
    state = fit_pipeline(stacked, CATEGORICAL, Categoricals())
    assert state.site_vocabulary == ("site00", "site01", "site02")
    design = assemble_design(stacked, state)
    assert design.column_names[11:14] == ("site=site00", "site=site01", "site=site02")
    two_sites = fit_pipeline(stack_panel(synthetic_panel(10, 2, 11, seed=9)),
                             CATEGORICAL, Categoricals())
    with pytest.raises(UnseenLabelError, match="'site02'"):
        assemble_design(stacked, two_sites)


@pytest.mark.parametrize("strategy", list(Strategy))
def test_assemble_refuses_other_numeric_columns(stacked, strategy):
    state = fit_pipeline(stacked, strategy, Categoricals())
    renamed = dataclasses.replace(stacked, feature_names=("X0", *stacked.feature_names[1:]))
    fewer = dataclasses.replace(stacked, feature_names=stacked.feature_names[:-1],
                                X=stacked.X[:, :-1])
    for table in (renamed, fewer):
        with pytest.raises(ValueError, match="rebuilt design columns do not match"):
            assemble_design(table, state)


@pytest.mark.parametrize("strategy", list(Strategy))
def test_assemble_refuses_non_finite_numerics(stacked, strategy):
    state = fit_pipeline(stacked, strategy, Categoricals())
    for value in (np.nan, np.inf):
        X = stacked.X.copy()
        X[4, 2] = value
        with pytest.raises(ValueError, match="design matrix contains non-finite entries"):
            assemble_design(dataclasses.replace(stacked, X=X), state)


SEASON_BY_MONTH = {12: "Winter", 1: "Winter", 2: "Winter",
                   3: "Spring", 4: "Spring", 5: "Spring",
                   6: "Summer", 7: "Summer", 8: "Summer",
                   9: "Fall", 10: "Fall", 11: "Fall"}


def oracle_rows(table):
    """Each row's date and site, read off the stacked order: row i*K + j
    holds date i and site j."""
    k = len(table.site_ids)
    return ([table.dates[r // k] for r in range(table.row_count)],
            [table.site_ids[r % k] for r in range(table.row_count)])


def oracle_numeric(table, strategy, categoricals):
    """numeric_block's (names, block), each ordinal read off the row's own date."""
    row_dates, _ = oracle_rows(table)
    names, columns = list(table.feature_names), [table.X]
    for name in ("year", "day"):
        if strategy == CATEGORICAL and getattr(categoricals, f"{name}_ordinal"):
            names.append(name)
            columns.append(np.array([[getattr(d, name)] for d in row_dates], dtype=float))
    return names, np.column_stack(columns)


def oracle_design(table, state):
    """assemble_design's (column names, X, groups) under the state's
    strategy, categoricals, standardizer and site vocabulary, built one row
    at a time: each calendar label read off the row's own date, each
    one-hot block by one_hot_encode, and the numeric block standardized as
    (x - mean) / sd with zero-variance columns set to 0."""
    row_dates, row_sites = oracle_rows(table)
    names, numeric = oracle_numeric(table, state.strategy, state.categoricals)
    params = state.standardizer
    if state.strategy != RAW:
        numeric = (numeric - params.mean) / np.where(params.sd == 0.0, 1.0, params.sd)
        numeric[:, params.sd == 0.0] = 0.0
    blocks, groups = [numeric], {}
    if state.strategy == CATEGORICAL:
        labels = {"site": row_sites, "month": [d.month for d in row_dates],
                  "weekday": [d.weekday() for d in row_dates],
                  "season": [SEASON_BY_MONTH[d.month] for d in row_dates]}
        vocab = {"site": list(state.site_vocabulary),
                 "month": list(range(1, 13)), "weekday": list(range(7)),
                 "season": ["Winter", "Spring", "Summer", "Fall"]}
        for group in ("site", "month", "weekday", "season"):
            if getattr(state.categoricals, group):
                groups[group] = list(range(len(names), len(names) + len(vocab[group])))
                blocks.append(one_hot_encode(labels[group], vocab[group]))
                names.extend(f"{group}={label}" for label in vocab[group])
    return tuple(names), np.column_stack(blocks), groups


def calendar_labels(date):
    """The month, weekday and season one-hot columns a strategy-3 design
    sets for one date, as their column names."""
    table = StackedTable(dates=(date, date), site_ids=("s0",), feature_names=("X1",),
                         X=np.array([[0.0], [1.0]]), y=np.zeros(2))
    design = fitted_design(table, CATEGORICAL)
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
    # a date axis in any order, repeats included, over three sites
    rng = np.random.default_rng(len(dates))
    rows = 3 * len(dates)
    table = StackedTable(dates=tuple(dates), site_ids=("s0", "s1", "s2"),
                         feature_names=("X1", "X2"),
                         X=rng.uniform(size=(rows, 2)), y=rng.uniform(size=rows))
    state = fit_pipeline(table, CATEGORICAL, Categoricals())
    design = assemble_design(table, state)
    names, X, _ = oracle_design(table, state)
    assert design.column_names == names
    assert design.X.tobytes() == X.tobytes()


# -------------------------- design assembly against the row-by-row oracle
# Drawn panels of 1-6 sites whose dates cross year, month and season
# boundaries and leap days, every strategy and Categoricals combination,
# and a test panel read against the training panel's site vocabulary.

# a few days before a year, season or month boundary, or a leap day
_BOUNDARY_STARTS = [dt.date(2015, 12, 29), dt.date(2016, 2, 27), dt.date(2016, 5, 30),
                    dt.date(2019, 8, 30), dt.date(2019, 11, 29), dt.date(2020, 2, 28)]


@st.composite
def drawn_panels(draw, sites, min_dates=1):
    """A PanelDataset on ``sites``: its dates a drawn start plus sorted
    distinct offsets of up to 70 days, its cells from a seeded uniform,
    with one feature made constant in some draws."""
    start = draw(st.sampled_from(_BOUNDARY_STARTS)
                 | st.dates(min_value=dt.date(1990, 1, 1), max_value=dt.date(2030, 12, 31)))
    offsets = sorted(draw(st.sets(st.integers(0, 70), min_size=min_dates, max_size=12)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (len(offsets), len(sites))
    features = rng.uniform(size=(*shape, 3))
    if draw(st.booleans()):
        features[:, :, 1] = 0.25  # a zero-variance column
    return PanelDataset(dates=tuple(start + dt.timedelta(days=d) for d in offsets),
                        site_ids=tuple(sites), feature_names=("X1", "X2", "X3"),
                        features=features, targets=rng.uniform(size=shape))


def assert_design_equals_oracle(table, state):
    design = assemble_design(table, state)
    names, X, groups = oracle_design(table, state)
    assert design.column_names == names
    assert design.X.tobytes() == X.tobytes()
    assert design.y.tobytes() == table.y.tobytes()
    assert design.groups == groups


@given(st.data())
def test_design_equals_the_row_by_row_oracle_on_drawn_panels(data):
    sites = data.draw(st.lists(st.sampled_from([f"site{j}" for j in range(9)]),
                               min_size=1, max_size=6, unique=True), label="sites")
    train = stack_panel(data.draw(drawn_panels(sites, min_dates=2), label="train"))
    strategy = data.draw(st.sampled_from(list(Strategy)), label="strategy")
    flags = {f: data.draw(st.booleans(), label=f) for f in (
        "site", "month", "weekday", "season", "year_ordinal", "day_ordinal")}
    flags["site"] |= strategy == CATEGORICAL  # strategy 3 needs it
    categoricals = Categoricals(**flags)
    names, numeric = oracle_numeric(train, strategy, categoricals)
    block = numeric_block(train, strategy, categoricals)
    assert block[0] == names and block[1].tobytes() == numeric.tobytes()
    # the pipeline fit on the training panel: the standardizer of its
    # numeric block, and its sites, in first-seen row order
    state = fit_pipeline(train, strategy, categoricals)
    if strategy == RAW:
        assert state.standardizer is None
    else:
        params = fit_standardizer(numeric)
        assert state.standardizer.mean.tobytes() == params.mean.tobytes()
        assert state.standardizer.sd.tobytes() == params.sd.tobytes()
    assert state.site_vocabulary == tuple(dict.fromkeys(oracle_rows(train)[1]))
    assert_design_equals_oracle(train, state)

    # a later panel on some of the training sites, in any order, read
    # against the training vocabulary; an unseen site is refused by name
    test_sites = data.draw(st.permutations(sites), label="test sites")[
        :data.draw(st.integers(1, len(sites)), label="test site count")]
    unseen = data.draw(st.booleans(), label="unseen")
    if unseen:
        test_sites[data.draw(st.integers(0, len(test_sites) - 1), label="at")] = "new site"
    test = stack_panel(data.draw(drawn_panels(test_sites), label="test"))
    if unseen and strategy == CATEGORICAL:
        with pytest.raises(UnseenLabelError, match="'new site'"):
            assemble_design(test, state)
        with pytest.raises(UnseenLabelError, match="'new site'"):
            oracle_design(test, state)
    else:
        assert_design_equals_oracle(test, state)
