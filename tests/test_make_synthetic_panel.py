"""scripts/make_synthetic_panel.py: the row-template writer against the
csv.writer loop it replaced, the files it writes, and its size flags."""

import csv
import datetime as dt
import importlib.util
import string
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import at_least
from wqpanel import panel
from wqpanel.panel import PanelSchema, load_panel

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "make_synthetic_panel.py"
OUTPUTS = ("train.csv", "test.csv", "schema.json", "sites.csv", "config.json")
SIZE_FLAGS = ("--train-dates", "--test-dates", "--sites", "--features")

_spec = importlib.util.spec_from_file_location("make_synthetic_panel", SCRIPT)
script = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(script)


def oracle_write_csv(path, dates, sites, features, targets, feature_names):
    """The writer as it was: one csv.writer row of f-strings per (date, site)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["datetime", "site_no",
                         *(f"usgs_{n.lower()}" for n in feature_names), "median_ph"])
        for i, date in enumerate(dates):
            for j, site in enumerate(sites):
                writer.writerow([date.isoformat(), site,
                                 *(f"{v:.10f}" for v in features[i, j]),
                                 f"{targets[i, j]:.10f}"])


# any double, with the ones whose formatting is easiest to get wrong drawn often
DOUBLES = st.floats() | st.sampled_from(
    [-0.0, 5e-324, -5e-324, 0.99999999995, 1e300, -1e300, 1e-11, 5e-11,
     float("nan"), float("inf"), -float("inf")])
NAME = st.text(string.ascii_letters + string.digits + "_", min_size=1, max_size=5)


@st.composite
def panels(draw):
    n_dates = draw(st.integers(1, 4))
    n_sites = draw(st.integers(1, 4))
    p = draw(st.integers(1, 4))
    start = draw(st.dates(max_value=dt.date(9000, 1, 1)))
    dates = [start + dt.timedelta(days=i) for i in range(n_dates)]
    sites = draw(st.lists(NAME, min_size=n_sites, max_size=n_sites))
    features = draw(arrays(np.float64, (n_dates, n_sites, p), elements=DOUBLES))
    targets = draw(arrays(np.float64, (n_dates, n_sites), elements=DOUBLES))
    names = draw(st.lists(NAME, min_size=p, max_size=p))
    return dates, sites, features, targets, names


@at_least(200)
@given(panels())
def test_write_csv_writes_the_oracles_bytes(tmp_path_factory, drawn):
    out = tmp_path_factory.mktemp("panel")
    script.write_csv(out / "template.csv", *drawn)
    oracle_write_csv(out / "oracle.csv", *drawn)
    assert (out / "template.csv").read_bytes() == (out / "oracle.csv").read_bytes()


def _generate(monkeypatch, out, *flags):
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), "--out", str(out), *flags])
    script.main()


def test_generated_panels_take_the_column_reader_and_repeat_byte_for_byte(
        monkeypatch, tmp_path):
    flags = ("--train-dates", "7", "--test-dates", "3", "--sites", "4",
             "--features", "6", "--seed", "5")
    _generate(monkeypatch, tmp_path / "first", *flags)
    _generate(monkeypatch, tmp_path / "second", *flags)
    for name in OUTPUTS:
        assert (tmp_path / "first" / name).read_bytes() == \
            (tmp_path / "second" / name).read_bytes(), name

    def no_row_reader(*args):
        raise AssertionError("the column reader declined a generated panel")

    monkeypatch.setattr(panel, "_read_rows", no_row_reader)
    schema = PanelSchema.from_json(tmp_path / "first" / "schema.json")
    train = load_panel(tmp_path / "first" / "train.csv", schema)
    test = load_panel(tmp_path / "first" / "test.csv", schema)
    assert train.features.shape == (7, 4, 6) and test.features.shape == (3, 4, 6)
    assert test.dates[0] == train.dates[-1] + dt.timedelta(days=1)
    assert train.site_ids == test.site_ids
    # the values read back are the drawn ones to the 10 written decimals
    drawn = script.build_panel(7, 4, 6, 5 + 1, train.dates[0], np.zeros(4))[2]
    assert np.abs(train.features - drawn).max() <= 5e-11


@pytest.mark.parametrize("flag", SIZE_FLAGS)
@pytest.mark.parametrize("value", ["0", "-2", "two"])
def test_size_flags_refuse_values_below_one(monkeypatch, capsys, tmp_path, flag, value):
    with pytest.raises(SystemExit) as exit_info:
        _generate(monkeypatch, tmp_path / "out", flag, value)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: must be an integer of at least 1, got '{value}'" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag", SIZE_FLAGS)
def test_size_flags_take_one(monkeypatch, tmp_path, flag):
    _generate(monkeypatch, tmp_path, flag, "1")
    assert all((tmp_path / name).exists() for name in OUTPUTS)
