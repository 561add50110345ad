import csv
import datetime as dt
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import wqpanel.panel as panel_module
from conftest import at_least, synthetic_panel, write_panel_csv, write_schema
from wqpanel.panel import (VALUE_BOUND, PanelDataset, PanelFormatError, PanelSchema,
                           StackedTable, correlation_matrix, load_panel,
                           load_sites, stack_panel, summarize, validate_panel)


def unstack_table(table: StackedTable) -> PanelDataset:
    """Inverse of stack_panel (row order must be the stacked order)."""
    n_dates, n_sites, p = len(table.dates), len(table.site_ids), len(table.feature_names)
    return PanelDataset(
        dates=table.dates,
        site_ids=table.site_ids,
        feature_names=table.feature_names,
        features=table.X.reshape(n_dates, n_sites, p).copy(),
        targets=table.y.reshape(n_dates, n_sites).copy(),
    )


def _schema(tmp_path, names):
    path = tmp_path / "schema.json"
    write_schema(path, names)
    return PanelSchema.from_json(path)


def test_load_panel_roundtrip(tmp_path):
    panel = synthetic_panel(3, 2, 2, seed=1)
    csv_path = tmp_path / "panel.csv"
    write_panel_csv(csv_path, panel)
    loaded = load_panel(csv_path, _schema(tmp_path, panel.feature_names))
    assert loaded.n_dates == 3 and loaded.n_sites == 2 and loaded.n_features == 2
    assert loaded.dates == panel.dates
    assert loaded.site_ids == panel.site_ids
    np.testing.assert_allclose(loaded.features, panel.features)
    np.testing.assert_allclose(loaded.targets, panel.targets)


def test_load_minimal_panel(tmp_path):
    panel = synthetic_panel(1, 1, 2, seed=2)
    csv_path = tmp_path / "one.csv"
    write_panel_csv(csv_path, panel)
    loaded = load_panel(csv_path, _schema(tmp_path, panel.feature_names))
    assert loaded.n_dates == 1 and loaded.n_sites == 1


def test_missing_pair_names_cell(tmp_path):
    schema = _schema(tmp_path, ("X1",))
    csv_path = tmp_path / "gap.csv"
    csv_path.write_text(
        "datetime,site_no,raw_X1,median_ph\n"
        "2020-01-01,site_A,0.1,0.6\n"
        "2020-01-01,site_B,0.2,0.7\n"
        "2020-01-02,site_A,0.3,0.65\n",
        encoding="utf-8")
    with pytest.raises(PanelFormatError) as err:
        load_panel(csv_path, schema)
    assert "2020-01-02" in str(err.value) and "site_B" in str(err.value)


def test_duplicate_pair_rejected(tmp_path):
    schema = _schema(tmp_path, ("X1",))
    csv_path = tmp_path / "dup.csv"
    csv_path.write_text(
        "datetime,site_no,raw_X1,median_ph\n"
        "2020-01-01,site_A,0.1,0.6\n"
        "2020-01-01,site_A,0.2,0.7\n",
        encoding="utf-8")
    with pytest.raises(PanelFormatError, match="duplicated"):
        load_panel(csv_path, schema)


def test_bad_date_and_bad_number(tmp_path):
    schema = _schema(tmp_path, ("X1",))
    bad_date = tmp_path / "bad_date.csv"
    bad_date.write_text(
        "datetime,site_no,raw_X1,median_ph\n01/05/2020,site_A,0.1,0.6\n",
        encoding="utf-8")
    with pytest.raises(PanelFormatError, match="unparseable date"):
        load_panel(bad_date, schema)

    bad_num = tmp_path / "bad_num.csv"
    bad_num.write_text(
        "datetime,site_no,raw_X1,median_ph\n2020-01-05,site_A,oops,0.6\n",
        encoding="utf-8")
    with pytest.raises(PanelFormatError, match="X1"):
        load_panel(bad_num, schema)


def test_missing_file_and_missing_column(tmp_path):
    schema = _schema(tmp_path, ("X1",))
    with pytest.raises(FileNotFoundError):
        load_panel(tmp_path / "nope.csv", schema)
    missing_col = tmp_path / "col.csv"
    missing_col.write_text("datetime,site_no,median_ph\n2020-01-05,a,0.6\n",
                           encoding="utf-8")
    with pytest.raises(PanelFormatError, match="missing columns"):
        load_panel(missing_col, schema)


# ------------------------------------------------------- row-wise oracle
# load_panel as it was before the column-wise reader: csv.DictReader and
# one float() per cell. The reader must give its arrays bit for bit and
# its PanelFormatError text on every input the oracle can read or reject
# (a ragged row, which the oracle fails on with a TypeError, is tested on
# its own below, and so is a fault after a blank line or a multi-line
# cell, where the oracle counts records and load_panel names file lines).

def oracle_load_panel(path, schema):
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"panel file not found: {path}")

    feature_names = schema.feature_names
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        needed = [schema.date_column, schema.site_column, schema.target_column,
                  *schema.feature_columns.values()]
        absent = [c for c in needed if c not in header]
        if absent:
            raise PanelFormatError(f"{path}: missing columns {absent}")

        records = {}
        dates_seen = {}
        sites_seen = {}
        for lineno, rec in enumerate(reader, start=2):
            raw_date = rec[schema.date_column]
            try:
                date = dt.date.fromisoformat(raw_date.strip())
            except ValueError:
                raise PanelFormatError(
                    f"{path}:{lineno}: unparseable date {raw_date!r} "
                    f"(expected YYYY-MM-DD)") from None
            site = rec[schema.site_column].strip()
            key = (date, site)
            if key in records:
                raise PanelFormatError(
                    f"{path}:{lineno}: duplicated (date, site) pair ({date}, {site})")
            row = []
            for name in feature_names:
                raw_col = schema.feature_columns[name]
                try:
                    row.append(float(rec[raw_col]))
                except ValueError:
                    raise PanelFormatError(
                        f"{path}:{lineno}: cell ({date}, {site}, {name}) "
                        f"is not numeric: {rec[raw_col]!r}") from None
            try:
                target = float(rec[schema.target_column])
            except ValueError:
                raise PanelFormatError(
                    f"{path}:{lineno}: cell ({date}, {site}, Y) is not numeric: "
                    f"{rec[schema.target_column]!r}") from None
            records[key] = (row, target)
            dates_seen.setdefault(date)
            sites_seen.setdefault(site)

    if not records:
        raise PanelFormatError(f"{path}: no data rows")
    dates = tuple(sorted(dates_seen))
    sites = tuple(sites_seen)
    n, k, p = len(dates), len(sites), len(feature_names)

    features = np.empty((n, k, p), dtype=float)
    targets = np.empty((n, k), dtype=float)
    for i, date in enumerate(dates):
        for j, site in enumerate(sites):
            try:
                row, target = records[(date, site)]
            except KeyError:
                raise PanelFormatError(
                    f"{path}: incomplete panel, missing pair ({date}, {site})") from None
            features[i, j, :] = row
            targets[i, j] = target
    return PanelDataset(
        dates=dates, site_ids=sites, feature_names=tuple(feature_names),
        features=features, targets=targets)


def outcome(load, path, schema):
    """What load makes of path: the dataset's exact contents, or the
    PanelFormatError text."""
    try:
        ds = load(path, schema)
    except PanelFormatError as exc:
        return "error", str(exc)
    assert ds.features.flags.c_contiguous and ds.targets.flags.c_contiguous
    return (ds.dates, ds.site_ids, ds.feature_names, ds.features.shape,
            ds.features.tobytes(), ds.targets.tobytes())


def assert_matches_oracle(path, schema):
    assert outcome(load_panel, path, schema) == outcome(oracle_load_panel, path, schema)


PLAIN_HEADER = "datetime,site_no,raw_X1,raw_X2,median_ph\n"


def _plain_body(x1_cells, newline="\n"):
    """Two dates x two sites, one row per cell of x1_cells (which fill
    raw_X1 in file order): fewer than four cells leave pairs out."""
    rows = [("2020-01-01", "A"), ("2020-01-01", "B"), ("2020-01-02", "A"),
            ("2020-01-02", "B")]
    return "".join(f"{d},{s},{x},0.{i + 1},0.6{i}{newline}"
                   for i, ((d, s), x) in enumerate(zip(rows, x1_cells)))


@pytest.fixture
def two_feature_schema(tmp_path):
    return _schema(tmp_path, ("X1", "X2"))


@pytest.mark.parametrize("n,k,p,seed", [(1, 1, 1, 0), (3, 2, 2, 1), (17, 5, 4, 2),
                                        (40, 9, 11, 3)])
def test_reader_matches_oracle_on_generated_panels(tmp_path, n, k, p, seed):
    """Numbers of 3 to 6 decimals, sites not in sorted order, rows shuffled."""
    panel = synthetic_panel(n, k, p, seed=seed)
    panel = PanelDataset(dates=panel.dates, site_ids=panel.site_ids[::-1],
                         feature_names=panel.feature_names,
                         features=np.round(panel.features, seed + 3),
                         targets=panel.targets)
    csv_path = tmp_path / "panel.csv"
    write_panel_csv(csv_path, panel)
    header, *rows = csv_path.read_text(encoding="utf-8").splitlines(keepends=True)
    np.random.default_rng(seed).shuffle(rows)
    csv_path.write_text(header + "".join(rows), encoding="utf-8")
    schema = _schema(tmp_path, panel.feature_names)
    assert_matches_oracle(csv_path, schema)


EDGE_CELLS = [" 0.25", "0.25 ", "\t0.25\t", "nan", "NaN", "-nan", "inf", "-inf",
              "Infinity", "-Infinity", "-0", "+0.5", ".5", "5.", "1_0", "1e400",
              "4.9e-324", "2.2250738585072011e-308", "0.1", "1E-3"]


@pytest.mark.parametrize("cell", EDGE_CELLS)
@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_reader_matches_oracle_on_edge_cells(tmp_path, two_feature_schema, cell, newline):
    csv_path = tmp_path / "edge.csv"
    csv_path.write_bytes((PLAIN_HEADER.replace("\n", newline)
                          + _plain_body([cell, "0.5", cell, "-0.0"], newline)).encode())
    assert_matches_oracle(csv_path, two_feature_schema)


@pytest.mark.parametrize("text", [
    # quoted cells, a quoted site with a comma in it
    PLAIN_HEADER + '"2020-01-01","A"," 0.5",0.1,0.6\n2020-01-01,"B,C",1,0.2,"0.7"\n',
    PLAIN_HEADER + '2020-01-01,"A",0.5,0.1,0.6\n2020-01-01,B,1,0.2,0.7\n',
    # blank lines, before, between and after the rows
    PLAIN_HEADER + "\n" + _plain_body(["1", "2", "3", "4"]).replace("\n", "\n\n"),
    PLAIN_HEADER + _plain_body(["1", "2", "3", "4"]).replace("\n", "\r\n\r\n"),
    # a repeated header name: the last of its columns is read
    "datetime,site_no,raw_X1,raw_X2,raw_X1,median_ph\n"
    "2020-01-01,A,0.1,0.2,0.3,0.6\n2020-01-01,B,0.4,0.5,0.6,0.7\n",
    # sites and dates with spaces around them, dates in file order reversed
    PLAIN_HEADER + " 2020-01-02 , A ,1,2,3\n2020-01-02,B,4,5,6\n"
    "2020-01-01,A,7,8,9\n2020-01-01, B,1,2,3\n",
    # carriage returns alone as line breaks, in ASCII and non-ASCII text
    PLAIN_HEADER + _plain_body(["1", "2", "3", "4"], newline="\r"),
    PLAIN_HEADER + "2020-01-01,Zürich,0.5,0.1,0.6\r2020-01-01,Bern, 0.5,0.1,0.6\n",
    # a single row, and a file with no data rows
    PLAIN_HEADER + "2020-01-01,A,1,2,3",
    PLAIN_HEADER + "\n\n",
], ids=["quoted", "quoted-site", "blank-lines", "blank-crlf", "repeated-name", "spaces",
        "cr", "non-ascii", "one-row", "no-rows"])
def test_reader_matches_oracle_on_unusual_files(tmp_path, two_feature_schema, text):
    csv_path = tmp_path / "unusual.csv"
    csv_path.write_bytes(text.encode("utf-8"))
    assert_matches_oracle(csv_path, two_feature_schema)


BAD_INPUTS = {
    "date": PLAIN_HEADER + "2020-01-01,A,1,2,3\n01/02/2020,A,1,2,3\n",
    "feature-word": PLAIN_HEADER + _plain_body(["0.5", "oops", "1", "2"]),
    "feature-empty": PLAIN_HEADER + _plain_body(["0.5", "1", "", "2"]),
    "feature-blank": PLAIN_HEADER + _plain_body(["0.5", "1", "  ", "2"]),
    "feature-hex": PLAIN_HEADER + _plain_body(["0x10", "1", "2", "3"]),
    "feature-underscores": PLAIN_HEADER + _plain_body(["1__0", "1", "2", "3"]),
    # numpy strips these control characters around a number; float() does not
    "feature-control": PLAIN_HEADER + _plain_body(["\x1f1.5", "1", "2", "3\x1f"]),
    "target-word": PLAIN_HEADER + "2020-01-01,A,1,2,pH\n",
    "quoted-word": PLAIN_HEADER + '2020-01-01,A,"1",2,3\n2020-01-01,B,"x",2,3\n',
    "duplicate": PLAIN_HEADER + "2020-01-01,A,1,2,3\n2020-01-01,B,1,2,3\n"
                                "2020-01-01, A ,1,2,3\n",
    "missing-pair": PLAIN_HEADER + _plain_body(["1", "2", "3"]),
    "duplicate-for-missing": PLAIN_HEADER + "2020-01-01,A,1,2,3\n2020-01-02,B,1,2,3\n"
                                            "2020-01-01,A,1,2,3\n2020-01-02,A,1,2,3\n",
    "missing-column": "datetime,site_no,raw_X1,pH\n2020-01-01,A,1,2\n",
    "empty-file": "",
}


@pytest.mark.parametrize("text", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_reader_raises_the_oracles_error(tmp_path, two_feature_schema, text):
    csv_path = tmp_path / "bad.csv"
    csv_path.write_bytes(text.encode("utf-8"))
    expected = outcome(oracle_load_panel, csv_path, two_feature_schema)
    assert expected[0] == "error"
    assert outcome(load_panel, csv_path, two_feature_schema) == expected


@given(st.lists(st.text(alphabet="0123456789.eE+-_ \tnaifIN\x1fx", max_size=7),
                min_size=4, max_size=4))
def test_reader_matches_oracle_on_drawn_cells(tmp_path_factory, cells):
    directory = tmp_path_factory.mktemp("drawn")
    schema = _schema(directory, ("X1", "X2"))
    csv_path = directory / "drawn.csv"
    csv_path.write_bytes((PLAIN_HEADER + _plain_body(cells)).encode())
    assert_matches_oracle(csv_path, schema)


@at_least(200)
@given(st.data())
def test_reader_matches_oracle_on_drawn_labels(tmp_path_factory, data):
    """Date and site labels with spaces and tabs around them, of lengths on
    either side of the column reader's _LABEL_MAX, the site column second
    or last, the rows in drawn order with a pair left out or repeated, and
    the last line with or without its line break. A file the oracle reads
    is read column-wise if its labels all fit, else row by row."""
    alphabet = "AbC.-0 \t"
    dates = data.draw(st.lists(st.sampled_from(
        ["2020-01-01", " 2020-01-02", "2020-01-03\t", "20200104", "2020-1-05"]),
        min_size=1, max_size=3, unique=True), label="dates")
    sites = data.draw(st.lists(st.text(alphabet, max_size=6)
                               | st.text(alphabet, min_size=60, max_size=70),
                               min_size=1, max_size=3, unique=True), label="sites")
    pairs = data.draw(st.permutations([(d, s) for d in dates for s in sites]), label="rows")
    pairs = pairs[data.draw(st.integers(0, 1), label="left out"):] + pairs[
        :data.draw(st.integers(0, 1), label="repeated")]
    site_last = data.draw(st.booleans(), label="site last")
    header = "datetime,raw_X1,raw_X2,median_ph,site_no\n" if site_last else PLAIN_HEADER
    lines = [f"{d},1.{i},2,0.6,{s}" if site_last else f"{d},{s},1.{i},2,0.6"
             for i, (d, s) in enumerate(pairs)]
    ending = data.draw(st.sampled_from(["\n", "\r\n", ""]), label="ending")
    directory = tmp_path_factory.mktemp("labels")
    schema = _schema(directory, ("X1", "X2"))
    csv_path = directory / "labels.csv"
    csv_path.write_bytes((header + "\n".join(lines) + ending).encode())
    expected = outcome(oracle_load_panel, csv_path, schema)
    with mock.patch.object(panel_module, "_read_rows", wraps=panel_module._read_rows) as rows:
        assert outcome(load_panel, csv_path, schema) == expected
    if expected[0] != "error":
        longest = max(len(label) for pair in pairs for label in pair)
        assert rows.called == (longest > panel_module._LABEL_MAX)


@pytest.mark.parametrize("row,fields", [("2020-01-01,B,1,2", 4), ("2020-01-01,B,1,2,3,4", 6),
                                        ("2020-01-01,B", 2), (" ", 1)])
@pytest.mark.parametrize("quoted", [False, True], ids=["plain", "quoted"])
def test_ragged_row_names_its_line(tmp_path, two_feature_schema, row, fields, quoted):
    first = '"2020-01-01",A,1,2,3' if quoted else "2020-01-01,A,1,2,3"
    csv_path = tmp_path / "ragged.csv"
    csv_path.write_text(PLAIN_HEADER + f"{first}\n\n{row}\n", encoding="utf-8")
    with pytest.raises(PanelFormatError) as err:
        load_panel(csv_path, two_feature_schema)
    # file line 4: the blank line 3 counts
    assert str(err.value) == f"{csv_path}:4: row has {fields} fields, the header has 5"


@pytest.mark.parametrize("bad,message", [
    ("2020-01-01,B,1,2", "row has 4 fields, the header has 5"),
    ("01/02/2020,B,1,2,3", "unparseable date '01/02/2020' (expected YYYY-MM-DD)"),
    ("2020-01-01, A ,1,2,3", "duplicated (date, site) pair (2020-01-01, A)"),
    ("2020-01-01,B,x,2,3", "cell (2020-01-01, B, X1) is not numeric: 'x'"),
], ids=["ragged", "date", "duplicate", "cell"])
@pytest.mark.parametrize("between,line", [
    ("", 3),
    ("\n\n", 5),
    ("\r\n", 4),
    # a quoted cell over lines 3 and 4, and one over lines 3 to 5
    ('2020-01-02,"Z\nY",1,2,3\n', 5),
    ('2020-01-02,"Z\r\n\r\nY",1,2,3\r\n', 6),
], ids=["adjacent", "blank-lines", "blank-crlf", "multi-line-cell", "cell-with-blank-line"])
def test_fault_names_its_file_line(tmp_path, two_feature_schema, bad, message, between, line):
    """Errors name the line a row starts on in the file, counting blank
    lines and every line of a quoted multi-line cell."""
    csv_path = tmp_path / "lines.csv"
    csv_path.write_bytes((PLAIN_HEADER + "2020-01-01,A,1,2,3\n" + between + bad
                          + "\n").encode())
    with pytest.raises(PanelFormatError) as err:
        load_panel(csv_path, two_feature_schema)
    assert str(err.value) == f"{csv_path}:{line}: {message}"


@pytest.mark.parametrize("text,line", [
    # the bad row's own quoted cell spans lines 3 and 4
    (PLAIN_HEADER + '2020-01-01,A,1,2,3\n2020-01-01,"B\nC",1,2\n', 3),
    # a header name over lines 1 and 2: the rows start on line 3
    ('datetime,site_no,raw_X1,raw_X2,median_ph,"note\nmore"\n'
     "2020-01-01,A,1,2,3,n\n\n2020-01-01,B,1,2,3\n", 5),
], ids=["multi-line-row", "multi-line-header"])
def test_multi_line_records_name_their_first_line(tmp_path, two_feature_schema, text, line):
    csv_path = tmp_path / "multi.csv"
    csv_path.write_bytes(text.encode())
    with pytest.raises(PanelFormatError, match=rf"multi\.csv:{line}: row has"):
        load_panel(csv_path, two_feature_schema)


def test_plain_file_is_read_column_wise(tmp_path, monkeypatch):
    """A plain comma-separated file never reaches the row-wise reader."""
    panel = synthetic_panel(6, 3, 4, seed=5)
    csv_path = tmp_path / "panel.csv"
    write_panel_csv(csv_path, panel)

    def refuse(*args):
        raise AssertionError("read row by row")

    monkeypatch.setattr(panel_module, "_read_rows", refuse)
    loaded = load_panel(csv_path, _schema(tmp_path, panel.feature_names))
    assert loaded.features.tobytes() == panel.features.tobytes()


def test_load_sites(tmp_path):
    # the sites file is metadata: only its site_id header is read
    path = tmp_path / "sites.csv"
    path.write_text("site_id,location_group\na,g1\nb,g2\n", encoding="utf-8")
    assert load_sites(path) is None
    path.write_text("site,location_group\na,g1\n", encoding="utf-8")
    with pytest.raises(PanelFormatError, match="needs a 'site_id' column"):
        load_sites(path)


def test_validate_clean_panel_passes(tiny_panel):
    report = validate_panel(tiny_panel)
    assert report.passed
    assert report.total_non_finite == 0
    assert report.range_warnings == {}


def test_validate_counts_nan_at_named_cell(tiny_panel):
    features = tiny_panel.features.copy()
    features[1, 2, 0] = np.nan
    broken = PanelDataset(dates=tiny_panel.dates, site_ids=tiny_panel.site_ids,
                          feature_names=tiny_panel.feature_names,
                          features=features, targets=tiny_panel.targets)
    report = validate_panel(broken)
    assert not report.passed
    assert report.non_finite_counts["X1"] == 1
    assert report.non_finite_cells == (
        (tiny_panel.dates[1].isoformat(), tiny_panel.site_ids[2], "X1"),)


def test_validate_fails_a_finite_target_beyond_the_bound_naming_it(tiny_panel):
    def validated(cells):
        targets = tiny_panel.targets.copy()
        for cell, value in cells.items():
            targets[cell] = value
        return validate_panel(PanelDataset(
            dates=tiny_panel.dates, site_ids=tiny_panel.site_ids,
            feature_names=tiny_panel.feature_names, features=tiny_panel.features,
            targets=targets))

    # the bound itself passes; a non-finite target is counted as such only
    report = validated({(2, 1): -2e100, (0, 0): VALUE_BOUND, (1, 0): np.inf})
    assert not report.passed
    assert report.unbounded_cells == (
        (tiny_panel.dates[2].isoformat(), tiny_panel.site_ids[1], "Y"),)
    assert report.non_finite_counts["Y"] == 1
    assert validated({(0, 0): -VALUE_BOUND}).passed


def test_validate_fails_a_finite_feature_beyond_the_bound_naming_it(tiny_panel):
    features = tiny_panel.features.copy()
    features[1, 0, 1] = 3e150
    features[2, 1, 0] = VALUE_BOUND  # the bound itself passes
    report = validate_panel(PanelDataset(
        dates=tiny_panel.dates, site_ids=tiny_panel.site_ids,
        feature_names=tiny_panel.feature_names, features=features,
        targets=tiny_panel.targets))
    assert not report.passed
    assert report.unbounded_cells == (
        (tiny_panel.dates[1].isoformat(), tiny_panel.site_ids[0], tiny_panel.feature_names[1]),)
    assert report.total_non_finite == 0


def test_validate_out_of_range_warns_but_passes(tiny_panel):
    features = tiny_panel.features.copy()
    features[0, 0, 1] = 1.3
    panel = PanelDataset(dates=tiny_panel.dates, site_ids=tiny_panel.site_ids,
                         feature_names=tiny_panel.feature_names,
                         features=features, targets=tiny_panel.targets)
    report = validate_panel(panel)
    assert report.passed
    assert report.range_warnings == {"X2": 1}


def test_stack_order_and_count():
    panel = synthetic_panel(3, 2, 2, seed=4)
    table = stack_panel(panel)
    assert table.row_count == 6
    expected = [(panel.dates[0], "site00"), (panel.dates[0], "site01"),
                (panel.dates[1], "site00"), (panel.dates[1], "site01"),
                (panel.dates[2], "site00"), (panel.dates[2], "site01")]
    k = len(table.site_ids)
    assert [(table.dates[r // k], table.site_ids[r % k])
            for r in range(table.row_count)] == expected
    np.testing.assert_array_equal(table.X[3], panel.features[1, 1])
    assert table.y[3] == panel.targets[1, 1]


@given(st.integers(1, 8), st.integers(1, 6), st.integers(1, 5))
def test_stack_row_count_and_roundtrip(n, k, p):
    panel = synthetic_panel(n, k, p, seed=n * 100 + k * 10 + p)
    table = stack_panel(panel)
    assert table.row_count == n * k
    back = unstack_table(table)
    np.testing.assert_array_equal(back.features, panel.features)
    np.testing.assert_array_equal(back.targets, panel.targets)
    assert back.dates == panel.dates and back.site_ids == panel.site_ids


def test_stacked_table_rows_are_dates_times_sites():
    table = stack_panel(synthetic_panel(3, 2, 2, seed=4))
    with pytest.raises(ValueError, match="3 dates x 2 sites need 6 rows, X has 5"):
        type(table)(dates=table.dates, site_ids=table.site_ids,
                    feature_names=table.feature_names, X=table.X[:5], y=table.y)


def test_dates_must_increase():
    with pytest.raises(ValueError, match="strictly increasing"):
        PanelDataset(dates=(dt.date(2020, 1, 2), dt.date(2020, 1, 1)),
                     site_ids=("a",), feature_names=("X1",),
                     features=np.zeros((2, 1, 1)), targets=np.zeros((2, 1)))


def test_summarize_constant_column():
    panel = synthetic_panel(3, 1, 1, seed=5)
    table = stack_panel(panel)
    table = type(table)(dates=table.dates, site_ids=table.site_ids,
                        feature_names=table.feature_names,
                        X=np.full((3, 1), 0.5), y=table.y)
    stats = summarize(table)
    assert stats.mean[0] == 0.5
    assert stats.sd[0] == 0.0


def test_summarize_quartiles_linear_interpolation():
    panel = synthetic_panel(4, 1, 1, seed=6)
    table = stack_panel(panel)
    table = type(table)(dates=table.dates, site_ids=table.site_ids,
                        feature_names=table.feature_names,
                        X=np.array([[1.0], [2.0], [3.0], [4.0]]), y=table.y)
    stats = summarize(table)
    assert stats.q25[0] == pytest.approx(1.75)
    assert stats.q50[0] == pytest.approx(2.5)
    assert stats.q75[0] == pytest.approx(3.25)


def test_summarize_order_invariance():
    panel = synthetic_panel(5, 3, 2, seed=8)
    table = stack_panel(panel)
    rng = np.random.default_rng(0)
    perm = rng.permutation(table.row_count)
    shuffled = type(table)(dates=table.dates, site_ids=table.site_ids,
                           feature_names=table.feature_names,
                           X=table.X[perm], y=table.y[perm])
    a, b = summarize(table), summarize(shuffled)
    for stat in ("mean", "sd", "min", "q25", "q50", "q75", "max"):
        np.testing.assert_allclose(getattr(a, stat), getattr(b, stat), atol=1e-12)


def test_summarize_empty_errors(tiny_panel):
    table = stack_panel(tiny_panel)
    empty = type(table)(dates=(), site_ids=(), feature_names=table.feature_names,
                        X=np.empty((0, 4)), y=np.empty(0))
    with pytest.raises(ValueError):
        summarize(empty)


def test_correlation_basics(tiny_panel):
    table = stack_panel(tiny_panel)
    x = table.X[:, 0]
    custom = type(table)(dates=table.dates, site_ids=table.site_ids,
                         feature_names=("X1", "X2"),
                         X=np.column_stack([x, -x]), y=table.y)
    corr = correlation_matrix(custom)
    assert corr.values[0, 0] == 1.0 and corr.values[1, 1] == 1.0
    assert corr.values[0, 1] == pytest.approx(-1.0, abs=1e-12)


def test_correlation_symmetry_and_diagonal(tiny_panel):
    table = stack_panel(tiny_panel)
    corr = correlation_matrix(table)
    assert corr.columns == tiny_panel.feature_names  # target excluded by default
    np.testing.assert_allclose(corr.values, corr.values.T, atol=1e-12)
    np.testing.assert_allclose(np.diag(corr.values), 1.0)
    assert (np.abs(corr.values) <= 1.0).all()


def test_correlation_zero_variance_sentinel(tiny_panel):
    table = stack_panel(tiny_panel)
    X = table.X.copy()
    X[:, 1] = 0.4
    custom = type(table)(dates=table.dates, site_ids=table.site_ids,
                         feature_names=table.feature_names, X=X, y=table.y)
    corr = correlation_matrix(custom)
    assert corr.values[1, 1] == 1.0
    assert (corr.values[1, [0, 2, 3]] == 0.0).all()
    assert any("X2" in w for w in corr.warnings)


def test_correlation_needs_two_rows(tiny_panel):
    table = stack_panel(tiny_panel)
    one = type(table)(dates=table.dates[:1], site_ids=table.site_ids[:1],
                      feature_names=table.feature_names,
                      X=table.X[:1], y=table.y[:1])
    with pytest.raises(ValueError):
        correlation_matrix(one)
