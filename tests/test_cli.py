import ast
import contextlib
import copy
import csv
import io
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import JSON_VALUES, at_least, deterministic_files, make_panel_files
import wqpanel.cli as cli
from wqpanel.cli import main
from wqpanel.reporting import EXTERNAL_ROW_LABEL
from wqpanel.run_config import OUTPUT_DIR_ENV
from wqpanel.serialize import load_model

TWO_FAMILY_GRIDS = {"elastic_net": {"lam": [1e-6, 0.1], "alpha": [0.5]},
                    "gbdt": {"n_trees": [5], "max_depth": [2]}}


def run(args, capsys=None):
    code = main(args)
    out = capsys.readouterr() if capsys else None
    return code, out


def _quiet_main(argv):
    """main(argv) with its stdout dropped; (exit code, stderr text)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _report_without_numpy(cfg) -> tuple[int, str]:
    """report run in a fresh interpreter in which importing numpy fails:
    (exit code, stderr text)."""
    probe = ("import sys\nsys.modules['numpy'] = None\nfrom wqpanel.cli import main\n"
             "sys.exit(main(sys.argv[1:]))")
    done = subprocess.run([sys.executable, "-c", probe, "report", "--config", cfg],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])})
    return done.returncode, done.stderr


def test_ingest_prints_dimensions_and_caches(panel_files, capsys):
    env = panel_files(n_train=8, n_test=5, n_sites=3, n_features=4)
    code, out = run(["ingest", "--config", str(env["config"])], capsys)
    assert code == 0
    assert "train: 8 dates x 3 sites x 4 features, 0 missing" in out.out
    assert "test: 5 dates x 3 sites x 4 features, 0 missing" in out.out
    assert "validation: PASS" in out.out
    assert (env["out"] / "panel_cache.npz").exists()


def test_ingest_minimal_panel(panel_files, capsys):
    env = panel_files(n_train=1, n_test=1, n_sites=1, n_features=2)
    code, out = run(["ingest", "--config", str(env["config"])], capsys)
    assert code == 0
    assert "train: 1 dates x 1 sites x 2 features" in out.out


@pytest.mark.parametrize("edit, key", [
    (lambda schema: list(schema), "JSON object"),
    (lambda schema: "schema", "JSON object"),
    (lambda schema: {**schema, "feature_columns": 5}, "feature_columns"),
    (lambda schema: {**schema, "feature_columns": True}, "feature_columns"),
    (lambda schema: {**schema, "feature_columns": None}, "feature_columns"),
    (lambda schema: {**schema, "feature_columns": [1, 2]}, "feature_columns"),
    (lambda schema: {**schema, "feature_columns": {}}, "feature_columns"),
    (lambda schema: {**schema, "feature_columns": {"X1": 5}}, "feature_columns.X1"),
    (lambda schema: {**schema, "feature_columns": {"X1": None}}, "feature_columns.X1"),
    (lambda schema: {**schema, "date_column": 5}, "date_column"),
    (lambda schema: {**schema, "site_column": ["site_no"]}, "site_column"),
    (lambda schema: {**schema, "target_column": None}, "target_column"),
    # a key that is no schema field used to be ignored
    (lambda schema: {**schema, "delimiter": ";"}, "delimiter is not a setting"),
], ids=["list", "str", "features-int", "features-bool", "features-null", "features-list",
        "features-empty", "feature-int", "feature-null", "date-int", "site-list", "target-null",
        "unknown-key"])
def test_ingest_bad_schema_shape_is_runtime_error(panel_files, capsys, edit, key):
    env = panel_files(n_train=4, n_test=3, n_sites=2, n_features=2)
    schema = env["schema"]
    schema.write_text(json.dumps(edit(json.loads(schema.read_text()))), encoding="utf-8")
    code, out = run(["ingest", "--config", str(env["config"])], capsys)
    assert code == 4
    assert out.err.startswith("error: schema ") and key in out.err
    assert "Traceback" not in out.err


@pytest.fixture(scope="module")
def schema_inputs(tmp_path_factory):
    env = make_panel_files(tmp_path_factory.mktemp("schema"), n_train=3, n_test=2,
                           n_sites=2, n_features=2)
    return env, json.loads(env["schema"].read_text())


@settings(max_examples=60)
@given(data=st.data())
def test_any_schema_mutation_exits_cleanly_naming_file_and_key(schema_inputs, data):
    # one structured mutation of a valid schema: drop a key, change a
    # value's type, empty feature_columns, or make the top level a list
    env, valid = schema_inputs
    schema = copy.deepcopy(valid)
    kind = data.draw(st.sampled_from(["drop", "retype", "empty", "list"]), label="mutation")
    if kind == "list":
        schema, key = [schema], None
    elif kind == "empty":
        schema["feature_columns"], key = {}, "feature_columns"
    else:
        paths = [(k,) for k in schema] + [("feature_columns", k)
                                          for k in schema["feature_columns"]]
        path = data.draw(st.sampled_from(paths), label="key")
        parent = schema if len(path) == 1 else schema["feature_columns"]
        old = parent[path[-1]]
        if kind == "drop":
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(JSON_VALUES.filter(lambda v: type(v) is not type(old)),
                                         label="value")
        # a schema without one of its two features is still valid
        key = None if kind == "drop" and len(path) == 2 else ".".join(path)
    env["schema"].write_text(json.dumps(schema), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["ingest", "--config", str(env["config"])])
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    if code:
        assert str(env["schema"]) in err.getvalue()
        if key is not None:
            assert key in err.getvalue()


@pytest.fixture(scope="module")
def csv_inputs(tmp_path_factory):
    env = make_panel_files(tmp_path_factory.mktemp("csv"), n_train=3, n_test=2,
                           n_sites=2, n_features=2)
    return env, {key: env[key].read_bytes() for key in ("train_csv", "test_csv", "sites")}


# structural mutations of a whole CSV's lines; the date ones only where
# the file has dates
CSV_MUTATIONS = ["drop_column", "repeat_column", "ragged_row", "repeat_row", "empty"]
DATED_MUTATIONS = ["bad_date"]


@at_least(60)
@given(data=st.data())
def test_any_csv_mutation_exits_cleanly_naming_file_and_field(csv_inputs, data):
    # one structural mutation of the train, test or sites CSV, written with
    # or without a byte-order mark and with LF or CRLF line ends; the mark
    # is read past, so a file with it ends exactly as its twin without it
    env, valid = csv_inputs
    key = data.draw(st.sampled_from(sorted(valid)), label="file")
    rows = [line.split(",") for line in valid[key].decode("utf-8").splitlines()]
    header = list(rows[0])
    dated = "datetime" in header
    needed = set(header) if dated else {"site_id"}  # the sites file: metadata but its ids
    kind = data.draw(st.sampled_from(CSV_MUTATIONS + DATED_MUTATIONS * dated), label="mutation")
    field = None  # the field a refusal must name
    if kind in ("drop_column", "repeat_column"):
        col = data.draw(st.integers(0, len(header) - 1), label="column")
        for row in rows:
            row[col + 1:col + 1] = [row[col]] * (kind == "repeat_column")
            del row[col:col + (kind == "drop_column")]
        if kind == "drop_column" and header[col] in needed:
            field = header[col]
    elif kind != "empty":
        i = data.draw(st.integers(1, len(rows) - 1), label="row")
        if kind == "ragged_row":
            rows[i] = rows[i][:-1] if data.draw(st.booleans(), label="short") else rows[i] + ["1"]
        elif kind == "repeat_row":
            rows.insert(data.draw(st.integers(1, len(rows)), label="at"), list(rows[i]))
        else:
            rows[i][header.index("datetime")] = field = data.draw(
                st.sampled_from(["2016-13-01", "2016-02-30", "28/01/2016", "", "x"]), label="date")
    bom = data.draw(st.booleans(), label="bom")
    newline = data.draw(st.sampled_from(["\n", "\r\n"]), label="newline")
    text = "" if kind == "empty" else "".join(",".join(row) + newline for row in rows)
    outcomes = []  # (exit code, stderr) of the draw, then of its twin without the mark
    try:
        for mark in ("\ufeff", "") if bom else ("",):
            env[key].write_bytes((mark + text).encode("utf-8"))
            outcomes.append(_quiet_main(["ingest", "--config", str(env["config"])]))
    finally:
        env[key].write_bytes(valid[key])
    code, err = outcomes[0]
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err
    if code:
        assert str(env[key]) in err
        if field is not None:
            assert repr(field) in err, (field, err)
    if bom:
        assert outcomes[0] == outcomes[1]


def test_ingest_nan_injected_fails_with_report(panel_files, capsys):
    env = panel_files(n_train=4, n_test=3, n_sites=2, n_features=3)
    text = env["train_csv"].read_text(encoding="utf-8").splitlines()
    cells = text[1].split(",")
    cells[2] = "nan"
    text[1] = ",".join(cells)
    env["train_csv"].write_text("\n".join(text) + "\n", encoding="utf-8")

    code, out = run(["ingest", "--config", str(env["config"])], capsys)
    assert code == 2
    assert "validation: FAIL" in out.out
    report = json.loads((env["out"] / "validation_report.json").read_text())
    assert report["train"]["passed"] is False
    assert sum(report["train"]["non_finite_counts"].values()) == 1


@pytest.mark.parametrize("value, passes", [("1e200", False), ("-1.5e100", False),
                                           ("1e100", True)])
def test_ingest_fails_a_target_beyond_the_bound_naming_its_cell(panel_files, capsys,
                                                                value, passes):
    # a finite target near 1e200 overflowed the tree gains and the MLP loss
    env = panel_files(n_train=4, n_test=3, n_sites=2, n_features=3)
    text = env["train_csv"].read_text(encoding="utf-8").splitlines()
    cells = text[2].split(",")
    cells[-1] = value
    text[2] = ",".join(cells)
    env["train_csv"].write_text("\n".join(text) + "\n", encoding="utf-8")

    code, out = run(["ingest", "--config", str(env["config"])], capsys)
    report_path = env["out"] / "validation_report.json"
    if passes:
        assert code == 0 and not report_path.exists()
        return
    assert code == 2
    assert "train column Y has 1 value(s) beyond +-1e+100" in out.out
    report = json.loads(report_path.read_text())
    assert report["train"]["passed"] is False
    assert report["train"]["unbounded_cells"] == [[cells[0], cells[1], "Y"]]
    assert sum(report["train"]["non_finite_counts"].values()) == 0
    assert report["test"]["passed"] is True


@pytest.mark.parametrize("value, passes", [("1e200", False), ("-1.5e100", False),
                                           ("1e100", True)])
def test_ingest_fails_a_feature_beyond_the_bound_naming_its_cell(panel_files, capsys,
                                                                 value, passes):
    # a finite feature near 1e200 passed with only the [0, 1] range warning,
    # and tune then overflowed the standardizer's variance
    env = panel_files(n_train=4, n_test=3, n_sites=2, n_features=3)
    text = env["test_csv"].read_text(encoding="utf-8").splitlines()
    cells = text[3].split(",")
    cells[3] = value
    text[3] = ",".join(cells)
    env["test_csv"].write_text("\n".join(text) + "\n", encoding="utf-8")

    code, out = run(["ingest", "--config", str(env["config"])], capsys)
    report_path = env["out"] / "validation_report.json"
    if passes:
        assert code == 0 and not report_path.exists()
        return
    assert code == 2
    assert "test column X2 has 1 value(s) beyond +-1e+100" in out.out
    report = json.loads(report_path.read_text())
    assert report["test"]["passed"] is False
    assert report["test"]["unbounded_cells"] == [[cells[0], cells[1], "X2"]]
    assert sum(report["test"]["non_finite_counts"].values()) == 0
    assert report["train"]["passed"] is True


def test_missing_seed_is_config_error(panel_files, tmp_path, capsys):
    env = panel_files()
    raw = json.loads(env["config"].read_text())
    del raw["seed"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    code, _ = run(["ingest", "--config", str(bad)], capsys)
    assert code == 3


@pytest.mark.parametrize("stage", ["ingest", "stats", "tune", "evaluate", "explain", "report"])
@pytest.mark.parametrize("raw", [5, None, "x", []], ids=["int", "null", "str", "list"])
def test_non_object_config_file_is_config_error(panel_files, capsys, stage, raw):
    # a number or null used to end every stage in a TypeError traceback, and
    # a string or list read as a config without a seed
    env = panel_files()
    env["config"].write_text(json.dumps(raw))
    model = ["--model", str(env["dir"] / "model.json")] if stage == "explain" else []
    code, out = run([stage, "--config", str(env["config"]), *model], capsys)
    assert code == 3
    assert out.err == (f"config error: config {env['config']} must be a JSON object, "
                       f"got {type(raw).__name__}\n")


@pytest.mark.parametrize("section", ["data", "cv", "shap", "grids", "categoricals"])
def test_non_object_config_section_is_config_error(panel_files, capsys, section):
    env = panel_files()
    raw = json.loads(env["config"].read_text())
    raw[section] = 5
    env["config"].write_text(json.dumps(raw))
    code, out = run(["stats", "--config", str(env["config"])], capsys)
    assert code == 3
    assert f"{section} must be a JSON object" in out.err


@pytest.mark.parametrize("grids, field", [
    ({"gbdt": {"max_depth": 3}}, "grids.gbdt.max_depth"),
    ({"gbdt": [3]}, "grids.gbdt"),
    ({"gbdt": {"max_depth": []}}, "grids.gbdt.max_depth"),
    ({"gbdt": {"maxdepth": [3]}}, "grids.gbdt.maxdepth"),
    ({"elastic_net": {"lam": "0.1"}}, "grids.elastic_net.lam"),
    ({"trees": {"max_depth": [3]}}, "grids.trees"),
], ids=["axis-number", "entry-list", "axis-empty", "axis-unknown", "axis-str",
        "family-unknown"])
def test_bad_grid_is_config_error(panel_files, capsys, grids, field):
    # the name table checks a grid at every stage, before any learner loads
    env = panel_files(families=["elastic_net", "gbdt"], grids=grids)
    for stage in ("ingest", "tune"):
        code, out = run([stage, "--config", str(env["config"])], capsys)
        assert code == 3
        assert field in out.err
    assert not (env["out"] / "models").exists()


@pytest.mark.parametrize("n_jobs", ["x", 0, -2, 1.5, True, None],
                         ids=["str", "zero", "negative", "float", "bool", "null"])
def test_bad_n_jobs_is_config_error(panel_files, capsys, n_jobs):
    env = panel_files(n_jobs=n_jobs)
    code, out = run(["stats", "--config", str(env["config"])], capsys)
    assert code == 3
    assert "n_jobs" in out.err


@pytest.mark.parametrize("edit, field", [
    ({"strategy": 2.0}, "strategy"),
    ({"strategy": True}, "strategy"),
    ({"strategy": "2"}, "strategy"),
    ({"strategy": 4}, "strategy"),
    ({"cv": {"k": 3, "scheme": "random"}}, "cv.scheme"),
    ({"cv": {"k": 1}}, "cv.k"),
    ({"families": 5}, "families"),
    ({"families": "mlp"}, "families"),
    ({"families": []}, "families"),
    ({"families": ["elastic_net", 3]}, "families"),
    ({"output_dir": 5}, "output_dir"),
    ({"data": {"train_csv": 5, "test_csv": "test.csv", "schema": "schema.json"}},
     "data.train_csv"),
    ({"data": {"train_csv": "train.csv", "test_csv": "test.csv", "schema": "schema.json",
               "sites_csv": ["sites.csv"]}}, "data.sites_csv"),
], ids=["strategy-float", "strategy-bool", "strategy-str", "strategy-range", "cv-scheme",
        "cv-k", "families-number", "families-str",
        "families-empty", "families-item", "output-dir-number", "train-csv-number",
        "sites-csv-list"])
def test_wrongly_typed_config_field_is_config_error(panel_files, capsys, edit, field):
    env = panel_files(**edit)
    code, out = run(["tune", "--config", str(env["config"])], capsys)
    assert code == 3
    assert f"config error: {field} " in out.err
    assert not (env["out"] / "models").exists()


@pytest.mark.parametrize("section, edit, path", [
    ("shap", {"background": 64}, "shap.background"),
    ("cv", {"folds": 3}, "cv.folds"),
    (None, {"njobs": 2}, "njobs"),
    ("data", {"site_csv": "sites.csv"}, "data.site_csv"),
], ids=["shap-background", "cv-folds", "njobs", "data-site-csv"])
def test_key_that_is_not_a_setting_is_config_error(panel_files, capsys, section, edit, path):
    # each of these used to load without a word, and the run used the
    # value it had meant to replace
    env = panel_files()
    raw = json.loads(env["config"].read_text())
    (raw[section] if section else raw).update(edit)
    env["config"].write_text(json.dumps(raw))
    code, out = run(["stats", "--config", str(env["config"])], capsys)
    assert code == 3
    assert out.err.startswith(f"config error: {path} is not a setting")


@pytest.mark.parametrize("sites_csv", ["", None], ids=["empty", "null"])
def test_empty_sites_csv_means_no_sites_file(panel_files, capsys, sites_csv):
    env = panel_files(data={"train_csv": "train.csv", "test_csv": "test.csv",
                            "schema": "schema.json", "sites_csv": sites_csv})
    code, out = run(["ingest", "--config", str(env["config"])], capsys)
    assert code == 0 and out.err == ""
    with np.load(env["out"] / "panel_cache.npz") as cache:
        assert str(cache["sha256_sites_csv"]) == ""


def test_sites_file_not_utf8_is_runtime_error_naming_it(panel_files):
    # the UnicodeDecodeError used to end ingest without naming the file
    env = panel_files()
    env["sites"].write_bytes(b"\xff\xfes\x00i\x00t\x00e\x00_\x00i\x00d\x00\n\x00")
    code, err = _quiet_main(["ingest", "--config", str(env["config"])])
    assert code == 4 and "Traceback" not in err
    assert str(env["sites"]) in err and "not UTF-8" in err


def test_jobs_flag_below_one_is_config_error(panel_files, capsys):
    env = panel_files()
    code, out = run(["tune", "--config", str(env["config"]), "--jobs", "0"], capsys)
    assert code == 3
    assert "--jobs" in out.err


def test_unknown_categorical_is_config_error(panel_files, capsys):
    env = panel_files(categoricals={"weekdays": False})
    code, out = run(["tune", "--config", str(env["config"])], capsys)
    assert code == 3
    assert "weekdays" in out.err


@pytest.mark.parametrize("value", ["no", 1, None])
def test_non_boolean_categorical_is_config_error(panel_files, capsys, value):
    # stats builds no design, so the value is checked when the config loads
    env = panel_files(categoricals={"site": value})
    code, out = run(["stats", "--config", str(env["config"])], capsys)
    assert code == 3
    assert f"categoricals.site must be a bool, got {value!r}" in out.err


def test_repeated_family_in_config_is_config_error(panel_files, capsys):
    env = panel_files(families=["elastic_net", "gbdt", "gbdt"])
    code, out = run(["tune", "--config", str(env["config"])], capsys)
    assert code == 3
    assert "families names family 'gbdt' more than once" in out.err
    assert not (env["out"] / "models").exists()


def test_repeated_family_flag_is_config_error(panel_files, capsys):
    env = panel_files()
    code, out = run(["tune", "--config", str(env["config"]), "--family",
                     "gbdt, gbdt"], capsys)
    assert code == 3
    assert "--family names family 'gbdt' more than once" in out.err
    assert not (env["out"] / "models").exists()


def test_missing_data_path_is_config_error(panel_files, capsys):
    env = panel_files()
    env["train_csv"].unlink()
    code, _ = run(["ingest", "--config", str(env["config"])], capsys)
    assert code == 3


@pytest.mark.parametrize("data, named", [
    ({"train_csv": ""}, "data.train_csv is not a file"),
    ({"schema": "."}, "data.schema is not a file"),
    ({"sites_csv": "missing.csv"}, "data.sites_csv is not a file"),
    (None, "cannot read config"),
], ids=["train-csv-empty", "schema-dir", "sites-missing", "config-dir"])
def test_data_path_or_config_that_is_no_file_is_config_error(panel_files, capsys, data, named):
    # a directory used to end ingest in an IsADirectoryError traceback
    env = panel_files()
    config = env["dir"]
    if data is not None:
        raw = json.loads(env["config"].read_text())
        raw["data"].update(data)
        env["config"].write_text(json.dumps(raw))
        config = env["config"]
    code, out = run(["ingest", "--config", str(config)], capsys)
    assert code == 3
    assert out.err.startswith(f"config error: {named}")


def test_stats_outputs(panel_files, capsys):
    env = panel_files(n_train=6, n_test=4, n_sites=2, n_features=3)
    code, _ = run(["stats", "--config", str(env["config"])], capsys)
    assert code == 0
    with open(env["out"] / "summary_stats.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["statistic", "X1", "X2", "X3", "Y"]
    assert [r[0] for r in rows[1:]] == ["Mean", "SD", "Min", "25%", "50%", "75%", "Max"]
    with open(env["out"] / "correlation.csv", newline="") as fh:
        corr = list(csv.reader(fh))
    assert corr[0] == ["", "X1", "X2", "X3"]  # target excluded
    assert float(corr[1][1]) == 1.0


def test_stats_rereads_inputs_changed_since_ingest(panel_files, capsys):
    env = panel_files(n_train=6, n_test=4, n_sites=2, n_features=3)
    cfg = str(env["config"])
    assert run(["ingest", "--config", cfg], capsys)[0] == 0
    lines = env["train_csv"].read_text(encoding="utf-8").splitlines()
    cells = lines[1].split(",")
    cells[2] = "123.5"  # X1 of the first train row
    lines[1] = ",".join(cells)
    env["train_csv"].write_text("\n".join(lines) + "\n", encoding="utf-8")

    code, out = run(["stats", "--config", cfg], capsys)
    assert code == 0
    assert out.err.count("\n") == 1 and "train_csv" in out.err
    with open(env["out"] / "summary_stats.csv", newline="") as fh:
        rows = {r[0]: r for r in csv.reader(fh)}
    assert rows["Max"][1] == "123.50"

    assert run(["ingest", "--config", cfg], capsys)[0] == 0
    code, out = run(["stats", "--config", cfg], capsys)
    assert code == 0 and out.err == ""  # the refreshed cache matches again


def _truncate(cache):
    cache.write_bytes(cache.read_bytes()[:100])


def _drop_train_targets(cache):
    with np.load(cache) as data:
        kept = {k: data[k] for k in data.files if k != "train_targets"}
    np.savez(cache, **kept)  # the digests stay intact


@pytest.mark.parametrize("damage, reason", [(_truncate, "BadZipFile"),
                                            (_drop_train_targets, "KeyError")],
                         ids=["truncated", "array_missing"])
def test_stats_reads_the_csvs_past_an_unreadable_cache(panel_files, capsys, damage, reason):
    env = panel_files(n_train=6, n_test=4, n_sites=2, n_features=3)
    cfg = str(env["config"])
    summary = env["out"] / "summary_stats.csv"
    assert run(["stats", "--config", cfg], capsys)[0] == 0  # no cache yet
    expected = summary.read_bytes()
    assert run(["ingest", "--config", cfg], capsys)[0] == 0
    cache = env["out"] / "panel_cache.npz"
    damage(cache)
    summary.unlink()

    code, out = run(["stats", "--config", cfg], capsys)
    assert code == 0
    assert out.err.count("\n") == 1
    assert str(cache) in out.err and reason in out.err
    assert summary.read_bytes() == expected


@pytest.fixture(scope="module")
def cache_inputs(tmp_path_factory):
    """Inputs, stats' summary_stats.csv read from the CSVs, and the arrays
    of ingest's cache."""
    env = make_panel_files(tmp_path_factory.mktemp("cache"), n_train=6, n_test=4,
                           n_sites=3, n_features=3)
    assert _quiet_main(["stats", "--config", str(env["config"])])[0] == 0  # no cache yet
    expected = (env["out"] / "summary_stats.csv").read_bytes()
    assert _quiet_main(["ingest", "--config", str(env["config"])])[0] == 0
    with np.load(env["out"] / "panel_cache.npz") as data:
        arrays = {key: data[key] for key in data.files}
    return env, expected, arrays


def _retyped(array, dtype):
    try:
        return array.astype(dtype)
    except ValueError:  # text that is no number
        return np.zeros(array.shape, dtype)


@settings(max_examples=40)
@given(data=st.data())
def test_any_cache_mutation_warns_and_reads_the_csvs(cache_inputs, data):
    # one mutation of what stats reads of the cache, its digests intact: an
    # array's dtype or shape, a NaN, a dropped key, a repeated site, or a
    # truncated file. These crashed stats or were trusted.
    env, expected, valid = cache_inputs
    arrays = dict(valid)
    read = ["feature_names"] + [k for k in valid if k.startswith("train_")]
    kind = data.draw(st.sampled_from(["dtype", "shape", "nan", "drop", "site", "truncate"]),
                     label="mutation")
    if kind in ("dtype", "shape"):
        key = data.draw(st.sampled_from(read), label="key")
        old = arrays[key]
        if kind == "dtype":
            dtype = data.draw(st.sampled_from(["U", "S", bool, np.int64, np.float32,
                                               np.complex128, np.float64])
                              .filter(lambda d: np.dtype(d).char != old.dtype.char),
                              label="dtype")
            arrays[key] = _retyped(old, dtype)
        else:
            arrays[key] = data.draw(st.sampled_from([old[:-1], old[None], old.reshape(-1)
                                                     if old.ndim > 1 else old[:, None]]))
    elif kind == "nan":
        key = data.draw(st.sampled_from(["train_features", "train_targets"]), label="key")
        arrays[key] = arrays[key].copy()
        arrays[key].flat[data.draw(st.integers(0, arrays[key].size - 1))] = data.draw(
            st.sampled_from([np.nan, np.inf, -np.inf]))
    elif kind == "drop":
        del arrays[data.draw(st.sampled_from(read + [k for k in valid if k.startswith("sha")]),
                             label="key")]
    elif kind == "site":
        arrays["train_sites"] = arrays["train_sites"].copy()
        arrays["train_sites"][1] = arrays["train_sites"][0]
    cache = env["out"] / "panel_cache.npz"
    np.savez(cache, **arrays)
    if kind == "truncate":
        blob = cache.read_bytes()
        cache.write_bytes(blob[:data.draw(st.integers(0, len(blob) - 1), label="length")])
    summary = env["out"] / "summary_stats.csv"
    summary.unlink()
    code, err = _quiet_main(["stats", "--config", str(env["config"])])
    assert code == 0 and "Traceback" not in err
    assert err.count("\n") == 1 and str(cache) in err
    assert summary.read_bytes() == expected


def test_tune_and_stats_read_only_the_train_panel(panel_files, capsys, monkeypatch):
    env = panel_files(n_train=6, n_test=4, n_sites=2, n_features=3)
    cfg = str(env["config"])
    read = []
    real_load_panel = cli.load_panel

    def recording_load_panel(path, *args, **kwargs):
        read.append(Path(path).name)
        return real_load_panel(path, *args, **kwargs)

    monkeypatch.setattr(cli, "load_panel", recording_load_panel)
    for command in ("stats", "tune"):  # no cache: only train.csv is parsed
        read.clear()
        assert run([command, "--config", cfg], capsys)[0] == 0
        assert read == ["train.csv"], command

    # with a matching cache no CSV is parsed and only the train arrays are
    # unpacked: a cache stripped of its test arrays still serves both stages
    assert run(["ingest", "--config", cfg], capsys)[0] == 0
    cache = env["out"] / "panel_cache.npz"
    with np.load(cache) as data:
        kept = {k: data[k] for k in data.files if not k.startswith("test_")}
    np.savez(cache, **kept)
    for command in ("stats", "tune"):
        read.clear()
        code, out = run([command, "--config", cfg], capsys)
        assert code == 0 and out.err == "", command
        assert read == [], command


def test_tune_writes_deterministic_artifacts(panel_files, capsys):
    env = panel_files(n_train=10, n_test=4, n_sites=2, n_features=3)
    args = ["tune", "--config", str(env["config"]), "--strategy", "2"]
    assert run(args, capsys)[0] == 0
    tuning = json.loads(
        (env["out"] / "tuning_strategy2_elastic_net.json").read_text())
    assert tuning["total_fits"] == 4 * 3  # 2x2 grid, k=3
    first = (env["out"] / "tuning_strategy2_elastic_net.json").read_bytes()
    model_first = (env["out"] / "models" / "model_strategy2_elastic_net.json").read_bytes()

    assert run(args, capsys)[0] == 0  # rerun: identical deterministic outputs
    assert (env["out"] / "tuning_strategy2_elastic_net.json").read_bytes() == first
    assert (env["out"] / "models" /
            "model_strategy2_elastic_net.json").read_bytes() == model_first
    timing = json.loads((env["out"] / "timing_strategy2.json").read_text())
    assert timing[0]["total_fits"] == 12


def test_tune_single_config_runs_k_fits(panel_files, capsys):
    env = panel_files(grids={"elastic_net": {"lam": [0.001]}})
    assert run(["tune", "--config", str(env["config"])], capsys)[0] == 0
    tuning = json.loads(
        (env["out"] / "tuning_strategy2_elastic_net.json").read_text())
    assert tuning["total_fits"] == 3  # k = 3


def test_tune_empty_grid_entry_runs_one_config_of_learner_defaults(panel_files, capsys):
    env = panel_files(grids={"elastic_net": {}})
    assert run(["tune", "--config", str(env["config"])], capsys)[0] == 0
    tuning = json.loads(
        (env["out"] / "tuning_strategy2_elastic_net.json").read_text())
    assert tuning["best_config"] == {}
    assert tuning["total_fits"] == 3  # k = 3, not the 30-config default grid


@pytest.mark.parametrize("family", ["foo", "benchmark"])
def test_tune_family_flag_must_name_a_tunable_family(panel_files, capsys, family):
    # a configured grid does not make a family tunable
    env = panel_files(grids={family: {"lam": [0.001]}})
    code, out = run(["tune", "--config", str(env["config"]), "--family",
                     f"elastic_net,{family}"], capsys)
    assert code == 3
    assert repr(family) in out.err
    assert not (env["out"] / "models").exists()


def test_tune_family_flag_naming_no_family_is_config_error(panel_files, capsys):
    env = panel_files()
    code, out = run(["tune", "--config", str(env["config"]), "--family", ","], capsys)
    assert code == 3
    assert "--family" in out.err
    assert not (env["out"] / "models").exists()


def test_unseen_test_site_fails_at_evaluate(panel_files, capsys):
    env = panel_files(n_train=10, n_test=4, n_sites=2, n_features=3, strategy=3)
    text = env["test_csv"].read_text(encoding="utf-8")
    env["test_csv"].write_text(text.replace("site01", "site07"), encoding="utf-8")
    cfg = str(env["config"])
    assert run(["tune", "--config", cfg], capsys)[0] == 0  # tune reads train only
    code, out = run(["evaluate", "--config", cfg], capsys)
    assert code == 4
    assert "'site07'" in out.err


@pytest.mark.parametrize("strategy", [2, 3])
def test_renamed_feature_is_refused_by_evaluate_and_explain(panel_files, capsys, strategy):
    # a bundle's numeric columns are the schema's feature names at tune
    # time; a schema that renames one gives a design the model was not fit on
    env = panel_files(n_train=10, n_test=4, n_sites=2, n_features=3, strategy=strategy)
    cfg = str(env["config"])
    assert run(["tune", "--config", cfg], capsys)[0] == 0
    schema = json.loads(env["schema"].read_text(encoding="utf-8"))
    schema["feature_columns"] = {("Z2" if name == "X2" else name): column
                                 for name, column in schema["feature_columns"].items()}
    env["schema"].write_text(json.dumps(schema), encoding="utf-8")
    model = env["out"] / "models" / f"model_strategy{strategy}_elastic_net.json"
    for stage in (["evaluate"], ["explain", "--model", str(model), "--rows", "0"]):
        code, out = run([*stage, "--config", cfg], capsys)
        assert code == 4 and "Traceback" not in out.err
        assert "rebuilt design columns do not match the stored model" in out.err
    assert not (env["out"] / f"results_strategy{strategy}.json").exists()
    assert not (env["out"] / "shap_values.csv").exists()


@pytest.mark.parametrize("stage", ["ingest", "tune"])
def test_strategy3_without_the_site_group_is_config_error_at_load(panel_files, capsys, stage):
    # refused when the config loads, by every stage, before any panel is read
    env = panel_files(strategy=3, categoricals={"site": False})
    code, out = run([stage, "--config", str(env["config"])], capsys)
    assert code == 3
    assert "strategy 3 requires the site one-hot group" in out.err
    assert not env["out"].exists()


def test_strategy3_flag_without_the_site_group_is_config_error(panel_files, capsys):
    env = panel_files(categoricals={"site": False})  # strategy 2 uses no site group
    assert run(["ingest", "--config", str(env["config"])], capsys)[0] == 0
    code, out = run(["tune", "--config", str(env["config"]), "--strategy", "3"], capsys)
    assert code == 3
    assert "strategy 3 requires the site one-hot group" in out.err
    assert not (env["out"] / "models").exists()


def test_evaluate_benchmark_only(panel_files, capsys):
    env = panel_files()
    code, out = run(["evaluate", "--config", str(env["config"])], capsys)
    assert code == 0
    with open(env["out"] / "results_strategy2.csv", newline="") as fh:
        rows = {r[0]: r for r in csv.reader(fh)}
    assert "Benchmarking" in rows
    assert rows["SADL-II (published)"][1] == "11.50"
    assert rows["SADL-II (published)"][2] == "N/A"


def test_evaluate_after_tune_includes_models(panel_files, capsys):
    env = panel_files(n_train=10, n_test=5, n_sites=2, n_features=3)
    assert run(["tune", "--config", str(env["config"])], capsys)[0] == 0
    code, _ = run(["evaluate", "--config", str(env["config"])], capsys)
    assert code == 0
    with open(env["out"] / "results_strategy2.csv", newline="") as fh:
        rows = {r[0]: r for r in csv.reader(fh)}
    assert "Linear Regression" in rows
    # tuned linear model beats the constant benchmark on this linked data
    assert float(rows["Linear Regression"][1]) < float(rows["Benchmarking"][1])


@pytest.fixture(scope="module")
def two_strategy_bundles(tmp_path_factory):
    """Inputs and the elastic-net bundles of strategies 2 and 3."""
    env = make_panel_files(tmp_path_factory.mktemp("strategies"), n_train=10, n_test=4,
                           n_sites=2, n_features=3)
    for strategy in ("2", "3"):
        assert _quiet_main(["tune", "--config", str(env["config"]),
                            "--strategy", strategy])[0] == 0
    return env, {s: env["out"] / "models" / f"model_strategy{s}_elastic_net.json"
                 for s in (2, 3)}


@pytest.mark.parametrize("strategies, named", [
    ((3,), (3,)), ((3, 2), (3,)), ((2, 2), (2,))],
    ids=["other-strategy", "other-strategy-first", "family-twice"])
def test_evaluate_refuses_a_bundle_it_would_misfile_or_drop(two_strategy_bundles, tmp_path,
                                                            strategies, named):
    # each of these exited 0: the strategy-3 model's row was filed under
    # strategy 2, and of two bundles of one family the last row won
    env, bundles = two_strategy_bundles
    code, err = _quiet_main(["evaluate", "--config", str(env["config"]), "--out", str(tmp_path),
                             "--strategy", "2", "--models", *(str(bundles[s]) for s in strategies)])
    assert code == 4 and "Traceback" not in err
    assert all(str(bundles[s]) in err for s in named)
    assert not (tmp_path / "results_strategy2.json").exists()


def test_evaluate_display_formatting_for_unit_rmse(panel_files, capsys, tmp_path):
    # benchmark constant is 3.0; test targets {2, 4} give rmse exactly 1.0
    import conftest as cf
    import datetime as dt
    from wqpanel.panel import PanelDataset

    train = PanelDataset(
        dates=(dt.date(2020, 1, 1),), site_ids=("a", "b"),
        feature_names=("X1",), features=np.full((1, 2, 1), 0.5),
        targets=np.array([[3.0, 3.0]]))
    test = PanelDataset(
        dates=(dt.date(2020, 2, 1),), site_ids=("a", "b"),
        feature_names=("X1",), features=np.full((1, 2, 1), 0.5),
        targets=np.array([[2.0, 4.0]]))
    cf.write_panel_csv(tmp_path / "train2.csv", train)
    cf.write_panel_csv(tmp_path / "test2.csv", test)
    cf.write_schema(tmp_path / "schema2.json", ("X1",))
    config = {"seed": 1, "data": {"train_csv": "train2.csv", "test_csv": "test2.csv",
                                  "schema": "schema2.json"},
              "output_dir": "out2", "strategy": 1, "families": []}
    cfg_path = tmp_path / "cfg2.json"
    cfg_path.write_text(json.dumps(config))
    code, _ = run(["evaluate", "--config", str(cfg_path), "--strategy", "1"], capsys)
    assert code == 0
    with open(tmp_path / "out2" / "results_strategy1.csv", newline="") as fh:
        rows = {r[0]: r for r in csv.reader(fh)}
    assert rows["Benchmarking"][1] == "1000.00"


def test_tune_evaluate_builds_tables_per_strategy(panel_files, capsys):
    env = panel_files(n_train=12, n_test=6, n_sites=3, n_features=4,
                      families=["elastic_net", "gbdt"], grids=TWO_FAMILY_GRIDS)
    cfg = str(env["config"])
    tables = {}
    for strategy in ("1", "2", "3"):
        assert run(["tune", "--config", cfg, "--strategy", strategy], capsys)[0] == 0
        assert run(["evaluate", "--config", cfg, "--strategy", strategy],
                   capsys)[0] == 0
        rows = json.loads(
            (env["out"] / f"results_strategy{strategy}.json").read_text())["rows"]
        assert [label for label, _ in rows] == [
            EXTERNAL_ROW_LABEL, "Benchmarking", "GBDT", "Linear Regression"]
        for _, vals in rows[1:]:
            assert all(v is not None and v >= 0 for v in vals.values())
        tables[strategy] = dict(rows)
    # the benchmark ignores features: identical row across strategies
    bench = [tables[s]["Benchmarking"] for s in ("1", "2", "3")]
    assert bench[0] == bench[1] == bench[2]


def test_tune_importances_and_timing(panel_files, capsys):
    env = panel_files(n_train=12, n_test=6, n_sites=3, n_features=4,
                      families=["elastic_net", "gbdt"], grids=TWO_FAMILY_GRIDS)
    assert run(["tune", "--config", str(env["config"]), "--strategy", "1"],
               capsys)[0] == 0
    for family in ("elastic_net", "gbdt"):
        bundle = load_model(env["out"] / "models" / f"model_strategy1_{family}.json")
        with open(env["out"] / f"importance_strategy1_{family}.csv", newline="") as fh:
            features = [r["feature"] for r in csv.DictReader(fh)]
        assert sorted(features) == sorted(bundle.pipeline.column_names)
    timing = json.loads((env["out"] / "timing_strategy1.json").read_text())
    assert [t["family"] for t in timing] == ["elastic_net", "gbdt"]
    for t in timing:
        assert t["tuning_time"] > 0
        assert t["average_tuning"] == pytest.approx(t["tuning_time"] / t["total_fits"])


def test_explain_marginalize_additive_model(panel_files, capsys):
    env = panel_files(n_train=12, n_test=6, n_sites=2, n_features=3,
                      grids={"elastic_net": {"lam": [1e-8], "alpha": [0.0]}})
    assert run(["tune", "--config", str(env["config"])], capsys)[0] == 0
    model_path = env["out"] / "models" / "model_strategy2_elastic_net.json"
    for rows in ("0:4", "8:"):  # an open stop runs to the last of the 12 rows
        code, out = run(["explain", "--config", str(env["config"]),
                         "--model", str(model_path), "--rows", rows], capsys)
        assert code == 0
        with open(env["out"] / "shap_values.csv", newline="") as fh:
            recs = list(csv.DictReader(fh))
        assert len(recs) == 4 * 3  # 4 rows x 3 players
    assert any(abs(float(r["phi"])) > 0 for r in recs)
    with open(env["out"] / "shap_mean_abs.csv", newline="") as fh:
        ranking = list(csv.DictReader(fh))
    assert len(ranking) == 3
    means = [float(r["mean_abs_shap"]) for r in ranking]
    assert means == sorted(means, reverse=True)


def test_explain_constant_model_gives_zero_phi(panel_files, capsys):
    # a fully lasso-shrunk linear model predicts a constant
    env = panel_files(n_train=10, n_test=5, n_sites=2, n_features=3,
                      grids={"elastic_net": {"lam": [1000.0], "alpha": [1.0]}})
    assert run(["tune", "--config", str(env["config"])], capsys)[0] == 0
    model_path = env["out"] / "models" / "model_strategy2_elastic_net.json"
    code, _ = run(["explain", "--config", str(env["config"]),
                   "--model", str(model_path), "--rows", "0,1"], capsys)
    assert code == 0
    with open(env["out"] / "shap_values.csv", newline="") as fh:
        assert all(float(r["phi"]) == 0.0 for r in csv.DictReader(fh))


def test_explain_strategy3_groups_one_hot_blocks(panel_files, capsys):
    env = panel_files(n_train=12, n_test=6, n_sites=2, n_features=3, strategy=3,
                      grids={"elastic_net": {"lam": [1e-6], "alpha": [0.0]}})
    assert run(["tune", "--config", str(env["config"]), "--strategy", "3"],
               capsys)[0] == 0
    model_path = env["out"] / "models" / "model_strategy3_elastic_net.json"
    code, _ = run(["explain", "--config", str(env["config"]),
                   "--model", str(model_path), "--rows", "0:2"], capsys)
    assert code == 0
    with open(env["out"] / "shap_mean_abs.csv", newline="") as fh:
        features = [r["feature"] for r in csv.DictReader(fh)]
    # 3 numeric players + the 4 one-hot blocks as single players
    assert len(features) == 7
    assert {"site", "month", "weekday", "season"} <= set(features)


def test_explain_retrain_kind(panel_files, capsys):
    env = panel_files(n_train=10, n_test=4, n_sites=2, n_features=3,
                      grids={"elastic_net": {"lam": [1e-8], "alpha": [0.0]}})
    assert run(["tune", "--config", str(env["config"])], capsys)[0] == 0
    model_path = env["out"] / "models" / "model_strategy2_elastic_net.json"
    code, _ = run(["explain", "--config", str(env["config"]), "--model",
                   str(model_path), "--kind", "retrain", "--rows", "0:2",
                   "--suffix", "_retrain"], capsys)
    assert code == 0
    assert (env["out"] / "shap_mean_abs_retrain.csv").exists()


@pytest.mark.parametrize("config, named", [
    ({"lam": 1e-8, "alpha": 0.0, "max_iter": 2.5}, "max_iter must be an integer, got 2.5"),
    ({"lam": 1e-8, "alpha": 0.0, "max_iter": 1e308}, "max_iter must be an integer, got 1e+308"),
    ({"lam": 1e-8, "alpha": 0.0, "max_iter": True}, "max_iter must be an integer, got True"),
    ({"lam": float("nan"), "alpha": 0.0}, "lam must be a finite number, got nan"),
    ({"lam": 1e-8, "alpha": 0.0, "tol": float("inf")}, "tol is not a setting"),
    ({"lam": 10 ** 400, "alpha": 0.0}, "lam must be a finite number, got 1000"),
], ids=["max_iter-fraction", "max_iter-huge", "max_iter-bool", "lam-nan", "tol-inf",
        "lam-huge-int"])
def test_explain_retrain_of_a_bad_config_is_runtime_error(panel_files, capsys, config, named):
    # a max_iter of 2.5 used to load and end the refits in a TypeError
    # traceback (exit 1); a NaN lam refitted all-zero slopes; the exact
    # solver has no stop tolerance, so a bundle naming tol is refused
    env = panel_files(n_train=10, n_test=4, n_sites=2, n_features=3,
                      grids={"elastic_net": {"lam": [1e-8], "alpha": [0.0]}})
    assert run(["tune", "--config", str(env["config"])], capsys)[0] == 0
    model_path = env["out"] / "models" / "model_strategy2_elastic_net.json"
    payload = json.loads(model_path.read_text())
    payload["config"] = config
    model_path.write_text(json.dumps(payload))
    code, out = run(["explain", "--config", str(env["config"]), "--model",
                     str(model_path), "--kind", "retrain", "--rows", "0"], capsys)
    assert code == 4
    assert str(model_path) in out.err and "config" in out.err and named in out.err
    assert "Traceback" not in out.err


def test_explain_retrain_restricted_to_cheap_families(panel_files, capsys):
    env = panel_files(n_train=10, n_test=4, n_sites=2, n_features=3,
                      families=["gbdt"],
                      grids={"gbdt": {"n_trees": [2], "max_depth": [2]}})
    assert run(["tune", "--config", str(env["config"])], capsys)[0] == 0
    model_path = env["out"] / "models" / "model_strategy2_gbdt.json"
    env["train_csv"].unlink()  # refused before any panel is read
    code, out = run(["explain", "--config", str(env["config"]), "--model",
                     str(model_path), "--kind", "retrain", "--rows", "0"], capsys)
    assert code == 4
    assert "cheap families" in out.err and "'gbdt'" in out.err
    assert not list(env["out"].glob("shap_*.csv"))


@pytest.mark.parametrize("rows", ["x", "1:y", "0,z", "99"])
def test_explain_bad_row_selection_is_config_error(panel_files, capsys, rows):
    env = panel_files(n_train=10, n_test=4, n_sites=2, n_features=3)
    assert run(["tune", "--config", str(env["config"])], capsys)[0] == 0
    model_path = env["out"] / "models" / "model_strategy2_elastic_net.json"
    code, out = run(["explain", "--config", str(env["config"]),
                     "--model", str(model_path), "--rows", rows], capsys)
    assert code == 3
    assert rows in out.err
    assert not list(env["out"].glob("shap_*.csv"))


@pytest.mark.parametrize("shap, field", [
    ({"rows": ["x"]}, "shap.rows"),
    ({"rows": [0, 1.5]}, "shap.rows"),
    ({"rows": {"samples": 3}}, "shap.rows"),
    ({"rows": {"sample": 0}}, "shap.rows"),
    ({"rows": {"sample": "3"}}, "shap.rows"),
    ({"rows": "0:2"}, "shap.rows"),
    ({"background_size": "x"}, "shap.background_size"),
    ({"background_size": 16.0}, "shap.background_size"),
    ({"background_size": 0}, "shap.background_size"),
    ({"cap": "x"}, "shap.cap"),
    ({"cap": True}, "shap.cap"),
], ids=["rows-str", "rows-float", "rows-samples-key", "rows-sample-0", "rows-sample-str",
        "rows-slice-str", "background-str", "background-float", "background-0",
        "cap-str", "cap-bool"])
def test_explain_bad_shap_config_is_config_error(panel_files, capsys, shap, field):
    env = panel_files(n_train=10, n_test=4, n_sites=2, n_features=3)
    assert run(["tune", "--config", str(env["config"])], capsys)[0] == 0
    raw = json.loads(env["config"].read_text())
    raw["shap"].update(shap)
    env["config"].write_text(json.dumps(raw))
    model_path = env["out"] / "models" / "model_strategy2_elastic_net.json"
    code, out = run(["explain", "--config", str(env["config"]),
                     "--model", str(model_path)], capsys)
    assert code == 3
    assert field in out.err
    assert not list(env["out"].glob("shap_*.csv"))


@pytest.mark.parametrize("rows, n_rows", [([0, 2], 2), ({"sample": 3}, 3)])
def test_explain_config_rows(panel_files, capsys, rows, n_rows):
    env = panel_files(n_train=10, n_test=4, n_sites=2, n_features=3,
                      shap={"kind": "marginalize", "background_size": 16, "rows": rows})
    assert run(["tune", "--config", str(env["config"])], capsys)[0] == 0
    model_path = env["out"] / "models" / "model_strategy2_elastic_net.json"
    assert run(["explain", "--config", str(env["config"]),
                "--model", str(model_path)], capsys)[0] == 0
    with open(env["out"] / "shap_values.csv", newline="") as fh:
        assert len({r["row"] for r in csv.DictReader(fh)}) == n_rows


def test_explain_rejects_cyclic_tree_arena(panel_files, capsys):
    env = panel_files(n_train=10, n_test=4, n_sites=2, n_features=3,
                      families=["gbdt"],
                      grids={"gbdt": {"n_trees": [2], "max_depth": [2]}})
    assert run(["tune", "--config", str(env["config"])], capsys)[0] == 0
    model_path = env["out"] / "models" / "model_strategy2_gbdt.json"
    payload = json.loads(model_path.read_text())
    tree = payload["params"]["trees"][0]
    assert tree["feature"][0] >= 0
    tree["left"][0] = 0  # the root becomes its own left child
    model_path.write_text(json.dumps(payload))
    code, out = run(["explain", "--config", str(env["config"]),
                     "--model", str(model_path), "--rows", "0"], capsys)
    assert code == 4
    assert "trees[0].left[0]" in out.err


def _parent(payload, path):
    """The container of the field at path (keys and list indices), and its key."""
    *parents, last = path
    for step in parents:
        payload = payload[step]
    return payload, last


@pytest.mark.parametrize("command", ["explain", "evaluate"])
@pytest.mark.parametrize("family, field, named", [
    ("elastic_net", ("pipeline",), "missing field 'pipeline'"),
    ("elastic_net", ("params", "coefficients"), "params.coefficients must be set"),
    ("gbdt", ("params", "trees", 0, "left"), "params.trees[0].left must be set"),
], ids=["pipeline", "coefficients", "tree_left"])
def test_bundle_missing_field_is_runtime_error(panel_files, capsys, command, family, field,
                                               named):
    env = panel_files(n_train=10, n_test=4, n_sites=2, n_features=3,
                      families=[family], grids=TWO_FAMILY_GRIDS)
    assert run(["tune", "--config", str(env["config"])], capsys)[0] == 0
    model_path = env["out"] / "models" / f"model_strategy2_{family}.json"
    payload = json.loads(model_path.read_text())
    container, key = _parent(payload, field)
    del container[key]
    model_path.write_text(json.dumps(payload))
    flag = ["--model", str(model_path), "--rows", "0"] if command == "explain" \
        else ["--models", str(model_path)]
    code, out = run([command, "--config", str(env["config"]), *flag], capsys)
    assert code == 4
    assert str(model_path) in out.err and named in out.err


@pytest.mark.parametrize("field, value, named", [
    (("params", "coefficients"), 5, "coefficients must be a 1-d array"),
    (("pipeline", "column_names"), 7, None),
    (("params",), "x", None),
    ((), ["a", "list"], "must be a JSON object"),
    (("params", "coefficients", 1), None, "coefficients must be a 1-d array of numbers"),
    (("pipeline", "standardizer", "mean", 0), None, "pipeline.standardizer.mean must be"),
    # JSON strings and booleans used to load as numbers, and sweeps_used went unchecked
    (("params", "coefficients", 0), "0.5", "coefficients must be a 1-d array of numbers"),
    (("params", "coefficients", 2), True, "coefficients must be a 1-d array of numbers"),
    (("params", "intercept"), False, "intercept must be a finite number, got False"),
    (("params", "sweeps_used"), 2.5, "sweeps_used must be an integer, got 2.5"),
    (("params", "sweeps_used"), "12", "sweeps_used must be an integer, got '12'"),
    (("params", "sweeps_used"), -1, "sweeps_used = -1 must be >= 0"),
    # these used to load, and a retrain explain then died with a TypeError
    (("config",), [1], "config must be a JSON object"),
    (("config",), {"lam": "x"}, "config {'lam': 'x'} is invalid"),
    (("seed",), True, "seed must be a non-negative integer"),
], ids=["coefficients", "column_names", "params", "list", "coefficient-null",
        "standardizer-null", "coefficient-string", "coefficient-bool", "intercept-bool",
        "sweeps-fraction", "sweeps-string", "sweeps-negative", "config-list",
        "config-string", "seed-bool"])
def test_malformed_bundle_is_runtime_error(panel_files, capsys, field, value, named):
    env = panel_files(n_train=10, n_test=4, n_sites=2, n_features=3,
                      families=["elastic_net"], grids=TWO_FAMILY_GRIDS)
    assert run(["tune", "--config", str(env["config"])], capsys)[0] == 0
    model_path = env["out"] / "models" / "model_strategy2_elastic_net.json"
    payload = json.loads(model_path.read_text())
    if field:
        container, key = _parent(payload, field)
        container[key] = value
    else:
        payload = value
    model_path.write_text(json.dumps(payload))
    code, out = run(["explain", "--config", str(env["config"]),
                     "--model", str(model_path), "--rows", "0"], capsys)
    assert code == 4
    assert str(model_path) in out.err and "Traceback" not in out.err
    if named:
        assert named in out.err


@pytest.fixture(scope="module")
def strategy3_bundle(tmp_path_factory):
    """Inputs, the path and the payload of a tuned strategy-3 elastic-net
    bundle: every pipeline key holds a value."""
    env = make_panel_files(tmp_path_factory.mktemp("bundle"), n_train=10, n_test=4,
                           n_sites=2, n_features=3, strategy=3, grids=TWO_FAMILY_GRIDS)
    assert _quiet_main(["tune", "--config", str(env["config"])])[0] == 0
    path = env["out"] / "models" / "model_strategy3_elastic_net.json"
    return env, path, json.loads(path.read_text())


@pytest.mark.parametrize("key, value, named", [
    ("kinds", ["x"], None), ("groups", {"site": "abc"}, None), ("site_vocabulary", "0219", None),
    ("column_names", [1, 2], None), ("numeric_names", 5, None), ("strategy", 7, None),
    ("standardizer", None, None), ("site_vocabulary", None, None),
    # these failed only when the design was rebuilt, naming neither the
    # bundle nor a key: a standardizer short of the numeric columns, and
    # one-hot columns that the vocabulary or the groups do not give
    ("standardizer", lambda p: {k: v[:-1] for k, v in p["standardizer"].items()}, None),
    ("site_vocabulary", ["x", "y"], "column_names"),
    ("categoricals", lambda p: {**p["categoricals"], "month": False}, "column_names"),
    # an equality read of the strategy took true for 1 and 2.0 for 2
    ("strategy", True, None), ("strategy", 3.0, None), ("strategy", "3", None),
    ("strategy", 4, None)])
def test_bad_pipeline_key_is_runtime_error_naming_it(strategy3_bundle, tmp_path, key, value,
                                                     named):
    # the first six explained with exit 0, blamed the coefficients, or named
    # no field; a null standardizer failed in the design without naming the
    # bundle, and a null site vocabulary took the panel's own sites
    env, _, valid = strategy3_bundle
    payload = copy.deepcopy(valid)
    payload["pipeline"][key] = value(valid["pipeline"]) if callable(value) else value
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(payload))
    code, err = _quiet_main(["explain", "--config", str(env["config"]), "--out", str(tmp_path),
                             "--model", str(model_path), "--rows", "0"])
    assert code == 4 and "Traceback" not in err
    assert str(model_path) in err and f"pipeline.{named or key}" in err


@pytest.mark.parametrize("stage", [["evaluate", "--strategy", "3", "--models"],
                                   ["explain", "--rows", "0", "--model"]])
def test_strategy3_bundle_without_the_site_group_is_runtime_error(strategy3_bundle, tmp_path,
                                                                  stage):
    env, _, valid = strategy3_bundle
    payload = copy.deepcopy(valid)
    payload["pipeline"]["categoricals"]["site"] = False
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(payload))
    code, err = _quiet_main([stage[0], "--config", str(env["config"]), "--out", str(tmp_path),
                             *stage[1:], str(model_path)])
    assert code == 4 and "Traceback" not in err
    assert f"{model_path}: pipeline.strategy 3 requires the site one-hot group" in err


@settings(max_examples=100)
@given(data=st.data())
def test_any_pipeline_mutation_exits_4_naming_file_and_key(strategy3_bundle, data):
    # one structured mutation of a valid bundle's pipeline: drop a key, add
    # one, retype a value, shorten standardizer.sd, or make it a list
    env, path, valid = strategy3_bundle
    payload = copy.deepcopy(valid)
    pipeline = payload["pipeline"]
    kind = data.draw(st.sampled_from(["drop", "add", "retype", "shorten", "list"]),
                     label="mutation")
    if kind == "list":
        payload["pipeline"], key = [pipeline], "pipeline"
    elif kind == "shorten":
        pipeline["standardizer"]["sd"].pop()
        key = "pipeline.standardizer"
    else:
        name = data.draw(st.sampled_from(sorted(pipeline)) if kind != "add" else
                         st.text(min_size=1, max_size=6).filter(lambda k: k not in pipeline),
                         label="key")
        if kind == "drop":
            del pipeline[name]
        else:
            old = pipeline.get(name)
            pipeline[name] = data.draw((st.sampled_from([None, True, 3, 0.5, "x", ["x"], {}])
                                        | JSON_VALUES).filter(lambda v: type(v) is not type(old)),
                                       label="value")
        key = f"pipeline.{name}"
    path.write_text(json.dumps(payload))
    try:
        code, err = _quiet_main(["evaluate", "--config", str(env["config"]),
                                 "--models", str(path)])
    finally:
        path.write_text(json.dumps(valid))
    assert code == 4 and "Traceback" not in err
    assert str(path) in err and key in err


def test_null_base_score_fails_evaluate(panel_files, capsys):
    """JSON null read as NaN used to give a NaN results row and exit 0."""
    env = panel_files(n_train=10, n_test=4, n_sites=2, n_features=3,
                      families=["gbdt"], grids=TWO_FAMILY_GRIDS)
    assert run(["tune", "--config", str(env["config"])], capsys)[0] == 0
    model_path = env["out"] / "models" / "model_strategy2_gbdt.json"
    payload = json.loads(model_path.read_text())
    payload["params"]["base_score"] = None
    model_path.write_text(json.dumps(payload))
    code, out = run(["evaluate", "--config", str(env["config"])], capsys)
    assert code == 4
    assert str(model_path) in out.err and "base_score must be a finite number" in out.err


# one small grid per family: each tuned bundle holds every params key
BUNDLE_GRIDS = {"elastic_net": {"lam": [0.01], "alpha": [0.5]},
                "random_forest": {"n_trees": [3], "max_depth": [2]},
                "gbdt": {"n_trees": [3], "max_depth": [2]},
                "gbdt_goss": {"n_trees": [3], "max_depth": [2]},
                "mlp": {"hidden_layers": [[4]], "max_epochs": [5]}}


@pytest.fixture(scope="module")
def family_bundles(tmp_path_factory):
    """Inputs, and the path and payload of a tuned bundle of each family."""
    env = make_panel_files(tmp_path_factory.mktemp("params"), n_train=10, n_test=4,
                           n_sites=2, n_features=3, families=sorted(BUNDLE_GRIDS),
                           grids=BUNDLE_GRIDS)
    assert _quiet_main(["tune", "--config", str(env["config"])])[0] == 0
    paths = [env["out"] / "models" / f"model_strategy2_{name}.json" for name in BUNDLE_GRIDS]
    return env, {path: json.loads(path.read_text()) for path in paths}


def _json_type(value) -> str:
    # a JSON number needs no fraction: an int in a float field is no retype
    return "number" if type(value) in (int, float) else type(value).__name__


@settings(max_examples=100)
@given(data=st.data())
def test_any_params_mutation_exits_4_naming_file_and_params(family_bundles, data):
    # one structured mutation of a valid bundle's params: drop a key, add
    # one, retype a value, shorten one tree array, or make it a list
    env, bundles = family_bundles
    path = data.draw(st.sampled_from(sorted(bundles)), label="bundle")
    valid = bundles[path]
    payload = copy.deepcopy(valid)
    params = payload["params"]
    kind = data.draw(st.sampled_from(["drop", "add", "retype", "list"]
                                     + ["shorten"] * ("trees" in params)), label="mutation")
    if kind == "list":
        payload["params"] = [params]
    elif kind == "shorten":
        tree = data.draw(st.sampled_from(params["trees"]), label="tree")
        tree[data.draw(st.sampled_from(sorted(tree)), label="array")].pop()
    else:
        name = data.draw(st.sampled_from(sorted(params)) if kind != "add" else
                         st.text(min_size=1, max_size=6).filter(lambda k: k not in params),
                         label="key")
        if kind == "drop":
            del params[name]
        else:
            old = params.get(name)
            params[name] = data.draw(
                (st.sampled_from([None, True, 3, 0.5, "x", ["x"], {}]) | JSON_VALUES)
                .filter(lambda v: _json_type(v) != _json_type(old)), label="value")
    path.write_text(json.dumps(payload))
    try:
        code, err = _quiet_main(["evaluate", "--config", str(env["config"]),
                                 "--models", str(path)])
    finally:
        path.write_text(json.dumps(valid))
    assert code == 4 and "Traceback" not in err
    assert str(path) in err and "params" in err


def test_ragged_train_row_is_runtime_error(panel_files, capsys):
    env = panel_files(n_train=4, n_test=3, n_sites=2, n_features=3)
    lines = env["train_csv"].read_text(encoding="utf-8").splitlines()
    lines[3] = ",".join(lines[3].split(",")[:-1])  # a row one field short
    env["train_csv"].write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out = run(["ingest", "--config", str(env["config"])], capsys)
    assert code == 4
    assert f"{env['train_csv']}:4: row has 5 fields, the header has 6" in out.err
    assert "Traceback" not in out.err


def test_cli_import_leaves_the_process_pool_out():
    """Importing the CLI, as every stage does, loads neither
    concurrent.futures.process nor multiprocessing."""
    probe = ("import sys, wqpanel.cli; "
             "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing') "
             "if m in sys.modules))")
    src = str(Path(cli.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert done.stdout.strip() == "[]"


_LEARNERS = ("wqpanel.elastic_net", "wqpanel.trees", "wqpanel.mlp")
_SHAP = ("wqpanel.shap_exact",)

# each stage, as a chain runs it, and the modules it must not load; the
# config's families are the elastic net only, so evaluate and explain read
# elastic-net bundles. Run in this order: the GBDT tune comes last, so that
# no stage before it finds a GBDT bundle.
STAGE_UNLOADED = [
    (["ingest"], _LEARNERS + _SHAP),
    (["stats"], _LEARNERS + _SHAP),
    (["tune", "--family", "elastic_net"], ("wqpanel.trees", "wqpanel.mlp") + _SHAP),
    (["evaluate"], ("wqpanel.trees", "wqpanel.mlp") + _SHAP),
    (["explain", "--model", "out/models/model_strategy2_elastic_net.json", "--rows", "0:2"],
     ("wqpanel.trees", "wqpanel.mlp")),
    (["report"], _LEARNERS + _SHAP + ("numpy",)),
    (["tune", "--family", "gbdt"], ("wqpanel.elastic_net", "wqpanel.mlp") + _SHAP),
]


def test_each_stage_loads_only_the_modules_it_runs(panel_files):
    """Each stage, run in a fresh interpreter, loads the learner of each
    family it fits or reads a bundle of, the SHAP module only to explain,
    and nothing else of them: the registry builds one entry at a time.
    report, which reads only JSON and CSV, loads no numpy."""
    env = panel_files(n_train=10, n_test=4, n_sites=2, n_features=3,
                      grids={"elastic_net": {"lam": [0.01], "alpha": [1.0]},
                             "gbdt": {"n_trees": [2], "max_depth": [2]}})
    probe = ("import sys\nfrom wqpanel.cli import main\n"
             "code = main(sys.argv[1:])\n"
             "print(sorted(m for m in sys.modules if m.startswith('wqpanel.') or m == 'numpy'))\n"
             "sys.exit(code)")
    src = str(Path(cli.__file__).parents[1])
    for argv, unloaded in STAGE_UNLOADED:
        done = subprocess.run([sys.executable, "-c", probe, *argv, "--config", "config.json"],
                              capture_output=True, text=True, cwd=env["dir"],
                              env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 0, (argv, done.stderr)
        loaded = ast.literal_eval(done.stdout.strip().splitlines()[-1])
        assert not set(loaded) & set(unloaded), (argv, sorted(set(loaded) & set(unloaded)))


def test_report_bundles_everything(panel_files, capsys):
    env = panel_files(n_train=10, n_test=5, n_sites=2, n_features=3)
    cfg = str(env["config"])
    for strategy in ("1", "2", "3"):
        assert run(["tune", "--config", cfg, "--strategy", strategy], capsys)[0] == 0
        assert run(["evaluate", "--config", cfg, "--strategy", strategy],
                   capsys)[0] == 0
    model_path = env["out"] / "models" / "model_strategy2_elastic_net.json"
    assert run(["explain", "--config", cfg, "--model", str(model_path),
                "--rows", "0:2"], capsys)[0] == 0
    code, _ = run(["report", "--config", cfg], capsys)
    assert code == 0
    text = (env["out"] / "report.md").read_text()
    assert text.count("prediction results") == 3
    assert text.count("running time summary") == 2  # strategies 2 and 3 only
    assert "SHAP ranking" in text

    first = (env["out"] / "report.md").read_bytes()
    assert run(["report", "--config", cfg], capsys)[0] == 0
    assert (env["out"] / "report.md").read_bytes() == first
    (env["out"] / "report.md").unlink()
    assert _report_without_numpy(cfg) == (0, "")
    assert (env["out"] / "report.md").read_bytes() == first


def _timing_row_0(**changes):
    """A damage that applies ``changes`` to row 0 of a timing file, a value
    of None dropping its key."""
    def damage(text):
        rows = json.loads(text)
        rows[0] = {k: v for k, v in {**rows[0], **changes}.items() if v is not None}
        return json.dumps(rows)
    return damage


@pytest.mark.parametrize("name, damage, named", [
    ("results_strategy2.json", lambda text: json.dumps({"strategy": 2}),
     "missing field 'rows'"),
    ("timing_strategy2.json", _timing_row_0(total_fits=None), "[0].total_fits must be set"),
    ("timing_strategy2.json", _timing_row_0(total_fits=True),
     "[0].total_fits must be an integer, got True"),
    ("timing_strategy2.json", _timing_row_0(tuning_time=True),
     "[0].tuning_time must be a finite number, got True"),
    ("timing_strategy2.json", _timing_row_0(average_tuning=float("nan")),
     "[0].average_tuning must be a finite number, got nan"),
    ("timing_strategy2.json", _timing_row_0(best_fit_time=-0.5),
     "[0].best_fit_time must be >= 0, got -0.5"),
    ("timing_strategy2.json", _timing_row_0(note="x"), "[0].note is not a setting"),
    ("timing_strategy2.json", _timing_row_0(tuning_time="1.5"),
     "[0].tuning_time must be a finite number, got '1.5'"),
    ("timing_strategy2.json", lambda text: json.dumps({"rows": json.loads(text)}),
     "the top level must be a list of timing rows"),
    ("shap_mean_abs.csv", lambda text: text.replace("mean_abs_shap", "mean", 1),
     "missing field 'mean_abs_shap'"),
    ("results_strategy2.json", lambda text: text[:-5], "results_strategy2.json: "),
    ("results_strategy2.json", lambda text: json.dumps({**json.loads(text), "rows": [["a", 5]]}),
     "rows[0] must be [label, {metric: number or null}], got ['a', 5]"),
    ("results_strategy2.json",
     lambda text: json.dumps({**json.loads(text), "rows": [
         row if i != 1 else [row[0], {**row[1], "rmse": "x"}]
         for i, row in enumerate(json.loads(text)["rows"])]}),
     "rows[1] (Benchmarking): rmse must be a number or null, got 'x'"),
], ids=["results-rows", "timing-fits", "timing-fits-bool", "timing-time-bool", "timing-nan",
        "timing-negative", "timing-unknown-key", "timing-time-string", "timing-not-a-list",
        "shap-column", "results-truncated", "results-row-shape", "results-metric-string"])
def test_corrupt_report_input_is_runtime_error_naming_it(panel_files, name, damage, named):
    # results-rows, timing-fits and shap-column ended report in a KeyError
    # traceback; the results-row and timing-time-string cases named the
    # file but not the row; the other timing cases rendered or passed
    # without a word ("True", 1.00, "nan")
    env = panel_files(n_train=10, n_test=4, n_sites=2, n_features=3)
    cfg = str(env["config"])
    model_path = env["out"] / "models" / "model_strategy2_elastic_net.json"
    for argv in (["tune"], ["evaluate"], ["explain", "--model", str(model_path), "--rows", "0"]):
        assert _quiet_main([*argv, "--config", cfg])[0] == 0
    path = env["out"] / name
    path.write_text(damage(path.read_text(encoding="utf-8")), encoding="utf-8")
    code, err = _quiet_main(["report", "--config", cfg])
    assert code == 4 and "Traceback" not in err
    assert str(path) in err and named in err
    assert _report_without_numpy(cfg) == (code, err)


def test_stray_timing_file_is_runtime_error_naming_it(panel_files):
    # report used to read the strategy out of every timing_strategy*.json
    # name with int() and fail on "x" naming no file
    env = panel_files(n_train=10, n_test=4, n_sites=2, n_features=3)
    cfg = str(env["config"])
    for argv in (["tune"], ["evaluate"]):
        assert _quiet_main([*argv, "--config", cfg])[0] == 0
    stray = env["out"] / "timing_strategyx.json"
    stray.write_text((env["out"] / "timing_strategy2.json").read_text(encoding="utf-8"),
                     encoding="utf-8")
    code, err = _quiet_main(["report", "--config", cfg])
    assert code == 4 and "Traceback" not in err
    assert str(stray) in err and "timing_strategy<N>.json" in err
    stray.unlink()
    assert _quiet_main(["report", "--config", cfg])[0] == 0


def test_report_without_results_errors(panel_files, capsys):
    env = panel_files()
    code, _ = run(["report", "--config", str(env["config"])], capsys)
    assert code == 4


def test_default_elastic_net_grid_gives_150_fits(panel_files, capsys):
    env = panel_files(n_train=10, n_test=4, n_sites=2, n_features=3,
                      grids={}, cv={"k": 5, "scheme": "shuffled"})
    assert run(["tune", "--config", str(env["config"])], capsys)[0] == 0
    tuning = json.loads(
        (env["out"] / "tuning_strategy2_elastic_net.json").read_text())
    assert tuning["total_fits"] == 150  # 30-config default grid x 5 folds


def test_end_to_end_rerun_is_byte_identical(panel_files, capsys):
    env = panel_files(n_train=10, n_test=5, n_sites=2, n_features=3,
                      families=["elastic_net", "gbdt"], grids=TWO_FAMILY_GRIDS)
    cfg = str(env["config"])
    inputs_before = {p: p.read_bytes()
                     for p in (env["train_csv"], env["test_csv"], env["schema"],
                               env["sites"], env["config"])}

    def everything():
        assert run(["ingest", "--config", cfg], capsys)[0] == 0
        assert run(["stats", "--config", cfg], capsys)[0] == 0
        assert run(["tune", "--config", cfg], capsys)[0] == 0
        assert run(["evaluate", "--config", cfg], capsys)[0] == 0
        assert run(["report", "--config", cfg], capsys)[0] == 0
        return deterministic_files(env["out"])

    first = everything()
    second = everything()
    assert set(first) == set(second)
    for rel in first:
        assert first[rel] == second[rel], f"{rel} not reproducible"
    for path, blob in inputs_before.items():
        assert path.read_bytes() == blob, f"input file {path.name} was mutated"


def test_env_var_overrides_output_dir(panel_files, capsys, monkeypatch, tmp_path):
    env = panel_files()
    alt = tmp_path / "alt_out"
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(alt))
    assert run(["ingest", "--config", str(env["config"])], capsys)[0] == 0
    assert (alt / "panel_cache.npz").exists()


def test_out_flag_overrides_config(panel_files, capsys, tmp_path):
    env = panel_files()
    alt = tmp_path / "flag_out"
    assert run(["ingest", "--config", str(env["config"]), "--out", str(alt)],
               capsys)[0] == 0
    assert (alt / "panel_cache.npz").exists()


def test_run_experiment_script_runs_each_step_once(panel_files, capsys, monkeypatch):
    env = panel_files(n_train=10, n_test=5, n_sites=2, n_features=3)
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_experiment.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--config", str(env["config"])])
    runpy.run_path(str(script), run_name="__main__")
    steps = [line.split()[2] for line in capsys.readouterr().out.splitlines()
             if line.startswith("== wqpanel ")]
    assert steps == ["ingest", "stats", "tune", "evaluate", "tune", "evaluate",
                     "tune", "evaluate", "explain", "report"]
    report = (env["out"] / "report.md").read_text()
    assert report.count("prediction results") == 3
    assert "## SHAP ranking (shap_mean_abs.csv)" in report
