import csv
import json

import numpy as np

from wqpanel.cli import main
from wqpanel.run_config import OUTPUT_DIR_ENV


def run(args, capsys=None):
    code = main(args)
    out = capsys.readouterr() if capsys else None
    return code, out


def deterministic_files(out_dir):
    return {p.relative_to(out_dir): p.read_bytes()
            for p in sorted(out_dir.rglob("*"))
            if p.is_file() and not p.name.startswith("timing_")}


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


def test_missing_seed_is_config_error(panel_files, tmp_path, capsys):
    env = panel_files()
    raw = json.loads(env["config"].read_text())
    del raw["seed"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    code, _ = run(["ingest", "--config", str(bad)], capsys)
    assert code == 3


def test_missing_data_path_is_config_error(panel_files, capsys):
    env = panel_files()
    env["train_csv"].unlink()
    code, _ = run(["ingest", "--config", str(env["config"])], capsys)
    assert code == 3


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


def test_explain_marginalize_additive_model(panel_files, capsys):
    env = panel_files(n_train=12, n_test=6, n_sites=2, n_features=3,
                      grids={"elastic_net": {"lam": [1e-8], "alpha": [0.0]}})
    assert run(["tune", "--config", str(env["config"])], capsys)[0] == 0
    model_path = env["out"] / "models" / "model_strategy2_elastic_net.json"
    code, out = run(["explain", "--config", str(env["config"]),
                     "--model", str(model_path), "--rows", "0:4"], capsys)
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
    env = panel_files(n_train=10, n_test=5, n_sites=2, n_features=3)
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
