"""Tests of the benchmark itself: metric names and units, and the output checks.

    python -m pytest perfbench/tests

Runs use each workload's shape (strategy, families, CV scheme, explained
families) at a few rows, so a chain takes seconds. Nothing here asserts on
how long anything takes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, Workload, deep_merge  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# every workload at a few rows, with one tree count, a few epochs and one
# explained row
SMALL_ROWS = {"demo": {"train-dates": 12, "test-dates": 6, "sites": 3},
              "trees10x": {"train-dates": 20, "test-dates": 10, "sites": 3},
              "linear100x": {"train-dates": 20, "test-dates": 10, "sites": 3}}
SMALL_CONFIG = {"cv": {"k": 2},
                "grids": {"random_forest": {"n_trees": [2]}, "gbdt": {"n_trees": [2]},
                          "gbdt_goss": {"n_trees": [2]}, "mlp": {"max_epochs": [3]}},
                "shap": {"background_size": 8, "rows": {"sample": 1}}}
SMALL = {name: Workload(name=name, generator={**w.generator, **SMALL_ROWS[name]},
                        config=deep_merge(w.config, SMALL_CONFIG), explain=w.explain)
         for name, w in WORKLOADS.items()}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_a_small_run_emits_every_named_metric_with_its_unit(workload, trace,
                                                           monkeypatch, capsys):
    monkeypatch.setattr(run, "WORKLOADS", SMALL)
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace)])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    result = json.loads(out[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in named} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
               for m in result["metrics"].values())
    environment = json.loads(out[-2].split(" ", 1)[1])
    assert {"git_sha", "python", "numpy", "blas", "nproc", "stage_threads",
            "n_jobs"} <= set(environment)


def test_without_sources_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "demo",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


# ---------------------------------------------------------------- output checks

@pytest.fixture(scope="module")
def good_chain(tmp_path_factory):
    """One complete small demo chain: (workload, config, output directory)."""
    base = tmp_path_factory.mktemp("chain")
    workload = SMALL["demo"]
    env = run.child_env()
    _, config = run.make_inputs(workload, 5, base / "inputs", env)
    chain = run.run_chain(workload, base / "inputs", config["strategy"], base / "out", env)
    assert chain.ok
    return workload, config, chain.out


@pytest.fixture
def broken(good_chain, tmp_path):
    """A private copy of the good chain's output to damage."""
    _, _, out = good_chain
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    return copy


def test_the_good_chain_passes_every_check(good_chain):
    workload, config, out = good_chain
    suffixes = [suffix for _, suffix in workload.explain]
    strategy, families = config["strategy"], config["families"]
    assert checks.check_artifacts(out, strategy, families, suffixes) == []
    assert checks.check_bundles(out, strategy, families) == []
    failures, best = checks.check_results(out, strategy, families)
    assert failures == [] and math.isfinite(best)


def test_a_truncated_model_bundle_fails(good_chain, broken):
    _, config, _ = good_chain
    bundle = broken / "models" / f"model_strategy{config['strategy']}_gbdt.json"
    bundle.write_bytes(bundle.read_bytes()[:100])
    failures = checks.check_bundles(broken, config["strategy"], config["families"])
    assert len(failures) == 1 and "model_strategy2_gbdt.json" in failures[0]


def test_a_missing_artifact_fails(good_chain, broken):
    workload, config, _ = good_chain
    (broken / "shap_values_mlp.csv").unlink()
    failures = checks.check_artifacts(broken, config["strategy"], config["families"],
                                      [suffix for _, suffix in workload.explain])
    assert failures == ["missing artifact shap_values_mlp.csv"]


def _edit_rmse(out: Path, strategy: int, label: str, value) -> None:
    path = out / f"results_strategy{strategy}.json"
    raw = json.loads(path.read_text(encoding="utf-8"))
    for row_label, values in raw["rows"]:
        if row_label == label:
            values["rmse"] = value
    path.write_text(json.dumps(raw), encoding="utf-8")


def test_a_non_finite_test_rmse_fails(good_chain, broken):
    _, config, _ = good_chain
    _edit_rmse(broken, config["strategy"], "MLP", None)
    failures, _ = checks.check_results(broken, config["strategy"], config["families"])
    assert any("non-finite" in f for f in failures)


def test_a_best_model_that_does_not_beat_the_benchmark_row_fails(good_chain, broken):
    _, config, _ = good_chain
    _edit_rmse(broken, config["strategy"], checks.BENCHMARK_LABEL, 1e-9)
    failures, _ = checks.check_results(broken, config["strategy"], config["families"])
    assert any("does not beat" in f for f in failures)


def test_a_nonzero_stage_exit_is_a_failed_operation(good_chain, tmp_path):
    workload, config, _ = good_chain
    inputs = tmp_path / "inputs"
    shutil.copytree(good_chain[2].parent / "inputs", inputs)
    (inputs / "train.csv").unlink()  # ingest exits with the config-error code
    chain = run.run_chain(workload, inputs, config["strategy"], tmp_path / "out",
                          run.child_env())
    assert not chain.ok and chain.stages[-1][1] != 0
    tally = run.Tally()
    tally.stages(chain)
    assert tally.failed == 1 and tally.attempted == len(chain.stages)


def test_a_changed_artifact_fails_the_determinism_check(good_chain, broken):
    _, config, out = good_chain
    assert checks.compare_outputs(out, broken) == []
    path = broken / f"tuning_strategy{config['strategy']}_mlp.json"
    path.write_text(path.read_text(encoding="utf-8") + " ", encoding="utf-8")
    assert checks.compare_outputs(out, broken) == [
        f"tuning_strategy{config['strategy']}_mlp.json differs between runs"]


def test_wall_clock_outputs_are_left_out_of_the_determinism_check(good_chain, broken):
    _, config, out = good_chain
    timing = broken / f"timing_strategy{config['strategy']}.json"
    timing.write_text("[]\n", encoding="utf-8")
    report = broken / "report.md"
    text = report.read_text(encoding="utf-8")
    assert "running time summary" in text
    report.write_text(text.replace("running time summary\n", "running time summary\n"
                                   "\nanother 1.23 s\n"), encoding="utf-8")
    assert checks.compare_outputs(out, broken) == []


def _shap_dump(errors) -> dict:
    return {"spans": [{"name": "shap_exact.exact_shap", "additivity_err": e}
                      for e in errors]}


def test_the_shap_additivity_check():
    assert checks.check_additivity([_shap_dump([0.0, 1e-12])]) == []
    assert checks.check_additivity([_shap_dump([0.0, 1e-6])]) != []
    assert checks.check_additivity([_shap_dump([math.nan])]) != []
    assert checks.check_additivity([_shap_dump([])]) != []


def test_chain_times_are_scaled_to_the_reference_speed(tmp_path):
    stages = [("ingest", 0, 0.5, 40.0), ("tune", 0, 4.0, 60.0),
              ("explain:gbdt_goss", 0, 2.0, 50.0), ("report", 0, 0.5, 40.0)]
    half_speed = 2 * run.CALIBRATION_REF_S
    chain = run.Chain(out=tmp_path, stages=stages, expected=4,
                      calibrations=[half_speed, 3 * half_speed / 2, half_speed / 2])
    assert chain.wall_times() == {"chain_s": 7.0, "tune_s": 4.0, "explain_s": 2.0,
                                  "short_stages_s": 1.0}
    assert chain.peak_rss_mb == 60.0
    assert run.reference_times([chain, chain]) == pytest.approx(
        {"chain_s": 3.5, "tune_s": 2.0, "explain_s": 1.0, "short_stages_s": 0.5})


def test_self_time_excludes_direct_children():
    dump = {"import_s": 0.0, "spans": [
        {"name": "a", "parent": None, "start": 0.0, "end": 10.0},
        {"name": "b", "parent": 0, "start": 1.0, "end": 4.0},
        {"name": "c", "parent": 1, "start": 2.0, "end": 3.0},
        {"name": "b", "parent": 0, "start": 5.0, "end": 7.0},
    ]}
    self_time = {i: s["self"] for i, s in enumerate(layers.flatten([dump, dump]))}
    assert self_time == {0: 5.0, 1: 2.0, 2: 1.0, 3: 2.0, 4: 5.0, 5: 2.0, 6: 1.0, 7: 2.0}
