"""Every artifact of small chains against committed digests.

tests/golden/digests.json maps case -> artifact path -> SHA-256 of the
artifact's bytes (deterministic_files: timing files and report.md's timing
sections left out), and records the numpy version and the BLAS and LAPACK
builds it was written under. The comparison runs only under that numpy
version: random-forest feature draws use Generator.choice, whose algorithm
numpy may change between releases (NEP 19). A file that an MLP or an
elastic net wrote, or that holds their scores, is compared only where the
builds it depends on match the recorded ones (BACKENDS), and a test that
leaves such a file out names it. Rewrite the file with
scripts/update_golden_digests.py, and name each moved artifact where the
change is described.
"""

import hashlib
import json
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from conftest import deterministic_files, make_panel_files
from wqpanel.cli import main

DIGESTS = Path(__file__).resolve().parent / "golden" / "digests.json"

TREE_GRIDS = {
    "random_forest": {"max_depth": [3, 5], "max_features": [3], "n_bins": [8], "n_trees": [6]},
    "gbdt": {"max_depth": [3], "reg_lambda": [0.0, 1.0], "n_bins": [16], "n_trees": [4, 8]},
    "gbdt_goss": {"max_depth": [3], "top_rate": [0.2], "n_bins": [256], "n_trees": [8]},
}
LINEAR_GRIDS = {
    "elastic_net": {"lam": [0.0001, 0.01], "alpha": [0.0, 0.5, 1.0]},
    "mlp": {"hidden_layers": [[4], [6, 3]], "activation": ["relu", "tanh"],
            "max_epochs": [15], "batch_size": [16]},
}

# the builds a family's bytes depend on: the MLP trains by matrix products;
# the elastic net forms its Gram matrix by one and solves by LAPACK
BACKENDS = {"mlp": ("blas",), "elastic_net": ("blas", "lapack")}


class Case(NamedTuple):
    strategy: int
    scheme: str  # the CV scheme
    grids: dict  # the families tuned, with their grids
    # after ingest and tune: "evaluate", "report", or (family, SHAP kind,
    # output suffix) to explain the case's model of that family
    stages: tuple = ()


DOWNSTREAM = ("evaluate", ("gbdt_goss", "marginalize", ""))
CASES = {
    "strategy2_shuffled": Case(2, "shuffled", TREE_GRIDS, DOWNSTREAM),
    "strategy2_blocked": Case(2, "blocked_by_time", TREE_GRIDS),
    "strategy3_shuffled": Case(3, "shuffled", TREE_GRIDS),
    "strategy3_blocked": Case(3, "blocked_by_time", TREE_GRIDS, DOWNSTREAM),
    "strategy1_linear_shuffled": Case(1, "shuffled", LINEAR_GRIDS, (
        "evaluate", ("mlp", "marginalize", "_mlp"), ("elastic_net", "retrain", "_elastic_net"),
        "report")),
    "strategy3_linear_blocked": Case(3, "blocked_by_time", LINEAR_GRIDS, ("evaluate",)),
}
TREE_CASES = sorted(name for name, case in CASES.items() if case.grids is TREE_GRIDS)
LINEAR_CASES = sorted(CASES.keys() - TREE_CASES)


def case_digests(name: str, tmp_path: Path) -> dict[str, str]:
    """Run case ``name``'s chain in tmp_path; the SHA-256 of each artifact."""
    case = CASES[name]
    env = make_panel_files(tmp_path, n_train=30, n_test=5, n_sites=4, n_features=4,
                           strategy=case.strategy, cv={"k": 3, "scheme": case.scheme},
                           families=list(case.grids), grids=case.grids)
    models = env["out"] / "models"
    stages = [["ingest"], ["tune"]]
    for stage in case.stages:
        if isinstance(stage, str):
            stages.append([stage])
        else:
            family, kind, suffix = stage
            stages.append(["explain", "--model",
                           str(models / f"model_strategy{case.strategy}_{family}.json"),
                           "--rows", "0:3", "--kind", kind, "--suffix", suffix])
    for stage in stages:
        assert main([stage[0], "--config", str(env["config"]), *stage[1:]]) == 0, stage
    return {str(path.as_posix()): hashlib.sha256(blob).hexdigest()
            for path, blob in deterministic_files(env["out"]).items()}


def linalg_builds() -> dict[str, str]:
    """The BLAS and LAPACK builds numpy reports, as "name version"."""
    deps = np.show_config(mode="dicts")["Build Dependencies"]
    return {lib: f"{deps[lib]['name']} {deps[lib]['version']}" for lib in ("blas", "lapack")}


def backends(path: str, case: Case) -> set[str]:
    """The builds an artifact's bytes depend on: those of the families its
    name gives, or for the results tables and the report, of every family
    of the case."""
    named = [f for f in case.grids if f in path]
    if not named and (path.startswith("results_") or path == "report.md"):
        named = list(case.grids)
    return {lib for f in named for lib in BACKENDS.get(f, ())}


def recorded() -> dict:
    golden = json.loads(DIGESTS.read_text(encoding="utf-8"))
    if golden["numpy"] != np.__version__:
        pytest.skip(f"digests recorded under numpy {golden['numpy']}, this is "
                    f"{np.__version__}: random-forest feature draws use Generator.choice, "
                    "whose algorithm may change between numpy releases (NEP 19)")
    return golden


def check_case(name: str, tmp_path: Path, capsys) -> None:
    """Every artifact of case ``name`` whose builds match the recorded ones
    keeps its digest; the others are left out, by a skip that names them."""
    golden = recorded()
    builds = linalg_builds()
    differ = {lib for lib in builds if golden[lib] != builds[lib]}
    actual = case_digests(name, tmp_path)
    capsys.readouterr()
    expected = golden["cases"][name]
    paths = sorted(expected.keys() | actual.keys())
    left_out = [p for p in paths if backends(p, CASES[name]) & differ]
    moved = [p for p in paths if p not in left_out and expected.get(p) != actual.get(p)]
    assert not moved, f"{name}: artifacts moved, missing or new: {moved}"
    if left_out:
        pytest.skip(f"{name}: left out {left_out}, as this {sorted(differ)} build differs "
                    f"from the recorded one ({ {lib: golden[lib] for lib in differ} }); "
                    f"the other {len(paths) - len(left_out)} artifacts kept their digests")


@pytest.mark.parametrize("name", TREE_CASES)
def test_tree_chain_artifacts_keep_their_digests(name, tmp_path, capsys):
    check_case(name, tmp_path, capsys)


@pytest.mark.parametrize("name", LINEAR_CASES)
def test_linear_chain_artifacts_keep_their_digests(name, tmp_path, capsys):
    # elastic net and MLP chains: strategy 1 with both SHAP value functions
    # and the report, and strategy 3, whose one-hot blocks make the
    # elastic net's lasso blocks singular
    check_case(name, tmp_path, capsys)
