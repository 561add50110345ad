"""Every artifact of small tree-family chains against committed digests.

tests/golden/digests.json maps case -> artifact path -> SHA-256 of the
artifact's bytes (deterministic_files: timing files and report.md's timing
sections left out), and records the numpy version it was written under.
The comparison runs only under that version: random-forest feature draws
use Generator.choice, whose algorithm numpy may change between releases
(NEP 19). Rewrite the file with scripts/update_golden_digests.py, and name
each moved artifact where the change is described.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from conftest import deterministic_files, make_panel_files
from wqpanel.cli import main

DIGESTS = Path(__file__).resolve().parent / "golden" / "digests.json"

GRIDS = {
    "random_forest": {"max_depth": [3, 5], "max_features": [3], "n_bins": [8], "n_trees": [6]},
    "gbdt": {"max_depth": [3], "reg_lambda": [0.0, 1.0], "n_bins": [16], "n_trees": [4, 8]},
    "gbdt_goss": {"max_depth": [3], "top_rate": [0.2], "n_bins": [256], "n_trees": [8]},
}

# case -> (strategy, CV scheme, whether evaluate and a GOSS explain follow tune)
CASES = {
    "strategy2_shuffled": (2, "shuffled", True),
    "strategy2_blocked": (2, "blocked_by_time", False),
    "strategy3_shuffled": (3, "shuffled", False),
    "strategy3_blocked": (3, "blocked_by_time", True),
}


def case_digests(name: str, tmp_path: Path) -> dict[str, str]:
    """Run case ``name``'s chain in tmp_path; the SHA-256 of each artifact."""
    strategy, scheme, downstream = CASES[name]
    env = make_panel_files(tmp_path, n_train=30, n_test=5, n_sites=4, n_features=4,
                           strategy=strategy, cv={"k": 3, "scheme": scheme},
                           families=list(GRIDS), grids=GRIDS)
    config = ["--config", str(env["config"])]
    stages = [["ingest"], ["tune"]]
    if downstream:
        model = env["out"] / "models" / f"model_strategy{strategy}_gbdt_goss.json"
        stages += [["evaluate"], ["explain", "--model", str(model), "--rows", "0:3"]]
    for stage in stages:
        assert main([stage[0], *config, *stage[1:]]) == 0, stage
    return {str(path.as_posix()): hashlib.sha256(blob).hexdigest()
            for path, blob in deterministic_files(env["out"]).items()}


def recorded() -> dict:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_tree_chain_artifacts_keep_their_digests(name, tmp_path, capsys):
    golden = recorded()
    if golden["numpy"] != np.__version__:
        pytest.skip(f"digests recorded under numpy {golden['numpy']}, this is "
                    f"{np.__version__}: random-forest feature draws use Generator.choice, "
                    "whose algorithm may change between numpy releases (NEP 19)")
    actual = case_digests(name, tmp_path)
    capsys.readouterr()
    expected = golden["cases"][name]
    moved = sorted(path for path in expected.keys() | actual.keys()
                   if expected.get(path) != actual.get(path))
    assert not moved, f"{name}: artifacts moved, missing or new: {moved}"
