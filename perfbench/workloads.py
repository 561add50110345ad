"""The benchmark's workloads: generator flags, run-config edits and explain calls.

Every workload's inputs come from ``scripts/make_synthetic_panel.py`` run
with the benchmark's seed; the generated ``config.json`` is then edited by
a deep merge of ``config``. ``explain`` lists the (family, output suffix)
pairs the chain explains, in order.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

DEFAULT_SEED = 20160128
# Not used while the benchmark or a change is tuned; later gain claims
# are re-checked on it.
HOLDOUT_SEED = 19700101


@dataclass(frozen=True)
class Workload:
    name: str
    generator: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)
    explain: tuple = ()


# Each workload is sized so one chain takes 8-13 s on a 2-core x86 VM,
# which gives two to four chains in a 30 s run. Sizes may change; what a
# workload stresses and what it bypasses may not.
WORKLOADS = {
    # The generator's default panel and config (360 train rows x 11
    # features, strategy 2, 5-fold CV, all five families), with fewer trees,
    # epochs and explained rows. Tune dominates, MLP fitting most of it,
    # then small-n tree growth. The GOSS explain spends over 90% of its time
    # in predict_ensemble; the MLP explain keeps the 2^M enumeration
    # measured. Bypasses panel load cost, elastic net (about 0.01 s) and any
    # sharing of fits across n_trees (each grid has one n_trees value).
    "demo": Workload(
        name="demo",
        generator={},
        config={
            "grids": {
                "random_forest": {"n_trees": [8], "max_depth": [4, 8],
                                  "max_features": [3]},
                "gbdt": {"n_trees": [10], "learning_rate": [0.1],
                         "max_depth": [2, 3], "reg_lambda": [0.0, 1.0]},
                "gbdt_goss": {"n_trees": [10], "learning_rate": [0.1],
                              "max_depth": [2, 3], "top_rate": [0.2, 0.3]},
                "mlp": {"hidden_layers": [[32]], "activation": ["relu", "tanh"],
                        "learning_rate": [0.01], "batch_size": [32],
                        "max_epochs": [120], "l2_penalty": [0.0, 0.001]},
            },
            "shap": {"rows": {"sample": 4}},
        },
        explain=(("gbdt_goss", ""), ("mlp", "_mlp")),
    ),
    # 300 + 60 dates x 12 sites: 3,600 train rows (10x demo), strategy 3
    # with 46 columns and 15 SHAP players. Tree growth at 10x rows and
    # one-hot width is the cost, where per-node searchsorted and per-tree
    # quantiles dominate; the two n_trees values per grid give staged search
    # something to share; 2^15 coalitions per explained row. No MLP or
    # elastic-net code runs.
    "trees10x": Workload(
        name="trees10x",
        generator={"train-dates": 300, "test-dates": 60, "sites": 12},
        config={
            "strategy": 3,
            "cv": {"k": 3, "scheme": "shuffled"},
            "families": ["random_forest", "gbdt", "gbdt_goss"],
            "grids": {
                "random_forest": {"n_trees": [5, 10], "max_depth": [6],
                                  "max_features": [7]},
                "gbdt": {"n_trees": [5, 10], "learning_rate": [0.1],
                         "max_depth": [3]},
                "gbdt_goss": {"n_trees": [5, 10], "learning_rate": [0.1],
                              "max_depth": [3], "top_rate": [0.2]},
            },
            "shap": {"background_size": 64, "rows": {"sample": 2}},
        },
        explain=(("gbdt_goss", ""),),
    ),
    # 1,000 + 200 dates x 40 sites: 40,000 train rows (111x) and an 8 MB
    # train CSV, strategy 3 with 74 columns, 5-fold blocked_by_time CV,
    # elastic net only. CSV parsing, design assembly and coordinate descent
    # matter; no tree or MLP code runs. The same exact-SHAP layer is bound
    # by coalition masking here, not by the model (predict share about 15%).
    # The largest memory footprint.
    "linear100x": Workload(
        name="linear100x",
        generator={"train-dates": 1000, "test-dates": 200, "sites": 40},
        config={
            "strategy": 3,
            "cv": {"k": 5, "scheme": "blocked_by_time"},
            "families": ["elastic_net"],
            "grids": {
                "elastic_net": {"lam": [1e-4, 1e-3, 1e-2, 1e-1, 1.0],
                                "alpha": [0.5, 1.0]},
            },
            "shap": {"background_size": 256, "rows": {"sample": 1}},
        },
        explain=(("elastic_net", ""),),
    ),
}


def deep_merge(base: dict, update: dict) -> dict:
    """A copy of ``base`` with ``update`` merged in, nested dicts key by key."""
    out = copy.deepcopy(base)
    for key, value in update.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out

