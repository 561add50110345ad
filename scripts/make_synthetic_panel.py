#!/usr/bin/env python3
"""Generate a synthetic spatio-temporal panel plus a ready-to-run config.

Writes train.csv, test.csv, schema.json, sites.csv and config.json into the
output directory. The target is a noisy nonlinear function of the features,
so the tuned models have something real to learn. Useful for exercising the
full CLI without the real monitoring data:

    python scripts/make_synthetic_panel.py --out demo
    wqpanel ingest --config demo/config.json
"""

import argparse
import csv
import datetime as dt
import json
from pathlib import Path

import numpy as np


def build_panel(n_dates, n_sites, n_features, seed, start, site_effect, day_offset=0):
    rng = np.random.default_rng(seed)
    dates = [start + dt.timedelta(days=i) for i in range(n_dates)]
    sites = [f"0219{j:04d}" for j in range(n_sites)]
    day = day_offset + np.arange(n_dates)
    seasonal = 0.04 * np.sin(2 * np.pi * day / 365.25)

    features = rng.uniform(0.0, 1.0, size=(n_dates, n_sites, n_features))
    # X6-analogue (index 5 when present) drives the target hardest
    weights = np.full(n_features, 0.02)
    if n_features >= 6:
        weights[5] = 0.25
    targets = (0.6 + features @ weights
               + 0.05 * np.sin(3.0 * features[:, :, 0])
               + seasonal[:, None] + site_effect[None, :]
               + 0.01 * rng.standard_normal((n_dates, n_sites)))
    return dates, sites, features, np.clip(targets, 0.3, 0.99)


def write_csv(path, dates, sites, features, targets, feature_names):
    """The panel as csv.writer's excel dialect writes it, a row per (date,
    site) and every value to 10 decimals. No cell holds a comma, a quote or
    a line break, so no cell is quoted and one %-template formats a row:
    np.float64 is a float, so "%.10f" converts as f"{v:.10f}" does."""
    row = "%s,%s" + ",%.10f" * (len(feature_names) + 1) + "\r\n"
    labels = [(date.isoformat(), site) for date in dates for site in sites]
    values = np.concatenate([features, targets[..., None]], axis=2)
    values = values.reshape(len(labels), -1).tolist()
    header = ["datetime", "site_no", *(f"usgs_{n.lower()}" for n in feature_names),
              "median_ph"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.write("".join([row % (*label, *value) for label, value in zip(labels, values)]))


def at_least_one(text):
    """argparse type of the size flags: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer of at least 1, got {text!r}")
    return value


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="demo", help="output directory")
    parser.add_argument("--train-dates", type=at_least_one, default=60)
    parser.add_argument("--test-dates", type=at_least_one, default=30)
    parser.add_argument("--sites", type=at_least_one, default=6)
    parser.add_argument("--features", type=at_least_one, default=11)
    parser.add_argument("--seed", type=int, default=20160128)
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    feature_names = [f"X{i + 1}" for i in range(args.features)]

    start = dt.date(2016, 1, 28)
    site_effect = np.random.default_rng(args.seed).uniform(-0.05, 0.05, args.sites)
    train = build_panel(args.train_dates, args.sites, args.features, args.seed + 1,
                        start, site_effect)
    test_start = start + dt.timedelta(days=args.train_dates)
    test = build_panel(args.test_dates, args.sites, args.features, args.seed + 2,
                       test_start, site_effect, day_offset=args.train_dates)

    write_csv(out / "train.csv", *train, feature_names)
    write_csv(out / "test.csv", *test, feature_names)

    schema = {
        "date_column": "datetime",
        "site_column": "site_no",
        "target_column": "median_ph",
        "feature_columns": {n: f"usgs_{n.lower()}" for n in feature_names},
    }
    (out / "schema.json").write_text(json.dumps(schema, indent=1) + "\n")

    with open(out / "sites.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["site_id", "location_group"])
        for j, site in enumerate(train[1]):
            writer.writerow([site, f"group{j % 3 + 1}"])

    config = {
        "seed": args.seed,
        "data": {"train_csv": "train.csv", "test_csv": "test.csv",
                 "schema": "schema.json", "sites_csv": "sites.csv"},
        "output_dir": "out",
        "strategy": 2,
        "cv": {"k": 5, "scheme": "shuffled"},
        "families": ["elastic_net", "random_forest", "gbdt", "gbdt_goss", "mlp"],
        "grids": {
            "elastic_net": {"lam": [1e-4, 1e-2, 1.0], "alpha": [0.0, 0.5, 1.0]},
            "random_forest": {"n_trees": [30], "max_depth": [4, 8],
                              "max_features": [3]},
            "gbdt": {"n_trees": [50], "learning_rate": [0.1],
                     "max_depth": [2, 3], "reg_lambda": [0.0, 1.0]},
            "gbdt_goss": {"n_trees": [50], "learning_rate": [0.1],
                          "max_depth": [2, 3], "top_rate": [0.2, 0.3]},
            "mlp": {"hidden_layers": [[32]], "activation": ["relu", "tanh"],
                    "learning_rate": [0.01], "batch_size": [32],
                    "max_epochs": [600], "l2_penalty": [0.0, 0.001]},
        },
        "shap": {"kind": "marginalize", "background_size": 128,
                 "rows": {"sample": 10}},
        "n_jobs": 1,
    }
    (out / "config.json").write_text(json.dumps(config, indent=1) + "\n")
    print(f"wrote synthetic panel and config under {out}/")


if __name__ == "__main__":
    main()
