#!/usr/bin/env python3
"""Time one CV fold of a family's default grid on the demo panel.

    python scripts/time_default_grid.py --family gbdt

Writes the demo panel and config (make_synthetic_panel.py defaults, or
--seed, --train-dates and --sites, e.g. 300 and 12 for a panel ten times
the demo's) to a temporary directory, builds the config's strategy design, and
runs a grid-search task of one fold chunk, fold 0 alone, for every config
of the family's registry default grid, as grid_search runs a task: the
configs and their fit-seed keys from tuner.grid_plan, fit through the
family's fit_folds hook. (grid_search gives one task every fold when
n_jobs is 1; timing fold 0 alone keeps the numbers comparable across
records.) Prints one JSON line with the wall time of that task, the trees
grown (those the tree grower returns, one batch per forest and one tree
per boosting round), the grower's split-search steps (searches) and the
nodes they scored (nodes_searched: a forest step scores a node of each of
several trees, a boosted tree's step one node), the elastic-net fits that stopped at their max_iter
(fits_at_max_iter: their sweeps_used equals it) and the process's peak
RSS. Runs in one process with one BLAS thread unless the environment sets
another count.
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--family", required=True)
    parser.add_argument("--seed", type=int, default=20160128,
                        help="generator seed (its default)")
    parser.add_argument("--train-dates", type=int, help="generator train dates (its default)")
    parser.add_argument("--sites", type=int, help="generator sites (its default)")
    args = parser.parse_args()
    size = [arg for flag, value in (("--train-dates", args.train_dates), ("--sites", args.sites))
            if value is not None for arg in (flag, str(value))]
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")  # read when numpy loads, below

    from wqpanel import elastic_net as en
    from wqpanel import trees as tr
    from wqpanel import tuner
    from wqpanel.cli import _read_panels
    from wqpanel.families import get_family
    from wqpanel.run_config import load_run_config

    _, configs, seed_keys = tuner.grid_plan(args.family, get_family(args.family).default_grid)
    with tempfile.TemporaryDirectory() as tmp:
        subprocess.run([sys.executable, str(Path(__file__).with_name("make_synthetic_panel.py")),
                        "--out", tmp, "--seed", str(args.seed), *size],
                       check=True, stdout=subprocess.DEVNULL)
        cfg = load_run_config(Path(tmp) / "config.json")
        [train] = _read_panels(cfg, ("train",))
    design, _ = tuner.prepare_designs(train, cfg.strategy_config(cfg.strategy))
    folds = tuner.kfold_split(len(design.y), cfg.cv_config())

    grown = 0

    def counted(*a, _grow_batch=tr._grow_batch, **k):
        nonlocal grown
        trees = _grow_batch(*a, **k)
        grown += len(trees)
        return trees
    tr._grow_batch = counted

    searches = nodes_searched = 0

    def searched(step, split, _search=tr._search):
        nonlocal searches, nodes_searched
        searches += 1
        nodes_searched += len(step)
        return _search(step, split)
    tr._search = searched

    at_max_iter = 0

    def checked(X, y, cfg, *a, _fit=en.fit_elastic_net, **k):
        nonlocal at_max_iter
        model = _fit(X, y, cfg, *a, **k)
        at_max_iter += model.sweeps_used == cfg.max_iter
        return model
    en.fit_elastic_net = checked

    tuner._pool_init(args.family, configs, seed_keys, design.X, design.y, folds, cfg.seed)
    t0 = time.perf_counter()
    tuner._pool_task(range(1))
    wall = time.perf_counter() - t0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"family": args.family, "rows": len(folds[0][0]),
                      "columns": design.n_cols, "configs": len(configs),
                      "trees_grown": grown, "searches": searches,
                      "nodes_searched": nodes_searched, "fits_at_max_iter": at_max_iter,
                      "wall_s": round(wall, 3), "peak_rss_mb": round(peak_kb / 1024, 1)}))


if __name__ == "__main__":
    main()
