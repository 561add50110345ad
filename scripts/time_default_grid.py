#!/usr/bin/env python3
"""Time one CV fold of a family's default grid on the demo panel.

    python scripts/time_default_grid.py --family gbdt

Writes the demo panel and config (make_synthetic_panel.py defaults, or
--seed) to a temporary directory, builds the config's strategy design, and
runs the grid-search tasks of fold 0 for every config of the family's
registry default grid, as grid_search runs them: one task for the fold
when the family has a fit_fold hook, else one task per config. Prints one
JSON line with the wall time of those tasks, the trees grown (fit_tree and
fit_gradient_tree calls) and the process's peak RSS. Runs in one process
with one BLAS thread unless the environment sets another count.
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
    args = parser.parse_args()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")  # read when numpy loads, below

    from wqpanel import trees as tr
    from wqpanel import tuner
    from wqpanel.cli import _read_panels, grid_for
    from wqpanel.families import get_family
    from wqpanel.run_config import load_run_config

    family = get_family(args.family)
    if family.default_grid is None:
        raise SystemExit(f"{args.family} has no default grid")
    with tempfile.TemporaryDirectory() as tmp:
        subprocess.run([sys.executable, str(Path(__file__).with_name("make_synthetic_panel.py")),
                        "--out", tmp, "--seed", str(args.seed)],
                       check=True, stdout=subprocess.DEVNULL)
        cfg = load_run_config(Path(tmp) / "config.json")
        [train] = _read_panels(cfg, ("train",))
    design, _ = tuner.prepare_designs(train, cfg.strategy_config(cfg.strategy))
    cv = tuner.CVConfig(k=cfg.cv_k, seed=tuner.subseed(cfg.seed, tuner.TAG_FOLD),
                        scheme=cfg.fold_scheme())
    folds = tuner.kfold_split(len(design.y), cv)
    configs = grid_for({}, args.family).configs()
    everything = tuple(range(len(configs)))
    tasks = [(0, everything)] if family.fit_fold else [(0, (ci,)) for ci in everything]

    grown = 0
    for name in ("fit_tree", "fit_gradient_tree"):
        def counted(*a, _fit=getattr(tr, name), **k):
            nonlocal grown
            grown += 1
            return _fit(*a, **k)
        setattr(tr, name, counted)

    tuner._pool_init(args.family, configs, design.X, design.y, folds, cfg.seed)
    t0 = time.perf_counter()
    for task in tasks:
        tuner._pool_task(task)
    wall = time.perf_counter() - t0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"family": args.family, "rows": len(folds[0][0]),
                      "columns": design.n_cols, "configs": len(configs),
                      "tasks": len(tasks), "trees_grown": grown,
                      "wall_s": round(wall, 3), "peak_rss_mb": round(peak_kb / 1024, 1)}))


if __name__ == "__main__":
    main()
