#!/usr/bin/env python3
"""Run the whole pipeline (ingest, stats, tune, evaluate, explain, report) for a config.

Equivalent to chaining the CLI commands; handy for one-shot experiments:

    python scripts/run_experiment.py --config demo/config.json --strategies 1 2 3
"""

import argparse

from wqpanel.cli import main as cli_main
from wqpanel.run_config import ConfigError, load_run_config

# the first of these that the config tunes is explained for the last strategy
EXPLAIN_PREFERENCE = ("gbdt_goss", "gbdt", "elastic_net")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--strategies", type=int, nargs="+", default=[1, 2, 3],
                        choices=(1, 2, 3))
    parser.add_argument("--jobs", type=int, default=None)
    parser.add_argument("--skip-explain", action="store_true")
    args = parser.parse_args()

    base = ["--config", args.config]
    if args.jobs is not None:
        base += ["--jobs", str(args.jobs)]

    steps = [["ingest", *base], ["stats", *base]]
    for strategy in args.strategies:
        steps.append(["tune", *base, "--strategy", str(strategy)])
        steps.append(["evaluate", *base, "--strategy", str(strategy)])
    try:
        cfg = load_run_config(args.config)
    except ConfigError as exc:
        raise SystemExit(f"config error: {exc}") from None
    explained = [f for f in EXPLAIN_PREFERENCE if f in cfg.families]
    if explained and not args.skip_explain:
        model = (cfg.output_dir / "models"
                 / f"model_strategy{args.strategies[-1]}_{explained[0]}.json")
        steps.append(["explain", *base, "--model", str(model)])
    steps.append(["report", *base])

    for step in steps:
        print(f"\n== wqpanel {' '.join(step)}")
        code = cli_main(step)
        if code != 0:
            raise SystemExit(code)


if __name__ == "__main__":
    main()
