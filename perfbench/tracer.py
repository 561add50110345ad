#!/usr/bin/env python3
"""Run one wqpanel CLI stage with timers around its public functions.

    python perfbench/tracer.py --spans SPANS.json --workload demo -- tune --config ...

Everything after ``--`` goes to ``wqpanel.cli.main`` unchanged. Each timer
is installed at the name its caller looks up: module attributes such as
``wqpanel.trees.fit_tree``, the names ``wqpanel.cli`` imported, and the
callables of the entries in ``wqpanel.families.FAMILIES``. Spans
(name, start, end, parent, stage, workload, plus counts taken from
arguments and results) stay in memory and are written as one JSON file
when the stage ends. The program's source is not touched.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import time


class Tracer:
    """Nested spans of one single-threaded process."""

    def __init__(self, stage: str, workload: str):
        self.stage = stage
        self.workload = workload
        self.spans: list[dict] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn, counts=None):
        """``fn`` with a span around each call; ``counts(args, kwargs, result)``
        returns extra fields for the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._open[-1] if self._open else None}
            self._open.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if counts is not None:
                span.update(counts(args, kwargs, result))
            return result

        return traced

    def patch(self, module, attr: str, name: str, counts=None) -> None:
        setattr(module, attr, self.wrap(name, getattr(module, attr), counts))

    def dump(self, path: str, import_s: float, exit_code) -> None:
        payload = {"stage": self.stage, "workload": self.workload,
                   "import_s": import_s, "exit_code": exit_code,
                   "spans": [dict(s, stage=self.stage, workload=self.workload)
                             for s in self.spans]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def install(tracer: Tracer) -> None:
    """Wrap every traced function of an imported ``wqpanel.cli``."""
    import wqpanel.cli as cli
    import wqpanel.elastic_net as en
    import wqpanel.families as fam
    import wqpanel.features as features
    import wqpanel.mlp as nn
    import wqpanel.serialize as serialize
    import wqpanel.shap_exact as shap
    import wqpanel.trees as tr
    import wqpanel.tuner as tuner

    for stage, command in list(cli._COMMANDS.items()):
        cli._COMMANDS[stage] = tracer.wrap(f"cli.{stage}", command)

    # panel: the CLI calls these through the names it imported
    loaded = lambda a, k, ds: {"rows": int(ds.n_dates * ds.n_sites)}  # noqa: E731
    tracer.patch(cli, "load_panel", "panel.load_panel", loaded)
    for attr in ("validate_panel", "summarize", "correlation_matrix"):
        tracer.patch(cli, attr, f"panel.{attr}")
    tracer.patch(cli, "stack_panel", "panel.stack_panel")
    tracer.patch(tuner, "stack_panel", "panel.stack_panel")

    # features: the tuner imported the name; cli imports it at call time
    tracer.patch(tuner, "assemble_design", "features.assemble_design")
    tracer.patch(features, "assemble_design", "features.assemble_design")

    # trees: growers and the per-tree predict are module globals of trees;
    # a predict_tree span directly under fit_gbdt is the boosting yhat update
    grown = lambda a, k, tree: {"nodes": int(tree.n_nodes)}  # noqa: E731
    tracer.patch(tr, "fit_tree", "trees.fit_tree", grown)
    tracer.patch(tr, "fit_gradient_tree", "trees.fit_gradient_tree", grown)
    tracer.patch(tr, "fit_gbdt", "trees.fit_gbdt")
    tracer.patch(tr, "predict_tree", "trees.predict_tree",
                 lambda a, k, out: {"rows": len(out)})

    # elastic net and MLP fits are looked up on their modules by families
    tracer.patch(en, "fit_elastic_net", "elastic_net.fit_elastic_net",
                 lambda a, k, model: {"sweeps": int(model.sweeps_used)})
    tracer.patch(nn, "fit_mlp", "mlp.fit_mlp",
                 lambda a, k, res: {"epochs": len(res[1].train_loss)})

    # families: fit and predict are looked up on the registry entries
    predict_names = {en.predict_linear: "elastic_net.predict_linear",
                     nn.predict_mlp: "mlp.predict_mlp",
                     tr.predict_ensemble: "trees.predict_ensemble"}

    def predicted(a, k, out):
        model = a[0]
        trees = len(model.trees) if isinstance(model, tr.Ensemble) else 0
        return {"rows": len(out), "row_trees": len(out) * trees}

    for name, entry in list(fam.FAMILIES.items()):
        updates = {"fit": tracer.wrap("families.fit", entry.fit,
                                      lambda a, k, r, n=name: {"family": n})}
        if entry.predict in predict_names:
            updates["predict"] = tracer.wrap(predict_names[entry.predict],
                                             entry.predict, predicted)
        fam.FAMILIES[name] = dataclasses.replace(entry, **updates)

    # tuner: one grid-search cell is one (config, fold) task
    tracer.patch(cli, "grid_search", "tuner.grid_search")
    tracer.patch(tuner, "_pool_task", "tuner.cell",
                 lambda a, k, r: {"family": tuner._POOL_CTX["family"].name})

    # exact SHAP: one span per explained row, with the additivity error
    def attributed(a, k, attr):
        return {"coalitions": 1 << len(attr.phi),
                "additivity_err": abs(attr.base_value + float(attr.phi.sum())
                                      - attr.f_x)}

    tracer.patch(shap, "exact_shap", "shap_exact.exact_shap", attributed)

    # serialization; persistence is traced at the name cli imported
    tracer.patch(cli, "load_model", "serialize.load_model")
    tracer.patch(serialize, "save_model", "serialize.save_model")
    tracer.patch(cli, "persist_tuning_artifacts", "reporting.persist_tuning_artifacts")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="where to write the spans")
    parser.add_argument("--workload", required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    t0 = time.perf_counter()
    import wqpanel.cli as cli
    import_s = time.perf_counter() - t0

    tracer = Tracer(stage=cli_args[0] if cli_args else "", workload=args.workload)
    install(tracer)
    code = None
    try:
        code = cli.main(cli_args)
    finally:
        tracer.dump(args.spans, import_s, code)
    return code


if __name__ == "__main__":
    sys.exit(main())
