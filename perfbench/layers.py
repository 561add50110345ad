"""Per-layer metrics from the spans of one traced chain.

Each traced stage process leaves one JSON file (see tracer.py). A span's
duration is end - start; its self time is the duration minus the time
its direct child spans cover. A metric whose name ends in ``.s`` or
``_s`` is a total over the whole chain, so it adds up the way the
end-to-end metrics do; ``s_per_*``, ``ns_per_*`` and ``cell_s.*`` are per
unit of work. Metrics of a layer a workload never calls read 0. The names
and units of the metrics reported are those of BENCHMARK.json.
"""

from __future__ import annotations

from collections import defaultdict

STAGES = ("ingest", "stats", "tune", "evaluate", "explain", "report")
TUNED_FAMILIES = ("elastic_net", "random_forest", "gbdt", "gbdt_goss", "mlp")
PREDICT_LAYERS = {"trees.predict_ensemble": "trees",
                  "mlp.predict_mlp": "mlp",
                  "elastic_net.predict_linear": "elastic_net"}

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def flatten(dumps: list[dict]) -> list[dict]:
    """All spans of all stage processes, with parents as global indices and
    ``dur`` / ``self`` filled in."""
    spans: list[dict] = []
    for dump in dumps:
        base = len(spans)
        for raw in dump["spans"]:
            span = dict(raw)
            if span["parent"] is not None:
                span["parent"] += base
            span["dur"] = span["end"] - span["start"]
            span["self"] = span["dur"]
            spans.append(span)
    for span in spans:
        if span["parent"] is not None:
            spans[span["parent"]]["self"] -= span["dur"]
    return spans


def layer_metrics(dumps: list[dict], overhead: float) -> dict[str, float]:
    """Every per-layer metric of one traced chain, by name."""
    spans = flatten(dumps)
    by_name: dict[str, list[dict]] = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)

    def parent_name(span):
        return None if span["parent"] is None else spans[span["parent"]]["name"]

    def total(name, key="dur", where=None):
        return sum(s.get(key, 0) for s in by_name[name] if where is None or where(s))

    def calls(name, where=None):
        return sum(1 for s in by_name[name] if where is None or where(s))

    m: dict[str, float] = {"cli.import_s": sum(d["import_s"] for d in dumps)}
    for stage in STAGES:
        m[f"cli.{stage}.self_s"] = total(f"cli.{stage}", key="self")

    m["panel.load_panel.s"] = total("panel.load_panel")
    m["panel.load_panel.rows_per_s"] = _ratio(total("panel.load_panel", "rows"),
                                              m["panel.load_panel.s"])
    for attr in ("validate_panel", "stack_panel", "summarize", "correlation_matrix"):
        m[f"panel.{attr}.s"] = total(f"panel.{attr}")

    m["features.assemble_design.s"] = total("features.assemble_design")
    m["features.assemble_design.calls"] = calls("features.assemble_design")

    for grower in ("fit_tree", "fit_gradient_tree"):
        m[f"trees.{grower}.s_per_tree"] = _ratio(total(f"trees.{grower}"),
                                                 calls(f"trees.{grower}"))
    grown = calls("trees.fit_tree") + calls("trees.fit_gradient_tree")
    m["trees.trees_grown"] = grown
    m["trees.nodes_per_tree"] = _ratio(total("trees.fit_tree", "nodes")
                                       + total("trees.fit_gradient_tree", "nodes"), grown)
    m["trees.predict_tree.s"] = total(
        "trees.predict_tree", where=lambda s: parent_name(s) == "trees.fit_gbdt")

    m["elastic_net.fit_elastic_net.s_per_fit"] = _ratio(
        total("elastic_net.fit_elastic_net"), calls("elastic_net.fit_elastic_net"))
    m["elastic_net.sweeps"] = total("elastic_net.fit_elastic_net", "sweeps")
    m["elastic_net.predict_linear.s"] = total("elastic_net.predict_linear")

    m["mlp.epochs"] = total("mlp.fit_mlp", "epochs")
    m["mlp.fit_mlp.s_per_epoch"] = _ratio(total("mlp.fit_mlp"), m["mlp.epochs"])
    m["mlp.predict_mlp.s"] = total("mlp.predict_mlp")

    m["tuner.grid_search.s"] = total("tuner.grid_search")
    for family in TUNED_FAMILIES:
        in_family = lambda s, f=family: s.get("family") == f  # noqa: E731
        m[f"tuner.cell_s.{family}"] = _ratio(total("tuner.cell", where=in_family),
                                             calls("tuner.cell", where=in_family))
    m["tuner.cells"] = calls("tuner.cell")
    m["tuner.fits"] = calls("families.fit",
                            where=lambda s: parent_name(s) == "tuner.cell")
    m["tuner.fits_per_cell"] = _ratio(m["tuner.fits"], m["tuner.cells"])
    m["tuner.refit_s"] = total("families.fit",
                               where=lambda s: parent_name(s) == "tuner.grid_search")

    shap_s = total("shap_exact.exact_shap")
    m["shap_exact.exact_shap.s_per_row"] = _ratio(shap_s, calls("shap_exact.exact_shap"))
    m["shap_exact.coalitions"] = total("shap_exact.exact_shap", "coalitions")
    in_shap = [s for s in spans if s["name"] in PREDICT_LAYERS
               and parent_name(s) == "shap_exact.exact_shap"]
    # ensemble predicts inside exact SHAP only: tune and evaluate predict too
    in_shap_trees = [s for s in in_shap if s["name"] == "trees.predict_ensemble"]
    row_trees = sum(s["row_trees"] for s in in_shap_trees)
    m["trees.predict_ensemble.ns_per_row_tree"] = _ratio(
        sum(s["dur"] for s in in_shap_trees) * 1e9, row_trees)
    m["trees.predict_ensemble.row_trees"] = row_trees
    m["shap_exact.model_rows"] = sum(s["rows"] for s in in_shap)
    m["shap_exact.predict_share"] = _ratio(sum(s["dur"] for s in in_shap), shap_s)
    for name, layer in PREDICT_LAYERS.items():
        predicts = [s for s in in_shap if s["name"] == name]
        rows = {s["parent"] for s in predicts}
        m[f"shap_exact.predict_share.{layer}"] = _ratio(
            sum(s["dur"] for s in predicts), sum(spans[i]["dur"] for i in rows))

    m["serialize.load_model.s"] = total("serialize.load_model")
    m["serialize.save_model.s"] = total("serialize.save_model")
    m["reporting.persist_tuning_artifacts.s"] = total("reporting.persist_tuning_artifacts")
    m["trace.overhead"] = overhead
    return {name: float(value) for name, value in m.items()}

