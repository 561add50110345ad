"""Output checks on one chain's output directory.

Each check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

BENCHMARK_LABEL = "Benchmarking"
REFERENCE_LABEL = "SADL-II (published)"

# report.md copies the wall times of timing_strategyN.json into these
# sections, so they are excluded from the byte comparison with that file.
_TIMING_SECTION = re.compile(r"^## Strategy \d+: running time summary\n.*?(?=^## |\Z)",
                             re.MULTILINE | re.DOTALL)
_TIMING_FILE = re.compile(r"timing_strategy\d+\.json")


def expected_artifacts(strategy: int, families, suffixes) -> list[str]:
    """Relative paths every complete chain leaves in its output directory."""
    names = ["panel_cache.npz", "summary_stats.csv", "summary_stats.json",
             "correlation.csv", f"timing_strategy{strategy}.json",
             f"results_strategy{strategy}.csv", f"results_strategy{strategy}.json",
             "report.md"]
    for family in families:
        names.append(f"tuning_strategy{strategy}_{family}.json")
        names.append(f"models/model_strategy{strategy}_{family}.json")
        if family != "mlp":  # the MLP has no feature importance
            names.append(f"importance_strategy{strategy}_{family}.csv")
    for suffix in suffixes:
        names += [f"shap_mean_abs{suffix}.csv", f"shap_values{suffix}.csv"]
    return names


def check_artifacts(out: Path, strategy: int, families, suffixes) -> list[str]:
    return [f"missing artifact {name}" for name in
            expected_artifacts(strategy, families, suffixes) if not (out / name).is_file()]


def check_bundles(out: Path, strategy: int, families) -> list[str]:
    """Every model bundle parses and names its own family."""
    failures = []
    for family in families:
        path = out / "models" / f"model_strategy{strategy}_{family}.json"
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            failures.append(f"model bundle {path.name} unreadable: {exc}")
            continue
        if (not isinstance(payload, dict)
                or "format_version" not in payload
                or payload.get("family") != family
                or not isinstance(payload.get("params"), dict)):
            failures.append(f"model bundle {path.name} is not a {family} bundle")
    return failures


def check_results(out: Path, strategy: int, families) -> tuple[list[str], float]:
    """Test RMSE of every tuned family is finite and the best beats the
    Benchmarking row. Returns (failures, best test RMSE)."""
    path = out / f"results_strategy{strategy}.json"
    try:
        rows = json.loads(path.read_text(encoding="utf-8"))["rows"]
        rmse = {label: values["rmse"] for label, values in rows}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{path.name} unreadable: {exc}"], math.nan
    tuned = {label: value for label, value in rmse.items()
             if label not in (BENCHMARK_LABEL, REFERENCE_LABEL)}
    failures = []
    if len(tuned) != len(families):
        failures.append(f"{path.name} has {len(tuned)} model rows, "
                        f"expected {len(families)}")
    bad = {label: v for label, v in tuned.items()
           if not isinstance(v, (int, float)) or not math.isfinite(v)}
    if bad:
        failures.append(f"non-finite test RMSE: {bad}")
    best = min((v for label, v in tuned.items() if label not in bad), default=math.nan)
    floor = rmse.get(BENCHMARK_LABEL)
    if not isinstance(floor, (int, float)) or not best < floor:
        failures.append(f"best test RMSE {best} does not beat the "
                        f"{BENCHMARK_LABEL} row {floor}")
    return failures, best


def comparable_files(out: Path) -> dict[str, bytes]:
    """Artifacts that must repeat byte for byte: everything but the timing
    file and the timing sections of report.md."""
    files = {}
    for path in sorted(out.rglob("*")):
        if not path.is_file() or _TIMING_FILE.fullmatch(path.name):
            continue
        blob = path.read_bytes()
        if path.name == "report.md":
            blob = _TIMING_SECTION.sub("", blob.decode("utf-8")).encode("utf-8")
        files[path.relative_to(out).as_posix()] = blob
    return files


def compare_outputs(first: Path, second: Path) -> list[str]:
    a, b = comparable_files(first), comparable_files(second)
    failures = [f"{name} present in only one run" for name in sorted(set(a) ^ set(b))]
    failures += [f"{name} differs between runs" for name in sorted(set(a) & set(b))
                 if a[name] != b[name]]
    return failures


def check_additivity(dumps: list[dict], tol: float = 1e-9) -> list[str]:
    """|base_value + sum(phi) - f_x| <= tol for every attribution the traced
    explain stages computed (tracer.py records the error per row)."""
    errors = [span["additivity_err"] for dump in dumps for span in dump["spans"]
              if span["name"] == "shap_exact.exact_shap"]
    bad = [e for e in errors if not e <= tol]
    if not errors:
        return ["no SHAP attribution was traced"]
    return [f"{len(bad)} of {len(errors)} SHAP attribution(s) off by more than "
            f"{tol:g}, worst {max(bad):.3g}"] if bad else []
