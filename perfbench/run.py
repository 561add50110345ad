#!/usr/bin/env python3
"""wqpanel benchmark: the CLI chain end to end, or traced layer by layer.

    python3 perfbench/run.py --workload demo --seed 20160128 --seconds 30 --trace 0

Run from the root of a wqpanel checkout. Each run generates the workload's
panels and config with scripts/make_synthetic_panel.py and the given seed,
then runs ``ingest -> stats -> tune -> evaluate -> explain -> report``,
each stage as its own ``python -m wqpanel.cli`` process in a fresh output
directory, one stage at a time (a closed loop with one client).

--trace 0 sets up SETUP_REPEATS times, then runs the chain as many times
as the first one says fit in --seconds (at least twice), and reports the
end-to-end metrics: each time is the mean over the chains (the set-up
time the median over the repeats), scaled to a reference machine speed
with calibrate(). --trace 1 runs the chain once plain and once with
every stage under tracer.py, and reports the per-layer metrics.
Both check the outputs; a failed stage or check counts as a failed
operation. The last line of standard output is the result as JSON; the
line before it is the environment record, which is also stored with the
result under .perfbench/results/.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import layers
from workloads import DEFAULT_SEED, WORKLOADS, deep_merge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GENERATOR = ROOT / "scripts" / "make_synthetic_panel.py"
WORK = ROOT / ".perfbench"

SETUP_REPEATS = 7
STAGE_TIMEOUT_S = 100  # a stage takes under 10 s; a run must end within 180 s
# calibrate() takes about this long on a 2-core x86 VM; end-to-end times
# read as seconds on a machine where it takes exactly this long
CALIBRATION_REF_S = 0.1

SHORT_STAGES = ("ingest", "stats", "evaluate", "report")


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


# One BLAS thread per stage, whatever the caller's environment says: at
# nproc=2 a second OpenBLAS thread made the tune stage slower, not faster
# (linear100x: 5.4-6.0 s wall and 9 s CPU, against 4.7-5.5 s with one).
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}


def child_env() -> dict:
    """The stages see this checkout's src/, no output-dir override and one
    BLAS thread.

    Byte code goes to a cache inside .perfbench, so a warm-up import pays
    the compile once and src/ is not written to.
    """
    env = dict(os.environ)
    env.pop("WQPANEL_OUTPUT_DIR", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    env.update(BLAS_THREADS)
    return env


@functools.cache
def _gather_inputs():
    rng = np.random.default_rng(0)
    return rng.standard_normal(1_000_000), rng.integers(0, 1_000_000, 400_000)


def calibrate() -> float:
    """Seconds a fixed piece of work takes now: a pure-Python loop, then
    random reads from an 8 MB numpy array, about half the time each.

    The speed of the shared machine this benchmark was built on drifts by
    tens of percent over minutes, with the other tenants' load, and the
    stages' wall times follow this calibration (correlation 0.56-0.78 per
    stage). End-to-end times are scaled by it; see NOTES.md. It uses no
    BLAS, so it runs on one thread.
    """
    values, index = _gather_inputs()
    t0 = time.perf_counter()
    acc = 0
    for i in range(500_000):
        acc += i * i % 7
    for _ in range(20):
        values[index].sum()
    return time.perf_counter() - t0


def run_process(argv: list[str], log_path: Path, env: dict) -> tuple[int, float, float]:
    """(exit code, wall seconds, max RSS in MB) of one child process."""
    with open(log_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out,
                                stderr=subprocess.STDOUT)
        watchdog = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def make_inputs(workload, seed: int, dest: Path, env: dict) -> tuple[float, dict]:
    """Generate the workload's panels and config under ``dest``.

    Returns (seconds taken, the edited config)."""
    argv = [sys.executable, str(GENERATOR), "--out", str(dest), "--seed", str(seed)]
    for flag, value in workload.generator.items():
        argv += [f"--{flag}", str(value)]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"panel generator failed: {proc.stderr.strip()}")
    config_path = dest / "config.json"
    config = deep_merge(json.loads(config_path.read_text(encoding="utf-8")),
                        workload.config)
    config_path.write_text(json.dumps(config, indent=1) + "\n", encoding="utf-8")
    return time.perf_counter() - t0, config


@dataclass
class Chain:
    out: Path
    stages: list = field(default_factory=list)  # (label, exit code, wall s, max RSS MB)
    calibrations: list = field(default_factory=list)  # one before each stage
    wall: float = 0.0  # of the whole loop, calibrations included
    expected: int = 0

    @property
    def ok(self) -> bool:
        return len(self.stages) == self.expected and all(s[1] == 0 for s in self.stages)

    def seconds(self, *labels: str) -> float:
        return sum(s[2] for s in self.stages if s[0].split(":")[0] in labels)

    def wall_times(self) -> dict[str, float]:
        return {"chain_s": sum(s[2] for s in self.stages),
                "tune_s": self.seconds("tune"),
                "explain_s": self.seconds("explain"),
                "short_stages_s": self.seconds(*SHORT_STAGES)}

    @property
    def peak_rss_mb(self) -> float:
        return max(s[3] for s in self.stages)


def reference_times(chains: list[Chain]) -> dict[str, float]:
    """Mean wall times of ``chains`` at the reference speed: multiplied by
    CALIBRATION_REF_S over the mean of all their calibrations."""
    scale = CALIBRATION_REF_S / statistics.mean(
        c for chain in chains for c in chain.calibrations)
    walls = [chain.wall_times() for chain in chains]
    return {name: statistics.mean(w[name] for w in walls) * scale for name in walls[0]}


def stage_commands(workload, config_path: Path, out: Path, strategy: int):
    base = ["--config", str(config_path), "--out", str(out)]
    commands = [("ingest", ["ingest", *base]), ("stats", ["stats", *base]),
                ("tune", ["tune", *base]), ("evaluate", ["evaluate", *base])]
    for family, suffix in workload.explain:
        model = out / "models" / f"model_strategy{strategy}_{family}.json"
        extra = ["--suffix", suffix] if suffix else []
        commands.append((f"explain:{family}",
                         ["explain", *base, "--model", str(model), *extra]))
    commands.append(("report", ["report", *base]))
    return commands


def run_chain(workload, inputs: Path, strategy: int, out: Path, env: dict,
              spans: Path | None = None) -> Chain:
    """One pass of the CLI chain into the fresh directory ``out``; stops at
    the first stage that fails. With ``spans`` every stage runs traced."""
    commands = stage_commands(workload, inputs / "config.json", out, strategy)
    chain = Chain(out=out, expected=len(commands))
    logs = out.parent / f"{out.name}_logs"
    logs.mkdir(parents=True)
    if spans is not None:
        spans.mkdir(parents=True)
    t0 = time.perf_counter()
    for i, (label, cli_args) in enumerate(commands):
        tag = f"{i:02d}_{label.replace(':', '_')}"
        if spans is None:
            argv = [sys.executable, "-m", "wqpanel.cli", *cli_args]
        else:
            argv = [sys.executable, str(HERE / "tracer.py"),
                    "--spans", str(spans / f"{tag}.json"),
                    "--workload", workload.name, "--", *cli_args]
        chain.calibrations.append(calibrate())
        code, wall, rss = run_process(argv, logs / f"{tag}.log", env)
        chain.stages.append((label, code, wall, rss))
        if code != 0:
            log(f"stage {label} exited {code}; see {logs / (tag + '.log')}")
            break
    chain.wall = time.perf_counter() - t0
    return chain


class Tally:
    """Operations attempted and failed; a failure message per failed one."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.failed = 0

    def record(self, failures: list[str]) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            self.failures += failures
            for message in failures:
                log(f"FAILED: {message}")

    def stages(self, chain: Chain) -> None:
        for label, code, _, _ in chain.stages:
            self.record([] if code == 0 else [f"stage {label} exited {code}"])


def check_chain(tally: Tally, chain: Chain, workload, strategy: int,
                families) -> float:
    """Record the output checks of a complete chain; returns the lowest test
    RMSE over its tuned families."""
    suffixes = [suffix for _, suffix in workload.explain]
    tally.record(checks.check_artifacts(chain.out, strategy, families, suffixes))
    tally.record(checks.check_bundles(chain.out, strategy, families))
    failures, best = checks.check_results(chain.out, strategy, families)
    tally.record(failures)
    return best


def environment(config: dict) -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {"name": deps["blas"].get("name"), "version": deps["blas"].get("version")}
    except (TypeError, KeyError, ValueError):
        blas = {"name": "unknown", "version": "unknown"}
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        git_sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "wqpanel").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "stage_threads": BLAS_THREADS,
        "caller_threads": {name: os.environ.get(name) for name in BLAS_THREADS},
        "n_jobs": config.get("n_jobs", 1),
        "machine": platform.machine(),
    }


def measure_chains(args, workload, run_dir: Path, env: dict, tally: Tally,
                   raw: dict) -> tuple[dict, dict]:
    """--trace 0: (end-to-end metrics, run config); fills ``raw`` with the
    unscaled wall times and the calibrations."""
    setups, calibrations = [], []
    for i in range(SETUP_REPEATS):
        calibrations.append(calibrate())
        seconds, config = make_inputs(workload, args.seed, run_dir / f"inputs{i}", env)
        setups.append(seconds)
    inputs = run_dir / "inputs0"
    for i in range(1, SETUP_REPEATS):  # the same seed gives the same inputs
        tally.record(checks.compare_outputs(inputs, run_dir / f"inputs{i}"))
    strategy, families = config["strategy"], config["families"]

    # the first chain's wall time sets how many chains fit in --seconds
    chains: list[Chain] = []
    repeats = 2
    while len(chains) < repeats:
        chain = run_chain(workload, inputs, strategy, run_dir / f"out{len(chains)}", env)
        tally.stages(chain)
        if not chain.ok:
            break
        test_rmse = check_chain(tally, chain, workload, strategy, families)
        if chains:  # the same seed gives the same artifacts
            tally.record(checks.compare_outputs(chains[0].out, chain.out))
        else:
            repeats = max(2, round(args.seconds / chain.wall))
        chains.append(chain)
    log(f"{len(chains)} chain(s): " + ", ".join(f"{c.wall:.2f}s" for c in chains))

    # Means over all chains, not the median or the fastest chain: on a shared
    # 2-core VM they varied least from run to run.
    metrics = {"setup_s": statistics.median(setups) * CALIBRATION_REF_S
               / statistics.median(calibrations)}
    raw["setup_s"], raw["setup_calibrations"] = setups, calibrations
    raw["chains"] = [dict(c.wall_times(), calibrations=c.calibrations) for c in chains]
    if chains:
        metrics.update(reference_times(chains))
        metrics["peak_rss_mb"] = statistics.median(c.peak_rss_mb for c in chains)
        metrics["test_rmse"] = test_rmse
    return metrics, config


def measure_layers(args, workload, run_dir: Path, env: dict, tally: Tally,
                   raw: dict) -> tuple[dict, dict]:
    """--trace 1: one plain chain and one traced chain on the same inputs;
    (per-layer metrics, run config)."""
    _, config = make_inputs(workload, args.seed, run_dir / "inputs0", env)
    strategy, families = config["strategy"], config["families"]
    inputs = run_dir / "inputs0"

    plain = run_chain(workload, inputs, strategy, run_dir / "plain", env)
    tally.stages(plain)
    if not plain.ok:
        return {}, config
    check_chain(tally, plain, workload, strategy, families)
    spans = run_dir / "spans"
    traced = run_chain(workload, inputs, strategy, run_dir / "traced", env, spans=spans)
    tally.stages(traced)
    if not traced.ok:
        return {}, config
    check_chain(tally, traced, workload, strategy, families)
    tally.record(checks.compare_outputs(plain.out, traced.out))

    dumps = [json.loads(p.read_text(encoding="utf-8")) for p in sorted(spans.glob("*.json"))]
    tally.record(checks.check_additivity(dumps))
    raw["chains"] = [dict(c.wall_times(), calibrations=c.calibrations)
                     for c in (plain, traced)]
    plain_s, traced_s = (reference_times([c])["chain_s"] for c in (plain, traced))
    log(f"plain chain {plain_s:.2f}s, traced chain {traced_s:.2f}s at the reference speed")
    overhead = traced_s / plain_s - 1.0
    return layers.layer_metrics(dumps, overhead), config


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long --trace 0 repeats the chain")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "wqpanel" / "cli.py").is_file() or not GENERATOR.is_file():
        log(f"no wqpanel sources under {ROOT}; run from a wqpanel checkout")
        return 2
    workload = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    env = child_env()
    run_dir = WORK / "runs" / f"{args.workload}-{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    warm = subprocess.run([sys.executable, "-c", "import wqpanel.cli"], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    if warm.returncode != 0:
        log(f"cannot import wqpanel from {SRC}: {warm.stderr.strip()}")
        return 2

    tally = Tally()
    measure = measure_layers if args.trace else measure_chains
    raw: dict = {}
    values, config = measure(args, workload, run_dir, env, tally, raw)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if name in values}
    result = {"correct": tally.failed == 0 and len(metrics) == len(units),
              "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "failures": tally.failures, "raw": raw,
              "environment": environment(config), "result": result}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{run_dir.name}.json").write_text(json.dumps(record, indent=1) + "\n",
                                                  encoding="utf-8")
    if result["correct"]:
        shutil.rmtree(run_dir)
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
