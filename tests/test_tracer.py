"""The benchmark's tracer wraps program functions by name, so a deleted or
renamed one breaks every traced chain. This runs its install() against the
package in a fresh process, which takes a second, not a chain."""

import os
import subprocess
import sys
from pathlib import Path

import wqpanel
from wqpanel.families import FAMILIES

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_on_every_name_it_wraps():
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); "
             "import tracer, wqpanel.families as fam; "
             "tracer.install(tracer.Tracer(stage='tune', workload='probe')); "
             "print(' '.join(n for n, f in fam.FAMILIES.items() if hasattr(f.fit, '__wrapped__')))")
    src = str(Path(wqpanel.__file__).parents[1])
    # no byte-code cache is left in perfbench/
    env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, "-c", probe, str(PERFBENCH)],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == list(FAMILIES)


# the names the tracer wraps on wqpanel.cli: a stage calls each through
# the module, and cli binds the numpy-side ones on first use
CLI_PATCHED = ("correlation_matrix", "grid_search", "load_model", "load_panel",
               "persist_tuning_artifacts", "stack_panel", "summarize", "validate_panel")


def test_each_name_wrapped_on_cli_is_its_home_modules_function():
    """Read through getattr in a fresh interpreter, as the tracer reads it,
    each name is the function of that name in the module defining it."""
    probe = ("import importlib, sys; sys.path.insert(0, sys.argv[1]); "
             "import tracer, wqpanel.cli as cli; "
             "tracer.install(tracer.Tracer(stage='tune', workload='probe')); "
             "wrapped = {n: f.__wrapped__ for n, f in vars(cli).items() "
             "if hasattr(f, '__wrapped__')}; "
             "print(' '.join(sorted(n for n, f in wrapped.items() "
             "if f is getattr(importlib.import_module(f.__module__), n))))")
    src = str(Path(wqpanel.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, "-c", probe, str(PERFBENCH)],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert tuple(done.stdout.split()) == CLI_PATCHED
