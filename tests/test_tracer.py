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
