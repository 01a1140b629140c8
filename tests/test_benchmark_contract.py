"""The benchmark's traced run wraps library functions by module and name.

perfbench/tracing.install replaces each function it measures at the name
its caller looks it up under. A library change that deletes or renames one
of those names breaks the traced benchmark run, so this test installs the
tracer against the current library in a fresh interpreter.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

INSTALL = """
import sys
sys.path[:0] = [{src!r}, {bench!r}]
from tracing import Tracer, install
install(Tracer("contract"))
print("installed")
"""


def test_tracer_installs_against_library():
    code = INSTALL.format(src=str(ROOT / "src"), bench=str(ROOT / "perfbench"))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    result = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "installed"
