"""The benchmark's traced run wraps library functions by module and name.

perfbench/tracing.install replaces each function it measures at the name
its caller looks it up under. A library change that deletes or renames one
of those names breaks the traced benchmark run, so this test installs the
tracer against the current library in a fresh interpreter. The traced run
also hands the decoder a `TracedScorer`, which forwards only `start` and
`step` and wraps each state; the second test decodes through it.
"""

import json
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

TRACED_DECODE = """
import json, sys
sys.path[:0] = [{src!r}, {bench!r}]
from tracing import TracedScorer, Tracer
from apeforge.corpus import Vocab
from apeforge.decoder import NmtScorer, PepFeature, ScorerBinding, decode
from apeforge.nmt import init_model

src_vocab = Vocab(["a", "b", "c", "d"])
tgt_vocab = Vocab(["w", "x", "y", "z"])
models = [init_model(src_vocab, tgt_vocab, 6, 5, seed=s) for s in (1, 2)]
inputs = [(4, 5, 6, 7), (7, 4, 5)]
pep = PepFeature.from_units(["w", "x"], tgt_vocab, 0.2)

def ensemble(wrap):
    bindings = [
        ScorerBinding(f"m{{i}}", wrap(NmtScorer(m)), ids, 0.5)
        for i, (m, ids) in enumerate(zip(models, inputs))
    ]
    return decode(bindings, pep=pep, beam=6)

tracer = Tracer("contract")
plain = ensemble(lambda s: s)
traced = ensemble(lambda s: TracedScorer(s, tracer))
calls, _, _ = tracer.totals()
print(json.dumps(dict(
    same=traced == plain,
    entries=len(plain.entries),
    calls=calls["nmt.step"],
    rows=tracer.counts["nmt.step.rows"],
)))
"""


def _run(template):
    code = template.format(src=str(ROOT / "src"), bench=str(ROOT / "perfbench"))
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
    return result.stdout.strip()


def test_tracer_installs_against_library():
    assert _run(INSTALL) == "installed"


def test_decode_through_traced_scorer():
    """The n-best is the unwrapped decode's, and each step call advances
    more than one row."""
    out = json.loads(_run(TRACED_DECODE))
    assert out["same"] and out["entries"] == 6
    assert out["rows"] > out["calls"] > 0
