"""The benchmark's layer map still matches the program: every function that
``perfbench/tracing.py`` wraps exists in ``onebit``.  A renamed or deleted
target would otherwise only show up as a ``missing`` entry in a benchmark
run.  perfbench is read, not edited."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Tracer.install rebinds module globals, so it runs in a child process.
INSTALL = """
import json, sys
sys.path[:0] = sys.argv[1:3]
import onebit, onebit.cli
from tracing import TARGETS, Tracer
tracer = Tracer()
tracer.install()
print(json.dumps({"targets": len(TARGETS), "missing": tracer.missing}))
"""


def test_every_traced_target_resolves():
    done = subprocess.run(
        [sys.executable, "-c", INSTALL, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["targets"] > 0
    assert report["missing"] == []
