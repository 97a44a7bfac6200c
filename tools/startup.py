"""Measure the start-up of the command line: a fresh `import roughkleene.cli`.

Usage: python tools/startup.py [SRC]   (SRC defaults to src/)

Runs the import in a new interpreter with PYTHONDONTWRITEBYTECODE=1, so the
package compiles from source as it does where no bytecode is written, and
prints one JSON object:
  seconds      the wall time of the import, timed inside the new process;
  max_rss_mb   that process's peak resident set after the import;
  modules      the sorted names the import added to sys.modules.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# sys, time and resource load before the snapshot; json after the measure
CHILD = """
import resource, sys, time
before = set(sys.modules)
start = time.perf_counter()
import roughkleene.cli
seconds = time.perf_counter() - start
modules = sorted(set(sys.modules) - before)
rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
import json
print(json.dumps({"seconds": seconds, "max_rss_mb": rss_mb, "modules": modules}))
"""


def measure(src=SRC) -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", CHILD], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return json.loads(out.stdout)


def main(argv) -> int:
    print(json.dumps(measure(argv[1] if len(argv) > 1 else SRC), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
