"""One cold start of the dqsa CLI as the benchmark sees it.

A fresh interpreter imports ``dqsa.cli`` from the checkout's ``src/`` and
generates the workload's inputs up to the first operation, then exits.
``run.py`` times whole runs of this script from outside and reports the
median as ``setup_s``.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import dqsa.cli  # noqa: E402,F401  (the import is what is being timed)
import workloads  # noqa: E402

if __name__ == "__main__":
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    workdir.mkdir(parents=True)
    workloads.make(name, seed, workdir).ops(0)
