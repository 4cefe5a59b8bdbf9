#!/usr/bin/env python3
"""The repo's benchmark: five workloads, end-to-end and per-layer metrics.

    python3 bench/run.py                          # all workloads, a table
    python3 bench/run.py --workload embedded_btree --seed 3
    python3 bench/run.py --workload iobound_btree --trace      # per-layer
    python3 bench/run.py --repeat 5               # same-code spread vs bounds
    python3 bench/run.py --smoke                  # 1/50 size, must not fail

With ``--workload`` the last line of standard output is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``): every end-to-end
metric of ``BENCHMARK.json``, or with ``--trace 1`` every per-layer one.
The program is imported from ``src/`` beside this directory; nothing
outside this directory is written.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

if __name__ == "__main__":
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        sys.exit(f"bench: no program to measure: {src}/repro is missing")
    sys.path.insert(0, src)
    from cli import main

    sys.exit(main())
