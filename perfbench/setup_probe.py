"""Time one cold set-up of an in-process workload in a fresh interpreter.

Usage: ``python3 perfbench/setup_probe.py <workload>``; prints one JSON
object with ``import_s`` and ``setup_s``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

common.prepare_process()

import inprocess  # noqa: E402

if __name__ == "__main__":
    print(json.dumps(inprocess.build(sys.argv[1]).timings))
