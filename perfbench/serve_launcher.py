"""Start ``repro serve`` for the ``serve-live`` workload, optionally traced.

Usage::

    python3 perfbench/serve_launcher.py [--trace-dir DIR] -- <repro serve arguments>

With ``--trace-dir`` the span wrappers are installed before ``repro.cli``
builds the shard router, so the forked shard workers inherit them.  Each
worker writes its spans to ``DIR`` when ``shard_worker_main`` returns, and
this process writes its own when the server has drained.  Every file also
holds the match-memo counters sampled at each ``stats`` call, so the reader
can take the counters over its measured window.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

common.prepare_process()

import inprocess  # noqa: E402


def _install_tracing(trace_dir: Path, import_s: float) -> None:
    import tracing
    from repro.api.sharding import router, worker
    from repro.matching.engine import get_engine

    tracing.install()
    memo: list[tuple[float, dict]] = []
    original_stats = worker.ShardHost._op_stats

    def op_stats(self, payload):
        memo.append((time.perf_counter(), get_engine().stats()))
        return original_stats(self, payload)

    worker.ShardHost._op_stats = op_stats

    def dump(name: str) -> None:
        payload = {
            "spans": tracing.TRACER.spans,
            "memo": memo + [(time.perf_counter(), get_engine().stats())],
            "import_s": import_s,
        }
        (trace_dir / f"{name}-{os.getpid()}.json").write_text(json.dumps(payload))

    original_main = router.shard_worker_main

    def shard_worker_main(conn, bootstrap):
        # Spans and counters recorded before the fork belong to the parent.
        tracing.TRACER.reset()
        memo.clear()
        try:
            original_main(conn, bootstrap)
        finally:
            dump(f"worker{bootstrap['shard_index']}")

    router.shard_worker_main = shard_worker_main
    import atexit

    atexit.register(dump, "server")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-dir", type=Path, default=None)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    serve_args = [arg for arg in args.serve_args if arg != "--"]
    start = time.perf_counter()
    inprocess.import_layers()
    import repro.cli

    if args.trace_dir is not None:
        _install_tracing(args.trace_dir, time.perf_counter() - start)
    return repro.cli.main(["serve", *serve_args])


if __name__ == "__main__":
    sys.exit(main())
