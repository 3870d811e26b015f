"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload explain-molecules --seed 1 --seconds 30 --trace 0

Workloads: ``explain-molecules``, ``explain-large`` (in-process, closed
loop) and ``serve-live`` (``repro serve --shards 2`` in a child process,
open loop over HTTP).  ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` splits the run into an untraced and a traced half and reports
per-layer self time and call counts, plus the tracing overhead.  The
end-to-end times and rates are scaled to a reference machine speed
(``common.at_reference_speed``); the measured ones are printed beside them
as ``raw.<name>``.  Every metric is printed as ``name value unit``; the
last line of stdout is the JSON result.  The exit code is 1 when an output
check fails, 2 when the program under test cannot be found and 3 when the
metrics differ from the ones ``BENCHMARK.json`` declares.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

common.prepare_process()

import inprocess  # noqa: E402

WORKLOADS = (inprocess.MOLECULES, inprocess.LARGE, "serve-live")
#: Cold set-ups timed in fresh interpreters, next to the run's own set-up.
SETUP_PROBES = 2


def _probe_setups(workload: str) -> list[float]:
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("setup_probe.py")), workload],
            env=common.child_env(),
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def _ratio(after: dict, before: dict) -> float:
    hits = after["hits"] - before["hits"]
    total = hits + after["misses"] - before["misses"]
    return hits / total if total else 0.0


def run_inprocess(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import tracing

    probes = [] if trace else _probe_setups(workload)
    setup = inprocess.build(workload, trace_hook=tracing.install if trace else None)
    service = setup.service
    schedule = inprocess.explain_schedule(workload, service, seed)
    donors = inprocess.donor_graphs(workload, seed)
    fifo: list[int] = []
    metrics: dict[str, tuple[float, str]] = {}
    info: dict[str, tuple[float, str]] = {}

    if not trace:
        outcome = inprocess.run(workload, service, schedule, donors, fifo, seconds)
        outcomes = [outcome]
        metrics["setup_s"] = (statistics.median(probes + [setup.timings["setup_s"]]), "s")
        metrics["peak_rss_mb"] = (common.peak_rss_mb_self(), "MB")
        metrics.update(common.latency_metrics("explain", outcome.explain_ms))
        metrics["explains_per_s"] = (outcome.explains_per_s(), "1/s")
        metrics.update(common.latency_metrics("ingest", outcome.ingest_ms))
        metrics.update(common.latency_metrics("read", outcome.read_ms))
        info.update(common.latency_metrics("remove", outcome.remove_ms))
        info["explain_samples"] = (len(outcome.explain_ms), "count")
        info["ingest_samples"] = (len(outcome.ingest_ms), "count")
        info["read_samples"] = (len(outcome.read_ms), "count")
    else:
        from repro.matching.engine import get_engine

        setup_summary = tracing.summarize(tracing.TRACER.spans)
        tracing.uninstall()
        tracing.TRACER.reset()
        untraced = inprocess.run(workload, service, schedule, donors, fifo, seconds / 2)
        # The traced half replays the same requests; the untraced half's
        # mutations moved the cache generation, so they miss again.
        schedule = inprocess.explain_schedule(workload, service, seed)
        donors = inprocess.donor_graphs(workload, seed)
        tracing.install()
        tracing.TRACER.reset()
        store_before = service.store.stats()
        memo_before = get_engine().stats()
        traced = inprocess.run(workload, service, schedule, donors, fifo, seconds / 2)
        summary = tracing.summarize(tracing.TRACER.spans)
        tracing.uninstall()
        outcomes = [untraced, traced]
        metrics["import.s"] = (setup.timings["import_s"], "s")
        metrics["datasets.build_s"] = (setup_summary.get("datasets.build", {}).get("total_s", 0.0), "s")
        metrics["gnn.train_s"] = (setup_summary.get("gnn.train", {}).get("total_s", 0.0), "s")
        metrics.update(tracing.layer_metrics(summary))
        metrics["matching.memo_hit_ratio"] = (_ratio(get_engine().stats(), memo_before), "ratio")
        metrics["api.store.hit_ratio"] = (_ratio(service.store.stats(), store_before), "ratio")
        metrics["api.sharding.respawns"] = (0, "count")
        metrics["loadgen.late_p90_ms"] = (0.0, "ms")
        metrics.update(
            common.trace_overhead(
                {"explain": untraced.explain_ms, "ingest": untraced.ingest_ms},
                {"explain": traced.explain_ms, "ingest": traced.ingest_ms},
            )
        )

    checks = inprocess.check(workload, service, outcomes, seed)
    service.close()
    return {
        "metrics": metrics,
        "info": info,
        "checks": checks,
        "attempted": sum(outcome.attempted for outcome in outcomes),
        "failed": sum(outcome.failed for outcome in outcomes),
        "speed_probes": [ms for outcome in outcomes for ms in outcome.speed_probes],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (common.SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {common.SRC}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    if args.workload == "serve-live":
        import serve_live

        outcome = serve_live.run(args.seed, args.seconds, trace)
    else:
        outcome = run_inprocess(args.workload, args.seed, args.seconds, trace)
    declared = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    expected = {metric["name"] for metric in declared["per_layer" if trace else "end_to_end"]}
    if set(outcome["metrics"]) != expected:
        print(
            f"perfbench: metrics {sorted(set(outcome['metrics']) ^ expected)} "
            "differ from BENCHMARK.json",
            file=sys.stderr,
        )
        return 3
    metrics, info = outcome["metrics"], outcome["info"]
    if not trace:
        metrics, raw = common.at_reference_speed(
            metrics, outcome["speed_probes"], outcome.get("fixed", set())
        )
        info = {**raw, **info}
    correct = all(outcome["checks"].values())
    common.emit(
        provenance_payload=common.provenance(args.workload, args.seed, args.seconds, trace),
        metrics=metrics,
        info=info,
        correct=correct,
        attempted=outcome["attempted"],
        failed=outcome["failed"],
        checks=outcome["checks"],
        result_dir=common.WORK / "results",
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
