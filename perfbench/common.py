"""Shared pieces of the benchmark: paths, thread caps, statistics, output."""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: BLAS/OpenMP pool size for the benchmark and every process it starts.  One
#: thread keeps the numbers steady on a small shared machine; it never
#: exceeds ``nproc``.
BLAS_THREADS = 1
_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

#: Hash seed for the benchmark and its children.  Set iteration order over
#: strings decides how much work pattern mining and matching do, so runs
#: on the same inputs varied by about 13% with random hash seeds.
HASH_SEED = "0"

#: A percentile that lands on a failed operation reads as this many ms: a
#: failure counts as missing every latency percentile.
FAILED_MS = 1e9


def child_env() -> dict[str, str]:
    """Environment for this process and its children: thread cap and
    ``src`` on the import path."""
    env = dict(os.environ)
    for name in _THREAD_VARS:
        env[name] = str(BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env.pop("REPRO_SPARSE_BACKEND", None)
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


def prepare_process() -> None:
    """Apply :func:`child_env` to this process; call before numpy loads.

    The hash seed is read at interpreter start, so a process started with
    another one re-executes itself (same pid, same arguments)."""
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, *sys.argv], child_env())
    for name in _THREAD_VARS:
        os.environ[name] = str(BLAS_THREADS)
    os.environ.pop("REPRO_SPARSE_BACKEND", None)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


#: CPU time, in ms, that :func:`speed_probe_ms` takes at the reference
#: speed.  The end-to-end times are reported at this speed (see
#: :func:`at_reference_speed`).
REFERENCE_PROBE_MS = 2.0


def speed_probe_ms() -> float:
    """CPU time of this thread, in ms, for a fixed piece of interpreter and
    numpy work.

    The workloads call it between operations, outside every timed call.
    Thread CPU time leaves out time spent waiting for the GIL or for a
    core, so other threads and processes of the program under test do not
    move it; what moves it is how fast the machine executes."""
    import numpy

    matrix = numpy.arange(4096, dtype=float).reshape(64, 64) / 4096.0
    start = time.thread_time()
    total = 0
    for index in range(20_000):
        total += index * index % 7
    for _ in range(20):
        matrix = numpy.tanh(matrix @ matrix)
    return (time.thread_time() - start) * 1000.0


def at_reference_speed(
    metrics: dict[str, tuple[float, str]], probes: list[float], fixed: set[str]
) -> tuple[dict[str, tuple[float, str]], dict[str, tuple[float, str]]]:
    """Scale every time (``ms``, ``s``) and rate (``1/s``) in ``metrics``,
    except those named in ``fixed``, to the speed at which the probe takes
    ``REFERENCE_PROBE_MS``.

    The speed of the shared machine drifts by up to 2x within minutes, and
    every operation of the program slows with it: scaling by the run's
    median probe time removes that drift from the comparison of runs made
    at different times.  Returns the scaled metrics and, as information,
    the measured ones (``raw.<name>``) with the probe's median."""
    factor = statistics.median(probes) / REFERENCE_PROBE_MS
    scaled, raw = {}, {"speed_probe_p50_ms": (factor * REFERENCE_PROBE_MS, "ms")}
    for name, (value, unit) in metrics.items():
        if name in fixed:
            scaled[name] = (value, unit)
        elif unit in ("ms", "s"):
            scaled[name] = (value / factor, unit)
            raw[f"raw.{name}"] = (value, unit)
        elif unit == "1/s":
            scaled[name] = (value * factor, unit)
            raw[f"raw.{name}"] = (value, unit)
        else:
            scaled[name] = (value, unit)
    return scaled, raw


def percentile(samples: list[float], fraction: float) -> float:
    """Nearest-rank percentile; ``math.inf`` entries are failed operations."""
    if not samples:
        return FAILED_MS
    ordered = sorted(samples)
    rank = max(1, math.ceil(fraction * len(ordered)))
    value = ordered[rank - 1]
    return FAILED_MS if math.isinf(value) else value


def latency_metrics(prefix: str, samples_ms: list[float]) -> dict[str, tuple[float, str]]:
    return {
        f"{prefix}_p50_ms": (percentile(samples_ms, 0.50), "ms"),
        f"{prefix}_p90_ms": (percentile(samples_ms, 0.90), "ms"),
    }


def trace_overhead(untraced: dict[str, list[float]], traced: dict[str, list[float]]):
    """``trace.<kind>_p50_overhead_ms``: traced minus untraced p50 per kind."""
    return {
        f"trace.{kind}_p50_overhead_ms": (
            percentile(traced[kind], 0.5) - percentile(untraced[kind], 0.5),
            "ms",
        )
        for kind in untraced
    }


def peak_rss_mb_self() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_pid(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, 0 when unreadable."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except (OSError, ValueError):
        pass
    return 0.0


def child_pids(pid: int) -> list[int]:
    try:
        text = Path(f"/proc/{pid}/task/{pid}/children").read_text()
    except OSError:
        return []
    return [int(token) for token in text.split()]


def git_commit() -> str | None:
    """HEAD of the checkout; ``None`` when the checkout is not a git
    repository (git is not asked, so it never searches parent directories)."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def provenance(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Where and how a result was measured (``save_result``-shaped payload)."""
    import numpy
    import scipy

    from repro.matching.compiled import compiled_available

    return {
        "task_type": f"perfbench/{workload}",
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_commit": git_commit(),
        "saved_at": datetime.now(timezone.utc).isoformat(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "matching_compiled": compiled_available(),
        "blas_threads": BLAS_THREADS,
        "reference_probe_ms": REFERENCE_PROBE_MS,
        "python_hash_seed": HASH_SEED,
    }


def emit(
    *,
    provenance_payload: dict,
    metrics: dict[str, tuple[float, str]],
    info: dict[str, tuple[float, str]],
    correct: bool,
    attempted: int,
    failed: int,
    checks: dict[str, bool],
    result_dir: Path,
) -> None:
    """Print every metric by name with its unit, save the full record, and
    end stdout with the one-line JSON result."""
    for name, (value, unit) in {**metrics, **info}.items():
        print(f"{name} {value:.6g} {unit}")
    for name, ok in checks.items():
        print(f"check {name} {'ok' if ok else 'FAILED'}")
    record = {
        **provenance_payload,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "info": {name: {"value": value, "unit": unit} for name, (value, unit) in info.items()},
    }
    result_dir.mkdir(parents=True, exist_ok=True)
    stamp = provenance_payload["saved_at"].replace(":", "").replace("+", "")
    out = result_dir / f"{provenance_payload['workload']}-s{provenance_payload['seed']}-{stamp}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True))
    print(f"provenance {json.dumps(provenance_payload, sort_keys=True)}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": record["metrics"],
            }
        )
    )
