"""One benchmark process: set a workload up, then measure or trace it.

Started by ``run.py`` in a fresh interpreter so that set-up time includes
``import scip``.  It talks to its parent through stdout lines that start with
``MARK``: a ``ready`` line when set-up is done (with the monotonic clock
reading, which the parent shares), then a ``result`` line.

    python3 perfbench/child.py --workload reg-sweep --seed 1 --seconds 50 --trace 0 --work-dir .perfbench_out/work-reg-sweep
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MARK = "@@perfbench "
BLAS_PIN = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def emit(event: str, **payload):
    print(MARK + json.dumps(dict(payload, event=event)), flush=True)


def environment() -> dict:
    """Machine and software record written next to every result."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                caches[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    model = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches_cpu0": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "blas_thread_pin": {key: os.environ.get(key) for key in BLAS_PIN},
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process (measured runs start no other process)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work-dir", required=True)
    args = parser.parse_args()
    work_dir = Path(args.work_dir)

    for key in BLAS_PIN:
        os.environ[key] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import scip  # noqa: F401  (timed: the import is part of set-up)

    import_s = time.perf_counter() - t0

    import spans
    import workloads

    expected = json.loads((ROOT / "perfbench" / "expected.json").read_text())
    workload = workloads.make(args.workload, args.seed, work_dir, expected)
    t0 = time.perf_counter()
    workload.warm_up()
    warmup_s = time.perf_counter() - t0
    emit("ready", t_ready=time.perf_counter(), import_s=import_s, warmup_s=warmup_s)
    sys.stdin.readline()  # the parent reads the set-up probe (speed.py) while this process waits

    if args.trace:
        log = workloads.RunLog()
        rec = spans.Recorder()
        metrics = workloads.reference_paths(args.seed, log)
        metrics.update(workloads.scale_curve(args.seed))
        own, traced_ops = workload.trace(rec, log)
        metrics.update(own, **spans.layer_metrics(rec))
        rec.save(work_dir / f"spans-{args.workload}-seed{args.seed}.npz")
        result = {"metrics": metrics, "traced_ops": traced_ops}
    else:
        out = workload.measure(args.seconds)
        log = out.pop("log")
        result = out
    emit("result", attempted=log.attempted, failed=log.failed, problems=log.problems,
         digests=workload.digests, peak_rss_mb=peak_rss_mb(), env=environment(), **result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
