"""scip benchmark: sweep throughput, large-pool selection and per-layer traced costs.

    python3 perfbench/run.py --workload reg-sweep --seed 1 --seconds 50 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Each run starts one fresh process, which imports scip, builds its inputs
from ``--seed`` and runs one untimed warm-up op (``setup_s`` is the time
from its start to that point).  It then measures: with
``--trace 0`` a closed loop with one caller and no think time for
``--seconds`` seconds (end-to-end metrics; op times are scaled by a
machine-speed probe, see ``speed.py``); with ``--trace 1`` a fixed amount
of work untraced and then traced (per-layer metrics).  The last stdout line
is one JSON object: correct, attempted, failed, metrics.  The full record,
environment included, goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

# the set-up probe also runs in this process, so its BLAS is pinned like the measuring process's
for _key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_key] = "1"

import speed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
MARK = "@@perfbench "
WORKLOADS = ("reg-sweep", "pool-1m")
RUN_DEADLINE_S = 170.0

END_TO_END_UNITS = {"ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_p95": "ms", "setup_s": "s",
                    "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_ms") or "_ms." in name:
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_ratio", "_efficiency")):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _messages(stdout: bytes) -> dict:
    """The child's protocol messages, by event."""
    messages = {}
    for line in stdout.decode(errors="replace").splitlines():
        if line.startswith(MARK):
            msg = json.loads(line[len(MARK):])
            messages[msg.pop("event")] = msg
    return messages


def _read_until_ready(proc, deadline: float) -> bytes:
    """The child's stdout up to its ready line, or all of it if it exits first."""
    out = b""
    while "ready" not in _messages(out.rpartition(b"\n")[0]):  # complete lines only
        left = deadline - time.perf_counter()
        if left <= 0:
            raise subprocess.TimeoutExpired(proc.args, RUN_DEADLINE_S)
        if select.select([proc.stdout], [], [], left)[0]:
            chunk = os.read(proc.stdout.fileno(), 1 << 16)
            if not chunk:
                break
            out += chunk
    return out


def _run_child(workload: str, args, deadline: float) -> dict:
    """Start one child process, wait for it, and return its protocol messages.

    The child waits after set-up until this process has read the set-up probe,
    so that the readings on both sides of set-up come from an otherwise idle machine.
    """
    cmd = [sys.executable, str(ROOT / "perfbench" / "child.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(OUT_DIR / f"work-{workload}")]
    probe = speed.pool_probe()
    readings = [probe.read() for _ in range(speed.SETUP_READS)]
    t_spawn = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, start_new_session=True)
    try:
        head = _read_until_ready(proc, deadline)
        readings += [probe.read() for _ in range(speed.SETUP_READS)]
        rest, _ = proc.communicate(b"go\n", timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"{workload}: child process passed the {RUN_DEADLINE_S:.0f} s deadline")
    messages = _messages(head + rest)
    if proc.returncode != 0 or "ready" not in messages:
        raise BenchError(f"{workload}: child process exited with code {proc.returncode}")
    setup = messages["ready"]
    setup["setup_s"] = setup["t_ready"] - t_spawn
    setup["setup_ref_s"] = setup["setup_s"] * probe.ref_s * len(readings) / sum(readings)
    return messages


def _p95(values: list[float]) -> float:
    """Interpolated 95th percentile (the single value when there is one)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=20, method="inclusive")[-1]


def run_workload(workload: str, args, deadline: float) -> dict:
    (OUT_DIR / f"work-{workload}").mkdir(parents=True, exist_ok=True)
    messages = _run_child(workload, args, deadline)
    setup, result = messages["ready"], messages.get("result")
    if result is None:
        raise BenchError(f"{workload}: the measuring process sent no result")
    if args.trace:
        metrics = dict(result["metrics"])
        metrics["setup.import_s"] = setup["import_s"]
        metrics["setup.warmup_s"] = setup["warmup_s"]
        notes = {"traced_ops": result["traced_ops"]}
    else:
        # op times are scaled to the reference speed (speed.py); the raw ones go to the notes
        op_ms = [1e3 * s for s in result["op_ref_s"]]
        if not op_ms or result["ref_wall_s"] <= 0:
            raise BenchError(f"{workload}: no op completed")
        metrics = {
            "ops_per_s": result["ops"] / result["ref_wall_s"],
            "op_ms_p50": statistics.median(op_ms),
            "op_ms_p95": _p95(op_ms),
            "setup_s": setup["setup_ref_s"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
        raw_ms = [1e3 * s for s in result["op_s"]]
        probe_ms = [1e3 * s for s in result["probe_s"]]
        notes = {"op_samples": len(op_ms), "samples_beyond_p95": sum(v > metrics["op_ms_p95"] for v in op_ms),
                 "calls": result["calls"], "timed_wall_s": result["wall_s"],
                 "raw_ops_per_s": result["ops"] / result["wall_s"], "raw_op_ms_p50": statistics.median(raw_ms),
                 "raw_op_ms_p95": _p95(raw_ms), "raw_setup_s": setup["setup_s"], "probe_ms_min": min(probe_ms),
                 "probe_ms_median": statistics.median(probe_ms)}
    record = {
        "workload": workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "correct": result["failed"] == 0, "attempted": result["attempted"], "failed": result["failed"],
        "fail_rate": result["failed"] / max(1, result["attempted"]), "problems": result["problems"],
        "digests": result["digests"], "metrics": metrics, "notes": notes, "setup": setup,
        "env": dict(result["env"], git_sha=_git_sha()),
    }
    path = OUT_DIR / f"result-{workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return record


def _print_record(record: dict):
    wl = record["workload"]
    for name, value in record["metrics"].items():
        print(f"{wl:13s} {name:42s} {value:14.6g} {_unit(name)}")
    print(f"{wl:13s} {'fail_rate':42s} {record['fail_rate']:14.6g} ratio "
          f"({record['failed']} of {record['attempted']} ops)")
    for key, value in record["notes"].items():
        print(f"{wl:13s} note {key} = {value}")
    for problem in record["problems"]:
        print(f"{wl:13s} FAILED CHECK: {problem}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "scip" / "__init__.py").is_file():
        print(f"perfbench: no scip sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        record = run_workload(args.workload, args, time.perf_counter() + RUN_DEADLINE_S)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    _print_record(record)
    print(f"environment: {json.dumps(record['env'], sort_keys=True)}")
    summary = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in record["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
