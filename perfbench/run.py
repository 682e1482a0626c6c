"""The repository benchmark: one workload per run, in its own process.

Usage, from the repository root::

    python3 perfbench/run.py --workload cold-ilp --seed 1 --seconds 10 --trace 0

``BENCHMARK.json`` names the workloads and metrics.  With ``--trace 0``
the last stdout line is a JSON object carrying every end-to-end metric;
with ``--trace 1`` it carries every per-layer metric, measured by
wrapping each layer's entry point (``perfbench/tracing.py``).  Lines
before it print each metric by name and unit, ``latency_p99_ms`` with
the number of samples beyond it, ``failed_ratio``, and in
a traced run the tracing overhead (traced windows against untraced
ones); a traced run also writes its spans to
``perfbench/out/spans-<workload>.jsonl``.  Each run is appended to
``perfbench/out/records.jsonl`` in one record schema: host, commit,
workload, seed, metrics with units, and the sample counts behind each
percentile.

Every end-to-end time is scaled by the host's speed, read by a fixed
loop around every one-second slice (``workloads.calibrate``): the host
is shared and its speed drifts by up to 2x.  The unscaled wall times
are printed and recorded beside them.

The workload runs in a child process (``perfbench/workloads.py``) with
BLAS/OpenMP pools pinned to one thread, so its peak RSS and thread
count are its own.  Every answer is checked against an independent
cold evaluation; ``correct`` is false when any check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Thread pools pinned to one thread: the load comes only from the
#: workload's own closed-loop clients, and BLAS/OpenMP pools would add
#: threads that compete with them and spread per-query times.
PINNED_THREADS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

#: Seconds the workload process may take; the whole run must end
#: within 180 s.
CHILD_TIMEOUT = 170


def _commit():
    """The checkout's git commit, or ``None`` outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _child(args):
    """Run the workload process; returns its report or exits non-zero."""
    env = dict(os.environ)
    for name in PINNED_THREADS:
        env[name] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if part
    )
    # Keep sqlite's spill files and any temporary file inside the checkout.
    scratch = OUT / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = env["SQLITE_TMPDIR"] = str(scratch)
    command = [
        sys.executable,
        str(HERE / "workloads.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    try:
        proc = subprocess.run(
            command,
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        sys.exit(f"workload {args.workload} exceeded {CHILD_TIMEOUT} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        sys.exit(f"workload {args.workload} failed (exit {proc.returncode})")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=[workload["name"] for workload in spec["workloads"]],
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"no program source at {ROOT / 'src' / 'repro'}")

    started = time.time()
    report = _child(args)
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = report["per_layer"] if args.trace else report["end_to_end"]
    metrics = {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in listed
    }
    units = {metric["name"]: metric["unit"] for metric in spec["end_to_end"]}
    record = {
        "schema": 1,
        "started": started,
        "commit": _commit(),
        "host": report["host"],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "why": next(
            workload["why"]
            for workload in spec["workloads"]
            if workload["name"] == args.workload
        ),
        "metrics": metrics,
        "wall_metrics": {
            name: {"value": report["wall_end_to_end"][name], "unit": units[name]}
            for name in units
        },
        # Printed and recorded, not a BENCHMARK.json metric: cold-ilp
        # runs leave only about one sample beyond it.
        "latency_p99_ms": {
            "value": report["end_to_end"]["latency_p99_ms"],
            "unit": "ms",
            "samples_beyond": report["samples"]["latency"] // 100,
        },
        "samples": report["samples"],
        "phase_seconds": report["phase_seconds"],
        "host_calibration_ms": report["host_calibration_ms"],
        "reference_calibration_ms": report["reference_calibration_ms"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "failed_ratio": report["failed_ratio"],
        "mismatches": report["mismatches"],
    }
    if args.trace:
        record["overhead"] = {
            name: {
                "untraced": report["end_to_end"][name],
                "traced": report["traced_end_to_end"][name],
                "unit": units[name],
            }
            for name in units
        }
        record["traced_samples"] = report["traced_samples"]
        record["spans"] = report["spans"]
    OUT.mkdir(exist_ok=True)
    with open(OUT / "records.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")

    for name, metric in metrics.items():
        print(f"{args.workload} {name} {metric['value']:.6g} {metric['unit']}")
    print(
        f"{args.workload} failed_ratio {record['failed_ratio']:.6g} ratio "
        f"({record['failed']} of {record['attempted']})"
    )
    p99 = record["latency_p99_ms"]
    print(
        f"{args.workload} latency_p99_ms {p99['value']:.6g} ms "
        f"({p99['samples_beyond']} of {record['samples']['latency']} samples beyond it)"
    )
    for name, metric in record["wall_metrics"].items():
        print(f"{args.workload} unscaled {name} {metric['value']:.6g} {metric['unit']}")
    print(
        f"{args.workload} host_calibration_ms "
        f"{record['host_calibration_ms']:.6g} ms (median of the fixed loop; "
        f"reference {record['reference_calibration_ms']:.6g} ms)"
    )
    for name, pair in record.get("overhead", {}).items():
        print(
            f"{args.workload} tracing overhead {name}: "
            f"untraced {pair['untraced']:.6g} traced {pair['traced']:.6g} "
            f"{pair['unit']}"
        )
    for mismatch in record["mismatches"]:
        print(f"{args.workload} mismatch {json.dumps(mismatch)}")
    print(
        json.dumps(
            {
                "correct": record["failed"] == 0,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
