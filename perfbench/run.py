"""Benchmark entry point for fairmarket.

    python3 perfbench/run.py --workload {wide,crowd,audit} --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Each run starts fresh interpreters, one
at a time, and no extra threads: a closed loop with one client that sends
the next instance only after the previous one is certified.

* Set-up is timed in several fresh interpreters, from process start to the
  point where the corpus is ready (import, corpus generation, JSON); the
  median is `setup_s`.
* `--trace 0` measures the workload untraced and prints the end-to-end
  metrics; `--trace 1` runs it once untraced and once with span wrappers
  and prints the per-layer split.

Every output is certified by the benchmark itself, held to the committed
golden digests on seed 0, and held to its own earlier result when an
instance repeats.  The last line of standard output is one JSON object:
`{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`.
The line before it carries the detail (failure and golden mismatch shares,
sample counts, work counters).
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import corpus

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 9
TIME_LIMIT_S = 170.0


def spawn(args: argparse.Namespace, setup_only: bool, deadline: float) -> tuple[float, list[str]]:
    """Run one worker; the seconds until it was set up, and its output lines."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ] + (["--setup-only"] if setup_only else [])
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        ready = perf_counter() - start
        if first.strip() != "READY":
            raise RuntimeError(f"worker failed during set-up: {first.strip()!r}")
        out, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return ready, out.splitlines()


def main() -> int:
    parser = argparse.ArgumentParser(description="fairmarket benchmark")
    parser.add_argument("--workload", choices=sorted(corpus.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not (ROOT / "src" / "fairmarket" / "__init__.py").is_file():
        print(f"error: no fairmarket sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = perf_counter() + TIME_LIMIT_S
    try:
        probes = 0 if args.trace else SETUP_SAMPLES - 1
        setups = [spawn(args, True, deadline)[0] for _ in range(probes)]
        ready, lines = spawn(args, False, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        tmp = ROOT / ".perfbench_tmp"
        if tmp.is_dir() and not any(tmp.iterdir()):
            shutil.rmtree(tmp, ignore_errors=True)
    setups.append(ready)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print("error: worker printed no result", file=sys.stderr)
        return 1
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
