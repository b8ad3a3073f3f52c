"""bqplane benchmark: one workload per fresh process, checked outputs.

    python3 bench/run.py --workload tower-chains --seed 1 --seconds 30 --trace 0

Workloads (closed loop, one client running jobs back to back; jobs.py):
  tower-chains     lemma3-chain over Q[i] into depth 2-6 towers, plus chains
  tower-decompose  decompose / decompose-lorentz over Q[sqrt 2][i] and
                   Q[sqrt 2][sqrt 3][i], witness-nonisometry, sampled identities
  prime-census     GF(13) exhaustive identities, a fixed-budget preserver
                   search, enumerate-ortho, and GF(p) maps given as
                   expressions and as table files

With --trace 0 the last stdout line reports the end-to-end metrics
listed in BENCHMARK.json; with --trace 1 the per-layer metrics of a
separate traced replay.  Lines before it print every metric measured,
with units, and the run's context.  Runs from the repository root it
lives in and builds nothing: the program is the Python package in src/.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).with_name("worker.py")
sys.path.insert(0, str(WORKER.parent))
from hostspeed import SETUP_REF_NOMINAL_S, setup_reference_seconds  # noqa: E402

WORKLOADS = ("tower-chains", "tower-decompose", "prime-census")
SETUP_REPEATS = 5
DEADLINE_S = 170


def pinned_env() -> dict[str, str]:
    """No process pool (BQ_WORKERS unset) and a fixed hash seed."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("BQ_WORKERS", "PYTHONPATH", "PYTHONDONTWRITEBYTECODE")}
    env["PYTHONHASHSEED"] = "0"
    return env


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def setup_times(args, env, deadline: float) -> tuple[list[float], list[float]]:
    """Wall times of fresh processes that import bqplane.cli and generate
    the workload's jobs and table files, raw and rescaled by the set-up
    reference timed just before and just after each."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]

    def left() -> float:
        return max(1.0, deadline - time.monotonic())

    raw, scaled = [], []
    ref = setup_reference_seconds(env, left())
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL, timeout=left())
        dt = time.perf_counter() - t0
        ref_after = setup_reference_seconds(env, left())
        raw.append(dt)
        scaled.append(dt * 2 * SETUP_REF_NOMINAL_S / (ref + ref_after))
        ref = ref_after
    return raw, scaled


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "bqplane" / "cli.py").is_file():
        print(f"bench: no bqplane sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    os.chdir(ROOT)
    # warm the bytecode cache so set-up time does not depend on it
    for d in ("src", "bench"):
        compileall.compile_dir(d, quiet=1)
    env = pinned_env()

    setups_raw, setups = ([], []) if args.trace else setup_times(args, env, deadline)
    proc = subprocess.run(
        [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print(f"bench: workload process exited with {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    measured = result["metrics"]
    if setups:
        measured["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        measured["setup_raw_s"] = {"value": statistics.median(setups_raw), "unit": "s"}

    for line in lines[:-1]:
        print(line)
    print(f"context: python {platform.python_version()}, nproc {os.cpu_count()},"
          f" workload {args.workload}, seed {args.seed}, jobs {result['jobs']},"
          f" src lines {src_lines()}")
    if setups:
        print("setup_s runs (rescaled): " + ", ".join(f"{t:.4f}" for t in setups))
        print("setup_raw_s runs: " + ", ".join(f"{t:.4f}" for t in setups_raw))
    for name, m in sorted(measured.items()):
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'failed_frac':36s} {failed / attempted:.6g} ({failed}/{attempted} job runs)")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in measured:
            print(f"bench: metric {m['name']} was not measured", file=sys.stderr)
            return 1
        metrics[m["name"]] = measured[m["name"]]
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
