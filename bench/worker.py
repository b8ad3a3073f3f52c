"""One workload in one fresh process: set up, run, check, measure.

Started by run.py with a pinned environment.  Every job goes through
``bqplane.cli.run_command`` with stdout captured; its exit code, verdict,
counts and output digest are checked on every repeat.  Without --trace
the process reports the end-to-end figures; with --trace it also
replays the jobs through the modules (tracing.py) and reports the
per-layer figures.  The last stdout line is the JSON result.

Every time reported here is the median over repeats, never a single
run.  The timed passes also sample the host's speed between jobs
(hostspeed.py); end-to-end ``*_s`` figures rescale each job's time to
the nominal host speed, ``*_raw_s`` figures are the times as measured.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import jobs  # noqa: E402  (bench modules sit beside this script)
from checks import check  # noqa: E402
from hostspeed import REF_NOMINAL_S, reference_seconds  # noqa: E402

GOLDEN_FILE = Path(__file__).with_name("golden.json")
DEFAULT_SEED = 1
WORK_DIR = Path("bench") / ".work"

# longest stretch of jobs between two host-speed samples
REF_EVERY_S = 0.25


def _import_program():
    import bqplane
    if not Path(bqplane.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"bqplane imported from {bqplane.__file__}, not {SRC}")
    from bqplane.cli import run_command
    return run_command


def input_key(job: jobs.Job) -> str:
    spec = json.dumps([job.argv, job.table_text])
    return hashlib.sha256(spec.encode()).hexdigest()[:24]


class Gate:
    """Counts attempted and failed job runs; a run fails when its checks
    fail or its output bytes differ from its first run or from the
    committed digest for the same input."""

    def __init__(self, golden: dict[str, str]):
        self.golden = golden
        self.first: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, name: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{name}: {'; '.join(problems)}")

    def digest_problems(self, job: jobs.Job, stdout: str) -> list[str]:
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        first = self.first.setdefault(job.name, digest)
        out = []
        if digest != first:
            out.append("output bytes differ from the first run")
        want = self.golden.get(input_key(job))
        if want is not None and digest != want:
            out.append("output bytes differ from the committed digest")
        return out


def run_job(run_command, job: jobs.Job) -> tuple[int, float, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        rc = run_command(list(job.argv))
        dt = time.perf_counter() - t0
    return rc, dt, out.getvalue()


def cli_pass(run_command, job_list, gate, speed=None) -> tuple[dict[str, float], list[str]]:
    """Every job once through bq, checked; per-job seconds and stdouts.

    With a speed dict, the host's speed is sampled between jobs (before
    the first, after the last, and otherwise at least every REF_EVERY_S)
    and each job gets nominal / measured reference time averaged over the
    two samples around it."""
    times, outputs = {}, []
    refs: list[float] = []
    bracket: dict[str, int] = {}
    last_ref = -math.inf
    for job in job_list:
        if speed is not None and time.perf_counter() - last_ref >= REF_EVERY_S:
            refs.append(reference_seconds())
            last_ref = time.perf_counter()
        bracket[job.name] = len(refs) - 1
        rc, dt, stdout = run_job(run_command, job)
        gate.record(job.name, check(job, rc, stdout) + gate.digest_problems(job, stdout))
        times[job.name] = dt
        outputs.append(stdout)
    if speed is not None:
        refs.append(reference_seconds())
        for name, k in bracket.items():
            speed[name] = 2 * REF_NOMINAL_S / (refs[k] + refs[k + 1])
    return times, outputs


def median_of(passes: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(p[name] for p in passes) for name in passes[0]}


def end_to_end(run_command, workload, job_list, gate, seconds: float):
    """Whole-list passes until the time is spent; per-job median times,
    raw and rescaled to the nominal host speed around each job."""
    passes, scaled, speeds = [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        speed: dict[str, float] = {}
        times = cli_pass(run_command, job_list, gate, speed)[0]
        passes.append(times)
        scaled.append({name: dt * speed[name] for name, dt in times.items()})
        speeds.append(sum(scaled[-1].values()) / sum(times.values()))
        # stop before a pass as long as the last one would overrun the time
        if time.perf_counter() - start + (time.perf_counter() - t0) > seconds:
            break
    med, med_norm = median_of(passes), median_of(scaled)
    totals = [sum(p.values()) for p in passes]
    print(f"timed passes: {len(passes)}; pass seconds: best {min(totals):.4f},"
          f" median {statistics.median(totals):.4f}, worst {max(totals):.4f}")
    print(f"host speed per pass (nominal / measured reference time, weighted by job time): min {min(speeds):.3f},"
          f" median {statistics.median(speeds):.3f}, max {max(speeds):.3f}")
    m = {"wall_s": (sum(med_norm.values()), "s"),
         "wall_raw_s": (sum(med.values()), "s"),
         "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")}
    for cmd in jobs.TIMED_COMMANDS[workload]:
        names = [j.name for j in job_list if j.command == cmd]
        m[f"{cmd}_s"] = (sum(med_norm[n] for n in names), "s")
        m[f"{cmd}_raw_s"] = (sum(med[n] for n in names), "s")
    return m


def per_layer(run_command, job_list, gate, seconds: float, outputs):
    """Alternate traced replays and plain bq passes, then probe kernels."""
    import tracing

    cli_passes, tracers = [], []
    start = time.perf_counter()
    while not tracers or time.perf_counter() - start < 0.6 * seconds:
        tr = tracing.Tracer()
        for job, stdout in zip(job_list, outputs):
            try:
                got = tracing.replay(job, tr)
            except Exception as exc:  # a replay crash is a failed job, not a crash
                got = {"exception": repr(exc)}
            want = tracing.cli_view(job, stdout)
            gate.record(job.name, [] if got == want else [f"replay gave {str(got)[:200]}"])
        tracers.append(tr)
        cli_passes.append(cli_pass(run_command, job_list, gate)[0])

    # median over passes of each (span name, job), then summed per name
    samples: dict[tuple[str, str], list[float]] = {}
    for tr in tracers:
        per_pass: dict[tuple[str, str], float] = {}
        for s in tr.spans:
            key = (s.name, s.job)
            per_pass[key] = per_pass.get(key, 0.0) + (s.end_ns - s.start_ns) / 1e9
        for key, v in per_pass.items():
            samples.setdefault(key, []).append(v)
    layer: dict[str, float] = {}
    for (name, _), vs in samples.items():
        layer[name] = layer.get(name, 0.0) + statistics.median(vs)
    replay_s = layer.pop("cli.job")
    cli_s = sum(median_of(cli_passes).values())
    counts = tracers[-1].counts

    operands = tracing.probe_operands(outputs)
    gate.record("kernel-probe", tracing.check_sqrt(operands))
    print("kernel probe operands: " + ", ".join(
        f"d{d} {src} {ops[0].tower}" for d, (src, ops) in operands.items()))
    m = tracing.kernel_probe(operands, max(1.0, seconds - (time.perf_counter() - start)))

    def lay(name):
        return layer.get(name, 0.0)

    def cnt(name):
        return counts.get(name, 0)

    def rate(n, s):
        return n / s if s else 0.0

    m.update({
        "geometry.verify_identities_s": (lay("geometry.verify_identities"), "s"),
        "geometry.identity_checks": (cnt("geometry.identity_checks"), "count"),
        "geometry.identity_checks_per_s": (rate(cnt("geometry.identity_checks"),
                                                lay("geometry.verify_identities")), "1/s"),
        "maps.map_from_expression_ms": (1e3 * lay("maps.map_from_expression"), "ms"),
        "maps.map_table_ms": (1e3 * lay("maps.map_table"), "ms"),
        "maps.preserves_unit_distance_s": (lay("maps.preserves_unit_distance"), "s"),
        "maps.unit_pairs_checked": (cnt("maps.unit_pairs_checked"), "count"),
        "maps.unit_pairs_per_s": (rate(cnt("maps.unit_pairs_checked"),
                                       lay("maps.preserves_unit_distance")), "1/s"),
        "maps.enumerate_orthogonal_s": (lay("maps.enumerate_orthogonal"), "s"),
        "chains.build_lemma3_s": (lay("chains.build_lemma3"), "s"),
        "chains.build_real_s": (lay("chains.build_real"), "s"),
        "chains.verify_s": (lay("chains.verify"), "s"),
        "chains.edges_verified": (cnt("chains.edges_verified"), "count"),
        "chains.edges_per_s": (rate(cnt("chains.edges_verified"), lay("chains.verify")), "1/s"),
        "chains.depth_max": (cnt("chains.depth_max"), "levels"),
        "chains.depth_mean": (rate(cnt("chains.depth_sum"), cnt("chains.chains")), "levels"),
        "decompose.frame_s.tower": (lay("decompose.frame.tower"), "s"),
        "decompose.lorentz_s.tower": (lay("decompose.lorentz.tower"), "s"),
        "decompose.frame_s.gf": (lay("decompose.frame.gf"), "s"),
        "decompose.lorentz_s.gf": (lay("decompose.lorentz.gf"), "s"),
        "decompose.probes": (cnt("decompose.probes"), "count"),
        "decompose.search_s": (lay("decompose.search"), "s"),
        "decompose.search_nodes": (cnt("decompose.search_nodes"), "count"),
        "decompose.search_nodes_per_s": (rate(cnt("decompose.search_nodes"),
                                              lay("decompose.search")), "1/s"),
        "decompose.search_found": (cnt("decompose.search_found"), "count"),
        "decompose.search_found_per_mnode": (rate(1e6 * cnt("decompose.search_found"),
                                                  cnt("decompose.search_nodes")), "1/Mnode"),
        "decompose.search_anomalies": (cnt("decompose.search_anomalies"), "count"),
        "parsing.parse_ms": (1e3 * lay("parsing.parse"), "ms"),
        "parsing.format_s": (lay("parsing.format"), "s"),
        "cli.output_bytes": (sum(len(o.encode()) for o in outputs), "bytes"),
        # derived: bq time not covered by the replayed layer spans
        "cli.overhead_s": (cli_s - sum(layer.values()), "s"),
        "trace.overhead_frac": (replay_s / cli_s - 1, "ratio"),
    })
    print(f"traced passes: {len(tracers)}; cli.overhead_s is derived")
    _write_spans(tracers[-1])
    return m


def _write_spans(tr) -> None:
    """Spans of the last traced pass, for inspection after the run."""
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    rows = [{"name": s.name, "job": s.job, "parent": s.parent,
             "start_ns": s.start_ns, "end_ns": s.end_ns} for s in tr.spans]
    (WORK_DIR / "spans.json").write_text(json.dumps(rows) + "\n", encoding="utf-8")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import the program, generate the jobs and exit")
    ap.add_argument("--record-golden", action="store_true",
                    help="run the jobs once and store their output digests")
    args = ap.parse_args()

    os.chdir(ROOT)  # table paths in bq's output are relative to the root
    run_command = _import_program()
    job_list = jobs.generate(args.workload, args.seed, WORK_DIR)
    jobs.write_tables(job_list)
    if args.setup_only:
        return 0

    golden = json.loads(GOLDEN_FILE.read_text(encoding="utf-8"))
    gate = Gate({} if args.record_golden else golden)
    _, outputs = cli_pass(run_command, job_list, gate)  # warm pass
    if args.record_golden:
        if gate.failed:
            print("\n".join(gate.problems), file=sys.stderr)
            return 1
        golden.update({input_key(j): gate.first[j.name] for j in job_list})
        GOLDEN_FILE.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n",
                               encoding="utf-8")
        return 0

    if args.trace:
        metrics = per_layer(run_command, job_list, gate, args.seconds, outputs)
    else:
        metrics = end_to_end(run_command, args.workload, job_list, gate, args.seconds)
    for problem in gate.problems:
        print(f"FAILED {problem}")
    print(json.dumps({"attempted": gate.attempted, "failed": gate.failed,
                      "jobs": len(job_list),
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
