#!/usr/bin/env python3
"""Benchmark for vdwitness: run one workload (or all four) and check every answer.

    python3 bench/run.py --workload exact --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1

Run from the repository root or anywhere else; the package is imported
from src/ next to this directory. One closed-loop client: jobs run one
after another in this process, with no threads. Set-up (a fresh import of
the package and building the inputs from the seed) is repeated and its
median reported. Passes over the fixed job list repeat until the next one
would overrun --seconds. Times are scaled to a reference speed measured
between jobs (speed.py). With --trace 1, untraced and traced passes
alternate and the per-layer metrics are reported instead. The last stdout
line is one JSON object; the exit code is 1 if any answer was wrong and 2
if the package is missing. See bench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = BENCH / "runs"
sys.path.insert(0, str(BENCH))

import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Raised  # noqa: E402

END_TO_END = (
    ("wall_s", "s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
SETUP_REPEATS = {"full": 3, "smoke": 2}
clock = time.perf_counter


def _fresh_import():
    """Import the package from scratch, as a new process would."""
    for name in [n for n in sys.modules if n == "vdwitness" or n.startswith("vdwitness.")]:
        del sys.modules[name]
    vw = importlib.import_module("vdwitness")
    importlib.import_module("vdwitness.cli")
    return vw


class Pass(NamedTuple):
    latencies: list[float]  # as measured
    factors: list[float]  # speed scale of each job (speed.local_factors)

    @property
    def wall_s(self) -> float:
        return sum(self.latencies)

    @property
    def scaled(self) -> list[float]:
        return [t * f for t, f in zip(self.latencies, self.factors)]


def setup(workload: str, seed: int, scale: str):
    """Import and build the job list several times; keep the last build.
    Returns the jobs and (measured seconds, speed factor) per repetition."""
    times, jobs = [], None
    for _ in range(SETUP_REPEATS[scale]):
        jobs = None
        gc.collect()
        before = speed.sample()
        t0 = clock()
        vw = _fresh_import()
        jobs = workloads.build(workload, vw, seed, scale)
        elapsed = clock() - t0
        times.append((elapsed, speed.factor([before, speed.sample()])))
    return jobs, times


def run_pass(jobs) -> tuple[Pass, list[object]]:
    latencies, outcomes, after = [], [], []
    gc.collect()
    references, since = [speed.sample()], 0.0
    for job in jobs:
        after.append(len(references) - 1)
        t0 = clock()
        try:
            out = job.run()
        except Exception as exc:  # an unexpected one fails the job's check
            out = Raised(exc)
        latency = clock() - t0
        latencies.append(latency)
        outcomes.append(out)
        since += latency
        if since >= speed.EVERY_S:
            references.append(speed.sample())
            since = 0.0
    references.append(speed.sample())
    return Pass(latencies, speed.local_factors(references, after)), outcomes


def check_pass(jobs, outcomes) -> tuple[dict, dict]:
    """Output records and problems per job label."""
    records, problems = {}, {}
    for job, out in zip(jobs, outcomes):
        records[job.label], problems[job.label] = job.check(out)
    for job in jobs:
        if job.same_as is not None and records[job.label] != records[job.same_as]:
            problems[job.label].append(f"output differs from {job.same_as!r}")
    return records, problems


def _hash(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def measure(jobs, seconds: float, tracer: tracing.Tracer | None):
    """Passes until the next would overrun `seconds`; traced and untraced
    passes alternate when a tracer is given. Every pass is checked, and
    `failing` collects (pass index, job label) of every wrong job run."""
    passes = {"untraced": [], "traced": []}
    first: dict | None = None
    failing: set[tuple[int, str]] = set()
    messages: list[str] = []
    start = clock()
    for index in itertools.count():
        kind = "traced" if tracer is not None and len(passes["traced"]) < len(passes["untraced"]) else "untraced"
        with tracer.installed() if kind == "traced" else nullcontext():
            done, outcomes = run_pass(jobs)
        passes[kind].append(done)
        records, problems = check_pass(jobs, outcomes)
        del outcomes
        if first is None:
            first = records
        for label, rec in records.items():
            if rec != first[label]:
                problems[label].append("output differs from the first pass")
            if problems[label]:
                failing.add((index, label))
                messages += [f"pass {index + 1}, {label}: {p}" for p in problems[label]]
        if index + 1 >= (2 if tracer is not None else 1) and clock() - start + done.wall_s > seconds:
            return passes, index + 1, first, failing, messages


def record_digest(key: str, first: dict, failing: set, messages: list) -> str:
    """Output digest of this run. A job whose output differs from an earlier
    run of the same workload, seed and scale counts as failed."""
    digest = _hash(sorted(first.items()))
    job_hashes = {label: _hash(rec) for label, rec in first.items()}
    path = RUNS / f"{key}.json"
    if path.is_file():
        earlier = json.loads(path.read_text())["jobs"]
        for label, h in job_hashes.items():
            if earlier.get(label) != h:
                failing.add((0, label))
                messages.append(f"{label}: output differs from an earlier run of this seed")
    else:
        RUNS.mkdir(exist_ok=True)
        path.write_text(json.dumps({"digest": digest, "jobs": job_hashes}, indent=0) + "\n")
    return digest


def _loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _quantile(samples: list[float], q: int) -> float:
    """The q-th percentile, interpolated between closest ranks."""
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def run_workload(args) -> int:
    provenance = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "loadavg_start": _loadavg(), "commit": _git_commit(),
    }
    jobs, setup_times = setup(args.workload, args.seed, args.scale)
    tracer = tracing.Tracer() if args.trace else None
    passes, count, first, failing, messages = measure(jobs, args.seconds, tracer)
    key = f"{args.workload}-{args.scale}-seed{args.seed}"
    provenance["digest"] = record_digest(key, first, failing, messages)
    attempted, failed = count * len(jobs), len(failing)
    provenance["loadavg_end"] = _loadavg()

    untraced = passes["untraced"]
    walls = [sum(p.scaled) for p in untraced]
    samples = sorted(t for p in untraced for t in p.scaled)
    raw = {
        "wall_s": statistics.median(p.wall_s for p in untraced),
        "job_p50_ms": 1000 * _quantile(sorted(t for p in untraced for t in p.latencies), 50),
        "setup_s": statistics.median(t for t, _ in setup_times),
        "speed_factor": statistics.median(f for p in untraced for f in p.factors),
    }
    print(f"# vdwitness benchmark: workload {args.workload}, seed {args.seed}, scale {args.scale}, "
          f"{len(jobs)} jobs per pass, {len(untraced)} untraced and {len(passes['traced'])} traced passes, "
          f"{len(samples)} untraced job samples")
    print("# times are scaled to the reference speed (bench/speed.py); as measured: "
          + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    if tracer is None:
        values = {
            "wall_s": statistics.median(walls),
            "job_p50_ms": 1000 * _quantile(samples, 50),
            "job_p90_ms": 1000 * _quantile(samples, 90),
            "setup_s": statistics.median(t * f for t, f in setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    else:
        traced = passes["traced"]
        traced_s = sum(p.wall_s for p in traced)
        values = tracer.metrics(traced_s, len(traced))
        values["trace.wall_s"] = statistics.median(sum(p.scaled) for p in traced)
        values["trace.overhead_frac"] = values["trace.wall_s"] / statistics.median(walls) - 1
        values["trace.unattributed_frac"] = 1 - tracer.top_s / traced_s
        metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in tracing.metric_specs()}
    for name, m in metrics.items():
        print(f"{name:42s} {m['value']:14.6g} {m['unit']}")
    print(f"{'failed_frac':42s} {failed / attempted:14.6g} ratio ({failed} of {attempted} job runs)")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for message in messages:
        print(f"FAIL {message}", file=sys.stderr)

    RUNS.mkdir(exist_ok=True)
    with open(RUNS / "log.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({**provenance, "failed": failed, "attempted": attempted, "raw": raw,
                             "passes": [{"wall_s": p.wall_s, "scaled_s": sum(p.scaled)} for p in untraced],
                             "metrics": {n: m["value"] for n, m in metrics.items()}}) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own fresh process, then one table."""
    results, code = {}, 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--scale", args.scale]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        code = max(code, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    print("\n# summary (failed_frac = failed / attempted job runs)")
    names = sorted({n for r in results.values() if r for n in r["metrics"]})
    print(f"{'metric':42s}" + "".join(f"{w:>18s}" for w in results))
    for n in names + ["failed_frac"]:
        row = []
        for r in results.values():
            if r is None:
                row.append("error")
            elif n == "failed_frac":
                row.append(f"{r['failed'] / r['attempted']:.4g}")
            else:
                row.append(f"{r['metrics'][n]['value']:.6g} {r['metrics'][n]['unit']}")
        print(f"{n:42s}" + "".join(f"{v:>18s}" for v in row))
    print(json.dumps({"correct": code == 0, "workloads": results}))
    return code


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=workloads.SCALES, default="full",
                   help="smoke: tiny inputs for the benchmark's own tests")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "vdwitness" / "__init__.py").is_file():
        print(f"vdwitness sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
