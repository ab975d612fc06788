"""agealg benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload series --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each pass of the workload's job list runs
in a fresh process (perfbench/worker.py); passes repeat while the next one
is expected to end within --seconds, and there are at least two unless a
pass is too slow for that.  Each end-to-end metric is the median over the
passes; times are scaled to a reference speed (worker.Calibration).  With
--trace 1 the run makes one untraced and one traced pass instead and
reports the per-layer metrics, including the tracing overhead.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A run record goes to
.perfbench_out/records/.  See perfbench/README.md for the metrics and
workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
WORKER = ROOT / "perfbench" / "worker.py"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("series", "census", "finite", "ideals")
MIN_PASSES = 2
# a run must end within 180 s: no pass starts that is expected to end later
# than START_LIMIT_S, and a pass still running at HANG_LIMIT_S is killed
START_LIMIT_S = 150
HANG_LIMIT_S = 170

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
              ("job_p50_s", "s"), ("peak_rss_mb", "MB"),
              ("failed_ratio", "ratio"))


class BenchError(RuntimeError):
    pass


def git_sha(root):
    """HEAD's commit, or "unknown" outside a git checkout."""
    # no search above the root, so that an enclosing repository is not read
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_worker(workload, seed, deadline, *flags):
    workdir = OUT / "work" / f"{workload}-{seed}"
    argv = [sys.executable, str(WORKER), workload, str(seed), str(workdir)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(argv + list(flags),
                              cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} pass did not finish in time") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} pass exited {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(passes):
    """The end-to-end metrics of a run: the median over the passes, over
    all jobs of all passes for job_p50_s, and for failed_ratio the share of
    failed jobs among all jobs attempted."""
    jobs = [job for result in passes for job in result["jobs"]]
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in passes),
        "wall_s": statistics.median(r["wall_s"] for r in passes),
        "cpu_s": statistics.median(r["cpu_s"] for r in passes),
        "job_p50_s": statistics.median(job["time_s"] for job in jobs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in passes),
        "failed_ratio": sum(job["status"] != "ok" for job in jobs) / len(jobs),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def per_layer(untraced, traced):
    values = dict(traced["layers"],
                  **{"trace.overhead_s": traced["wall_s"] - untraced["wall_s"]})
    return {name: {"value": values[name], "unit": unit}
            for name, unit in tracing.LAYER_METRICS}


def consistency_problems(passes):
    """Wrong answers, and jobs whose answer differs between passes (the
    traced pass included)."""
    problems = []
    first = {job["id"]: job["digest"] for job in passes[0]["jobs"]}
    for result in passes:
        for job in result["jobs"]:
            if job["status"] == "wrong":
                problems.append(f"{job['id']}: {job['reason']}")
            elif job["digest"] != first.get(job["id"]):
                problems.append(f"{job['id']}: answer differs between passes")
    return sorted(set(problems))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "agealg" / "__init__.py").is_file():
        print(f"error: no agealg sources under {ROOT / 'src'}; run from the "
              "root of an agealg checkout", file=sys.stderr)
        return 2

    start = time.monotonic()
    hang = start + HANG_LIMIT_S
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "git_sha": git_sha(ROOT), "python": platform.python_version(),
              "nproc": os.cpu_count(), "loadavg_start": os.getloadavg()}
    try:
        if args.trace:
            untraced = run_worker(args.workload, args.seed, hang)
            traced = run_worker(args.workload, args.seed, hang, "--trace")
            passes = [untraced, traced]
            metrics = per_layer(untraced, traced)
        else:
            passes = [run_worker(args.workload, args.seed, hang)]
            while True:
                elapsed = time.monotonic() - start
                expected = elapsed + elapsed / len(passes)
                if expected > START_LIMIT_S or (
                        len(passes) >= MIN_PASSES and expected > args.seconds):
                    break
                passes.append(run_worker(args.workload, args.seed, hang))
            metrics = end_to_end(passes)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    problems = consistency_problems(passes)
    jobs = [job for result in passes for job in result["jobs"]]
    summary = {"correct": not problems, "attempted": len(jobs),
               "failed": sum(job["status"] != "ok" for job in jobs),
               "metrics": metrics}
    record.update(loadavg_end=os.getloadavg(), problems=problems,
                  passes=passes, summary=summary)
    records = OUT / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1, sort_keys=True))

    per_pass = len(passes[0]["jobs"])
    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes "
          f"of {per_pass} jobs")
    for name, metric in metrics.items():
        extra = f"  (median of {len(jobs)} jobs)" if name == "job_p50_s" else ""
        print(f"  {name:45s} {metric['value']:.6g} {metric['unit']}{extra}")
    for job in passes[0]["jobs"]:
        if job["status"] != "ok":
            print(f"  failed: {job['id']}: {job['reason']}")
    for problem in problems:
        print(f"  incorrect: {problem}")
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
