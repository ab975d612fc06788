"""One workload pass in a fresh process: set up, run the jobs one after
another, check the answers, print one JSON line.

    python3 perfbench/worker.py WORKLOAD SEED WORKDIR [--trace]

Set-up (import, template build, input generation and writing) and every
job are timed; the checks run after the job list.  A calibration loop runs
after set-up and after every job, and the pass's times are scaled by its
speed (see `Calibration`).  With --trace the layers are traced and the
per-layer metrics are added to the output.
"""

import time

START = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


# The calibration chunk's time on the reference machine, and how much job
# time each chunk stands for: one chunk per CAL_EVERY_S of job time, at
# least one after every job, and CAL_SETUP_CHUNKS after set-up.
CAL_REF_S = 0.005
CAL_EVERY_S = 0.05
CAL_SETUP_CHUNKS = 10
CAL_ITEMS = 3000


def calibration_chunk():
    """A fixed piece of pure-Python work (tuples, a dict, a sort, a set)
    that uses nothing of agealg, so no change to the program moves it."""
    counts = {}
    for i in range(CAL_ITEMS):
        key = ((i * 7919) % 997, i % 13)
        counts[key] = counts.get(key, 0) + 1
    order = sorted(counts, key=lambda k: (counts[k], k))
    return len(set(order[::3]))


class Calibration:
    """How fast this process runs Python right now.  On a shared virtual
    machine the same work takes 15-45% longer at some moments than at
    others, in both wall and CPU time.  Chunks run between the jobs; the
    ratio of their reference time to their measured time scales the pass's
    times to the speed of the reference machine."""

    def __init__(self):
        self.chunks, self.wall, self.cpu = 0, 0.0, 0.0

    def run(self, chunks):
        for _ in range(chunks):
            w0, c0 = time.perf_counter(), time.process_time()
            calibration_chunk()
            self.wall += time.perf_counter() - w0
            self.cpu += time.process_time() - c0
        self.chunks += chunks

    def speed(self):
        """(wall, cpu) scale factors: reference time over measured time."""
        ref = self.chunks * CAL_REF_S
        return ref / self.wall, ref / self.cpu


def digest(code, answer):
    text = answer if isinstance(answer, str) else json.dumps(answer, sort_keys=True)
    return hashlib.sha256(f"{code}\n{text}".encode()).hexdigest()[:16]


def judge(job, code, answer, seconds, crash=None):
    """A job's outcome: status "ok" (accepted), "wrong" (a wrong answer) or
    "error" (an error, a crash or a refusal that is not accepted)."""
    if crash is not None:
        reason = "crashed: " + crash.strip().splitlines()[-1]
    else:
        reason = job.check(code, answer)
    status = ("ok" if reason is None else
              "wrong" if reason.startswith("wrong") else "error")
    return {"id": job.id, "exit": code, "time_s": seconds, "status": status,
            "reason": reason, "digest": digest(code, answer)}


def run_pass(workload, seed, workdir, trace):
    jobs = workloads.setup(workload, seed, workdir)
    setup_s = time.perf_counter() - START
    calibration = Calibration()
    calibration.run(CAL_SETUP_CHUNKS)
    tracer = None
    if trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    results = []
    wall_s = cpu_s = 0.0
    for job in jobs:
        w0, c0 = time.perf_counter(), time.process_time()
        crash = None
        try:
            code, answer = job.run()
        except Exception:  # a crash is a failed job, not a failed pass
            crash = traceback.format_exc()
            code, answer = 1, crash
        seconds = time.perf_counter() - w0
        cpu_s += time.process_time() - c0
        wall_s += seconds
        results.append((job, code, answer, seconds, crash))
        if tracer is not None:
            tracer.collect_registries()  # outside the timed region
        calibration.run(max(1, math.ceil(seconds / CAL_EVERY_S)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.active = False
    wall_speed, cpu_speed = calibration.speed()
    out = {"setup_s": setup_s * wall_speed, "wall_s": wall_s * wall_speed,
           "cpu_s": cpu_s * cpu_speed, "peak_rss_mb": peak_rss_mb,
           "measured": {"setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s},
           "speed": {"wall": wall_speed, "cpu": cpu_speed,
                     "chunks": calibration.chunks}}
    out["jobs"] = [judge(job, code, answer, seconds * wall_speed, crash)
                   for job, code, answer, seconds, crash in results]
    if tracer is not None:
        out["layers"] = tracing.layer_metrics(tracer.spans, tracer.counts)
        out["bindings"] = tracer.bindings
    return out


if __name__ == "__main__":
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    result = run_pass(workload, seed, workdir, "--trace" in sys.argv[4:])
    print(json.dumps(result, sort_keys=True))
