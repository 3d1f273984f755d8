"""One benchmark run of one workload, in its own process.

Started by run.py with a clean environment.  Sets up the workload several
times (each a fresh import of nivatk from the checkout's src/ plus input
generation), then runs passes over the workload's jobs, one job after the
other on one thread, until --seconds have elapsed.  With --trace 1 it
alternates untraced and traced passes.  Prints one JSON object as its last
line of output.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
SPANS_DIR = HERE / "out"
SETUP_REPEATS = 9

import oracles  # noqa: E402
import workloads  # noqa: E402
from tracer import SELF_LAYERS, Tracer  # noqa: E402

END_TO_END = {
    "wall_s": "s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

COUNTS = (
    "configurations.value.calls",
    "configurations.value.cells",
    "nivat.distinct_blocks",
    "laurent.mul.calls",
    "laurent.mul.term_pairs",
    "laurent.apply.cells",
    "linalg.nullspace_basis.entries",
    "linalg.solve_sparse.nnz",
    "linalg.solve_sparse.unknowns",
    "lattice.reduce.calls",
    "annihilator.anchors_sampled",
    "annihilator.search.nodes",
    "tiling.search.lattices_tried",
)


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer in SELF_LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.self_pct"] = "%"
    for name in COUNTS:
        units[name] = "count"
    units["configurations.value.calls_per_cell"] = "ratio"
    units["annihilator.distinct_row_ratio"] = "ratio"
    units["trace.wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    units["trace.unattributed_s"] = "s"
    return units


def digest(canon) -> str:
    return hashlib.sha256(repr(canon).encode()).hexdigest()[:20]


def fresh_import():
    for name in [m for m in sys.modules if m == "nivatk" or m.startswith("nivatk.")]:
        del sys.modules[name]
    nk = importlib.import_module("nivatk")
    importlib.import_module("nivatk.cli")
    return nk


class Ledger:
    """Judges every job execution: the first by its oracle (and, at the
    default seed, by the recorded digest), every later one by equality with
    the first answer.  Only digests are kept, so that stored answers do not
    add to the process's peak memory."""

    def __init__(self, checker, digests):
        self.checker = checker
        self.digests = digests
        self.first = {}
        self.bad = set()
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def judge(self, job, result, error):
        self.attempted += 1
        problem = None
        if error is not None:
            problem = f"raised {type(error).__name__}: {error}"
        elif job.name not in self.first:
            self.checker.job = job.name
            try:
                job.check(result, self.checker)
                canon = job.canon(result)
                if self.digests is not None:
                    self.checker.eq(digest(canon), self.digests.get(job.name),
                                    "digest recorded at the default seed")
            except oracles.CheckFailed as exc:
                problem = str(exc)
            except Exception as exc:  # a check that cannot run is a failed check
                problem = f"check raised {type(exc).__name__}: {exc}"
            if problem is None:
                self.first[job.name] = digest(canon)
            else:
                self.first[job.name] = None
                self.bad.add(job.name)
        elif job.name in self.bad:
            problem = "failed its first check"
        elif digest(job.canon(result)) != self.first[job.name]:
            problem = "answer differs from the first pass"
        if problem is not None:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{job.name}: {problem}")
                print(f"FAILED {job.name}: {problem}", file=sys.stderr)


# Time of calibrate() on the machine the harness was built on (2 cores,
# Python 3.11.7) when nothing else ran.  Dividing it by the time measured
# now gives the machine's current speed relative to that reference.
CALIBRATION_REF_S = 0.0019


def calibrate() -> float:
    """Seconds taken by a fixed loop of interpreter work (tuples, dicts,
    int arithmetic) that shares no code with nivatk."""
    t0 = time.perf_counter()
    d = {}
    acc = 0
    for i in range(6000):
        t = (i, i * 7 % 13, i ^ 5)
        d[t] = d.get(t, 0) + i
        acc += (i * i) // 3 - len(t)
    return time.perf_counter() - t0


def speed_scale(samples) -> float:
    """Factor that turns times measured now into reference seconds.

    The fastest of the calibrations taken around a stretch of work is the
    machine's best speed over it; a stall during one calibration does not
    count against the work."""
    return CALIBRATION_REF_S / min(samples)


def run_pass(jobs, ledger, tracer=None):
    """Times of one pass over the jobs: in reference seconds, and as measured.

    A calibration runs between every two jobs, and each job is scaled by the
    two calibrations next to it, since the machine's speed changes within a
    pass."""
    gc.collect()
    times, raw = [], []
    before = min(calibrate() for _ in range(3))
    for job in jobs:
        if tracer is not None:
            tracer.begin_job(job.name)
        error = result = None
        t0 = time.perf_counter()
        try:
            result = job.run()
        except Exception as exc:  # a raised exception is a failed job
            error = exc
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_job()
        after = calibrate()
        times.append(dt * speed_scale((before, after)))
        raw.append(dt)
        before = after
        ledger.judge(job, result, error)
    return times, raw


def lower_quartile(values):
    """A job's latency: the lower quartile of its scaled times over the
    passes.  It drops the slowed passes, and unlike the minimum it also
    drops the one pass whose calibration happened to read slow."""
    return sorted(values)[len(values) // 4]


def layer_metrics(tracer, wall, raw_wall):
    """Per-layer figures of one traced pass, in reference seconds."""
    out = {}
    scale = wall / raw_wall
    attributed = 0.0
    for layer in SELF_LAYERS:
        s = scale * tracer.self_s.get(layer, 0.0)
        attributed += s
        out[f"{layer}.self_s"] = s
        out[f"{layer}.self_pct"] = 100.0 * s / wall if wall else 0.0
    for name in COUNTS:
        out[name] = tracer.counts.get(name, 0)
    cells = out["configurations.value.cells"]
    out["configurations.value.calls_per_cell"] = (
        out["configurations.value.calls"] / cells if cells else 0.0)
    anchors = out["annihilator.anchors_sampled"]
    out["annihilator.distinct_row_ratio"] = (
        tracer.counts.get("annihilator.rows", 0) / anchors if anchors else 0.0)
    out["trace.wall_s"] = wall
    out["trace.unattributed_s"] = wall - attributed
    return out


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--corrupt", default=None)
    args = ap.parse_args(argv)

    if not (SRC / "nivatk" / "__init__.py").is_file():
        print(f"error: no nivatk sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    setups = []
    for _ in range(SETUP_REPEATS):
        before = [calibrate() for _ in range(3)]
        t0 = time.perf_counter()
        nk = fresh_import()
        jobs = workloads.build(args.workload, nk, args.seed, args.size)
        dt = time.perf_counter() - t0
        setups.append(dt * speed_scale(before + [calibrate() for _ in range(3)]))
    if Path(nk.__file__).resolve().parent != SRC / "nivatk":
        print(f"error: imported nivatk from {nk.__file__}, not {SRC}", file=sys.stderr)
        return 2

    digests = None
    if args.seed == workloads.DEFAULT_SEED and args.size == "full":
        with open(DIGESTS, encoding="utf-8") as fh:
            digests = json.load(fh)[args.workload]
    ledger = Ledger(oracles.Checker(args.corrupt), digests)

    plain, layers = [], []
    scaled = {}
    spans = None
    start = time.perf_counter()
    speeds = []
    while True:
        times, raw = run_pass(jobs, ledger)
        plain.append(sum(times))
        speeds.append(sum(times) / sum(raw))
        for job, t in zip(jobs, times):
            scaled.setdefault(job.name, []).append(t)
        if args.trace:
            tracer = Tracer()
            tracer.install(nk)
            try:
                ttimes, traw = run_pass(jobs, ledger, tracer)
            finally:
                tracer.uninstall()
            layers.append(layer_metrics(tracer, sum(ttimes), sum(traw)))
            if spans is None:
                spans = tracer.recorded_spans()
        if time.perf_counter() - start >= args.seconds:
            break

    if args.trace:
        # the fastest traced pass against the fastest untraced pass
        units = per_layer_units()
        values = dict(min(layers, key=lambda m: m["trace.wall_s"]))
        values["trace.overhead_s"] = values["trace.wall_s"] - min(plain)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
        SPANS_DIR.mkdir(exist_ok=True)
        path = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for job, layer, t0, t1, parent in spans:
                fh.write(json.dumps({"job": job, "layer": layer, "start": t0,
                                     "end": t1, "parent": parent}) + "\n")
    else:
        latencies = [lower_quartile(v) for v in scaled.values()]
        p90 = (statistics.quantiles(latencies, n=10)[8] if len(latencies) > 1
               else latencies[0])
        values = {
            "wall_s": sum(latencies),
            "job_p50_ms": 1000 * statistics.median(latencies),
            "job_p90_ms": 1000 * p90,
            "setup_s": statistics.median(setups),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(plain),
        "speed": [round(x, 3) for x in speeds],
        "job_ms": {name: round(1000 * lower_quartile(v), 3) for name, v in scaled.items()},
        "jobs_per_pass": len(jobs),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failures": ledger.failures,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
