"""nivatk benchmark: seeded workloads, checked answers, end-to-end and
per-layer metrics.

    python3 perfbench/run.py --workload algebra --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the root of a checkout.  Each workload run is a fresh process
(worker.py) that imports nivatk from the checkout's src/, never an
installed copy.  The last line of output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it give every
metric by name with its unit.  Exit code 0 when every answer was right,
1 when a job failed its check, 2 on a usage or set-up error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("periodic-fullscan", "irrational-sample", "algebra", "cli")
TIMEOUT_S = 170


def git_sha() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.is_file():
            return path.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child_env():
    env = dict(os.environ)
    env.pop("NIVATK_THREADS", None)
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_workload(name, args):
    cmd = [sys.executable, str(WORKER), "--workload", name, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
    if args.corrupt:
        cmd += ["--corrupt", args.corrupt]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: {name} did not finish within {TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: {name} worker exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def report(res, meta):
    n = res["attempted"]
    print(f"workload={res['workload']} seed={res['seed']} passes={res['passes']} "
          f"jobs_per_pass={res['jobs_per_pass']} jobs={n} {meta}")
    for name, m in res["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  failed_ratio = {res['failed'] / n:.6g} ({res['failed']}/{n})")
    print(f"  machine speed / reference per pass = {' '.join(map(str, res['speed']))}")
    for line in res["failures"]:
        print(f"  FAILED {line}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: small inputs, for the benchmark's own tests")
    ap.add_argument("--corrupt", metavar="JOB",
                    help="inject a wrong expected answer for JOB (tests the check layer)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "nivatk" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no src/nivatk to benchmark", file=sys.stderr)
        return 2

    meta = (f"python={platform.python_version()} nproc={os.cpu_count()} "
            f"sha={git_sha()[:12]}")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        res = run_workload(name, args)
        if res is None:
            return 2
        report(res, meta)
        results.append(res)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    metrics = results[0]["metrics"] if len(results) == 1 else {
        f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
