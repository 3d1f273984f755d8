"""Record the pinned CLI outputs and the default-seed answer digests.

    python3 perfbench/record.py

Writes cli_pins.json (exit code and stdout of every catalog call) and
digests.json (a digest of every job's canonical answer at the default seed
and full size).  Every answer must pass its oracle first, so a recording
cannot pin a wrong answer that an oracle catches.  Re-record only in a
change that alters an answer on purpose, and say so.
"""

from __future__ import annotations

import json
import sys

import oracles
import workloads
from worker import DIGESTS, SRC, digest, fresh_import


def main():
    sys.path.insert(0, str(SRC))
    nk = fresh_import()

    pins = {}
    for argv, _ in workloads.CLI_CATALOG:
        code, out, _ = workloads.cli_call(nk, argv)
        pins[workloads.cli_key(argv)] = [code, out]
    with open(workloads.CLI_PINS, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")

    recorded = {}
    for name in workloads.BUILDERS:
        checker = oracles.Checker()
        recorded[name] = {}
        for job in workloads.build(name, nk, workloads.DEFAULT_SEED, "full"):
            result = job.run()
            checker.job = job.name
            job.check(result, checker)
            recorded[name][job.name] = digest(job.canon(result))
        print(f"{name}: {len(recorded[name])} jobs recorded")
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
