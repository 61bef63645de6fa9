"""Record the correctness pins (``pins.json``) from the current program.

    python3 perfbench/pin.py

Runs one pass of every workload at the default seed and stores each
output's fingerprint (see ``checks.py``).  Re-pin only after a change
that is meant to alter simulated values, and say so where the change
is described; a change of representation must leave the pins valid.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    from checks import PINS_PATH
    from workloads import DEFAULT_SEED, WORKLOADS, ReportModels, Stopwatch

    pins = {}
    for name, cls in WORKLOADS.items():
        workload = cls(DEFAULT_SEED, HERE / ".out", Stopwatch())
        try:
            workload.setup()
            result = workload.run_pass()
        finally:
            workload.close()
            shutil.rmtree(HERE / ".out", ignore_errors=True)
        if result.failed:
            print(f"{name}: {result.failed} failed units; not pinning",
                  file=sys.stderr)
            return 1
        pins[name] = {
            # Report tables take no seed, so their pins hold at every seed.
            "seed": None if cls is ReportModels else DEFAULT_SEED,
            "fingerprints": result.fingerprints,
        }
        print(f"{name}: {len(result.fingerprints)} outputs pinned")
    with open(PINS_PATH, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
