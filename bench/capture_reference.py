"""Capture the reference outputs that check.py compares against.

Usage (from the root of a checkout): python3 bench/capture_reference.py

Runs each workload that has reference-checked outputs once at
REFERENCE_SEED and copies those outputs into bench/reference/<workload>/.
The exact outputs do not depend on the seed; the Monte-Carlo columns of this
run are the reference means and standard errors.  Recapture only when the
program's exact outputs are meant to change, or a workload's arguments do.
"""

from __future__ import annotations

import shutil
import sys

from check import REFERENCE, REFERENCE_FILES
from run import WORK, invoke

REFERENCE_SEED = 1


def main() -> int:
    run_dir = WORK / "capture"
    shutil.rmtree(run_dir, ignore_errors=True)
    for index, (workload, files) in enumerate(REFERENCE_FILES.items()):
        rec = invoke(run_dir, index, workload, REFERENCE_SEED, trace=False,
                     timeout=600.0)
        if rec["problems"]:
            print(f"{workload}: {rec['problems']}", file=sys.stderr)
            return 1
        target = REFERENCE / workload
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir(parents=True)
        for name in files:
            shutil.copyfile(rec["dir"] / "out" / name, target / name)
        print(f"{workload}: {', '.join(files)}")
    shutil.rmtree(run_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
