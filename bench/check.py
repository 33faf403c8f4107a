"""Output checks for the benchmark workloads.

Each check reads one invocation's output directory and returns a list of
problems; an empty list means the outputs are correct.

- Exact outputs do not depend on the seed: `restrict_exact.json` and the
  `hof-check` report must be byte-identical to the references in
  `reference/`, and so must the exact-derived columns of `restrict.csv`.
- `hof-check` must report `all_passed: true`.
- The corner Monte-Carlo means of `restrict` must lie within MC_SIGMAS
  combined standard errors of the reference run's means (two independent
  estimates of the same expectation).
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference"
MC_SIGMAS = 6.0

EXACT_COLUMNS = ("n", "m", "k", "branch_mean", "compress_target", "rel_gap",
                 "note")
MC_COLUMNS = ("corner_mc_mean", "corner_mc_se")
EXPECTED_FILES = {
    "restrict": ("restrict.csv", "restrict_exact.json", "stdout.txt"),
    "hof_check": ("stdout.txt",),
}
# files compared byte for byte with the reference
IDENTICAL = {
    "restrict": ("restrict_exact.json",),
    "hof_check": ("stdout.txt",),
}
# what reference/<workload>/ holds: the identical files and the CSV
REFERENCE_FILES = {
    "restrict": ("restrict_exact.json", "restrict.csv"),
    "hof_check": ("stdout.txt",),
}


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _check_csv(name: str, out: Path, ref: Path) -> list[str]:
    rows, ref_rows = _read_csv(out / name), _read_csv(ref / name)
    if len(rows) != len(ref_rows):
        return [f"{name}: {len(rows)} rows, reference has {len(ref_rows)}"]
    problems = []
    mean_col, se_col = MC_COLUMNS
    for i, (row, want) in enumerate(zip(rows, ref_rows)):
        for col in EXACT_COLUMNS:
            if row.get(col) != want[col]:
                problems.append(f"{name} row {i}: {col} = {row.get(col)!r}, "
                                f"reference {want[col]!r}")
        try:
            mean, se = float(row[mean_col]), float(row[se_col])
            ref_mean, ref_se = float(want[mean_col]), float(want[se_col])
        except (KeyError, ValueError) as exc:
            problems.append(f"{name} row {i}: unreadable Monte-Carlo cell ({exc})")
            continue
        allowed = MC_SIGMAS * math.hypot(se, ref_se)
        if not (se >= 0 and abs(mean - ref_mean) <= allowed):
            problems.append(f"{name} row {i}: {mean_col} = {mean!r} is more than "
                            f"{MC_SIGMAS:g} SE from the reference {ref_mean!r}")
    return problems


def check_outputs(workload: str, out: Path, ref: Path | None = None) -> list[str]:
    """Problems found in one invocation's outputs (empty when correct)."""
    ref = REFERENCE / workload if ref is None else ref
    missing = [f for f in EXPECTED_FILES[workload] if not (out / f).is_file()]
    if missing:
        return [f"missing output {f}" for f in missing]
    problems = [f"{f} differs from the reference" for f in IDENTICAL[workload]
                if (out / f).read_bytes() != (ref / f).read_bytes()]
    try:
        if workload == "restrict":
            problems += _check_csv("restrict.csv", out, ref)
        else:
            report = json.loads((out / "stdout.txt").read_text(encoding="utf-8"))
            if report.get("all_passed") is not True:
                problems.append("hof-check report: all_passed is not true")
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return problems


def output_files(out: Path) -> dict[str, bytes]:
    """Every output file's bytes, for comparing two invocations."""
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()}
