"""The two benchmark workloads: one hofree CLI invocation each.

Sizes, alpha and amplitude fix which layers do the work (see BENCHMARK.md);
only the replica count of `restrict` was chosen, to set the run length.  The
workload seed is passed to the program as `--seed`; every other input is
fixed.
"""

from __future__ import annotations

WORKLOADS = {
    "restrict": ["restrict", "--schedule", "3,6", "--alpha", "2/3",
                 "--amplitude", "4", "--corner-sizes", "192",
                 "--max-order", "4", "--replicas", "150"],
    "hof_check": ["hof-check", "--n", "4,5,6,7,8", "--max-order", "4",
                  "--inequality-order", "6"],
}


def cli_argv(workload: str, seed: int) -> list[str]:
    """The argv passed to `hofree.cli.main` for one invocation."""
    return ["--seed", str(seed), "--threads", "1", "--out", "out",
            *WORKLOADS[workload]]
