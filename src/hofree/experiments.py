"""Tensor and restriction experiments: exact statistics of random components
against random-matrix Monte Carlo and free-probability targets.

Default weight profiles grow like n^(3/2) (matching the rescaling
eps_n = n^(-3/2)): the bulk factor is a linear shape vanishing at the right
edge, lambda_i = round(c * sqrt(n) * (n - i)), and the one-row Pieri factor
has length round(c2 * sqrt(n) * (n-1)^2 / n).  The constants were chosen so
that the finite-n gap against the free targets shrinks monotonically on the
default schedule.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import rmt
from .freeprob import free_compress, free_convolve
from .partperm import (
    integer_partitions,
    leq_pp,  # unused; bench/tests/test_bench.py checks the tracer wraps it
)
from .repunitary import (
    ShiftedWeight,
    pieri_component_count,
    pieri_stats,
    restriction_mean_moments,
)

TENSOR_BULK_AMPLITUDE = 2.0
TENSOR_ROW_AMPLITUDE = 6.0
RESTRICTION_AMPLITUDE = 4.0


def bulk_profile(n: int, amplitude: float = TENSOR_BULK_AMPLITUDE) -> tuple[int, ...]:
    """Linear highest-weight profile vanishing at the right edge."""
    return tuple(_round(amplitude * n ** 0.5 * (n - i - 1), "--amplitude", n)
                 for i in range(n))


def row_profile(n: int, amplitude: float = TENSOR_ROW_AMPLITUDE) -> int:
    """Length of the one-row factor in the tensor experiment; one box at
    n = 1, where the formula is 0."""
    row = _round(amplitude * n ** 0.5 * (n - 1) ** 2 / n, "--row-amplitude", n)
    if row == 0 and n > 1:
        raise ValueError(f"--row-amplitude {amplitude} is too small: the row "
                         f"rounds to 0 boxes at n = {n}")
    return max(1, row)


def _round(x: float, flag: str, n: int) -> int:
    if not math.isfinite(x):        # round() raises OverflowError on inf
        raise ValueError(f"{flag} is too large: the weight profile overflows "
                         f"a float at n = {n}")
    return round(x)


def exact_float(x, column: str) -> float:
    """float(x) of an exact value, refused when x is too large for a float."""
    try:
        return float(x)
    except OverflowError:
        raise ValueError(f"{column} is too large for a float") from None


def naive_moments_of_weight(l: ShiftedWeight, order: int) -> list:
    return [Fraction(l.power_sum(k), l.n) for k in range(1, order + 1)]


def check_threads(threads: int) -> None:
    cores = os.cpu_count() or 1
    if not 1 <= threads <= cores:
        raise ValueError(f"threads must lie in [1, {cores}] (the CPU "
                         f"count); got {threads}")


@dataclass
class ExperimentConfig:
    """Shared knobs for the tensor/restriction/simulation experiments."""

    schedule: tuple[int, ...] = (2, 4, 6, 8)
    eps_exponent: float = 1.5
    amplitude: float = TENSOR_BULK_AMPLITUDE
    row_amplitude: float = TENSOR_ROW_AMPLITUDE
    alpha: Fraction = Fraction(1, 2)
    corner_sizes: tuple[int, ...] = (8, 256)
    replicas: int = 4000
    seed: int = 1
    max_order: int = 4
    threads: int = 1

    def __post_init__(self):
        knobs = (self.eps_exponent, self.amplitude, self.row_amplitude)
        # refuses NaN, infinities and integers no float holds
        if not all(abs(x) <= sys.float_info.max for x in knobs):
            raise ValueError(f"eps exponent and amplitudes must be finite: {knobs}")
        if self.eps_exponent <= 1:
            raise ValueError(
                f"eps exponent must exceed 1 (eps_n = o(1/n) is required); "
                f"got a = {self.eps_exponent}")
        if any(a >= b for a, b in zip(self.schedule, self.schedule[1:])):
            raise ValueError("schedule must be strictly increasing")
        # restrict writes one set of rows per size: a repeat writes it twice
        if len(set(self.corner_sizes)) != len(self.corner_sizes):
            raise ValueError(f"corner sizes must not repeat; got "
                             f"{list(self.corner_sizes)}")
        # a row amplitude <= 0 would be rounded up to a one-box row, and a
        # negative amplitude reverses the bulk profile
        if self.amplitude < 0:
            raise ValueError(f"--amplitude must be at least 0; got "
                             f"{self.amplitude}")
        if self.row_amplitude <= 0:
            raise ValueError(f"--row-amplitude must be positive; got "
                             f"{self.row_amplitude}")
        if any(n < 1 for n in self.schedule + self.corner_sizes):
            raise ValueError("schedule and corner sizes must be at least 1")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"seed must lie in [0, 2^64); got {self.seed}")
        if self.max_order < 1:
            raise ValueError(f"max order must be at least 1; got {self.max_order}")
        if not 0 < self.alpha <= 1:
            raise ValueError("alpha must lie in (0, 1]")
        if self.replicas < 2:
            raise ValueError("need at least 2 replicas")
        check_threads(self.threads)

    def eps(self, n: int) -> float:
        return float(n) ** -self.eps_exponent

    def check_eps(self, sizes: tuple[int, ...]) -> None:
        """Refuses an eps exponent for which tensor's rep_var scale
        eps_n^(2 max_order) underflows to 0.0 at one of the sizes a command
        runs."""
        top = max(sizes, default=1)
        if (2 * self.max_order * Fraction(self.eps_exponent) * Fraction(math.log(top))
                > -math.log(sys.float_info.min)):
            raise ValueError(f"eps exponent {self.eps_exponent} is too large: "
                             f"eps_n^(2 * max order) underflows at n = {top}")


def tensor_experiment(config: ExperimentConfig) -> list[dict]:
    """Per (n, k): exact mean/variance of the spectral moments of the random
    tensor component, the free-convolution target, and Monte-Carlo moments of
    the sum of independent matrices.  One row per (n, k)."""
    if not config.schedule:
        raise ValueError("the tensor schedule is empty")
    config.check_eps(config.schedule)
    rows = []
    orders = tuple(range(1, config.max_order + 1))
    for n in config.schedule:
        lam = bulk_profile(n, config.amplitude)
        row = row_profile(n, config.row_amplitude)
        eps = config.eps(n)
        stats = pieri_stats(lam, row, n, orders)
        components = pieri_component_count(lam, row, n)
        la = ShiftedWeight.from_highest_weight(lam)
        lb = ShiftedWeight.from_highest_weight((row,) + (0,) * (n - 1))
        target = free_convolve(naive_moments_of_weight(la, config.max_order),
                               naive_moments_of_weight(lb, config.max_order),
                               config.max_order)
        spec_a = rmt.EnsembleSpec.fixed(la.entries, eps=eps)
        spec_b = rmt.EnsembleSpec.fixed(lb.entries, eps=eps)
        table = rmt.trace_statistics((spec_a, spec_b), orders,
                                     replicas=config.replicas,
                                     seed=config.seed,
                                     threads=config.threads)
        for i, k in enumerate(orders):
            scale = eps ** k
            mc_mean, mc_se = _mean_se(table, k)
            free_target = Fraction(target[i])
            rows.append({
                "n": n,
                "k": k,
                "components": components,
                # floats carry the eps_n scaling; the *_exact fields are the
                # unscaled rationals (eps_n itself is irrational)
                "rep_mean": exact_float(stats.mean[i], "rep_mean") * scale,
                "rep_var": exact_float(stats.cov[i][i], "rep_var") * scale ** 2,
                "free_target": exact_float(free_target, "free_target") * scale,
                "mc_mean": mc_mean,
                "mc_se": mc_se,
                "rel_gap": abs(exact_float(stats.mean[i] - free_target, "rel_gap"))
                / abs(float(free_target)),
                "rep_mean_exact": stats.mean[i],
                "rep_var_exact": stats.cov[i][i],
                "free_target_exact": free_target,
            })
    return rows


def restriction_experiment(config: ExperimentConfig) -> list[dict]:
    """Per (n, k): exact mean moments of the restricted component, the
    free-compression target, and corner Monte Carlo for the matching alpha."""
    if not config.schedule + config.corner_sizes:
        raise ValueError("the schedule and the corner sizes are both empty")
    # the U(1) profile is (0): every target moment is 0, so no relative gap
    if 1 in config.schedule:
        raise ValueError("the restrict schedule needs sizes of at least 2; "
                         "at n = 1 every target moment is 0")
    config.check_eps(config.schedule + config.corner_sizes)
    rows = []
    orders = tuple(range(1, config.max_order + 1))
    alpha = Fraction(config.alpha)
    corner = {n: _corner_rank(alpha, n)
              for n in (*config.schedule, *config.corner_sizes)}

    # the schedule gets exact branch means; the other corner sizes are pure
    # matrix-limit checks, with Monte Carlo only
    extra = [n for n in config.corner_sizes if n not in config.schedule]
    for n in (*config.schedule, *extra):
        m = corner[n]
        l = ShiftedWeight.from_highest_weight(bulk_profile(n, config.amplitude))
        eps = config.eps(n)
        target = free_compress(naive_moments_of_weight(l, config.max_order),
                               alpha, config.max_order)
        branch = (restriction_mean_moments(l, m, orders)
                  if n in config.schedule else None)
        replicas = (config.replicas if branch is not None
                    else min(config.replicas, 500))
        spec = rmt.EnsembleSpec.fixed(l.entries, eps=eps)
        table = rmt.trace_statistics(spec, orders, replicas, config.seed,
                                     threads=config.threads, m=m)
        for i, k in enumerate(orders):
            scale = eps ** k
            mc_mean, mc_se = _mean_se(table, k)
            row = {
                "n": n, "m": m, "k": k,
                "branch_mean": "",
                "compress_target":
                    exact_float(target[i], "compress_target") * scale,
                "corner_mc_mean": mc_mean,
                "corner_mc_se": mc_se,
                "rel_gap": "",
                "note": "branch skipped: exact enumeration beyond desk scale",
                "branch_mean_exact": None,
                "compress_target_exact": Fraction(target[i]),
            }
            if branch is not None:
                row.update({
                    "branch_mean": exact_float(branch[i], "branch_mean") * scale,
                    "rel_gap": abs(exact_float(branch[i] - target[i], "rel_gap"))
                    / abs(float(target[i])),
                    "note": "",
                    "branch_mean_exact": branch[i],
                })
            rows.append(row)
    return rows


def _mean_se(table: rmt.TraceTable, p: int) -> tuple[float, float]:
    """Monte-Carlo mean of tr X^p and its standard error, refused when
    either overflows a float (finite traces near the float limit)."""
    col = table.column(p)
    with np.errstate(over="ignore", invalid="ignore"):
        mean, se = float(col.mean()), float(col.std(ddof=1) / np.sqrt(len(col)))
    if not (math.isfinite(mean) and math.isfinite(se)):
        raise ValueError(f"the Monte-Carlo mean or standard error of "
                         f"tr X^{p} overflows a float")
    return mean, se


def _corner_rank(alpha: Fraction, n: int) -> int:
    """m = alpha * n, refused unless it is an integer in [1, n]: the corner
    and the branching target are compared with compression at alpha, which
    is the right target only when m / n is alpha itself."""
    m = alpha * n
    if m.denominator != 1 or not 1 <= m <= n:
        # an alpha no size can take may have millions of digits
        shown = (alpha if alpha.denominator < 2 ** 64
                 else "a rational with a denominator above 2^64")
        raise ValueError(f"alpha * n must be an integer in [1, n]; "
                         f"got alpha = {shown} at n = {n}")
    return int(m)


def trace_patterns(max_total: int) -> list[tuple[int, ...]]:
    """All multisets of positive integers with sum at most max_total."""
    out = []
    for total in range(1, max_total + 1):
        out.extend(integer_partitions(total))
    return out
