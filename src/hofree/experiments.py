"""Desk-scale experiments comparing representation decompositions with
random-matrix Monte Carlo and free-probability targets.

Default weight profiles grow like n^(3/2) (matching the rescaling
eps_n = n^(-3/2)): the bulk factor is a linear shape vanishing at the right
edge, lambda_i = round(c * sqrt(n) * (n - i)), and the one-row Pieri factor
has length round(c2 * sqrt(n) * (n-1)^2 / n).  The constants were chosen so
that the finite-n gap against the free targets shrinks monotonically on the
default schedule while the enumerations stay desk-sized.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import hof, rmt
from .freeprob import free_compress, free_convolve
from .partperm import (
    SetPartition,
    _join_cycles,
    _num_cycles,
    contiguous_cycles,
    integer_partitions,
    leq_pp,  # unused; bench/tests/test_bench.py checks the tracer wraps it
    partitioned_permutations,
)
from .repunitary import (
    ShiftedWeight,
    pieri_decompose,
    pushforward_stats,
    restriction_mean_moments,
)

TENSOR_BULK_AMPLITUDE = 2.0
TENSOR_ROW_AMPLITUDE = 6.0
RESTRICTION_AMPLITUDE = 4.0


def bulk_profile(n: int, amplitude: float = TENSOR_BULK_AMPLITUDE) -> tuple[int, ...]:
    """Linear highest-weight profile vanishing at the right edge."""
    return tuple(round(amplitude * n ** 0.5 * (n - i - 1)) for i in range(n))


def row_profile(n: int, amplitude: float = TENSOR_ROW_AMPLITUDE) -> int:
    """Length of the one-row factor in the tensor experiment."""
    return max(1, round(amplitude * n ** 0.5 * (n - 1) ** 2 / n))


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
        if not np.isfinite(knobs).all():
            raise ValueError(f"eps exponent and amplitudes must be finite: {knobs}")
        if self.eps_exponent <= 1:
            raise ValueError(
                f"eps exponent must exceed 1 (eps_n = o(1/n) is required); "
                f"got a = {self.eps_exponent}")
        if any(a >= b for a, b in zip(self.schedule, self.schedule[1:])):
            raise ValueError("schedule must be strictly increasing")
        if any(n < 1 for n in self.schedule + self.corner_sizes):
            raise ValueError("schedule and corner sizes must be at least 1")
        if self.max_order < 1:
            raise ValueError(f"max order must be at least 1; got {self.max_order}")
        if not 0 < self.alpha <= 1:
            raise ValueError("alpha must lie in (0, 1]")
        if self.replicas < 2:
            raise ValueError("need at least 2 replicas")
        check_threads(self.threads)

    def eps(self, n: int) -> float:
        return float(n) ** -self.eps_exponent


def tensor_experiment(config: ExperimentConfig) -> list[dict]:
    """Per (n, k): exact mean/variance of the spectral moments of the random
    tensor component, the free-convolution target, and Monte-Carlo moments of
    the sum of independent matrices.  One row per (n, k)."""
    if not config.schedule:
        raise ValueError("the tensor schedule is empty")
    rows = []
    orders = tuple(range(1, config.max_order + 1))
    for n in config.schedule:
        lam = bulk_profile(n, config.amplitude)
        row = row_profile(n, config.row_amplitude)
        eps = config.eps(n)
        decomposition = pieri_decompose(lam, row, n)
        stats = pushforward_stats(decomposition, orders)
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
                "components": len(decomposition),
                # floats carry the eps_n scaling; the *_exact fields are the
                # unscaled rationals (eps_n itself is irrational)
                "rep_mean": float(stats.mean[i]) * scale,
                "rep_var": float(stats.cov[i][i]) * scale ** 2,
                "free_target": float(free_target) * scale,
                "mc_mean": mc_mean,
                "mc_se": mc_se,
                "rel_gap": abs(float(stats.mean[i] - free_target))
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
        branch = None
        if n in config.schedule:
            branch = (naive_moments_of_weight(l, config.max_order) if m == n
                      else restriction_mean_moments(l, m, orders))
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
                "compress_target": float(target[i]) * scale,
                "corner_mc_mean": mc_mean,
                "corner_mc_se": mc_se,
                "rel_gap": "",
                "note": "branch skipped: exact enumeration beyond desk scale",
                "branch_mean_exact": None,
                "compress_target_exact": Fraction(target[i]),
            }
            if branch is not None:
                row.update({
                    "branch_mean": float(branch[i]) * scale,
                    "rel_gap": abs(float(branch[i] - target[i]))
                    / abs(float(target[i])),
                    "note": "",
                    "branch_mean_exact": branch[i],
                })
            rows.append(row)
    return rows


def _mean_se(table: rmt.TraceTable, p: int) -> tuple[float, float]:
    """Monte-Carlo mean of tr X^p and its standard error."""
    col = table.column(p)
    return float(col.mean()), float(col.std(ddof=1) / np.sqrt(len(col)))


def _corner_rank(alpha: Fraction, n: int) -> int:
    """m = alpha * n, refused unless it is an integer in [1, n]: the corner
    and the branching target are compared with compression at alpha, which
    is the right target only when m / n is alpha itself."""
    m = alpha * n
    if m.denominator != 1 or not 1 <= m <= n:
        raise ValueError(f"alpha * n must be an integer in [1, n]; "
                         f"got alpha = {alpha} at n = {n}")
    return int(m)


def hof_check(ns: Sequence[int], max_order: int = 4,
              inequality_order: int = 6) -> dict:
    """Exact verification report: the macroscopic/microscopic trace-cumulant
    identity for fixed and two-atom mixed spectra, and the exhaustive triangle
    inequality over the summand set of the assembly formula."""
    # an order below 1 would check nothing and still report success
    if not 1 <= max_order <= 4:
        raise ValueError(f"the identity order must lie in [1, 4]; got {max_order}")
    if not 1 <= inequality_order <= 6:
        raise ValueError(f"the inequality order must lie in [1, 6]; "
                         f"got {inequality_order}")
    if len(set(ns)) != len(ns):
        raise ValueError(f"matrix sizes must not repeat; got {list(ns)}")
    report = {"identity": [], "triangle": [], "all_passed": True}
    for n in ns:
        top = tuple(range(n, 0, -1))
        alt = tuple(x + (1 if i % 2 == 0 else -1) for i, x in enumerate(top))
        specs = {
            "fixed": rmt.EnsembleSpec.fixed(top, eps=Fraction(1, n)),
            "mixed": rmt.EnsembleSpec.mixture(
                [(top, Fraction(1, 2)), (alt, Fraction(1, 2))],
                eps=Fraction(1, n)),
        }
        for label, spec in specs.items():
            # patterns in trace_patterns(max_order) order, one table per order
            for k in range(1, max_order + 1):
                table = hof.kappa_exact(spec, k)
                for pattern in integer_partitions(k):
                    lhs = hof.trace_cumulant_direct(spec, pattern)
                    rhs = hof.macro_from_micro(table, pattern)
                    ok = lhs == rhs
                    report["all_passed"] &= ok
                    report["identity"].append({
                        "n": n, "spectrum": label,
                        "pattern": list(pattern),
                        "lhs": f"{lhs.numerator}/{lhs.denominator}",
                        "rhs": f"{rhs.numerator}/{rhs.denominator}",
                        "equal": ok,
                    })
    for k in range(1, inequality_order + 1):
        full = SetPartition.full(k).block_of
        gammas = [contiguous_cycles(*c) for c in integer_partitions(k)]
        tops = [g.length() + 2 * (g.num_cycles() - 1) for g in gammas]  # |(1, g)|
        checked, holds = 0, True
        # V v C(gamma) = 1 does not depend on pi: one join per (V, gamma)
        connected: dict = {}
        # #(pi^-1 gamma), #(gamma pi^-1) for every gamma: one row per pi
        counts: dict = {}
        # one streamed sweep per k: the enumeration is never held in memory
        for vp in partitioned_permutations(k):
            v, pi = vp.partition, vp.permutation
            if v not in connected:
                connected[v] = [_join_cycles(v.block_of, g.images) == full
                                for g in gammas]
            inv = pi.inverse().images
            if pi.images not in counts:
                counts[pi.images] = bytes(c for g in gammas for c in (
                    _num_cycles([inv[j] for j in g.images]),
                    _num_cycles([g.images[j] for j in inv])))
            row, length = counts[pi.images], vp.length()
            for gamma, top, joins, sigma_cycles, step_cycles in zip(
                    gammas, tops, connected[v], row[0::2], row[1::2]):
                # leq_pp(vp, (1, gamma)): lengths add up, V v C(pi^-1 gamma) = 1
                below = (length + k - sigma_cycles == top and _join_cycles(
                    v.block_of, [inv[j] for j in gamma.images]) == full)
                if not joins:
                    holds &= not below
                    continue
                checked += 1
                e = k - step_cycles + length - top  # hof.scaling_exponent
                holds &= (e >= 0) and ((e == 0) == below)
        report["triangle"].append({"k": k, "summands_checked": checked,
                                   "holds": holds})
        report["all_passed"] &= holds
    return report


def trace_patterns(max_total: int) -> list[tuple[int, ...]]:
    """All multisets of positive integers with sum at most max_total."""
    out = []
    for total in range(1, max_total + 1):
        out.extend(integer_partitions(total))
    return out
