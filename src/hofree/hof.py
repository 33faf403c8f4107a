"""Higher-order freeness machinery for unitarily invariant ensembles.

Connects the microscopic data (cumulants of matrix entries along partitioned
permutations, exact via the Weingarten oracle or estimated by Monte Carlo)
with the macroscopic data (classical cumulants of power-sum traces): the
exact finite-n assembly identity, the scaling exponents controlling which
terms survive the large-n limit, and limit extraction along ensemble
schedules.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import rmt
from .cumulants import (
    CumulantEstimate,
    CumulantTable,
    MomentTable,
    bootstrap,
    moments_to_cumulants,
    sample_cumulants,
)
from .errors import GuardError
from .partperm import (
    PartitionedPermutation,
    Permutation,
    SetPartition,
    contiguous_cycles,
    leq_pp,
    partitioned_permutations,
)

KAPPA_MAX_ORDER = 4


def entry_cumulants(spec: rmt.EnsembleSpec,
                    pairs: Sequence[tuple[int, int]]) -> CumulantTable:
    """Joint classical cumulants of the designated entries over every subset
    of positions, exact through the Weingarten oracle; k_V of the entries is
    .value(V), whether or not the pairing refines V."""
    table = MomentTable.from_function(
        len(pairs),
        lambda subset: rmt.exact_entry_moment(spec, [pairs[i] for i in subset]))
    return moments_to_cumulants(table)


@dataclass(frozen=True)
class KappaTable:
    """kappa_(V,pi) = k_V(X_{0 pi(0)}, ..., X_{k-1 pi(k-1)}) for every
    partitioned permutation of {0..k-1}."""

    order: int
    n: int
    eps: object
    values: dict

    def value(self, vp: PartitionedPermutation):
        return self.values[vp]

    def items(self):
        return self.values.items()


def kappa_exact(spec: rmt.EnsembleSpec, k: int) -> KappaTable:
    """Exact table of entry cumulants indexed by partitioned permutations."""
    if not 1 <= k <= KAPPA_MAX_ORDER:
        raise GuardError(f"exact kappa tables are limited to k <= {KAPPA_MAX_ORDER}")
    if spec.n < k:
        raise GuardError(
            f"entry patterns need n >= k (n = {spec.n}, k = {k}); refusing")
    tables = {pi: entry_cumulants(spec, [(m, pi(m)) for m in range(k)])
              for pi in map(Permutation, itertools.permutations(range(k)))}
    values = {vp: tables[vp.permutation].value(vp.partition)
              for vp in partitioned_permutations(k)}
    return KappaTable(order=k, n=spec.n, eps=spec.eps, values=values)


def kappa_mc(spec: rmt.EnsembleSpec, targets: Sequence[PartitionedPermutation],
             replicas: int, seed: int, n_boot: int = 200) -> dict:
    """Monte-Carlo estimates of kappa_(V,pi) for the requested targets,
    with bootstrap standard errors resampled jointly across targets."""
    if replicas < 1000:
        raise ValueError("kappa estimation needs at least 1000 replicas")
    if not targets:
        raise ValueError("kappa estimation needs at least one target")
    k = targets[0].size
    if any(t.size != k for t in targets):
        raise ValueError("all targets must share one order")
    pairs_needed = sorted({(m, vp.permutation(m))
                           for vp in targets for m in range(k)})
    col = {p: i for i, p in enumerate(pairs_needed)}
    rows_at, cols_at = zip(*pairs_needed)
    data = rmt.map_replicas(
        lambda rng: rmt.sample_matrix(spec, rng)[rows_at, cols_at],
        replicas, seed)
    cols_of = {vp.permutation: [col[(m, vp.permutation(m))] for m in range(k)]
               for vp in targets}

    def table_from(rows: np.ndarray) -> list:
        tables = {pi: sample_cumulants(rows[:, cols])
                  for pi, cols in cols_of.items()}
        return [tables[vp.permutation].value(vp.partition) for vp in targets]

    point, stderr = bootstrap(data, table_from, n_boot,
                              np.random.default_rng(seed + 1))
    return {vp: CumulantEstimate(value=v, stderr=se)
            for vp, v, se in zip(targets, point, stderr)}


def macro_from_micro(table: KappaTable, powers: Sequence[int]):
    """Assemble k_l(Tr X^{p_1}, ..., Tr X^{p_l}) from the entry-cumulant
    table: the sum of kappa_(V,pi) n^(#(gamma pi^-1)) over (V,pi) whose
    partition joins with the cycles of gamma to the full partition."""
    powers = tuple(powers)
    k = sum(powers)
    if k != table.order:
        raise ValueError(f"pattern {powers} needs a table of order {k}")
    gamma = contiguous_cycles(*powers)
    gamma_part = gamma.cycle_partition()
    full = SetPartition.full(k)
    n = table.n
    total = 0
    for vp, kappa in table.items():
        if kappa == 0:
            continue
        if vp.partition.join(gamma_part) != full:
            continue
        cycles = (gamma * vp.permutation.inverse()).num_cycles()
        total = total + kappa * Fraction(n) ** cycles
    return total


def trace_cumulant_direct(spec: rmt.EnsembleSpec, powers: Sequence[int],
                          normalized: bool = False):
    """Classical joint cumulant of the traces (Tr X^{p_i}), straight from the
    finite spectrum mixture: for a given atom the traces are deterministic, so
    this is a cumulant of a finite discrete distribution.

    With normalized=True the traces are tr = Tr/n.
    """
    powers = tuple(powers)
    scale = Fraction(1, spec.n) if normalized else 1

    def atom_trace(atom_index, p):
        return spec.eps ** p * spec.atom_power_sum(atom_index, p) * scale

    def joint(subset):
        total = 0
        for idx, (_, prob) in enumerate(spec.atoms):
            term = prob
            for i in subset:
                term = term * atom_trace(idx, powers[i])
            total = total + term
        return total

    table = MomentTable.from_function(len(powers), joint)
    return moments_to_cumulants(table).top()


def verify_trace_cumulant_identity(spec: rmt.EnsembleSpec,
                                   powers: Sequence[int]):
    """Both sides of the exact macroscopic/microscopic relation for one
    trace-cumulant pattern; exact rationals when eps is rational."""
    lhs = trace_cumulant_direct(spec, powers)
    rhs = macro_from_micro(kappa_exact(spec, sum(powers)), powers)
    return lhs, rhs


def scaling_exponent(vp: PartitionedPermutation, gamma: Permutation) -> int:
    """|(0, gamma pi^-1)| + |(V,pi)| - |(1, gamma)|; nonnegative, and zero
    exactly when (V,pi) <= (1, gamma)."""
    if vp.size != gamma.size:
        raise ValueError("ground-set mismatch")
    top_length = gamma.length() + 2 * (gamma.num_cycles() - 1)
    step = (gamma * vp.permutation.inverse()).length()
    return step + vp.length() - top_length


# -- limits along schedules ----------------------------------------------------

@dataclass
class TrendSeries:
    """Scaled values along an n-schedule plus a 1/n Richardson extrapolation."""

    label: str
    ns: list
    values: list
    extrapolated: float | None = None

    def finalize(self):
        vals = [float(v) for v in self.values]
        if len(vals) >= 2:
            n2, n1 = self.ns[-1], self.ns[-2]
            v2, v1 = vals[-1], vals[-2]
            self.extrapolated = v2 + (v2 - v1) * n1 / (n2 - n1)
        return self

    def to_dict(self):
        return {
            "label": self.label,
            "n": list(self.ns),
            "scaled_values": [_num_repr(v) for v in self.values],
            "extrapolated": self.extrapolated,
        }


def _num_repr(v):
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    return float(v)


@dataclass
class LimitRecord:
    """Evidence for the limits of scaled entry cumulants (per conjugacy
    class) and scaled trace cumulants (per power pattern)."""

    kappa_trends: dict = field(default_factory=dict)
    moment_trends: dict = field(default_factory=dict)
    consistency: list = field(default_factory=list)

    def to_json(self) -> str:
        payload = {
            "kappa": {k: t.to_dict() for k, t in self.kappa_trends.items()},
            "moments": {k: t.to_dict() for k, t in self.moment_trends.items()},
            "consistency": self.consistency,
        }
        return json.dumps(payload, indent=2)


def limit_scan(schedule: Sequence[rmt.EnsembleSpec],
               pp_targets: Sequence[PartitionedPermutation] = (),
               power_targets: Sequence[Sequence[int]] = (),
               tolerance: float = 0.05) -> LimitRecord:
    """Scaled microscopic and macroscopic quantities along an increasing
    n-schedule, with trend diagnostics and the moment/cumulant consistency
    check at the largest n.

    Microscopic: n^|(V,pi)| kappa_(V,pi).  Macroscopic: n^(2(l-1)) times the
    cumulant of normalized traces.  The consistency check compares the
    macroscopic value with the sum of scaled kappas over (V,pi) <= (1, gamma).
    """
    ns = [s.n for s in schedule]
    if len(ns) < 3 or any(a >= b for a, b in zip(ns, ns[1:])):
        raise ValueError("schedule must contain at least 3 increasing sizes")
    record = LimitRecord()
    orders = sorted({vp.size for vp in pp_targets}
                    | {sum(p) for p in power_targets})
    tables = {}
    for spec in schedule:
        for k in orders:
            tables[(spec.n, k)] = kappa_exact(spec, k)

    for vp in pp_targets:
        label = f"|{vp.partition.block_of}|,{vp.permutation.images}"
        trend = TrendSeries(label=label, ns=list(ns), values=[])
        for spec in schedule:
            kappa = tables[(spec.n, vp.size)].value(vp)
            trend.values.append(kappa * Fraction(spec.n) ** vp.length()
                                if isinstance(kappa, Fraction)
                                else kappa * spec.n ** vp.length())
        record.kappa_trends[label] = trend.finalize()

    for powers in power_targets:
        powers = tuple(powers)
        label = ",".join(map(str, powers))
        l = len(powers)
        trend = TrendSeries(label=label, ns=list(ns), values=[])
        for spec in schedule:
            klt = trace_cumulant_direct(spec, powers, normalized=True)
            scale = spec.n ** (2 * (l - 1))
            trend.values.append(klt * scale)
        record.moment_trends[label] = trend.finalize()

        # moment = sum of kappas below (1, gamma), checked at the largest n
        spec = schedule[-1]
        gamma = contiguous_cycles(*powers)
        k = sum(powers)
        top = PartitionedPermutation(SetPartition.full(k), gamma)
        table = tables[(spec.n, k)]
        total = 0
        for cand, kappa in table.items():
            if leq_pp(cand, top):
                total = total + kappa * spec.n ** cand.length()
        m_val = float(trend.values[-1])
        k_val = float(total)
        gap = abs(m_val - k_val) / max(1.0, abs(m_val))
        record.consistency.append({
            "pattern": label,
            "n": spec.n,
            "macroscopic": m_val,
            "kappa_sum": k_val,
            "relative_gap": gap,
            "within_tolerance": bool(gap <= tolerance),
        })
    return record
