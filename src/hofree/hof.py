"""Higher-order freeness machinery for unitarily invariant ensembles.

Connects the microscopic data (cumulants of matrix entries along partitioned
permutations, exact via the Weingarten oracle or estimated by Monte Carlo)
with the macroscopic data (classical cumulants of power-sum traces): the
exact finite-n assembly identity and the scaling exponents controlling which
terms survive the large-n limit.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    _num_cycles,
    contiguous_cycles,
    integer_partitions,
    leq_pp,  # unused; bench/tests/test_bench.py checks the tracer wraps it
    partitioned_permutations,
)

KAPPA_MAX_ORDER = 4


def entry_cumulants(spec: rmt.EnsembleSpec,
                    pairs: Sequence[tuple[int, int]]) -> CumulantTable:
    """Joint classical cumulants of the designated entries over every subset
    of positions, exact through the Weingarten oracle; k_V of the entries is
    .value(V), whether or not the pairing refines V."""
    def moment(subset):
        return rmt.exact_entry_moment(spec, [pairs[i] for i in subset])

    return moments_to_cumulants(MomentTable.from_function(len(pairs), moment))


@dataclass(frozen=True)
class KappaTable:
    """kappa_(V,pi) = k_V(X_{0 pi(0)}, ..., X_{k-1 pi(k-1)}) for every
    partitioned permutation of {0..k-1}."""

    order: int
    n: int
    values: dict

    def value(self, vp: PartitionedPermutation):
        return self.values[vp]

    def items(self):
        return self.values.items()


def kappa_exact(spec: rmt.EnsembleSpec, k: int) -> KappaTable:
    """Exact table of entry cumulants indexed by partitioned permutations.

    One table per cycle type mu, at rho = contiguous_cycles(*mu): X and SXS*
    have the same law for every permutation matrix S, so for pi = s rho s^-1
    kappa_(V,pi) is rho's value at s^-1 V, for every ensemble."""
    if not 1 <= k <= KAPPA_MAX_ORDER:
        raise GuardError(f"exact kappa tables are limited to k <= {KAPPA_MAX_ORDER}")
    if spec.n < k:
        raise GuardError(
            f"entry patterns need n >= k (n = {spec.n}, k = {k}); refusing")
    tables = {mu: entry_cumulants(
                  spec, list(enumerate(contiguous_cycles(*mu).images)))
              for mu in integer_partitions(k)}
    values = {}
    for vp in partitioned_permutations(k):
        pi = vp.permutation
        # s lays pi's cycles, longest first, over rho's 0..k-1 in order
        s = sum(sorted(pi.cycles(), key=len, reverse=True), ())
        moved = SetPartition.from_blocks(  # s^-1 V
            k, [[s.index(m) for m in blk] for blk in vp.partition.blocks()])
        values[vp] = tables[pi.cycle_type()].value(moved)
    return KappaTable(order=k, n=spec.n, values=values)


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
        inv = vp.permutation.inverse().images
        cycles = _num_cycles([gamma.images[j] for j in inv])
        total = total + kappa * Fraction(n) ** cycles
    return total


def trace_cumulant_direct(spec: rmt.EnsembleSpec, powers: Sequence[int]):
    """Classical joint cumulant of the traces (Tr X^{p_i}), straight from the
    finite spectrum mixture: for a given atom the traces are deterministic, so
    this is a cumulant of a finite discrete distribution."""
    powers = tuple(powers)

    def atom_trace(atom_index, p):
        return spec.eps ** p * spec.atom_power_sum(atom_index, p)

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
    g = gamma.images
    k = len(g)
    if len(vp.permutation.images) != k:
        raise ValueError("ground-set mismatch")
    top_length = gamma.length() + 2 * (gamma.num_cycles() - 1)
    inv = vp.permutation.inverse().images
    step = k - _num_cycles([g[j] for j in inv])
    return step + vp.length() - top_length
