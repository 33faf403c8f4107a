"""Higher-order freeness machinery for unitarily invariant ensembles.

Connects the microscopic data (cumulants of matrix entries along partitioned
permutations, exact via the Weingarten oracle or estimated by Monte Carlo)
with the macroscopic data (classical cumulants of power-sum traces): the
exact finite-n assembly identity and the scaling exponents controlling which
terms survive the large-n limit, both checked exactly by `hof_check`.  Exact
entry cumulants are kept by class: `block_cumulants` holds one c(nu) per
block cycle type, and kappa_(V,pi) is their product over the blocks of V,
so `hof_check` builds one table per spectrum for every pattern.  Its
triangle sweep runs once per pi over the V >= C(pi), where V v C(pi^-1 gamma)
= V v C(gamma), so V v C(gamma) is one join per (V, gamma).
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import rmt
from .cumulants import (
    CumulantEstimate,
    MomentTable,
    bootstrap,
    moments_to_cumulants,
    sample_cumulants,
)
from .errors import GuardError
from .partperm import (
    PartitionedPermutation,
    Permutation,
    _coarsenings,
    _join_cycles,
    _num_cycles,
    conjugacy_key,
    contiguous_cycles,
    integer_partitions,
    leq_pp,  # unused; bench/tests/test_bench.py checks the tracer wraps it
    partitioned_permutations,
)

KAPPA_MAX_ORDER = 4
# hof_check's spectra list n atoms: time and memory grow linearly in n
MAX_MATRIX_SIZE = 2 ** 20


@functools.lru_cache(maxsize=KAPPA_MAX_ORDER)
def _classes(k: int) -> tuple:
    """Every (V, pi) of order k with its `conjugacy_key`, for every spectrum."""
    return tuple((vp, conjugacy_key(vp)) for vp in partitioned_permutations(k))


def block_cumulants(spec: rmt.EnsembleSpec, k: int) -> dict:
    """c(nu) for every partition nu with |nu| <= k, the block cumulants that
    make up every entry cumulant kappa_(V,pi) of order up to k.

    A product of entries X_{i pi(i)} over positions S has mean 0 unless S
    is a union of cycles of pi (else its row and column indices differ).  So
    kappa_(V,pi) is the product over the blocks B of V of c(nu_B), the joint
    cumulant of the cycle products of pi on B, of lengths nu_B; a joint
    moment of cycle products of lengths tau is that of contiguous_cycles(*tau).

    >>> spec = rmt.EnsembleSpec.fixed((2, 1, 0))
    >>> rmt.exact_entry_moment(spec, [(0, 1), (1, 2)])     # a path, no cycle
    Fraction(0, 1)
    >>> m1, m11 = (rmt.exact_entry_moment(spec, [(0, 0), (1, 1)][:j]) for j in (1, 2))
    >>> block_cumulants(spec, 2)[(1, 1)], m11 - m1 * m1
    (Fraction(-1, 12), Fraction(-1, 12))
    """
    if not 1 <= k <= KAPPA_MAX_ORDER:
        raise GuardError(f"exact kappa tables are limited to k <= {KAPPA_MAX_ORDER}")
    if spec.n < k:
        raise GuardError(
            f"entry patterns need n >= k (n = {spec.n}, k = {k}); refusing")
    moments = {tau: rmt.exact_entry_moment(
                   spec, list(enumerate(contiguous_cycles(*tau).images)))
               for j in range(1, k + 1) for tau in integer_partitions(j)}
    # a sub-multiset of nu, read in order, is again non-increasing
    return {nu: moments_to_cumulants(MomentTable.from_function(
                len(nu), lambda s, nu=nu: moments[tuple(nu[i] for i in s)])).top()
            for nu in moments}


def kappa_exact(spec: rmt.EnsembleSpec, k: int) -> dict:
    """kappa_(V,pi) = k_V(X_{0 pi(0)}, ..., X_{k-1 pi(k-1)}) for every
    partitioned permutation of {0..k-1}: the product of `block_cumulants`
    over the blocks of its `conjugacy_key`.

    >>> spec = rmt.EnsembleSpec.fixed((2, 1, 0))
    >>> vp = PartitionedPermutation.minimal(Permutation.identity(2))  # {{0}, {1}}
    >>> kappa_exact(spec, 2)[vp] == block_cumulants(spec, 2)[(1,)] ** 2
    True
    """
    c = block_cumulants(spec, k)
    return {vp: math.prod(map(c.__getitem__, key)) for vp, key in _classes(k)}


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
        lambda rngs: np.array([rmt.sample_matrix(spec, rng)[rows_at, cols_at]
                               for rng in rngs]),
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


@functools.lru_cache(maxsize=32)
def _assembly_terms(powers: tuple[int, ...]) -> tuple:
    """The spectrum-free part of `macro_from_micro`: (a class key, e, the
    number of its (V, pi) with V v C(gamma) = 1 and #(gamma pi^-1) = e)."""
    gamma = contiguous_cycles(*powers).images
    full = (0,) * len(gamma)
    counts: dict = {}
    for vp, key in _classes(len(gamma)):
        if _join_cycles(vp.partition.block_of, gamma) == full:
            e = _cycle_row(vp.permutation.images, [gamma])[0]
            counts[key, e] = counts.get((key, e), 0) + 1
    return tuple((key, e, m) for (key, e), m in counts.items())


def macro_from_micro(cumulants: dict, n: int, powers: Sequence[int]):
    """Assemble k_l(Tr X^{p_1}, ..., Tr X^{p_l}) from `block_cumulants` of
    any order >= sum(powers): the sum of kappa_(V,pi) n^(#(gamma pi^-1)) over
    (V,pi) whose partition joins with the cycles of gamma to the full
    partition, one term per conjugacy class and cycle count, as kappa_(V,pi)
    is the product of c(nu) over the class key."""
    powers = tuple(powers)
    if (sum(powers),) not in cumulants:
        raise ValueError(f"pattern {powers} needs a table of order >= {sum(powers)}")
    return sum(math.prod(map(cumulants.__getitem__, key)) * (m * n ** e)
               for key, e, m in _assembly_terms(powers))


def trace_cumulant_direct(spec: rmt.EnsembleSpec, powers: Sequence[int]):
    """Classical joint cumulant of the traces (Tr X^{p_i}), straight from the
    finite spectrum mixture: for a given atom the traces are deterministic, so
    this is a cumulant of a finite discrete distribution."""
    traces = [[spec.eps ** p * spec.atom_power_sum(idx, p) for p in powers]
              for idx in range(len(spec.atoms))]

    def joint(subset):
        return sum(math.prod((t[i] for i in subset), start=prob)
                   for (_, prob), t in zip(spec.atoms, traces))

    table = MomentTable.from_function(len(powers), joint)
    return moments_to_cumulants(table).top()


def verify_trace_cumulant_identity(spec: rmt.EnsembleSpec,
                                   powers: Sequence[int]):
    """Both sides of the exact macroscopic/microscopic relation for one
    trace-cumulant pattern; exact rationals when eps is rational."""
    lhs = trace_cumulant_direct(spec, powers)
    rhs = macro_from_micro(block_cumulants(spec, sum(powers)), spec.n, powers)
    return lhs, rhs


def scaling_exponent(vp: PartitionedPermutation, gamma: Permutation) -> int:
    """|(0, gamma pi^-1)| + |(V,pi)| - |(1, gamma)|; nonnegative, and zero
    exactly when (V,pi) <= (1, gamma)."""
    g = gamma.images
    k = len(g)
    if len(vp.permutation.images) != k:
        raise ValueError("ground-set mismatch")
    top_length = gamma.length() + 2 * (gamma.num_cycles() - 1)
    step = k - _cycle_row(vp.permutation.images, [g])[0]
    return step + vp.length() - top_length


def _cycle_row(images: tuple, gammas: list) -> tuple:
    """#(gamma pi^-1) for pi = images and each gamma's images; it is also
    #(pi^-1 gamma), as the two are conjugate by pi."""
    inv = sorted(range(len(images)), key=images.__getitem__)
    return tuple(_num_cycles([g[j] for j in inv]) for g in gammas)


def hof_check(ns: Sequence[int], max_order: int = 4,
              inequality_order: int = 6) -> dict:
    """Exact verification report: the macroscopic/microscopic trace-cumulant
    identity for fixed and two-atom mixed spectra, and the exhaustive triangle
    inequality over the summand set of the assembly formula.

    >>> [(row["k"], row["summands_checked"], row["holds"])
    ...  for row in hof_check((3,), 1, 3)["triangle"]]
    [(1, 1, True), (2, 5, True), (3, 29, True)]
    """
    # an order below 1 would check nothing and still report success
    if not 1 <= max_order <= KAPPA_MAX_ORDER:
        raise ValueError(f"the identity order must lie in [1, {KAPPA_MAX_ORDER}]; "
                         f"got {max_order}")
    if not 1 <= inequality_order <= 6:
        raise ValueError(f"the inequality order must lie in [1, 6]; "
                         f"got {inequality_order}")
    if not ns:
        raise ValueError("need at least one matrix size")
    if len(set(ns)) != len(ns):
        raise ValueError(f"matrix sizes must not repeat; got {list(ns)}")
    if any(n < 1 for n in ns):
        raise ValueError("matrix sizes must be positive")
    if any(n > MAX_MATRIX_SIZE for n in ns):
        raise GuardError(f"matrix sizes are limited to n <= {MAX_MATRIX_SIZE}")
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
            # patterns in trace_patterns(max_order) order, one table for all
            cumulants = block_cumulants(spec, max_order)
            for k in range(1, max_order + 1):
                for pattern in integer_partitions(k):
                    lhs = trace_cumulant_direct(spec, pattern)
                    rhs = macro_from_micro(cumulants, n, pattern)
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
        full = (0,) * k
        gammas = [contiguous_cycles(*c).images for c in integer_partitions(k)]
        tops = [k + len(c) - 2 for c in integer_partitions(k)]  # |(1, gamma)|
        checked, holds = 0, True
        connected: dict = {}  # per V, the gammas with V v C(gamma) = 1
        for images in itertools.permutations(range(k)):
            # e = |(0, gamma pi^-1)| + |(V, pi)| - |(1, gamma)| = d + |(V, pi)|
            d = [k - c - t for c, t in zip(_cycle_row(images, gammas), tops)]
            for block_of, length in _coarsenings(images):
                if block_of not in connected:
                    connected[block_of] = [i for i, g in enumerate(gammas)
                                           if _join_cycles(block_of, g) == full]
                # V v C(pi^-1 gamma) = V v C(gamma), so (V, pi) <= (1, gamma)
                # is e == 0 on these gammas and false off them: e >= 0 is left
                checked += len(connected[block_of])
                holds &= all(d[i] + length >= 0 for i in connected[block_of])
        report["triangle"].append({"k": k, "summands_checked": checked,
                                   "holds": holds})
        report["all_passed"] &= holds
    return report
