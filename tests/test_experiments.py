from fractions import Fraction

import pytest

from hofree import hof, rmt
from hofree.hof import hof_check
from hofree.experiments import (
    ExperimentConfig,
    bulk_profile,
    restriction_experiment,
    row_profile,
    tensor_experiment,
    trace_patterns,
)
from hofree.partperm import (
    PartitionedPermutation,
    SetPartition,
    contiguous_cycles,
    integer_partitions,
    leq_pp,
    partitioned_permutations,
)
from hofree.repunitary import ShiftedWeight, restriction_mean_moments

from oracles import branch_chain


def test_profiles_scale_like_n_to_three_halves():
    for n in (2, 4, 8):
        lam = bulk_profile(n)
        assert len(lam) == n
        assert lam[-1] == 0
        assert all(a >= b for a, b in zip(lam, lam[1:]))
        assert abs(lam[0] - 2.0 * n ** 0.5 * (n - 1)) <= 0.5
        assert row_profile(n) >= 1


def test_config_validation():
    with pytest.raises(ValueError, match="o\\(1/n\\)"):
        ExperimentConfig(eps_exponent=1.0)
    with pytest.raises(ValueError):
        ExperimentConfig(schedule=(4, 4))
    with pytest.raises(ValueError):
        ExperimentConfig(alpha=Fraction(3, 2))
    for bad in ({"schedule": (0, 2)}, {"schedule": (-2, 2)},
                {"corner_sizes": (0, 8)}, {"corner_sizes": (-8,)}):
        with pytest.raises(ValueError, match="at least 1"):
            ExperimentConfig(**bad)
    for order in (0, -1):
        with pytest.raises(ValueError, match="max order must be at least 1"):
            ExperimentConfig(max_order=order)
    for key in ("eps_exponent", "amplitude", "row_amplitude"):
        for bad in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(ValueError, match="must be finite"):
                ExperimentConfig(**{key: bad})
    # eps_n^(2 max_order) below the smallest normal float: 4 * 256 * ln 2
    # is about 710, so a = 256 is refused at n = 2 and a = 255 is not; only
    # the sizes a command runs are checked, which it passes to check_eps
    for a, sizes in ((1e30, (2, 4, 6, 8, 256)), (256, (2,)),
                     (2.0, (2, 10 ** 400))):
        config = ExperimentConfig(eps_exponent=a, max_order=2)
        with pytest.raises(ValueError, match="eps exponent .* is too large"):
            config.check_eps(sizes)
    ExperimentConfig(eps_exponent=255, max_order=2).check_eps((2,))
    for seed in (-1, 2 ** 64, 2 ** 64 + 1):
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\^64\)"):
            ExperimentConfig(seed=seed)
    assert ExperimentConfig(seed=2 ** 64 - 1).seed == 2 ** 64 - 1
    config = ExperimentConfig(schedule=(2, 4))
    assert config.eps(4) == 4 ** -1.5


def test_restriction_means_match_branch_chain():
    # streaming aggregation against the materialized distribution
    for lam, m in (((4, 2, 0), 2), ((6, 3, 1, 0), 2), ((5, 2, -1), 1)):
        l = ShiftedWeight.from_highest_weight(lam)
        means = restriction_mean_moments(l, m, (1, 2, 3))
        dist = branch_chain(l, m)
        for i, k in enumerate((1, 2, 3)):
            direct = sum(p * Fraction(w.power_sum(k), m) for w, p in dist)
            assert means[i] == direct


def test_tensor_experiment_rows():
    config = ExperimentConfig(schedule=(2, 4), replicas=150, max_order=2,
                              seed=11)
    rows = tensor_experiment(config)
    assert len(rows) == 4
    for row in rows:
        assert row["rep_mean_exact"] > 0
        assert row["rel_gap"] < 1
        assert row["mc_se"] >= 0
    # first moment of the component distribution is deterministic
    k1 = [r for r in rows if r["k"] == 1]
    assert all(r["rep_var_exact"] == 0 for r in k1)


def test_restriction_experiment_rows_and_corner_notes():
    config = ExperimentConfig(schedule=(4,), corner_sizes=(12,),
                              replicas=150, max_order=2, seed=7)
    rows = restriction_experiment(config)
    scheduled = [r for r in rows if r["n"] == 4]
    corner_only = [r for r in rows if r["n"] == 12]
    assert len(scheduled) == 2 and len(corner_only) == 2
    assert all(r["note"] == "" for r in scheduled)
    assert all(r["branch_mean_exact"] is None for r in corner_only)
    assert all("skipped" in r["note"] for r in corner_only)


def test_hof_check_report_structure():
    report = hof_check((3,), max_order=2, inequality_order=3)
    assert report["all_passed"]
    patterns = {tuple(item["pattern"]) for item in report["identity"]}
    assert (1, 1) in patterns and (2,) in patterns
    assert [item["k"] for item in report["triangle"]] == [1, 2, 3]
    with pytest.raises(ValueError):
        hof_check((3,), max_order=5)
    with pytest.raises(ValueError):
        hof_check((3,), inequality_order=7)
    with pytest.raises(ValueError, match="must not repeat"):
        hof_check((3, 4, 3), max_order=2, inequality_order=2)
    # a size below 1 used to raise ZeroDivisionError (eps = 1/0) here
    for ns in ((0,), (3, -1)):
        with pytest.raises(ValueError, match="matrix sizes must be positive"):
            hof_check(ns, max_order=2, inequality_order=2)
    # no size would check no identity and still report success
    with pytest.raises(ValueError, match="at least one matrix size"):
        hof_check((), max_order=2, inequality_order=2)


def test_hof_check_equals_the_per_pattern_report():
    # the report built the old way: one kappa table per pattern, and the
    # enumeration of partitioned permutations repeated for every cycle type,
    # with leq_pp and scaling_exponent called on every (V, pi, gamma); the
    # inequality order is the benchmark workload's, 6
    ns, max_order, inequality_order = (3, 4), 3, 6
    expected = {"identity": [], "triangle": [], "all_passed": True}
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
            for pattern in trace_patterns(max_order):
                lhs, rhs = hof.verify_trace_cumulant_identity(spec, pattern)
                expected["all_passed"] &= lhs == rhs
                expected["identity"].append({
                    "n": n, "spectrum": label, "pattern": list(pattern),
                    "lhs": f"{lhs.numerator}/{lhs.denominator}",
                    "rhs": f"{rhs.numerator}/{rhs.denominator}",
                    "equal": lhs == rhs,
                })
    for k in range(1, inequality_order + 1):
        checked, holds = 0, True
        full = SetPartition.full(k)
        for ctype in integer_partitions(k):
            gamma = contiguous_cycles(*ctype)
            top = PartitionedPermutation(full, gamma)
            for vp in partitioned_permutations(k):
                below = leq_pp(vp, top)
                if vp.partition.join(gamma.cycle_partition()) != full:
                    holds &= not below
                    continue
                checked += 1
                e = hof.scaling_exponent(vp, gamma)
                holds &= (e >= 0) and ((e == 0) == below)
        expected["triangle"].append({"k": k, "summands_checked": checked,
                                     "holds": holds})
        expected["all_passed"] &= holds
    assert hof_check(ns, max_order, inequality_order) == expected


def test_trace_patterns():
    assert trace_patterns(2) == [(1,), (2,), (1, 1)]
    assert set(trace_patterns(3)) == {(1,), (2,), (1, 1), (3,), (2, 1),
                                      (1, 1, 1)}
