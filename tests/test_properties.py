"""Property tests: the naive/natural conversion round trip, the conjugacy
invariant, and the tensor decompositions against the recursive oracle, over
inputs drawn by Hypothesis (derandomized, so reproducible)."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from hofree.partperm import (  # noqa: E402
    PartitionedPermutation,
    Permutation,
    SetPartition,
    conjugacy_key,
    conjugate_pp,
)
from hofree.repunitary import (  # noqa: E402
    lr_tensor_decompose,
    naive_to_natural_moments,
    natural_to_naive_moments,
    pieri_decompose,
)

from oracles import lr_tensor_oracle  # noqa: E402

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)


@settings(derandomize=True)
@given(n=st.integers(1, 9), seq=st.lists(rationals, max_size=8))
def test_conversion_round_trip(n, seq):
    assert natural_to_naive_moments(n, naive_to_natural_moments(n, seq)) == seq
    assert naive_to_natural_moments(n, natural_to_naive_moments(n, seq)) == seq


def _runs(draw, seq):
    """seq cut into consecutive nonempty runs at drawn places."""
    cuts = draw(st.lists(st.booleans(), min_size=len(seq) - 1,
                         max_size=len(seq) - 1))
    out = [[seq[0]]]
    for x, cut in zip(seq[1:], cuts):
        if cut:
            out.append([x])
        else:
            out[-1].append(x)
    return out


@st.composite
def partitioned_permutation_and_relabeling(draw):
    k = draw(st.integers(1, 9))
    # blocks are runs of a shuffled ground set, cycles are runs of a block
    blocks = _runs(draw, draw(st.permutations(range(k))))
    cycles = [c for blk in blocks for c in _runs(draw, blk)]
    a = PartitionedPermutation(SetPartition.from_blocks(k, blocks),
                               Permutation.from_cycles(k, *cycles))
    s = Permutation(tuple(draw(st.permutations(range(k)))))
    return a, s


@settings(derandomize=True)
@given(partitioned_permutation_and_relabeling())
def test_conjugacy_key_is_invariant_under_relabeling(pair):
    a, s = pair
    assert conjugacy_key(conjugate_pp(a, s)) == conjugacy_key(a)


@st.composite
def weight_pair(draw):
    """Two weakly decreasing weights of one rank n <= 4, entries -3..5."""
    n = draw(st.integers(1, 4))
    weight = st.lists(st.integers(-3, 5), min_size=n, max_size=n).map(
        lambda xs: tuple(sorted(xs, reverse=True)))
    return n, draw(weight), draw(weight)


@settings(derandomize=True, max_examples=300)
@given(weight_pair(), st.integers(0, 5))
def test_tensor_decompositions_equal_the_recursive_oracle(case, row):
    n, lam, mu = case
    assert lr_tensor_decompose(lam, mu, n) == lr_tensor_oracle(lam, mu, n)
    one_row = (row,) + (0,) * (n - 1)
    assert pieri_decompose(lam, row, n) == lr_tensor_oracle(lam, one_row, n)
