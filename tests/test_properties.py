"""Property tests: the naive/natural conversion round trip, the conjugacy
invariant, the tuple-level partial order and scaling exponent against their
object-built definitions, the tensor decompositions against the
recursive oracle, the shifted-Schur tensor and restriction statistics
against their enumerations, the trace-cumulant assembly from block
cumulants against the direct cumulant, and the config-file, `--alpha`, `tensor`,
`restrict` and `hof-check` boundaries, over inputs drawn by Hypothesis
(derandomized, so reproducible)."""

import contextlib
import io
import json
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import (  # noqa: E402
    HealthCheck, example, given, settings, strategies as st)

from hofree import cli  # noqa: E402
from hofree.experiments import ExperimentConfig  # noqa: E402
from hofree.hof import (  # noqa: E402
    block_cumulants,
    macro_from_micro,
    scaling_exponent,
    trace_cumulant_direct,
)
from hofree.partperm import (  # noqa: E402
    PartitionedPermutation,
    Permutation,
    SetPartition,
    conjugacy_key,
    conjugate_pp,
    leq_pp,
    product_pp,
)
from hofree.repunitary import (  # noqa: E402
    ShiftedWeight,
    lr_tensor_decompose,
    naive_to_natural_moments,
    natural_to_naive_moments,
    pieri_component_count,
    pieri_stats,
    restriction_mean_moments,
)
from hofree.rmt import EnsembleSpec  # noqa: E402

from oracles import (  # noqa: E402
    compositions,
    enumerated_restriction_means,
    lr_tensor_oracle,
    pieri_decompose,
    pushforward_stats,
)

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


def _partitioned_permutation(draw, k):
    # blocks are runs of a shuffled ground set, cycles are runs of a block
    blocks = _runs(draw, draw(st.permutations(range(k))))
    cycles = [c for blk in blocks for c in _runs(draw, blk)]
    return PartitionedPermutation(SetPartition.from_blocks(k, blocks),
                                  Permutation.from_cycles(k, *cycles))


@st.composite
def partitioned_permutation_and_relabeling(draw):
    k = draw(st.integers(1, 9))
    a = _partitioned_permutation(draw, k)
    s = Permutation(tuple(draw(st.permutations(range(k)))))
    return a, s


@settings(derandomize=True)
@given(partitioned_permutation_and_relabeling())
def test_conjugacy_key_is_invariant_under_relabeling(pair):
    a, s = pair
    assert conjugacy_key(conjugate_pp(a, s)) == conjugacy_key(a)


@st.composite
def partitioned_permutation_pair(draw):
    """(a, b) at k = 5..7.  b is a * (0, tau), for tau a product of drawn
    transpositions, when that partial product exists and a drawn coin keeps
    it, and an independent draw otherwise, so that both answers of leq_pp
    occur."""
    k = draw(st.integers(5, 7))
    a = _partitioned_permutation(draw, k)
    tau = Permutation.identity(k)
    for i, j in draw(st.lists(st.tuples(st.integers(0, k - 1),
                                        st.integers(0, k - 1)),
                              min_size=1, max_size=3)):
        if i != j:
            tau = tau * Permutation.from_cycles(k, (i, j))
    b = product_pp(a, PartitionedPermutation.minimal(tau))
    if b is None or draw(st.booleans()):
        b = _partitioned_permutation(draw, k)
    return a, b


@settings(derandomize=True, max_examples=200)
@given(partitioned_permutation_pair())
def test_leq_pp_is_the_partial_product_test_at_larger_k(pair):
    a, b = pair
    step = PartitionedPermutation.minimal(
        a.permutation.inverse() * b.permutation)
    assert leq_pp(a, b) == (product_pp(a, step) == b)


@settings(derandomize=True, max_examples=200)
@given(partitioned_permutation_pair())
def test_scaling_exponent_is_the_permutation_built_formula(pair):
    vp, other = pair
    gamma = other.permutation
    k = vp.size
    top = PartitionedPermutation(SetPartition.full(k), gamma).length()
    expected = (gamma * vp.permutation.inverse()).length() + vp.length() - top
    assert scaling_exponent(vp, gamma) == expected


def _weight(n, lo, hi):
    """A weakly decreasing weight of rank n, entries lo..hi."""
    return st.lists(st.integers(lo, hi), min_size=n, max_size=n).map(
        lambda xs: tuple(sorted(xs, reverse=True)))


@st.composite
def weight_pair(draw):
    """Two weakly decreasing weights of one rank n <= 4, entries -3..5."""
    n = draw(st.integers(1, 4))
    weight = _weight(n, -3, 5)
    return n, draw(weight), draw(weight)


@settings(derandomize=True, max_examples=300)
@given(weight_pair(), st.integers(0, 5))
def test_tensor_decompositions_equal_the_recursive_oracle(case, row):
    n, lam, mu = case
    assert lr_tensor_decompose(lam, mu, n) == lr_tensor_oracle(lam, mu, n)
    one_row = (row,) + (0,) * (n - 1)
    assert pieri_decompose(lam, row, n) == lr_tensor_oracle(lam, one_row, n)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: _weight(n, -5, 8)),
       st.integers(0, 12), st.lists(st.integers(1, 4), min_size=1, max_size=4))
def test_pieri_stats_equal_the_enumeration(lam, row, orders):
    n = len(lam)
    d = pieri_decompose(lam, row, n)
    assert pieri_stats(lam, row, n, orders) == pushforward_stats(d, orders)
    assert pieri_component_count(lam, row, n) == len(d)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.integers(2, 5).flatmap(lambda n: _weight(n, -3, 5)),
       st.lists(st.integers(0, 6), max_size=4))
def test_restriction_mean_moments_equal_the_support_enumeration(lam, orders):
    l = ShiftedWeight.from_highest_weight(lam)
    for m in range(1, len(lam)):
        assert restriction_mean_moments(l, m, orders) == \
            enumerated_restriction_means(l, m, orders)


numbers = (st.integers() | st.floats()
           | st.sampled_from([10 ** 30, 10 ** 400, -(10 ** 400)]))
json_values = st.recursive(
    st.none() | st.booleans() | numbers | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4), max_leaves=8)
# per key, a value of the kind the schema asks for (rational strings such as
# "1/0" among them) or any JSON value, so that whole objects often pass it
_kinds = {"schedule": st.lists(st.integers(), max_size=4),
          "corner_sizes": st.lists(st.integers(), max_size=4),
          "alpha": numbers | st.builds("{}/{}".format, st.integers(-9, 9),
                                       st.integers(0, 9)),
          "replicas": st.integers(), "max_order": st.integers(),
          "seed": st.integers()}
config_objects = st.fixed_dictionaries({}, optional={
    key: _kinds.get(key, numbers) | json_values for key in cli._CONFIG_SCHEMA})


# st.text builds Hypothesis's unicode charmap on first use (about 2 s) when
# no .hypothesis/ directory holds it yet, which the health check counts as
# slow input generation
@settings(derandomize=True, max_examples=300,
          suppress_health_check=[HealthCheck.too_slow])
@given(config_objects)
def test_any_config_object_is_a_config_or_a_value_error(raw):
    # the CLI turns a ValueError into exit 2 with an error line; anything
    # else would end in a traceback
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        for command in ("tensor", "restrict"):
            args = cli.build_parser().parse_args(
                ["--config", str(path), command])
            try:
                config = cli._load_config(args)
            except ValueError:
                continue
            assert isinstance(config, ExperimentConfig)


_sign = st.sampled_from(["", "-", "+"])
_digits = st.integers(0, 10 ** 6).map(str)
_decimal = st.builds("{}{}.{}".format, _sign, _digits, _digits)
alpha_texts = (
    _decimal
    | st.builds("{}{}/{}".format, _sign, _digits, st.integers(1, 10 ** 6))
    | st.builds("{}e{}".format, _decimal | _digits.map("{}".format),
                st.integers(-10 ** 6, 10 ** 6)))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(alpha_texts)
@example("1/2")
@example("5e-1")
def test_any_alpha_text_exits_with_a_documented_code(text):
    # on a run this small only alpha = 1/2 or 1 passes; every other value
    # is refused with exit 2 and an error line that names alpha, however
    # many digits it has
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(["--out", tmp, "restrict", "--schedule", "2",
                         "--corner-sizes", "2", "--max-order", "1",
                         "--replicas", "2", f"--alpha={text}"])
    assert code in (0, 2, 3), text
    assert code == 0 or err.getvalue().startswith("error: alpha"), text


# sizes from 9 up to `hof.MAX_MATRIX_SIZE` are valid but take up to seconds
# each, so the drawn sizes are either small or far beyond that limit
_size = st.integers(-1, 8) | st.integers(2 ** 40, 10 ** 30)
_order = st.integers(0, 7) | st.integers(-10 ** 30, 10 ** 30)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.lists(_size, min_size=1, max_size=2).map(
           lambda sizes: ",".join(map(str, sizes))),
       _order.map(str), _order.map(str))
@example("99999999999", "1", "1")
@example("4,5", "4", "6")
def test_any_hof_check_text_exits_with_a_documented_code(
        sizes, max_order, inequality_order):
    # a size, order or list that cannot be checked is refused at the
    # boundary with exit 2 or 3 and one error line, never a traceback
    argv = ["hof-check", f"--n={sizes}", f"--max-order={max_order}",
            f"--inequality-order={inequality_order}"]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(argv)
    assert code in (0, 2, 3), argv
    assert code == 0 or err.getvalue().startswith(("error:", "refused:")), argv


_amplitude = st.none() | st.sampled_from(
    ["-5", "-1e-9", "0", "1e300", "1e308"]) | st.floats(0, 8).map(str)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.sampled_from(["tensor", "restrict"]),
       st.sets(st.integers(1, 4), min_size=1, max_size=2).map(sorted),
       st.lists(st.sampled_from([2, 4, 8]), min_size=1, max_size=3),
       _amplitude, _amplitude, st.sampled_from(["1/2", "1"]),
       st.sampled_from(["1.5", "250"]))
@example("tensor", [2], [2], "1e308", None, "1", "1.5")
@example("restrict", [4], [8, 8], None, None, "1/2", "1.5")
def test_any_experiment_text_exits_with_a_documented_code(
        command, schedule, corner_sizes, amplitude, row_amplitude, alpha,
        eps_exponent):
    # tiny runs of tensor and restrict: every amplitude, size list, eps
    # exponent and overflow ends in exit 0, or in exit 2 or 3 with one error
    # line and no numpy warning; amplitudes the profiles would round and
    # repeated corner sizes are refused
    argv = ["--out", "", command, "--schedule", ",".join(map(str, schedule)),
            "--replicas", "2", "--max-order", "1",
            f"--eps-exponent={eps_exponent}"]
    if amplitude is not None:
        argv.append(f"--amplitude={amplitude}")
    if command == "tensor" and row_amplitude is not None:
        argv.append(f"--row-amplitude={row_amplitude}")
    if command == "restrict":
        argv += ["--corner-sizes", ",".join(map(str, corner_sizes)),
                 "--alpha", alpha]
    with tempfile.TemporaryDirectory() as tmp, \
            warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        warnings.simplefilter("always")
        argv[1] = tmp
        code = cli.main(argv)
    assert code in (0, 2, 3), argv
    assert not caught, (argv, [str(w.message) for w in caught])
    lines = err.getvalue().splitlines()
    assert code == 0 or (len(lines) == 1 and lines[0].startswith(
        ("error:", "refused:"))), (argv, lines)
    if (float(amplitude or 0) < 0
            or command == "tensor" and float(row_amplitude or 1) <= 0
            or command == "restrict" and len(set(corner_sizes)) < len(corner_sizes)):
        assert code == 2, argv


_rational_text = st.sampled_from(
    ["0", "1", "-3", "1/2", "-2/7", "1e200", "1e400", "-1e400", "1e-400"]
) | rationals.map(str)


def _flag_list(elements, min_size=1):
    return st.lists(elements, min_size=min_size, max_size=4).map(
        lambda xs: ",".join(map(str, xs)))


_spectral_argv = st.builds(
    lambda l, eps, order: ["spectral", f"--l={l}", f"--eps={eps}",
                           f"--order={order}"],
    _flag_list(st.integers(-3, 8) | st.just(10 ** 120)), _rational_text,
    st.integers(-1, 6))
_simulate_argv = st.builds(
    lambda spectrum, eps, powers, replicas: [
        "simulate", f"--spectrum={spectrum}", f"--eps={eps}",
        f"--powers={powers}", f"--replicas={replicas}"],
    _flag_list(_rational_text), _rational_text,
    _flag_list(st.integers(-1, 4), min_size=1), st.integers(0, 6))
_freeconv_argv = st.builds(
    lambda a, b, compress: ["freeconv", f"--a={a}"]
    + ([] if b is None else [f"--b={b}"])
    + ([] if compress is None else [f"--compress={compress}"]),
    _flag_list(_rational_text), st.none() | _flag_list(_rational_text),
    st.none() | _rational_text)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_spectral_argv | _simulate_argv | _freeconv_argv)
@example(["spectral", "--l=5", "--eps=1e400"])
@example(["simulate", "--spectrum=1e200,0", "--powers=1", "--replicas=4"])
def test_any_spectral_simulate_or_freeconv_text_exits_with_a_documented_code(
        argv):
    # every parsed flag text ends in exit 0, or in exit 2 or 3 with exactly
    # one error line and no warning: exact values too large for a float,
    # and summaries that overflow one, are refused
    with tempfile.TemporaryDirectory() as tmp, \
            warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        warnings.simplefilter("always")
        code = cli.main(["--out", tmp, *argv])
        written = sorted(p.name for p in Path(tmp).iterdir())
    assert code in (0, 2, 3), argv
    assert not caught, (argv, [str(w.message) for w in caught])
    assert code == 0 or not written, (argv, written)
    lines = err.getvalue().splitlines()
    assert code == 0 or (len(lines) == 1 and lines[0].startswith(
        ("error:", "refused:"))), (argv, lines)


@st.composite
def rational_spectra(draw):
    """A fixed or two-atom spectrum of n = 4..7 rational eigenvalues and a
    rational eps."""
    n = draw(st.integers(4, 7))
    atom = st.lists(rationals, min_size=n, max_size=n)
    eps = draw(st.fractions(min_value=Fraction(1, 9), max_value=3,
                            max_denominator=9))
    if draw(st.booleans()):
        return EnsembleSpec.fixed(draw(atom), eps=eps)
    p = draw(st.fractions(min_value=0, max_value=1, max_denominator=9))
    return EnsembleSpec.mixture([(draw(atom), p), (draw(atom), 1 - p)], eps=eps)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(rational_spectra())
def test_assembly_from_block_cumulants_of_any_sufficient_order(spec):
    # one table of the top order serves every pattern, as does a table of
    # the pattern's own order; a table of lower order is refused
    tables = {k: block_cumulants(spec, k) for k in range(1, 5)}
    tables[0] = {}
    for k in range(1, 5):
        for powers in compositions(k):
            direct = trace_cumulant_direct(spec, powers)
            assert macro_from_micro(tables[4], spec.n, powers) == direct, powers
            assert macro_from_micro(tables[k], spec.n, powers) == direct, powers
            with pytest.raises(ValueError, match="needs a table of order"):
                macro_from_micro(tables[k - 1], spec.n, powers)
