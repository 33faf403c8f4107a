"""Self-tests of the benchmark: output checker, failure detection, and the
tracer's promise to change no output and no return value.

Run from the root of a checkout: python3 -m pytest -q bench/tests
"""

import csv
import io
import json
import shutil

import pytest

from check import REFERENCE, check_outputs, output_files
from run import invoke
from tracer import Tracer

SMALL = {
    "restrict": ["restrict", "--schedule", "3", "--alpha", "2/3",
                 "--corner-sizes", "6", "--max-order", "3", "--replicas", "20"],
    "hof_check": ["hof-check", "--n", "3", "--max-order", "2",
                  "--inequality-order", "3"],
}


def small_argv(workload):
    return ["--seed", "5", "--threads", "1", "--out", "out", *SMALL[workload]]


def reference_outputs(tmp_path, workload):
    out = tmp_path / workload
    shutil.copytree(REFERENCE / workload, out)
    (out / "stdout.txt").touch(exist_ok=True)
    return out


@pytest.mark.parametrize("workload", ["restrict", "hof_check"])
def test_reference_outputs_pass(tmp_path, workload):
    assert check_outputs(workload, reference_outputs(tmp_path, workload)) == []


@pytest.mark.parametrize("workload,name", [
    ("restrict", "restrict_exact.json"), ("hof_check", "stdout.txt")])
def test_checker_flags_corrupted_exact_file(tmp_path, workload, name):
    out = reference_outputs(tmp_path, workload)
    text = (out / name).read_text()
    index = next(i for i, c in enumerate(text) if c in "123456789")
    digit = "2" if text[index] == "1" else "1"
    (out / name).write_text(text[:index] + digit + text[index + 1:])
    assert any(name in p for p in check_outputs(workload, out))


def _edit_csv(path, row, column, transform):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    fields = list(rows[0])
    rows[row][column] = transform(rows[row])
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\r\n")
    writer.writeheader()
    writer.writerows(rows)
    path.write_text(buf.getvalue())


def test_checker_flags_corrupted_exact_column(tmp_path):
    out = reference_outputs(tmp_path, "restrict")
    _edit_csv(out / "restrict.csv", 5, "branch_mean",
              lambda r: repr(float(r["branch_mean"]) * (1 + 1e-12)))
    assert any("branch_mean" in p for p in check_outputs("restrict", out))


def test_checker_flags_monte_carlo_mean_off_by_many_se(tmp_path):
    out = reference_outputs(tmp_path, "restrict")
    _edit_csv(out / "restrict.csv", 6, "corner_mc_mean",
              lambda r: repr(float(r["corner_mc_mean"])
                             + 20 * float(r["corner_mc_se"])))
    assert any("corner_mc_mean" in p for p in check_outputs("restrict", out))


def test_checker_flags_failed_hof_report(tmp_path):
    out = reference_outputs(tmp_path, "hof_check")
    report = json.loads((out / "stdout.txt").read_text())
    report["all_passed"] = False
    (out / "stdout.txt").write_text(json.dumps(report, indent=2) + "\n")
    assert "hof-check report: all_passed is not true" in check_outputs("hof_check", out)


def test_checker_flags_missing_output(tmp_path):
    out = reference_outputs(tmp_path, "restrict")
    (out / "restrict.csv").unlink()
    assert check_outputs("restrict", out) == ["missing output restrict.csv"]


@pytest.mark.parametrize("argv,code", [
    (["tensor", "--schedule", "4,2"], 2),                       # error
    (["hof-check", "--n", "2", "--max-order", "3"], 3),         # refused
    (["tensor", "--no-such-flag"], 2),                          # argparse
])
def test_nonzero_exit_is_a_failure(tmp_path, argv, code):
    rec = invoke(tmp_path, 0, "restrict", 1, trace=False, timeout=60,
                 argv=["--out", "out", *argv])
    assert rec["exit_code"] == code
    assert rec["problems"] and f"exit code {code}" in rec["problems"][0]


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_traced_outputs_are_byte_identical(tmp_path, workload):
    plain = invoke(tmp_path, 0, workload, 5, trace=False, timeout=120,
                   argv=small_argv(workload))
    traced = invoke(tmp_path, 1, workload, 5, trace=True, timeout=120,
                    argv=small_argv(workload))
    assert plain["problems"] == [] and traced["problems"] == []
    assert output_files(plain["dir"] / "out") == output_files(traced["dir"] / "out")
    summary = traced["trace_summary"]
    assert summary["spans"] > 0 and summary["covered_s"] > 0


def test_every_wrapped_function_returns_what_the_unwrapped_one_returns(tmp_path):
    called = set()
    for index, workload in enumerate(sorted(SMALL)):
        rec = invoke(tmp_path, index, workload, 5, trace=True, timeout=300,
                     argv=small_argv(workload), verify=True)
        assert rec["problems"] == []
        assert rec["trace_summary"]["mismatches"] == []
        called |= set(rec["trace_summary"]["functions"])
    # the layers the benchmark reports on were all exercised
    assert {name.split(".")[0] for name in called} == {
        "partperm", "cumulants", "freeprob", "repunitary", "rmt", "hof",
        "experiments", "cli"}


def test_verify_mode_detects_a_changed_result():
    tracer = Tracer(verify=True)
    calls = []

    def flaky(x):
        calls.append(x)
        return len(calls)          # differs between the two calls

    def gen(k):
        yield from range(k)

    assert tracer.wrap("demo.flaky", flaky)(3) == 2
    assert list(tracer.wrap("demo.gen", gen)(4)) == [0, 1, 2, 3]
    assert tracer.mismatches == ["demo.flaky"]
    assert tracer.calls["demo.gen"] == 5          # four items and the stop
    assert tracer.counts["demo.gen.items"] == 4


def test_install_wraps_every_binding_and_uninstall_restores_them():
    from hofree import cli, experiments, hof, partperm

    originals = (partperm.leq_pp, experiments.leq_pp, hof.leq_pp,
                 cli._COMMANDS["tensor"])
    tracer = Tracer()
    tracer.install()
    try:
        assert partperm.leq_pp is experiments.leq_pp is hof.leq_pp
        assert partperm.leq_pp is not originals[0]
        assert partperm.leq_pp.__wrapped__ is originals[0]
        assert cli._COMMANDS["tensor"] is cli.cmd_tensor is not originals[3]
        assert cli.main.__name__ == "main" and not hasattr(cli.main, "__wrapped__")
    finally:
        tracer.uninstall()
    assert (partperm.leq_pp, experiments.leq_pp, hof.leq_pp,
            cli._COMMANDS["tensor"]) == originals


def test_spans_record_parents_and_self_time(tmp_path):
    from tracer import read_spans

    tracer = Tracer()

    def inner():
        return sum(range(20000))

    traced_inner = tracer.wrap("demo.inner", inner)
    outer = tracer.wrap("demo.outer", lambda: traced_inner() + traced_inner())
    assert outer() == 2 * inner()
    tracer.write_spans(tmp_path / "spans.bin")
    names, spans = read_spans(tmp_path / "spans.bin")
    assert [s[0] for s in spans] == ["demo.inner", "demo.inner", "demo.outer"]
    outer_id = spans[2][2]
    assert spans[2][1] == -1 and spans[0][1] == spans[1][1] == outer_id
    children = sum(end - start for _, _, _, start, end in spans[:2])
    outer_dur = spans[2][4] - spans[2][3]
    assert abs(tracer.self_s["demo.outer"] - (outer_dur - children)) < 1e-9
    assert tracer.total_s["demo.outer"] == outer_dur
    assert tracer.covered_s == outer_dur     # a root span outside any command
