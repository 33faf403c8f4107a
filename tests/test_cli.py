import csv
import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from hofree import rmt
from hofree.cli import main
from hofree.experiments import RESTRICTION_AMPLITUDE, TENSOR_BULK_AMPLITUDE
from hofree.hof import MAX_MATRIX_SIZE

HOF_CHECK_REFERENCE = (Path(__file__).resolve().parents[1] / "bench"
                       / "reference" / "hof_check" / "stdout.txt")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_spectral_output(capsys):
    code, out, _ = run_cli(capsys, "spectral", "--l", "2,0")
    assert code == 0
    payload = json.loads(out)
    assert payload["gamma"] == ["1/4", "3/4"]
    assert payload["naive_moments"][0] == "1/1"
    assert payload["natural_moments"][:2] == ["1/2", "1/1"]


def test_spectral_single_atom_and_validation(capsys):
    code, out, _ = run_cli(capsys, "spectral", "--l", "5")
    assert code == 0
    assert json.loads(out)["gamma"] == ["1/1"]
    code, _, err = run_cli(capsys, "spectral", "--l", "0,1")
    assert code == 2
    assert "strictly decreasing" in err


def test_spectral_trivial_rep_is_point_mass(capsys):
    code, out, _ = run_cli(capsys, "spectral", "--l", "1,0")
    assert code == 0
    payload = json.loads(out)
    assert payload["gamma"] == ["0/1", "1/1"]
    assert payload["natural_moments"] == ["0/1"] * 4


def test_freeconv_convolution_and_compression(capsys):
    code, out, _ = run_cli(capsys, "freeconv", "--a", "0,1,0,1",
                           "--b", "0,1,0,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["convolution_moments"] == ["0/1", "2/1", "0/1", "6/1"]

    code, out, _ = run_cli(capsys, "freeconv", "--a", "0,1,0,2,0,5",
                           "--compress", "1/2")
    payload = json.loads(out)
    assert payload["compression_moments"][:4] == ["0/1", "1/2", "0/1", "1/2"]


def test_freeconv_has_no_order_cap(capsys):
    # semicircle moments to order 14: the free cumulants are (0, 1, 0, ...)
    catalan = [1, 2, 5, 14, 42, 132, 429]
    moments = ",".join(f"0,{c}" for c in catalan)
    code, out, _ = run_cli(capsys, "freeconv", "--a", moments)
    assert code == 0
    kappa = json.loads(out)["a_free_cumulants"]
    assert kappa == ["0/1", "1/1"] + ["0/1"] * 12


def test_hof_check_passes_and_guards(capsys):
    code, out, _ = run_cli(capsys, "hof-check", "--n", "3", "--max-order", "3",
                           "--inequality-order", "4")
    assert code == 0
    report = json.loads(out)
    assert report["all_passed"] is True
    assert all(item["equal"] for item in report["identity"])
    assert all(item["holds"] for item in report["triangle"])

    # requesting an order above the matrix size must refuse (singular Gram)
    code, _, err = run_cli(capsys, "hof-check", "--n", "3", "--max-order", "4",
                           "--inequality-order", "1")
    assert code == 3
    assert "refused" in err

    # orders below 1 would check nothing and still report success
    for max_order, inequality_order in (("0", "3"), ("3", "0"),
                                        ("-2", "3"), ("3", "-1")):
        code, out, err = run_cli(capsys, "hof-check", "--n", "3",
                                 "--max-order", max_order,
                                 "--inequality-order", inequality_order)
        assert code == 2
        assert out == ""
        assert "must lie in" in err

    # a repeated size used to print each of its rows twice
    code, out, err = run_cli(capsys, "hof-check", "--n", "4,4",
                             "--max-order", "2", "--inequality-order", "2")
    assert code == 2
    assert out == ""
    assert "must not repeat" in err

    # a size below 1 used to reach eps = 1/0 inside the library
    for n in ("0", "-1", "3,0"):
        code, out, err = run_cli(capsys, "hof-check", "--n", n,
                                 "--max-order", "2", "--inequality-order", "2")
        assert code == 2
        assert out == ""
        assert err == "error: matrix sizes must be positive\n"


def test_hof_check_refuses_a_size_beyond_the_limit(capsys):
    # a huge size used to build its n-atom spectrum and die in a MemoryError
    for n in ("99999999999", f"3,{MAX_MATRIX_SIZE + 1}"):
        code, out, err = run_cli(capsys, "hof-check", "--n", n, "--max-order",
                                 "1", "--inequality-order", "1")
        assert code == 3
        assert out == ""
        assert err == ("refused: matrix sizes are limited to "
                       f"n <= {MAX_MATRIX_SIZE}\n")


def test_simulate_deterministic_and_formats(tmp_path, capsys):
    # the files do not depend on the thread count
    for out, threads in (("a", 1), ("b", min(2, os.cpu_count() or 1))):
        assert main(["--seed", "9", "--threads", str(threads), "--out",
                     str(tmp_path / out), "simulate", "--spectrum", "1,0,-1",
                     "--powers", "1,2", "--replicas", "64"]) == 0
        capsys.readouterr()
    for name in ("traces.csv", "summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()

    with open(tmp_path / "a" / "traces.csv", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "eps", "seed", "spec"]
    assert rows[2] == ["replica", "p", "value"]
    assert len(rows) == 3 + 64 * 2

    summary = json.loads((tmp_path / "a" / "summary.json").read_text())
    # fixed spectrum: every trace is the spectrum's, with no round-off
    m2 = next(c for c in summary["cumulants"] if c["p"] == 2)
    assert abs(m2["mean"] - 2 / 3) < 1e-12
    assert m2["variance"] == 0.0


def test_simulate_draws_each_replica_once_and_has_no_svg(tmp_path, capsys,
                                                        monkeypatch):
    # --svg is gone: argparse refuses it (exit 2) before anything is written
    assert main(["--out", str(tmp_path / "svg"), "simulate", "--spectrum",
                 "1,0,-1", "--replicas", "10", "--svg"]) == 2
    assert not (tmp_path / "svg").exists()
    capsys.readouterr()
    replica_rng = rmt.replica_rng
    streams = Counter()

    def counted(seed, replica):
        streams[seed, replica] += 1
        return replica_rng(seed, replica)

    monkeypatch.setattr(rmt, "replica_rng", counted)
    assert main(["--out", str(tmp_path / "a"), "simulate", "--spectrum",
                 "1,0,-1", "--replicas", "40"]) == 0
    capsys.readouterr()
    assert streams == Counter({(1, r): 1 for r in range(40)})
    assert sorted(p.name for p in (tmp_path / "a").iterdir()) == \
        ["summary.json", "traces.csv"]


@pytest.mark.parametrize("argv", [
    ["hof-check", "--n", "abc"],
    ["hof-check", "--n", "-3,4"],
    [],
    ["spectral"],
])
def test_malformed_argv_returns_two_and_writes_nothing(tmp_path, capsys, argv):
    # argparse's refusal is returned as an exit code, not raised
    out_dir = tmp_path / "out"
    assert main(["--out", str(out_dir), *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage:" in captured.err
    assert not out_dir.exists()


def test_help_returns_zero(capsys):
    assert main(["--help"]) == 0
    assert "usage:" in capsys.readouterr().out


def test_tensor_command_small(tmp_path, capsys):
    args = ["--seed", "3", "--out", str(tmp_path), "tensor",
            "--schedule", "2,4", "--max-order", "2", "--replicas", "200"]
    assert main(args) == 0
    capsys.readouterr()
    with open(tmp_path / "tensor.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["n"] for r in rows} == {"2", "4"}
    for r in rows:
        gap = float(r["rel_gap"])
        assert 0 <= gap < 1
        assert abs(float(r["mc_mean"]) - float(r["free_target"])) <= \
            6 * float(r["mc_se"]) + 1e-9
    exact = json.loads((tmp_path / "tensor_exact.json").read_text())
    assert all("/" in row["rep_mean"] for row in exact["rows"])


# tensor --schedule 2,4,6 --max-order 4 --replicas 50 (seed 1):
# (n, k, rep_mean, rep_var, free_target) of tensor_exact.json, whose bytes
# hash to TENSOR_EXACT_SHA256
TENSOR_EXACT_ROWS = [
    (2, 1, "4/1", "0/1", "9/2"),
    (2, 2, "26/1", "30/1", "61/2"),
    (2, 3, "184/1", "4320/1", "459/2"),
    (2, 4, "1346/1", "397254/1", "3621/2"),
    (4, 1, "57/4", "0/1", "63/4"),
    (4, 2, "1565/4", "2511/2", "875/2"),
    (4, 3, "52857/4", "26395632/5", "30267/2"),
    (4, 4, "1912829/4", "139104857601/10", "18124921/32"),
    (6, 1, "25/1", "0/1", "55/2"),
    (6, 2, "11635/9", "510875/81", "25685/18"),
    (6, 3, "179745/2", "485392555/4", "300880/3"),
    (6, 4, "62155781/9", "118780733883125/81", "638214958/81"),
]
TENSOR_EXACT_SHA256 = \
    "606033aba4ea0b4dd269c1ce072aee22f97125ff9c9d88061a94171120f89c29"


def test_tensor_exact_output_frozen(tmp_path, capsys):
    args = ["--out", str(tmp_path), "tensor", "--schedule", "2,4,6",
            "--max-order", "4", "--replicas", "50"]
    assert main(args) == 0
    capsys.readouterr()
    raw = (tmp_path / "tensor_exact.json").read_bytes()
    payload = json.loads(raw)
    assert payload["eps_exponent"] == 1.5
    assert [tuple(row.values()) for row in payload["rows"]] == \
        TENSOR_EXACT_ROWS
    assert hashlib.sha256(raw).hexdigest() == TENSOR_EXACT_SHA256


def test_restrict_command_small(tmp_path, capsys):
    args = ["--seed", "3", "--out", str(tmp_path), "restrict",
            "--schedule", "4", "--max-order", "2", "--replicas", "200",
            "--corner-sizes", "16"]
    assert main(args) == 0
    capsys.readouterr()
    with open(tmp_path / "restrict.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    branch_rows = [r for r in rows if r["n"] == "4"]
    corner_rows = [r for r in rows if r["n"] == "16"]
    assert branch_rows and corner_rows
    for r in corner_rows:
        assert r["branch_mean"] == ""
        assert "skipped" in r["note"]


def test_invalid_eps_exponent_rejected(tmp_path, capsys):
    args = ["--out", str(tmp_path), "tensor", "--schedule", "2,4",
            "--eps-exponent", "1.0", "--replicas", "16"]
    code = main(args)
    err = capsys.readouterr().err
    assert code == 2
    assert "o(1/n)" in err


def test_hof_check_matches_the_benchmark_reference(capsys):
    # the benchmark workload's arguments; the report must not drift from
    # the committed reference by a single byte
    code, out, err = run_cli(capsys, "--seed", "1", "hof-check",
                             "--n", "4,5,6,7,8", "--max-order", "4",
                             "--inequality-order", "6")
    assert code == 0 and err == ""
    assert out.encode("utf-8") == HOF_CHECK_REFERENCE.read_bytes()


def test_sizes_powers_and_orders_below_one_refused(tmp_path, capsys):
    # refused at the boundary: exit 2, no traceback, nothing written
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"max_order": 0}))
    no_schedule = tmp_path / "no_schedule.json"
    no_schedule.write_text(json.dumps({"schedule": []}))
    no_sizes = tmp_path / "no_sizes.json"
    no_sizes.write_text(json.dumps({"schedule": [], "corner_sizes": []}))
    infinite = tmp_path / "infinite.json"
    infinite.write_text('{"amplitude": 1e999}')      # parses to inf
    negative_seed = tmp_path / "negative_seed.json"
    negative_seed.write_text(json.dumps({"seed": -1}))
    no_alpha = tmp_path / "no_alpha.json"
    no_alpha.write_text(json.dumps({"alpha": "1/0"}))
    tiny_alpha = tmp_path / "tiny_alpha.json"
    tiny_alpha.write_text(json.dumps({"alpha": "1e-1000000"}))
    out = tmp_path / "out"
    for command, message in (
            (["--config", str(no_schedule), "tensor"], "schedule is empty"),
            (["--config", str(no_sizes), "restrict"], "both empty"),
            # tr X^2 overflows: no inf traces or NaN cumulants are written
            (["simulate", "--spectrum", "1e200,0,-1", "--powers", "1,2",
              "--replicas", "5"], "tr X^2 of replica 0 is not finite"),
            (["tensor", "--schedule", "0,2", "--replicas", "10"], "at least 1"),
            (["tensor", "--schedule=-2,2", "--replicas", "10"], "at least 1"),
            (["tensor", "--schedule", "2", "--max-order", "0"], "max order"),
            (["--config", str(path), "tensor", "--schedule", "2"], "max order"),
            (["restrict", "--schedule", "4", "--max-order", "0"], "max order"),
            (["restrict", "--schedule", "4", "--corner-sizes", "0"],
             "at least 1"),
            (["simulate", "--spectrum", "1,0,-1", "--powers", "-1",
              "--replicas", "10"], "powers must be at least 1"),
            (["simulate", "--spectrum", "1,0,-1", "--powers", "1,0",
              "--replicas", "10"], "powers must be at least 1"),
            # a repeated power used to write each of its rows twice
            (["simulate", "--spectrum", "1,0,-1", "--powers", "2,2",
              "--replicas", "10"], "trace powers must not repeat"),
            (["spectral", "--l", "2,0", "--order", "-2"], "--order must be"),
            (["spectral", "--l", "2,0", "--order", "0"], "--order must be"),
            # non-finite or overflowing inputs: no OverflowError, no scaled
            # columns of 0.0
            (["restrict", "--amplitude", "inf"], "must be finite"),
            (["tensor", "--amplitude", "inf"], "must be finite"),
            (["tensor", "--row-amplitude", "inf"], "must be finite"),
            (["--config", str(infinite), "restrict"], "must be finite"),
            (["restrict", "--eps-exponent", "inf"], "must be finite"),
            (["tensor", "--eps-exponent", "nan"], "must be finite"),
            (["simulate", "--spectrum", "1e400", "--replicas", "2"],
             "must fit in a float"),
            (["simulate", "--spectrum", "1,0", "--eps", "1e400",
              "--replicas", "2"], "must fit in a float"),
            # exact values past the float range used to end in an
            # OverflowError traceback, exit 1
            (["spectral", "--l", "5", "--eps", "1e400"],
             "natural_moments_decimal is too large for a float"),
            (["tensor", "--schedule", "2", "--amplitude", "1e200",
              "--eps-exponent", "250", "--max-order", "2", "--replicas", "2"],
             "rep_mean is too large for a float"),
            (["restrict", "--schedule", "2", "--corner-sizes", "2", "--alpha",
              "1", "--amplitude", "1e200", "--eps-exponent", "250",
              "--max-order", "2", "--replicas", "2"],
             "compress_target is too large for a float"),
            # seeds outside [0, 2^64) used to be reduced mod 2^64 (2^64 + 1
            # ran seed 1) or to fail late inside numpy
            (["--seed", "-1", "restrict"], "seed must lie in [0, 2^64)"),
            (["--seed", str(2 ** 64 + 1), "restrict"],
             "seed must lie in [0, 2^64)"),
            (["--seed", "-1", "simulate", "--spectrum", "1,0,-1"],
             "seed must lie in [0, 2^64)"),
            (["--config", str(negative_seed), "restrict"],
             "seed must lie in [0, 2^64)"),
            # used to end in a ZeroDivisionError traceback
            (["--config", str(no_alpha), "restrict"],
             "'alpha' must be a finite rational"),
            # used to end in Python's 4300-digit limit for int-to-str, which
            # named neither alpha nor its range
            (["restrict", "--alpha", "1e1000000"], "alpha must lie in (0, 1]"),
            (["restrict", "--alpha", "1e-1000000"],
             "alpha * n must be an integer in [1, n]"),
            (["--config", str(tiny_alpha), "restrict"],
             "alpha * n must be an integer in [1, n]"),
            # eps_n^(2 max order) underflowed: every scaled column read 0.0
            (["tensor", "--eps-exponent", "1e30", "--schedule", "2",
              "--replicas", "10", "--max-order", "2"],
             "eps exponent 1e+30 is too large"),
            # every target moment of the U(1) profile (0) is 0: the relative
            # gap used to end in a ZeroDivisionError traceback
            (["restrict", "--schedule", "1", "--alpha", "1", "--corner-sizes",
              "2", "--max-order", "1", "--replicas", "2"],
             "needs sizes of at least 2"),
            # finite traces whose spread squares past the float limit: the
            # standard error used to be written as inf, after a numpy warning
            (["restrict", "--schedule", "2", "--corner-sizes", "2",
              "--amplitude", "1e307", "--max-order", "1", "--replicas", "200"],
             "standard error of tr X^1 overflows a float"),
            # a repeated size used to write its rows twice, with exit 0
            (["restrict", "--schedule", "4", "--corner-sizes", "8,8",
              "--max-order", "1"], "corner sizes must not repeat; got [8, 8]"),
            # restrict runs its corner sizes, so they are checked too
            (["restrict", "--schedule", "2", "--corner-sizes", "256",
              "--eps-exponent", "30"], "underflows at n = 256"),
            # these commands read no config file; --config used to be
            # ignored with exit 0
            (["--config", str(path), "spectral", "--l", "2,0"],
             "spectral reads no config file"),
            (["--config", str(tmp_path / "none.json"), "hof-check", "--n",
              "3", "--max-order", "1", "--inequality-order", "1"],
             "hof-check reads no config file"),
            (["--config", str(path), "freeconv", "--a", "0,1"],
             "freeconv reads no config file")):
        code = main(["--out", str(out), *command])
        captured = capsys.readouterr()
        assert code == 2, command
        assert captured.err.startswith("error: ") and message in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    # a negative amplitude reverses the bulk profile; the refusal used to
    # name only the reversed weight
    (["tensor", "--amplitude=-5"], "--amplitude must be at least 0"),
    (["restrict", "--amplitude=-0.5"], "--amplitude must be at least 0"),
    # row amplitudes <= 0 used to be rounded up to a one-box row, exit 0
    (["tensor", "--row-amplitude=0"], "--row-amplitude must be positive"),
    (["tensor", "--row-amplitude=-5"], "--row-amplitude must be positive"),
    # the profile used to overflow in round(), with a traceback
    (["tensor", "--schedule", "4", "--amplitude", "1e308"],
     "--amplitude is too large: the weight profile overflows a float at "
     "n = 4"),
    (["tensor", "--schedule", "4", "--row-amplitude", "1e308"],
     "--row-amplitude is too large"),
    (["restrict", "--schedule", "4", "--amplitude", "1e308"],
     "--amplitude is too large"),
    # a row that rounds to 0 boxes used to be clamped to one box, exit 0
    (["tensor", "--schedule", "2", "--row-amplitude", "0.01"],
     "--row-amplitude 0.01 is too small: the row rounds to 0 boxes at n = 2"),
])
def test_amplitudes_the_profiles_would_round_are_refused(
        tmp_path, capsys, argv, message):
    code, out, err = run_cli(capsys, "--out", str(tmp_path), *argv,
                             "--replicas", "2", "--max-order", "1")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not any(tmp_path.iterdir())


def test_sum_overflow_is_refused_with_one_error_line(tmp_path):
    # the overflow of tr X^2 in the sum used to print two numpy warnings
    # before the refusal; run as a process so that warnings reach stderr
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-m", "hofree.cli", "--out", str(tmp_path),
         "tensor", "--schedule", "2", "--replicas", "2",
         "--amplitude", "1e308"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "error: tr X^2 of replica 0 is not finite (inf)"]
    assert not any(tmp_path.iterdir())


def test_config_keys_of_another_command_are_refused(tmp_path, capsys):
    # each of these used to be ignored with exit 0
    path = tmp_path / "config.json"
    out = tmp_path / "out"
    for command, config, unknown in (
            (["tensor"], {"alpha": "1/2"}, ["alpha"]),
            (["tensor"], {"corner_sizes": [8], "replicas": 10},
             ["corner_sizes"]),
            (["restrict"], {"row_amplitude": 2.0}, ["row_amplitude"]),
            (["simulate", "--spectrum", "1,0"],
             {"schedule": [2], "amplitude": 1, "max_order": 2, "seed": 3},
             ["amplitude", "max_order", "schedule"])):
        path.write_text(json.dumps(config))
        code, stdout, err = run_cli(capsys, "--out", str(out), "--config",
                                    str(path), *command)
        assert (code, stdout) == (2, ""), command
        assert err.startswith(f"error: config {path}: unknown keys "
                              f"{unknown} for {command[0]}; allowed: "), err
        assert not out.exists()


def test_restrict_defaults_to_the_restriction_amplitude(tmp_path, capsys):
    # the restriction profile's amplitude, not the tensor profile's; a flag
    # or a config file still overrides it
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"amplitude": TENSOR_BULK_AMPLITUDE}))
    base = ["restrict", "--schedule", "3", "--alpha", "2/3",
            "--corner-sizes", "6", "--max-order", "2", "--replicas", "16"]
    runs = {"default": base,
            "restriction": [*base, "--amplitude", str(RESTRICTION_AMPLITUDE)],
            "tensor": [*base, "--amplitude", str(TENSOR_BULK_AMPLITUDE)],
            "config": ["--config", str(config), *base]}
    outputs = {}
    for name, argv in runs.items():
        out = tmp_path / name
        assert main(["--seed", "3", "--out", str(out), *argv]) == 0
        outputs[name] = [(out / f).read_bytes()
                         for f in ("restrict.csv", "restrict_exact.json")]
    capsys.readouterr()
    assert outputs["default"] == outputs["restriction"] != outputs["tensor"]
    assert outputs["config"] == outputs["tensor"]


def test_restrict_runs_on_corner_sizes_alone(tmp_path, capsys):
    # an empty schedule is refused only when no corner size is left either
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"schedule": [], "corner_sizes": [8]}))
    assert main(["--out", str(tmp_path), "--config", str(path), "restrict",
                 "--replicas", "16"]) == 0
    capsys.readouterr()
    with open(tmp_path / "restrict.csv", encoding="utf-8") as fh:
        assert {r["n"] for r in csv.DictReader(fh)} == {"8"}


def test_config_file_roundtrip(tmp_path, capsys):
    config = {"schedule": [2, 4], "replicas": 100, "max_order": 2}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    args = ["--seed", "5", "--out", str(tmp_path / "o1"),
            "--config", str(path), "tensor"]
    assert main(args) == 0
    capsys.readouterr()
    args = ["--seed", "5", "--out", str(tmp_path / "o2"),
            "--config", str(path), "tensor"]
    assert main(args) == 0
    capsys.readouterr()
    assert (tmp_path / "o1" / "tensor.csv").read_bytes() == \
        (tmp_path / "o2" / "tensor.csv").read_bytes()


def test_restrict_refuses_non_integral_corner(tmp_path, capsys):
    # alpha * n = 4/3 at n = 4: no corner compresses by exactly alpha
    args = ["--out", str(tmp_path), "restrict", "--schedule", "3,4",
            "--alpha", "1/3", "--corner-sizes", "6", "--replicas", "16"]
    code = main(args)
    err = capsys.readouterr().err
    assert code == 2
    assert "alpha = 1/3 at n = 4" in err
    assert not (tmp_path / "restrict.csv").exists()
    # corner-only sizes are checked too: 8/3 at n = 8
    args = ["--out", str(tmp_path), "restrict", "--schedule", "3,6",
            "--alpha", "1/3", "--corner-sizes", "8", "--replicas", "16"]
    code = main(args)
    assert code == 2
    assert "n = 8" in capsys.readouterr().err


def test_threads_outside_one_to_cpu_count_refused(tmp_path, capsys):
    # refused before any command runs, by every command
    for threads in (0, -5, (os.cpu_count() or 1) + 1):
        for command in (["restrict", "--schedule", "4", "--corner-sizes", "8",
                         "--replicas", "16"],
                        ["simulate", "--spectrum", "1,0", "--replicas", "4"],
                        ["hof-check", "--n", "3", "--max-order", "2"],
                        ["spectral", "--l", "2,0"],
                        ["freeconv", "--a", "0,1"]):
            args = ["--threads", str(threads), "--out", str(tmp_path),
                    *command]
            assert main(args) == 2
            captured = capsys.readouterr()
            assert "threads must lie in [1, " in captured.err
            assert captured.out == ""
    assert not any(tmp_path.iterdir())


def test_config_file_schema_errors(tmp_path, capsys):
    path = tmp_path / "config.json"
    for config, message in (({"schedule": 5}, "'schedule' must be a list"),
                            ({"schedul": [2, 4]}, "unknown keys ['schedul']"),
                            ({"replicas": 1.5}, "'replicas' must be an int"),
                            # used to end in a ZeroDivisionError traceback
                            ({"alpha": "1/0"}, "'alpha' must be a finite rational"),
                            ({"alpha": "one half"},
                             "'alpha' must be a finite rational"),
                            ([2, 4], "expected a JSON object"),
                            # json.loads errors used to name neither the
                            # file nor the config
                            ("{a: 1}", "Expecting property name"),
                            ('{"seed": ' + "1" * 5000 + "}",
                             "Exceeds the limit (4300 digits)")):
        path.write_text(config if isinstance(config, str)
                        else json.dumps(config))
        # restrict, which reads every key named here (tensor reads no alpha)
        code = main(["--out", str(tmp_path), "--config", str(path),
                     "restrict"])
        err = capsys.readouterr().err
        assert code == 2, config
        assert err.startswith(f"error: config {path}: "), err
        assert message in err, err


def test_eps_underflow_checks_only_the_sizes_tensor_runs(tmp_path, capsys):
    # eps_n^(2 * 4) underflows at n = 256 for a = 30: restrict's default
    # corner size, which tensor never runs, used to refuse tensor as well
    code, _, err = run_cli(capsys, "--out", str(tmp_path), "tensor",
                           "--schedule", "2,4", "--eps-exponent", "30",
                           "--replicas", "10")
    assert code == 0 and err == ""
    with open(tmp_path / "tensor.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 8
    assert all(float(row["rep_mean"]) > 0 for row in rows)
    assert all(float(row["rep_var"]) > 0 for row in rows if row["k"] != "1")


def test_config_seed_used_unless_flag_given(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"schedule": [2], "replicas": 50,
                                "max_order": 2, "seed": 4}))
    outputs = []
    for flags, out in (([], "a"), (["--seed", "4"], "b"),
                       (["--seed", "5"], "c")):
        assert main(flags + ["--out", str(tmp_path / out), "--config",
                             str(path), "tensor"]) == 0
        capsys.readouterr()
        outputs.append((tmp_path / out / "tensor.csv").read_bytes())
    assert outputs[0] == outputs[1] != outputs[2]


def test_simulate_reads_seed_and_replicas_from_config(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"seed": 5, "replicas": 10}))
    simulate = ["simulate", "--spectrum", "1,0,-1"]
    runs = {
        "config": ["--config", str(path)] + simulate,
        "flags": ["--seed", "5"] + simulate + ["--replicas", "10"],
        "override": ["--seed", "6", "--config", str(path)] + simulate,
    }
    for out, argv in runs.items():
        assert main(["--out", str(tmp_path / out)] + argv) == 0
        capsys.readouterr()
    for out, seed in (("config", 5), ("override", 6)):
        summary = json.loads((tmp_path / out / "summary.json").read_text())
        assert (summary["seed"], summary["replicas"]) == (seed, 10)
    traces = {out: (tmp_path / out / "traces.csv").read_bytes()
              for out in runs}
    assert traces["config"] == traces["flags"] != traces["override"]
