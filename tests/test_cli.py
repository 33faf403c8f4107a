import csv
import hashlib
import json
import os

import pytest

from hofree import rmt
from hofree.cli import main
from hofree.experiments import RESTRICTION_AMPLITUDE, TENSOR_BULK_AMPLITUDE


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


def test_simulate_deterministic_and_formats(tmp_path, capsys):
    args = ["--seed", "9", "--out", str(tmp_path / "a"), "simulate",
            "--spectrum", "1,0,-1", "--powers", "1,2", "--replicas", "64"]
    assert main(args) == 0
    capsys.readouterr()
    args2 = ["--seed", "9", "--out", str(tmp_path / "b"), "simulate",
             "--spectrum", "1,0,-1", "--powers", "1,2", "--replicas", "64"]
    assert main(args2) == 0
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
    with pytest.raises(SystemExit) as refused:
        main(["--out", str(tmp_path / "svg"), "simulate", "--spectrum",
              "1,0,-1", "--replicas", "10", "--svg"])
    assert refused.value.code == 2
    assert not (tmp_path / "svg").exists()
    capsys.readouterr()
    corner_traces = rmt.corner_traces
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return corner_traces(*args, **kwargs)

    monkeypatch.setattr(rmt, "corner_traces", counted)
    assert main(["--out", str(tmp_path / "a"), "simulate", "--spectrum",
                 "1,0,-1", "--replicas", "40"]) == 0
    capsys.readouterr()
    assert len(calls) == 40
    assert sorted(p.name for p in (tmp_path / "a").iterdir()) == \
        ["summary.json", "traces.csv"]


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
              "--replicas", "2"], "must fit in a float")):
        code = main(["--out", str(out), *command])
        captured = capsys.readouterr()
        assert code == 2, command
        assert captured.err.startswith("error: ") and message in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
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
                            ([2, 4], "expected a JSON object")):
        path.write_text(json.dumps(config))
        code = main(["--out", str(tmp_path), "--config", str(path),
                     "tensor"])
        err = capsys.readouterr().err
        assert code == 2, config
        assert message in err, err


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
