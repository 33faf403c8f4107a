"""hofree benchmark: time one CLI workload end to end, or layer by layer.

Usage (from the root of a checkout):

    python3 bench/run.py --workload restrict --seed 1 --seconds 60 --trace 0

Each invocation is a fresh `python3 bench/child.py` process, so it starts
with cold caches as a CLI user's run does; BLAS is pinned to one thread and
the CLI gets `--threads 1`.  Invocations repeat (closed loop, one at a time)
until the next one would overrun `--seconds`; every one must exit 0 and pass
the output checks in check.py.

--trace 0 prints the end-to-end metrics (medians over the invocations):
wall_s (the `cli.main` call), setup_s (process start to `hofree.cli`
imported) and peak_rss_mb (the child's own peak RSS, from wait4).
--trace 1 alternates untraced and traced invocations and prints the
per-layer metrics (medians over the traced ones), with trace.overhead_frac
and trace.coverage; traced outputs must be byte-identical to untraced ones.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  A manifest with the environment and every
invocation's numbers goes to .bench_work/manifests/.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from check import check_outputs, output_files  # noqa: E402
from workloads import WORKLOADS, cli_argv  # noqa: E402

ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
INVOCATION_TIMEOUT_S = 150.0
RUN_LIMIT_S = 170.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# name -> (unit, how to read it from a traced invocation).  A reader returns
# None when the metric's function did not run on this workload (absent).
def _fn(name, key):
    def read(t):
        f = t["functions"].get(name)
        return None if f is None else f[key]
    return read


def _layer_self(layer):
    def read(t):
        if not any(n.split(".")[0] == layer for n in t["functions"]):
            return None
        return t["layer_self_s"][layer]
    return read


def _count(name, needs):
    def read(t):
        return None if needs not in t["functions"] else t["counts"].get(name, 0.0)
    return read


def _ratio(num, den_fn):
    def read(t):
        f = t["functions"].get(den_fn)
        if f is None or not f["calls"]:
            return None
        return t["counts"].get(num, 0.0) / f["calls"]
    return read


def _replica_ms(t):
    f = t["functions"].get("rmt.replica_rng")
    if f is None:
        return None
    return 1000 * t["counts"].get("rmt.replica_work_s", 0.0) / f["calls"]


def _gflop(t):
    if "rmt.haar_unitary" not in t["functions"]:
        return None
    return t["counts"].get("rmt.linalg_flop", 0.0) / 1e9


def _join_hit_ratio(t):
    f = t["functions"].get("partperm.leq_pp")
    if t.get("summands_checked") is None or f is None:
        return None
    return t["summands_checked"] / f["calls"]


PER_LAYER = {
    "repunitary.self_s": ("s", _layer_self("repunitary")),
    "repunitary.restriction_mean_moments.s":
        ("s", _fn("repunitary.restriction_mean_moments", "total_s")),
    "repunitary.interlacing_chain_count.s":
        ("s", _fn("repunitary.interlacing_chain_count", "total_s")),
    "repunitary.determinants": ("count", _fn("repunitary.interlacing_chain_count", "calls")),
    "repunitary.determinant_hit_ratio":
        ("ratio", _ratio("repunitary.determinants_nonzero",
                         "repunitary.interlacing_chain_count")),
    "rmt.self_s": ("s", _layer_self("rmt")),
    "rmt.sample_matrix.calls": ("count", _fn("rmt.sample_matrix", "calls")),
    "rmt.sample_matrix.s": ("s", _fn("rmt.sample_matrix", "total_s")),
    "rmt.haar_unitary.s": ("s", _fn("rmt.haar_unitary", "total_s")),
    "rmt.eigenvalues.calls": ("count", _fn("rmt.eigenvalues", "calls")),
    "rmt.eigenvalues.s": ("s", _fn("rmt.eigenvalues", "total_s")),
    "rmt.replica_ms": ("ms", _replica_ms),
    "rmt.linalg_gflop": ("GFLOP-computed", _gflop),
    "rmt.weingarten_table.calls": ("count", _fn("rmt.weingarten_table", "calls")),
    "rmt.weingarten_table.s": ("s", _fn("rmt.weingarten_table", "total_s")),
    "rmt.exact_entry_moment.calls": ("count", _fn("rmt.exact_entry_moment", "calls")),
    "rmt.exact_entry_moment.s": ("s", _fn("rmt.exact_entry_moment", "total_s")),
    "hof.self_s": ("s", _layer_self("hof")),
    "hof.kappa_exact.s": ("s", _fn("hof.kappa_exact", "total_s")),
    "hof.verify_trace_cumulant_identity.s":
        ("s", _fn("hof.verify_trace_cumulant_identity", "total_s")),
    "hof.scaling_exponent.calls": ("count", _fn("hof.scaling_exponent", "calls")),
    "hof.scaling_exponent.s": ("s", _fn("hof.scaling_exponent", "total_s")),
    "partperm.self_s": ("s", _layer_self("partperm")),
    "partperm.leq_pp.calls": ("count", _fn("partperm.leq_pp", "calls")),
    "partperm.leq_pp.s": ("s", _fn("partperm.leq_pp", "total_s")),
    "partperm.partitioned_permutations.items":
        ("count", _count("partperm.partitioned_permutations.items",
                         "partperm.partitioned_permutations")),
    "partperm.partitioned_permutations.s":
        ("s", _fn("partperm.partitioned_permutations", "total_s")),
    "partperm.join_hit_ratio": ("ratio", _join_hit_ratio),
    "cumulants.self_s": ("s", _layer_self("cumulants")),
    "cumulants.moments_to_cumulants.s": ("s", _fn("cumulants.moments_to_cumulants", "total_s")),
    "freeprob.self_s": ("s", _layer_self("freeprob")),
    "freeprob.free_compress.s": ("s", _fn("freeprob.free_compress", "total_s")),
    "experiments.self_s": ("s", _layer_self("experiments")),
    "experiments.corner_monte_carlo.s": ("s", _fn("experiments.corner_monte_carlo", "total_s")),
    "cli.self_s": ("s", _layer_self("cli")),
    "cli.output_s": ("s", lambda t: t["output_s"]),
    "cli.output_bytes": ("bytes", lambda t: t["output_bytes"]),
}
# filled from the untraced/traced pairs, not from one traced invocation
TRACE_METRICS = {"trace.overhead_frac": "ratio", "trace.coverage": "ratio"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(BLAS_ENV, PYTHONPATH=str(SRC))
    return env


def invoke(run_dir: Path, index: int, workload: str, seed: int, trace: bool,
           timeout: float, environment: bool = False,
           argv: list[str] | None = None, verify: bool = False) -> dict:
    """Run one child process to completion; return its measurements."""
    inv = run_dir / f"inv{index:03d}{'t' if trace else 'u'}"
    inv.mkdir(parents=True)
    request = {"src": str(SRC), "out": str(inv / "out"), "trace": trace,
               "argv": argv if argv is not None else cli_argv(workload, seed),
               "result": str(inv / "result.json"),
               "spans": str(inv / "spans.bin"), "environment": environment,
               "verify": verify}
    (inv / "request.json").write_text(json.dumps(request), encoding="utf-8")
    record = {"dir": inv, "trace": trace, "problems": []}
    with open(inv / "child.log", "wb") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), str(inv / "request.json")],
            cwd=inv, env=child_env(), stdin=subprocess.DEVNULL, stdout=log,
            stderr=subprocess.STDOUT)
        deadline = t_spawn + timeout
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    record["killed"] = True
                    record["problems"].append(f"killed after {timeout:.0f} s")
                    raise TimeoutError
                time.sleep(0.005)
        except BaseException as exc:      # never leave the child running
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            if not isinstance(exc, TimeoutError):
                raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    record.update(child_exit=proc.returncode,
                  cpu_s=usage.ru_utime + usage.ru_stime,
                  peak_rss_mb=usage.ru_maxrss / 1024)
    try:
        result = json.loads((inv / "result.json").read_text(encoding="utf-8"))
    except (OSError, ValueError):
        log_text = (inv / "child.log").read_text(errors="replace")[-2000:]
        record["problems"].append(f"child exited {proc.returncode} without a "
                                  f"result: {log_text}")
        return record
    record.update(setup_s=result["t_ready"] - t_spawn, wall_s=result["wall_s"],
                  exit_code=result["exit_code"], trace_summary=result.get("trace"),
                  environment=result.get("environment"))
    if result["exit_code"] != 0:
        kind = "refused" if result["exit_code"] == 3 else "failed"
        record["problems"].append(f"hofree {kind} with exit code "
                                  f"{result['exit_code']}: {result.get('error')}")
    elif result.get("error"):
        record["problems"].append(result["error"])
    return record


def source_identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "hofree").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def median_or_none(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def measure(args) -> tuple[dict, list[dict], dict]:
    """Run invocations for args.seconds; return (metrics, records, extra)."""
    run_dir = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    kinds = (False, True) if args.trace else (False,)
    records: list[dict] = []
    first_outputs = None
    start = time.monotonic()
    longest = 0.0
    while True:
        unit_start = time.monotonic()
        unit = []
        for trace in kinds:
            remaining = RUN_LIMIT_S - (time.monotonic() - start)
            rec = invoke(run_dir, len(records), args.workload, args.seed, trace,
                         timeout=max(5.0, min(INVOCATION_TIMEOUT_S, remaining)),
                         environment=not records)
            records.append(rec)
            unit.append(rec)
            if rec["problems"]:
                continue
            out = rec["dir"] / "out"
            rec["problems"] += check_outputs(args.workload, out)
            files = output_files(out)
            rec["output_bytes"] = sum(len(b) for b in files.values())
            if first_outputs is None:
                first_outputs = files
            elif files != first_outputs:
                what = "traced" if trace else "repeated"
                rec["problems"].append(f"{what} invocation's outputs differ from "
                                       f"the first invocation's")
        longest = max(longest, time.monotonic() - unit_start)
        elapsed = time.monotonic() - start
        if elapsed + longest > args.seconds or any(r.get("killed") for r in unit):
            break
    ok = [r for r in records if not r["problems"]]
    plain = [r for r in ok if not r["trace"]]
    extra = {"run_dir": run_dir, "measure_s": time.monotonic() - start}
    if not args.trace:
        metrics = {
            "wall_s": median_or_none(r["wall_s"] for r in plain),
            "setup_s": median_or_none(r["setup_s"] for r in plain),
            "peak_rss_mb": median_or_none(r["peak_rss_mb"] for r in plain),
        }
        return metrics, records, extra
    traced = [r for r in ok if r["trace"]]
    for r in traced:
        t = r["trace_summary"]
        t["output_bytes"] = r["output_bytes"]
        if args.workload == "hof_check":
            report = json.loads((r["dir"] / "out" / "stdout.txt").read_text())
            t["summands_checked"] = sum(e["summands_checked"]
                                        for e in report["triangle"])
        t["coverage"] = t["covered_s"] / r["wall_s"]
    metrics = {}
    absent = []
    for name, (_, read) in PER_LAYER.items():
        value = median_or_none(read(r["trace_summary"]) for r in traced)
        if value is None and traced:
            absent.append(name)
            value = 0.0
        metrics[name] = value
    plain_wall = median_or_none(r["wall_s"] for r in plain)
    traced_wall = median_or_none(r["wall_s"] for r in traced)
    metrics["trace.overhead_frac"] = (traced_wall / plain_wall - 1
                                      if plain_wall and traced_wall else None)
    metrics["trace.coverage"] = median_or_none(r["trace_summary"]["coverage"]
                                               for r in traced)
    extra["absent"] = absent
    if traced:
        extra["spans_file"] = traced[-1]["dir"] / "spans.bin"
    return metrics, records, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hofree" / "cli.py").is_file():
        print(f"error: no hofree sources under {SRC}", file=sys.stderr)
        return 2
    loadavg_start = os.getloadavg()
    t_prepare = time.monotonic()
    compileall.compile_dir(SRC / "hofree", quiet=1)
    prepare_s = time.monotonic() - t_prepare
    metrics, records, extra = measure(args)
    failed = sum(1 for r in records if r["problems"])
    units = dict(END_TO_END) if not args.trace else {
        **{k: u for k, (u, _) in PER_LAYER.items()}, **TRACE_METRICS}
    env_info = next((r["environment"] for r in records if r.get("environment")), None)
    manifest = {
        "argv": sys.argv, "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "cli_argv": cli_argv(args.workload, args.seed),
        **source_identity(),
        "python": sys.version, "platform": platform.platform(),
        "numpy_blas": env_info, "blas_env": BLAS_ENV, "cli_threads": 1,
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg_start": loadavg_start, "loadavg_end": os.getloadavg(),
        "prepare_s": prepare_s, "measure_s": extra["measure_s"],
        "invocations": [{k: (str(v) if isinstance(v, Path) else v)
                         for k, v in r.items() if k not in ("trace_summary",
                                                            "environment")}
                        for r in records],
        "absent_metrics": extra.get("absent", []),
        "metrics": metrics,
    }
    if args.trace:
        manifest["trace_summaries"] = [r["trace_summary"] for r in records
                                       if r["trace"] and not r["problems"]]
    stamp = time.strftime("%Y%m%dT%H%M%S")
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}"
    manifests = WORK / "manifests"
    manifests.mkdir(parents=True, exist_ok=True)
    if extra.get("spans_file") and extra["spans_file"].is_file():
        shutil.move(str(extra["spans_file"]), manifests / f"{stem}.spans")
        manifest["spans_file"] = str((manifests / f"{stem}.spans").relative_to(ROOT))
    (manifests / f"{stem}.json").write_text(json.dumps(manifest, indent=1),
                                            encoding="utf-8")
    shutil.rmtree(extra["run_dir"], ignore_errors=True)
    for r in records:
        for problem in r["problems"]:
            print(f"FAILED {r['dir'].name}: {problem}", file=sys.stderr)
    if any(v is None for v in metrics.values()):
        print("error: no successful invocation to measure", file=sys.stderr)
        return 1
    print(f"manifest: {(manifests / f'{stem}.json').relative_to(ROOT)}")
    if extra.get("absent"):
        print(f"absent on {args.workload} (reported as 0): "
              f"{', '.join(extra['absent'])}")
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    sys.exit(main())
