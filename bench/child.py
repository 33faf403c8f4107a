"""One benchmark invocation of the hofree CLI, in a fresh process.

Usage: python3 bench/child.py REQUEST.json

The request names the CLI argv, the output directory and whether to trace.
The child imports `hofree.cli` first thing, so the parent can time set-up
from process start to that import; then it calls `cli.main(argv)` with
stdout sent to a file in the output directory and times that call (wall_s).
Tracing is installed after set-up and before the timed call.  Everything
measured goes to the request's result file once the run ends.
"""

import time

import hofree.cli  # first: set-up is timed up to this import

T_READY = time.monotonic()

import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def _numpy_info() -> dict:
    import numpy

    info = {"numpy": numpy.__version__}
    try:
        config = numpy.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        info["blas"] = {"name": blas.get("name"), "version": blas.get("version"),
                        "config": blas.get("openblas configuration")}
    except (TypeError, KeyError, AttributeError):
        info["blas"] = None
    return info


def main(request_path: str) -> int:
    request = json.loads(Path(request_path).read_text(encoding="utf-8"))
    src = Path(request["src"]).resolve()
    if Path(hofree.cli.__file__).resolve().parent.parent != src:
        print(f"hofree imported from {hofree.cli.__file__}, not {src}",
              file=sys.stderr)
        return 4
    out = Path(request["out"])
    out.mkdir(parents=True, exist_ok=True)
    tracer = None
    if request["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer

        tracer = Tracer(verify=request.get("verify", False))
        tracer.install()
    result = {"t_ready": T_READY, "pid": os.getpid()}
    error = None
    t0 = time.monotonic()
    try:
        with open(out / "stdout.txt", "w", encoding="utf-8") as fh, \
                contextlib.redirect_stdout(fh):
            code = hofree.cli.main(request["argv"])
    except SystemExit as exc:          # argparse refusing the argv
        code = exc.code if isinstance(exc.code, int) else 1
        error = traceback.format_exc()
    except Exception:                  # reported as a failed invocation
        code = 1
        error = traceback.format_exc()
    t1 = time.monotonic()
    result.update(exit_code=code, wall_s=t1 - t0, error=error)
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary()
        tracer.write_spans(Path(request["spans"]))
    if request.get("environment"):
        result["environment"] = _numpy_info()
    Path(request["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
