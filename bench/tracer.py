"""Span tracer that times hofree's public functions from outside the program.

`Tracer.install()` replaces every public function of the hofree modules with
a wrapper, under every name it is looked up by: a module's own attribute,
each `from .x import f` binding in another module, and the `cli._COMMANDS`
dispatch table.  Each call records a span (name, start, end, parent span); a
generator records one span per `next`.  Spans stay in memory and are written
once the run ends.  Self time is a span's duration minus its children's, so
a layer's self time is the time spent in its own code, including private
helpers and numpy calls made from it.  Wrappers return exactly what the
wrapped function returns; `verify=True` checks that on every call.
"""

from __future__ import annotations

import copy
import functools
import importlib
import inspect
import json
import pickle
import time
from array import array
from collections import defaultdict
from pathlib import Path

LAYERS = ("partperm", "cumulants", "freeprob", "repunitary", "rmt", "hof",
          "experiments", "cli")

# Private functions and methods traced in addition to the public functions,
# because the output metrics need them.
EXTRA = {"cli": ("_write_csv", "_write_json")}
OUTPUT_SPANS = ("cli._write_csv", "cli._write_json")
# One Monte-Carlo replica's sampling and eigensolve; time under the outermost
# of these spans is counted as replica work.
REPLICA_SPANS = ("rmt.sample_matrix", "rmt.sum_independent", "rmt.corner",
                 "rmt.eigenvalues")
# Never wrapped: the benchmark calls `cli.main` itself and times it as wall_s.
SKIP = {"cli.main"}

# Real floating-point operations per call, from the matrix size n; a complex
# operation counts as 4 real ones.  Textbook operation counts, not measured.
GFLOP_FORMULAS = {
    # Householder QR of an n x n complex matrix plus forming Q: 2 * 4 * (4/3) n^3
    "rmt.haar_unitary": lambda n: 32 / 3 * n ** 3,
    # the conjugation (U diag) @ U^*: one complex n x n GEMM
    "rmt.sample_matrix": lambda n: 8 * n ** 3,
    # Hermitian eigh with vectors (~9 n^3 real, times 4) plus the residual GEMM
    "rmt.eigenvalues": lambda n: 36 * n ** 3 + 8 * n ** 3,
}


def _matrix_size(name, args):
    if name == "rmt.haar_unitary":
        return args[0]
    if name == "rmt.sample_matrix":
        return args[0].n
    x = args[0]
    mat = getattr(x, "matrix", x)
    return mat.shape[0]


def _count_hooks():
    """Counters derived from a call's arguments or result: hook(counts, args,
    kwargs, result)."""

    def determinant(counts, args, kwargs, result):
        counts["repunitary.determinants_nonzero"] += result != 0

    def flops(name):
        formula = GFLOP_FORMULAS[name]

        def hook(counts, args, kwargs, result):
            counts["rmt.linalg_flop"] += formula(_matrix_size(name, args))
        return hook

    hooks = {
        "repunitary.interlacing_chain_count": determinant,
    }
    for name in GFLOP_FORMULAS:
        hooks[name] = flops(name)
    return hooks


def same_result(a, b) -> bool:
    """Exact equality of two return values, arrays included (by bytes).
    Values that cannot be pickled (an argparse parser holds local functions)
    are compared by type and attributes, recursively."""
    try:
        return pickle.dumps(a) == pickle.dumps(b)
    except (pickle.PicklingError, TypeError, AttributeError):
        return _same_structure(a, b, set())


def _same_structure(a, b, seen: set) -> bool:
    if type(a) is not type(b):
        return False
    if (id(a), id(b)) in seen:
        return True
    seen.add((id(a), id(b)))
    if callable(a) and hasattr(a, "__qualname__"):
        return (a.__module__, a.__qualname__) == (b.__module__, b.__qualname__)
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(
            _same_structure(a[k], b[k], seen) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(
            _same_structure(x, y, seen) for x, y in zip(a, b))
    if hasattr(a, "__dict__"):
        return _same_structure(vars(a), vars(b), seen)
    return a == b


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, verify: bool = False):
        self.verify = verify
        self.clock = time.perf_counter
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one entry per span, appended when the span ends
        self.span_name = array("i")
        self.span_parent = array("i")     # index into start order, -1 = none
        self.span_id = array("i")         # start order
        self.span_start = array("d")
        self.span_end = array("d")
        self._next_id = 0
        self._stack: list[list] = []      # [span id, child time, name id]
        # per name id
        self._calls: list[int] = []
        self._total: list[float] = []
        self._self: list[float] = []
        self._active: list[int] = []      # open spans of this name
        self._is_command: list[bool] = []
        self._is_replica: list[bool] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.mismatches: list[str] = []
        self.covered_s = 0.0              # time under spans below a command
        self._replica_depth = 0
        for name in REPLICA_SPANS:
            self._is_replica[self._name_id(name)] = True
        self._restore: list[tuple] = []
        self._hooks = _count_hooks()

    # -- recording ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            for table, zero in ((self._calls, 0), (self._total, 0.0),
                                (self._self, 0.0), (self._active, 0),
                                (self._is_command, False),
                                (self._is_replica, False)):
                table.append(zero)
        return self._name_ids[name]

    def _by_name(self, table) -> dict:
        return {name: table[nid] for nid, name in enumerate(self.names)
                if self._calls[nid]}

    @property
    def calls(self) -> dict[str, int]:
        return self._by_name(self._calls)

    @property
    def total_s(self) -> dict[str, float]:
        """Inclusive time of the outermost spans of each name."""
        return self._by_name(self._total)

    @property
    def self_s(self) -> dict[str, float]:
        return self._by_name(self._self)

    def _enter(self, nid: int) -> tuple:
        sid = self._next_id
        self._next_id += 1
        stack = self._stack
        parent = stack[-1][0] if stack else -1
        stack.append([sid, 0.0, nid])
        self._active[nid] += 1
        if self._is_replica[nid]:
            self._replica_depth += 1
        return sid, parent, self.clock()

    def _exit(self, nid: int, sid: int, parent: int, start: float) -> None:
        end = self.clock()
        stack = self._stack
        child_s = stack.pop()[1]
        dur = end - start
        self._calls[nid] += 1
        self._self[nid] += dur - child_s
        self._active[nid] -= 1
        if not self._active[nid]:         # outermost span of this name
            self._total[nid] += dur
        if self._is_replica[nid]:
            self._replica_depth -= 1
            if not self._replica_depth:
                self.counts["rmt.replica_work_s"] += dur
        if stack:
            top = stack[-1]
            top[1] += dur
            under_command = self._is_command[top[2]]
        else:
            under_command = True
        if under_command and not self._is_command[nid]:
            self.covered_s += dur
        self.span_name.append(nid)
        self.span_parent.append(parent)
        self.span_id.append(sid)
        self.span_start.append(start)
        self.span_end.append(end)

    def wrap(self, name: str, fn):
        """Traced stand-in for `fn`, recorded under `name`."""
        nid = self._name_id(name)
        hook = self._hooks.get(name)
        if inspect.isgeneratorfunction(inspect.unwrap(fn)):
            return self._wrap_generator(name, nid, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.verify:
                expected = fn(*copy.deepcopy(args), **copy.deepcopy(kwargs))
            sid, parent, start = self._enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(nid, sid, parent, start)
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            if self.verify and not same_result(expected, result):
                self.mismatches.append(name)
            return result

        return traced

    def _wrap_generator(self, name: str, nid: int, fn):
        items = name + ".items"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            expected = None
            if self.verify:
                expected = iter(list(fn(*copy.deepcopy(args),
                                        **copy.deepcopy(kwargs))))
            it = fn(*args, **kwargs)
            while True:
                sid, parent, start = self._enter(nid)
                try:
                    item = next(it)
                except StopIteration:
                    if expected is not None and next(expected, it) is not it:
                        self.mismatches.append(name)
                    return
                finally:
                    self._exit(nid, sid, parent, start)
                self.counts[items] += 1
                if expected is not None and not same_result(
                        next(expected, None), item):
                    self.mismatches.append(name)
                yield item

        return traced

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of every layer, under every binding."""
        modules = {layer: importlib.import_module(f"hofree.{layer}")
                   for layer in LAYERS}
        replaced = {}                     # id(original) -> wrapper
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                public = not attr.startswith("_") or attr in EXTRA.get(layer, ())
                if (public and callable(obj) and not inspect.isclass(obj)
                        and getattr(obj, "__module__", None) == mod.__name__
                        and f"{layer}.{attr}" not in SKIP):
                    replaced[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced and callable(obj):
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, replaced[id(obj)])
        table = modules["cli"]._COMMANDS
        for key, obj in list(table.items()):
            if id(obj) in replaced:
                self._restore.append((table, key, obj))
                table[key] = replaced[id(obj)]
                self._is_command[self._name_ids[f"cli.{obj.__name__}"]] = True

    def uninstall(self) -> None:
        for target, attr, obj in reversed(self._restore):
            if isinstance(target, dict):
                target[attr] = obj
            else:
                setattr(target, attr, obj)
        self._restore.clear()

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Per-function calls, total and self time, counters and per-layer
        self time, as plain JSON-ready data."""
        calls, total_s, self_s = self.calls, self.total_s, self.self_s
        layer_self = defaultdict(float)
        for name, value in self_s.items():
            layer_self[name.split(".")[0]] += value
        return {
            "functions": {name: {"calls": calls[name], "total_s": total_s[name],
                                 "self_s": self_s[name]}
                          for name in sorted(calls)},
            "counts": dict(self.counts),
            "layer_self_s": {layer: layer_self[layer] for layer in LAYERS},
            "output_s": sum(total_s.get(n, 0.0) for n in OUTPUT_SPANS),
            "covered_s": self.covered_s,
            "spans": len(self.span_name),
            "mismatches": sorted(set(self.mismatches)),
        }

    def write_spans(self, path: Path) -> None:
        """Spans as a JSON header followed by the raw arrays, in end order:
        name index (int32), parent span id (int32), span id (int32), start
        and end (float64, seconds of `time.perf_counter`)."""
        header = json.dumps({"names": self.names, "count": len(self.span_name),
                             "arrays": ["name", "parent", "id", "start", "end"]})
        with open(path, "wb") as fh:
            fh.write(header.encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_id,
                        self.span_start, self.span_end):
                arr.tofile(fh)


def read_spans(path: Path) -> tuple[list[str], list[tuple]]:
    """Inverse of `Tracer.write_spans`: (names, [(name, parent, id, start,
    end), ...])."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["count"]
        cols = []
        for code in ("i", "i", "i", "d", "d"):
            arr = array(code)
            arr.fromfile(fh, n)
            cols.append(arr)
    names = header["names"]
    return names, [(names[a], b, c, d, e) for a, b, c, d, e in zip(*cols)]
