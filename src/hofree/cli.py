"""Command-line surface.

Subcommands: spectral | tensor | restrict | hof-check | simulate | freeconv.
Global flags: --seed, --out, --config (JSON file with the keys of the
command's own flags and seed; tensor, restrict and simulate only),
--threads.  Exit codes: 0 success, 2 validation error, 3 guard refusal.

Every command is a pure function of (config, seed): identical inputs produce
byte-identical outputs.  CSV files are UTF-8 with a header row and RFC-4180
quoting; exact rationals are archived as "p/q" strings in JSON sidecars.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import cumulants, experiments, hof, rmt
from .errors import GuardError
from .freeprob import free_compress, free_convolve, moments_to_free_cumulants
from .repunitary import (
    ShiftedWeight,
    naive_spectral_measure,
    natural_spectral_measure,
    zelobenko_weights,
)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer "
                                         f"list: {text!r}") from exc


def _fraction_list(text: str) -> tuple[Fraction, ...]:
    return tuple(_fraction(part) for part in text.split(","))


def _rational_str(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hofree",
        description="exact and Monte-Carlo checks for spectra of unitary-group "
                    "representations against free probability")
    parser.add_argument("--seed", type=int, default=None,
                        help="master RNG seed, read only by tensor, restrict "
                             "and simulate (default: the config's, else 1)")
    parser.add_argument("--out", type=Path, default=Path("."),
                        help="output directory for CSV/JSON files")
    parser.add_argument("--config", type=Path, default=None,
                        help="JSON config file for tensor, restrict and "
                             "simulate; command-line flags override it")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker threads for replica generation, from 1 "
                             "to the CPU count")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectral", help="exact spectral data of one irreducible")
    p.add_argument("--l", type=_int_list, required=True,
                   help="shifted weight, strictly decreasing, e.g. 2,0")
    p.add_argument("--eps", type=_fraction, default=Fraction(1))
    p.add_argument("--order", type=int, default=4)

    p = sub.add_parser("tensor", help="tensor decomposition vs free convolution")
    p.add_argument("--schedule", type=_int_list, default=None)
    p.add_argument("--max-order", type=int, default=None)
    p.add_argument("--amplitude", type=float, default=None)
    p.add_argument("--row-amplitude", type=float, default=None)
    p.add_argument("--eps-exponent", type=float, default=None)
    p.add_argument("--replicas", type=int, default=None)

    p = sub.add_parser("restrict", help="restriction vs corner vs compression")
    p.add_argument("--schedule", type=_int_list, default=None)
    p.add_argument("--alpha", type=_fraction, default=None)
    p.add_argument("--corner-sizes", type=_int_list, default=None)
    p.add_argument("--max-order", type=int, default=None)
    p.add_argument("--amplitude", type=float, default=None)
    p.add_argument("--eps-exponent", type=float, default=None)
    p.add_argument("--replicas", type=int, default=None)

    p = sub.add_parser("hof-check", help="exact trace-cumulant identity and "
                                         "triangle inequality report")
    p.add_argument("--n", type=_int_list, default=(3, 4),
                   help="matrix sizes; the exact path needs n >= total order")
    p.add_argument("--max-order", type=int, default=3)
    p.add_argument("--inequality-order", type=int, default=6)

    p = sub.add_parser("simulate", help="replica trace tables and cumulants")
    p.add_argument("--spectrum", type=_fraction_list, required=True,
                   help="eigenvalues, e.g. 1,0,-1")
    p.add_argument("--eps", type=_fraction, default=Fraction(1))
    p.add_argument("--powers", type=_int_list, default=(1, 2))
    p.add_argument("--replicas", type=int, default=None)

    p = sub.add_parser("freeconv", help="free convolution / compression of "
                                        "moment sequences")
    p.add_argument("--a", type=_fraction_list, required=True)
    p.add_argument("--b", type=_fraction_list, default=None)
    p.add_argument("--compress", type=_fraction, default=None)
    return parser


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_int_list(value) -> bool:
    return isinstance(value, list) and all(map(_is_int, value))


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, float)


def _is_rational(value) -> bool:
    try:    # refuses "1/0", NaN, inf, and the str() of a bool, null or list
        Fraction(str(value))
    except (ValueError, ZeroDivisionError):
        return False
    return True


# config-file keys: what each must be, and the check
_CONFIG_SCHEMA = {
    "schedule": ("a list of integers", _is_int_list),
    "corner_sizes": ("a list of integers", _is_int_list),
    "eps_exponent": ("a number", _is_number),
    "amplitude": ("a number", _is_number),
    "row_amplitude": ("a number", _is_number),
    "alpha": ("a finite rational: a number or a string such as \"1/2\"",
              _is_rational),
    "replicas": ("an integer", _is_int),
    "max_order": ("an integer", _is_int),
    "seed": ("an integer", _is_int),
}


def _read_config(path: Path, command: str, allowed: set) -> dict:
    try:    # malformed JSON, or an integer past Python's digit limit
        raw = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError(f"config {path}: expected a JSON object")
    unknown = sorted(set(raw) - allowed)
    if unknown:
        raise ValueError(f"config {path}: unknown keys {unknown} for "
                         f"{command}; allowed: {sorted(allowed)}")
    for key, value in raw.items():
        what, ok = _CONFIG_SCHEMA[key]
        if not ok(value):
            raise ValueError(f"config {path}: {key!r} must be {what}, "
                             f"got {value!r}")
    return raw


def _load_config(args, **defaults) -> experiments.ExperimentConfig:
    """Flags override the config file, which overrides the defaults.  The
    file may set only the keys that the command's parsed flags carry, the
    global `seed` among them."""
    allowed = {key for key in _CONFIG_SCHEMA if hasattr(args, key)}
    raw = ({} if args.config is None
           else _read_config(Path(args.config), args.command, allowed))
    kwargs = dict(defaults)
    for key in _CONFIG_SCHEMA:
        flag = getattr(args, key, None)
        if flag is not None:
            kwargs[key] = flag
        elif key == "alpha" and key in raw:   # so that a JSON 0.1 means 1/10
            kwargs[key] = Fraction(str(raw[key]))
        elif key in raw:    # a JSON list becomes a tuple, as a flag's list is
            kwargs[key] = tuple(raw[key]) if isinstance(raw[key], list) else raw[key]
    kwargs["threads"] = args.threads
    return experiments.ExperimentConfig(**kwargs)


def _write_csv(path: Path, header, rows, preamble=()) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerows([_cell(x) for x in row] for row in preamble)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(row[h]) for h in header])


def _cell(value):
    # plain-float repr keeps CSV output byte-stable across numpy versions
    if isinstance(value, float):
        return repr(float(value))
    return value


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def cmd_spectral(args) -> int:
    l = ShiftedWeight(args.l)
    if args.order < 1:
        raise ValueError(f"--order must be at least 1; got {args.order}")
    gamma = zelobenko_weights(l)
    naive = naive_spectral_measure(l).dilate(args.eps)
    natural = natural_spectral_measure(l).dilate(args.eps)
    payload = {
        "l": list(l.entries),
        "eps": _rational_str(args.eps),
        "gamma": [_rational_str(g) for g in gamma],
        "gamma_decimal": [float(g) for g in gamma],
        "naive_moments": [_rational_str(naive.moment(k))
                          for k in range(1, args.order + 1)],
        "natural_moments": [_rational_str(natural.moment(k))
                            for k in range(1, args.order + 1)],
        "natural_moments_decimal": [
            experiments.exact_float(natural.moment(k), "natural_moments_decimal")
            for k in range(1, args.order + 1)],
    }
    print(json.dumps(payload, indent=2))
    return 0


def cmd_tensor(args) -> int:
    config = _load_config(args)
    rows = experiments.tensor_experiment(config)
    header = ["n", "k", "components", "rep_mean", "rep_var", "free_target",
              "mc_mean", "mc_se", "rel_gap"]
    args.out.mkdir(parents=True, exist_ok=True)
    _write_csv(args.out / "tensor.csv", header, rows)
    exact = [{
        "n": row["n"], "k": row["k"],
        "rep_mean": _rational_str(row["rep_mean_exact"]),
        "rep_var": _rational_str(row["rep_var_exact"]),
        "free_target": _rational_str(row["free_target_exact"]),
    } for row in rows]
    _write_json(args.out / "tensor_exact.json",
                {"eps_exponent": config.eps_exponent, "rows": exact})
    print(f"wrote {args.out / 'tensor.csv'} ({len(rows)} rows)")
    return 0


def cmd_restrict(args) -> int:
    config = _load_config(args, schedule=(4, 6, 8),
                          amplitude=experiments.RESTRICTION_AMPLITUDE)
    rows = experiments.restriction_experiment(config)
    header = ["n", "m", "k", "branch_mean", "compress_target",
              "corner_mc_mean", "corner_mc_se", "rel_gap", "note"]
    args.out.mkdir(parents=True, exist_ok=True)
    _write_csv(args.out / "restrict.csv", header, rows)
    exact = [{
        "n": row["n"], "k": row["k"],
        "branch_mean": _rational_str(row["branch_mean_exact"]),
        "compress_target": _rational_str(row["compress_target_exact"]),
    } for row in rows if row["branch_mean_exact"] is not None]
    _write_json(args.out / "restrict_exact.json",
                {"eps_exponent": config.eps_exponent,
                 "alpha": _rational_str(config.alpha), "rows": exact})
    print(f"wrote {args.out / 'restrict.csv'} ({len(rows)} rows)")
    return 0


def cmd_hof_check(args) -> int:
    report = hof.hof_check(args.n, max_order=args.max_order,
                           inequality_order=args.inequality_order)
    print(json.dumps(report, indent=2))
    return 0


def cmd_simulate(args) -> int:
    config = _load_config(args, replicas=1000)
    seed, replicas = config.seed, config.replicas
    if any(abs(x) > sys.float_info.max for x in (*args.spectrum, args.eps)):
        raise ValueError("the spectrum and eps must fit in a float")
    # the output rows are keyed by power: a repeat would write each twice
    if len(set(args.powers)) != len(args.powers):
        raise ValueError(f"trace powers must not repeat; got {list(args.powers)}")
    spec = rmt.EnsembleSpec.fixed(args.spectrum, eps=args.eps)
    values = rmt.trace_statistics(spec, args.powers, replicas=replicas,
                                  seed=seed, threads=config.threads).values
    summary = {"n": spec.n, "eps": _rational_str(args.eps),
               "seed": seed, "replicas": replicas, "cumulants": []}
    # finite traces can still overflow a moment: refused before any file
    with np.errstate(over="ignore", invalid="ignore"):
        for i, p in enumerate(args.powers):
            row = {"p": p}
            for name, j in (("mean", 1), ("variance", 2), ("third", 3)):
                est = cumulants.estimate_cumulants(
                    values, (i,) * j, rng=np.random.default_rng(seed))
                row[name], row[f"{name}_se"] = (float(est.value.real),
                                                float(est.stderr))
            bad = [key for key, x in row.items() if not np.isfinite(x)]
            if bad:
                raise ValueError(f"the {bad[0]} of tr X^{p} is not finite "
                                 f"({row[bad[0]]})")
            summary["cumulants"].append(row)
    args.out.mkdir(parents=True, exist_ok=True)
    # the spectrum's label: the hash of its exact size, atoms and eps;
    # imported here, as no other command needs hashlib at start-up
    import hashlib
    label = hashlib.sha1(repr((spec.n, spec.atoms, str(spec.eps))).encode())
    _write_csv(args.out / "traces.csv", ["replica", "p", "value"],
               ({"replica": r, "p": p, "value": float(x)}
                for r, row in enumerate(values)
                for p, x in zip(args.powers, row)),
               preamble=[["n", "eps", "seed", "spec"],
                         [spec.n, float(spec.eps), seed, label.hexdigest()[:12]]])
    _write_json(args.out / "summary.json", summary)
    print(f"wrote {args.out / 'traces.csv'} ({replicas} replicas)")
    return 0


def cmd_freeconv(args) -> int:
    payload = {"a_moments": [_rational_str(x) for x in args.a],
               "a_free_cumulants": [_rational_str(x) for x in
                                    moments_to_free_cumulants(list(args.a))]}
    if args.b is not None:
        order = min(len(args.a), len(args.b))
        conv = free_convolve(list(args.a), list(args.b), order)
        payload["b_moments"] = [_rational_str(x) for x in args.b]
        payload["convolution_moments"] = [_rational_str(x) for x in conv]
    if args.compress is not None:
        comp = free_compress(list(args.a), args.compress)
        payload["compression_alpha"] = _rational_str(args.compress)
        payload["compression_moments"] = [_rational_str(x) for x in comp]
    print(json.dumps(payload, indent=2))
    return 0


_COMMANDS = {
    "spectral": cmd_spectral,
    "tensor": cmd_tensor,
    "restrict": cmd_restrict,
    "hof-check": cmd_hof_check,
    "simulate": cmd_simulate,
    "freeconv": cmd_freeconv,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:   # argparse's exit: 0 for --help, 2 for a refusal
        return exc.code
    try:
        experiments.check_threads(args.threads)
        # only the commands that build an ExperimentConfig read --config
        if args.config is not None and args.command not in (
                "tensor", "restrict", "simulate"):
            raise ValueError(f"{args.command} reads no config file; --config "
                             f"is for tensor, restrict and simulate")
        return _COMMANDS[args.command](args)
    except GuardError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
