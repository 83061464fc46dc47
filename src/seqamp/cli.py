"""Command-line entry point.

Subcommands:
  run    Monte-Carlo sweep over the requested algorithms -> CSV.
  se     state-evolution traces (sequential vs static prior) -> CSV.
  check  acceptance / property suite, one PASS/FAIL line per criterion.

Exit codes: 0 success, 1 configuration error, 2 partial algorithm failure
(error rows recorded, remaining points completed).
"""

from __future__ import annotations

import argparse
import sys

from . import acceptance
from .experiments import (SCALAR_KEYS, ConfigError, load_config,
                          run_experiment, run_se, write_csv, write_se_csv)

# config keys that may be set straight from the command line; seed and
# n_trials have their own --seed and --trials flags
_FLAG_KEYS = tuple(k for k in SCALAR_KEYS if k not in ("seed", "n_trials"))


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="key = value config file")
    parser.add_argument("--seed", type=int, help="master seed (64-bit)")
    parser.add_argument("--trials", type=int, help="Monte-Carlo trials per point")
    parser.add_argument("--desk", action="store_true",
                        help="desk-scale profile (N=500, L=125, T=10, 20 trials)")
    parser.add_argument("--out", metavar="PATH", help="output CSV path")
    parser.add_argument("--algos", metavar="LIST",
                        help="comma list from: s_amp amp_mmse amp_soft omp "
                             "oracle_ls se_trace")
    parser.add_argument("--workers", type=int, default=1,
                        help="parallel trial workers (default 1)")
    for key in _FLAG_KEYS:
        parser.add_argument(f"--{key.replace('_', '-')}", dest=key, metavar="V",
                            help=argparse.SUPPRESS)


def _flags_from_args(args: argparse.Namespace) -> dict:
    flags = {}
    for key in _FLAG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            flags[key] = value
    if args.seed is not None:
        flags["seed"] = args.seed
    if args.trials is not None:
        flags["n_trials"] = args.trials
    if args.algos is not None:
        flags["algos"] = args.algos
    if args.out is not None:
        flags["out"] = args.out
    return flags


def _criteria_ids(text: str | None) -> list[int] | None:
    """Criterion numbers from a comma list; None (all) when not given."""
    if not text:
        return None
    ids = []
    for tok in filter(None, (t.strip() for t in text.split(","))):
        cid = int(tok) if tok.isdecimal() else None
        if cid not in acceptance.CHECKS:
            raise ConfigError(f"--criteria: no criterion {tok!r} "
                              f"(choose from {min(acceptance.CHECKS)}-"
                              f"{max(acceptance.CHECKS)})")
        ids.append(cid)
    return ids


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="seqamp",
        description="Sequential AMP activity detection / channel estimation "
                    "experiment harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run Monte-Carlo sweeps, write metrics CSV")
    _add_common(p_run)
    p_se = sub.add_parser("se", help="run state-evolution traces, write CSV")
    _add_common(p_se)
    p_check = sub.add_parser("check", help="run the acceptance suite")
    p_check.add_argument("--criteria", metavar="LIST",
                         help="comma list of criterion numbers (default all)")

    args = parser.parse_args(argv)

    try:
        if args.command == "check":
            ids = _criteria_ids(args.criteria)
        else:
            spec = load_config(args.config, _flags_from_args(args),
                               desk=args.desk, workers=args.workers)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    if args.command == "check":
        return 0 if acceptance.run_checks(ids) else 1

    if args.command == "se":
        rows = run_se(spec)
        out = spec.out if spec.out != "results.csv" else "se_trace.csv"
        write_se_csv(rows, out)
        print(f"wrote {len(rows)} rows to {out}")
        return 0

    # run
    records, errors = run_experiment(spec)
    write_csv(records, spec.out)
    if "se_trace" in spec.algorithms:
        se_out = spec.out + ".se.csv"
        write_se_csv(run_se(spec), se_out)
        print(f"wrote state-evolution rows to {se_out}")
    print(f"wrote {len(records)} rows to {spec.out}")
    for line in errors:
        print(f"algorithm error: {line}", file=sys.stderr)
    return 2 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
