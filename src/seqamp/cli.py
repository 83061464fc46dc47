"""Command-line entry point.

Subcommands:
  run    Monte-Carlo sweep over the requested algorithms -> CSV.
  se     state-evolution traces (sequential vs static prior) -> CSV.
  check  acceptance / property suite, one PASS/FAIL line per criterion.

Exit codes: 0 success, 1 configuration error (a usage error such as an
unknown flag too), 2 partial failure: an algorithm error in ``run`` or a
state-evolution fixpoint that did not converge in ``se`` (NaN rows
recorded, remaining points completed).
"""

from __future__ import annotations

import argparse
import sys

from . import acceptance
from .experiments import (ALGORITHMS, SCALAR_KEYS, SE_SWEEP_KEYS, ConfigError,
                          load_config, run_experiment, run_se, write_csv,
                          write_se_csv)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on a usage error, the code that here means rows failed."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="key = value config file")
    parser.add_argument("--seed", type=int, help="master seed (64-bit)")
    parser.add_argument("--trials", dest="n_trials", type=int,
                        help="run only: Monte-Carlo trials per point")
    parser.add_argument("--desk", action="store_true",
                        help="desk-scale profile (N=500, L=125, T=10, 20 trials)")
    parser.add_argument("--out", metavar="PATH", help="output CSV path")
    parser.add_argument("--algos", metavar="LIST",
                        help="run only: comma list from: " + " ".join(ALGORITHMS))
    parser.add_argument("--workers", type=int,
                        help="run only: parallel trial workers (default 1)")
    # every other config key has a hidden flag of its own name
    for key in SCALAR_KEYS:
        if key not in ("seed", "n_trials"):
            parser.add_argument(f"--{key.replace('_', '-')}", dest=key, metavar="V",
                                help=argparse.SUPPRESS)


def _flags_from_args(args: argparse.Namespace) -> dict:
    """Config entries of the config-key flags given on the command line."""
    return {key: getattr(args, key) for key in SCALAR_KEYS + ("algos", "out")
            if getattr(args, key) is not None}


def _reject_run_only_flags(args: argparse.Namespace) -> None:
    """``se`` runs no algorithms and no Monte-Carlo trials, in one process.

    A config file's keys are still accepted, since ``run`` and ``se`` share
    config files; only the flags, which would be ignored, are refused.
    """
    flags = (("--algos", "algos"), ("--workers", "workers"), ("--trials", "n_trials"),
             ("--amp-iters", "amp_iters"))
    given = [flag for flag, dest in flags if getattr(args, dest) is not None]
    if given:
        raise ConfigError(f"se does not take {' or '.join(given)}")


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
    parser = _Parser(
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
            if args.command == "se":
                _reject_run_only_flags(args)
            workers = 1 if args.workers is None else args.workers
            spec = load_config(args.config, _flags_from_args(args),
                               desk=args.desk, workers=workers)
            if args.command == "se" and spec.axis not in (None, *SE_SWEEP_KEYS):
                # its rows would carry the same labels at every sweep point
                raise ConfigError(f"se cannot sweep {spec.axis}: an SE row shows "
                                  "only pilot_len and tx_power_dbm")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    if args.command == "check":
        return 0 if acceptance.run_checks(ids) else 1

    if args.command == "se":
        kind, errors = "state-evolution", []
        rows = run_se(spec, errors=errors)
        out = spec.out or "se_trace.csv"
        write_se_csv(rows, out)
    else:
        kind = "algorithm"
        rows, errors = run_experiment(spec)
        out = spec.out or "results.csv"
        write_csv(rows, out)
    print(f"wrote {len(rows)} rows to {out}")
    for line in errors:
        print(f"{kind} error: {line}", file=sys.stderr)
    return 2 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
