"""Command-line entry point.

Subcommands:
  run    Monte-Carlo sweep over the requested algorithms -> CSV.
  se     state-evolution traces (sequential vs static prior) -> CSV.
  check  acceptance / property suite, one PASS/FAIL line per criterion.

Exit codes: 0 success, 1 configuration error (a usage error such as an
unknown flag too), 2 ran but something failed: an algorithm error in
``run`` or a state-evolution fixpoint that did not converge in ``se`` (NaN
rows recorded, remaining points completed), or a criterion that failed in
``check``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .experiments import (ALGORITHMS, CONFIG_KEYS, SCALAR_KEYS, ConfigError,
                          check_se_axis, load_config, run_experiment, run_se,
                          write_csv, write_se_csv)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on a usage error, the code that here means something failed."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_hidden(parser: argparse.ArgumentParser, key: str) -> None:
    parser.add_argument(f"--{key.replace('_', '-')}", dest=key, metavar="V",
                        help=argparse.SUPPRESS)


def _add_common(parser: argparse.ArgumentParser) -> None:
    """The flags of both ``run`` and ``se``."""
    parser.add_argument("--config", metavar="PATH", help="key = value config file")
    parser.add_argument("--seed", help="master seed (64-bit)")
    parser.add_argument("--desk", action="store_true",
                        help="desk-scale profile (N=500, L=125, T=10, 20 trials)")
    parser.add_argument("--out", metavar="PATH", help="output CSV path")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for run's trials or se's sweep "
                             "points (default 1)")
    # every other config key but run's own has a hidden flag of its own name
    for key in SCALAR_KEYS:
        if key not in ("seed", "n_trials", "amp_iters"):
            _add_hidden(parser, key)


def _add_run_only(parser: argparse.ArgumentParser) -> None:
    """The flags of ``run`` alone: se runs no algorithms, no trials and no AMP.

    ``se`` config files may still set these keys, since the two commands
    share config files.
    """
    parser.add_argument("--trials", dest="n_trials",
                        help="Monte-Carlo trials per point")
    parser.add_argument("--algos", metavar="LIST",
                        help="comma list from: " + " ".join(ALGORITHMS))
    _add_hidden(parser, "amp_iters")


def _flags_from_args(args: argparse.Namespace) -> dict:
    """Config entries of the config-key flags given on the command line."""
    given = vars(args)
    return {key: given[key] for key in CONFIG_KEYS if given.get(key) is not None}


def _check_out(path: str) -> None:
    """Raise ConfigError unless a CSV can be written at ``path``; checked before the run."""
    target = Path(path)
    if not target.parent.is_dir():
        raise ConfigError(f"cannot write {path}: {target.parent} is not a directory")
    if target.is_dir():
        raise ConfigError(f"cannot write {path}: it is a directory")


def _criteria_ids(text: str | None) -> list[int] | None:
    """Criterion numbers from a comma list; None (all) when not given.

    A list that names no criterion, or one criterion twice, is a ConfigError.
    """
    if text is None:
        return None
    from . import acceptance
    ids = []
    for tok in filter(None, (t.strip() for t in text.split(","))):
        cid = int(tok) if tok.isdecimal() else None
        if cid not in acceptance.CHECKS:
            raise ConfigError(f"--criteria: no criterion {tok!r} "
                              f"(choose from {min(acceptance.CHECKS)}-"
                              f"{max(acceptance.CHECKS)})")
        if cid in ids:
            raise ConfigError(f"--criteria: criterion {cid} given twice")
        ids.append(cid)
    if not ids:
        raise ConfigError(f"--criteria: {text!r} names no criterion")
    return ids


def main(argv=None) -> int:
    parser = _Parser(
        prog="seqamp",
        description="Sequential AMP activity detection / channel estimation "
                    "experiment harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run Monte-Carlo sweeps, write metrics CSV")
    _add_common(p_run)
    _add_run_only(p_run)
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
            spec = load_config(args.config, _flags_from_args(args), desk=args.desk,
                               workers=args.workers)
            if args.command == "se":
                check_se_axis(spec)
            out = spec.out or ("se_trace.csv" if args.command == "se" else "results.csv")
            _check_out(out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    if args.command == "check":
        from . import acceptance
        return 0 if acceptance.run_checks(ids) else 2

    if args.command == "se":
        kind, errors = "state-evolution", []
        rows = run_se(spec, errors=errors)
        write_se_csv(rows, out)
    else:
        kind = "algorithm"
        rows, errors = run_experiment(spec)
        write_csv(rows, out)
    print(f"wrote {len(rows)} rows to {out}")
    for line in errors:
        print(f"{kind} error: {line}", file=sys.stderr)
    return 2 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
