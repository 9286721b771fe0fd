"""Command line entry point.

Subcommands: run (sweep a config grid), worst-case (adversarial noise
directions), certify (empirical certificate check), rates (export a
theoretical curve), reproduce-fig1 (the bundled benchmark preset).

Exit codes: 0 success, 1 validation error, 2 certificate refuted,
3 divergence.  A config file that cannot be read, or an output that cannot
be written, is a validation error too, reported as one "error:" line, and
so is a command line the parser refuses, after its usage line.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import harness, rates
from .harness import ConfigError


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse would exit 2, the code of a refuted certificate
        self.print_usage(sys.stderr)
        raise ConfigError(f"{self.prog}: {message}")


def _build_parser():
    parser = _Parser(
        prog="proxiq",
        description="proximal gradient experiments with inexact oracles")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the experiment grid from a JSON config")
    p_run.add_argument("config", type=Path, help="path to the config file")

    p_worst = sub.add_parser("worst-case",
                             help="rerun the grid picking the worst noise direction per step")
    p_worst.add_argument("config", type=Path, help="path to the config file")

    p_cert = sub.add_parser("certify",
                            help="check the grid's oracle certificates on sampled pairs")
    p_cert.add_argument("config", type=Path, help="path to the config file")
    p_cert.add_argument("--pairs", type=int, default=1000)
    p_cert.add_argument("--tolerance", type=float, default=1e-7)

    p_rates = sub.add_parser("rates", help="export a theoretical bound curve as CSV")
    p_rates.add_argument("kind", choices=rates.CURVE_KINDS)
    p_rates.add_argument("output", type=Path)
    p_rates.add_argument("--param", action="append", default=[], metavar="NAME=VALUE",
                         help="curve parameter, repeatable")
    p_rates.add_argument("--k-min", type=float, default=1.0)
    p_rates.add_argument("--k-max", type=float, default=10000.0)
    p_rates.add_argument("--points", type=int, default=200,
                         help="number of log-spaced sample points")

    p_fig = sub.add_parser("reproduce-fig1", help="run the bundled benchmark preset")
    p_fig.add_argument("output_dir", type=Path)
    p_fig.add_argument("--iterations", type=int, default=5000)
    p_fig.add_argument("--repeats", type=int, default=5)
    p_fig.add_argument("--master-seed", type=int, default=0)

    return parser


def _parse_params(pairs):
    params = {}
    for item in pairs:
        name, sep, value = item.partition("=")
        if not sep or not name:
            raise ConfigError(f"expected NAME=VALUE, got {item!r}")
        if name in params:
            raise ConfigError(f"parameter {name} is given twice")
        try:
            params[name] = float(value)
        except ValueError as exc:
            raise ConfigError(f"parameter {name} is not a number: {value!r}") from exc
        if not math.isfinite(params[name]):
            raise ConfigError(f"parameter {name} must be a finite number, got {value!r}")
    return params


def _sweep_exit(results):
    return 3 if any(cell.status == "diverged" for cell in results) else 0


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "run":
            results = harness.run_experiment(harness.load_config(args.config))
            return _sweep_exit(results)
        if args.command == "worst-case":
            results = harness.run_worst_case(harness.load_config(args.config))
            return _sweep_exit(results)
        if args.command == "certify":
            config = harness.load_config(args.config)
            ok = harness.certify_command(config, pairs=args.pairs, tolerance=args.tolerance)
            report = Path(config.output_dir) / "certification.txt"
            print(report.read_text().rstrip())
            return 0 if ok else 2
        if args.command == "rates":
            if not 0 <= args.k_min <= args.k_max < math.inf or args.points < 1:
                raise ConfigError("need finite 0 <= k-min <= k-max and at least one point")
            lo = max(args.k_min, 1e-9)
            ks = np.unique(np.round(np.logspace(np.log10(lo), np.log10(max(args.k_max, lo)),
                                                args.points)))
            values = rates.sample_curve(args.kind, _parse_params(args.param), ks)
            rates.write_csv(args.output, ("k", "bound"), (ks, values))
            return 0
        config = harness.fig1_config(args.output_dir, iterations=args.iterations,
                                     repeats=args.repeats, master_seed=args.master_seed)
        return _sweep_exit(harness.run_experiment(config))
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
