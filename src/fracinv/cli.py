"""Command-line front end.

Subcommands: forward, estimate-t, recover-bp, recover-isp, recover-ipp,
table, convergence, ml-eval. Exit codes: 0 success, 2 configuration error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import re
import sys

from .config import parse_config
from .errors import ConfigError, FracinvError, ParameterError
from .mittag_leffler import POSITIVE_Z_MAX, MLParams, ml_eval

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="experiment config file")
    p.add_argument("--out", default=None, help="output directory (overrides config)")
    p.add_argument("--seed", type=int, default=None, help="base RNG seed (overrides config)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="fracinv",
                                 description="subdiffusion snapshots and joint "
                                             "(parameter, terminal-time) recovery")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("forward", "estimate-t", "recover-bp", "recover-isp",
                 "recover-ipp", "table", "convergence"):
        _add_common(sub.add_parser(name))
    sub.choices["table"].add_argument("--threads", type=int, default=1,
                                      help="parallel grid cells")
    ml = sub.add_parser("ml-eval", help="print E_{alpha,beta}(z) to 15 digits")
    # argparse reads only plain decimals as negative numbers, -5e1 as an option
    ml._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)
    ml.add_argument("alpha", type=float)
    ml.add_argument("beta", type=float)
    ml.add_argument("z", type=float)
    return ap


def _ml_params(args) -> MLParams:
    """The order pair of `ml-eval`, with its arguments checked as configuration."""
    try:
        params = MLParams(args.alpha, args.beta)
    except ParameterError as exc:
        raise ConfigError(str(exc)) from None
    if not (math.isfinite(args.z) and args.z <= POSITIVE_Z_MAX):
        raise ConfigError(f"z must be finite and at most {POSITIVE_Z_MAX}, got {args.z}")
    return params


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "ml-eval":
            value = ml_eval(_ml_params(args), args.z)
            print(f"{value:.15g}")
            return EXIT_OK

        from . import experiments

        cfg = parse_config(args.config, seed=args.seed, out_dir=args.out)
        if args.command == "forward":
            written = experiments.run_forward(cfg)
            for path in written:
                print(path)
        elif args.command == "estimate-t":
            for case_id, alpha, t_hat in experiments.run_estimate_t(cfg):
                print(f"{case_id},alpha={alpha:g},T_hat={t_hat:.6f}")
        elif args.command in ("recover-bp", "recover-isp", "recover-ipp"):
            kind = args.command.split("-")[1]
            res = experiments.run_recover(cfg, kind)
            print(f"k_star={res.k_star},T_hat={res.T_hat:.6f},converged={res.converged}")
        elif args.command == "table":
            for row in experiments.run_table(cfg, threads=args.threads):
                print(",".join(str(x) for x in row))
        elif args.command == "convergence":
            report = experiments.run_convergence(cfg)
            print(f"space_order={report.space_order:.3f},time_order={report.time_order:.3f}")
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FracinvError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
