"""Command-line entry point.

Exit codes: 0 = all checks pass, 2 = a theorem check failed,
3 = validation or precondition error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import experiments, moments
from .core import ExpKantError, SamplingScheme, ValidationError

EXIT_PASS = 0
EXIT_THEOREM_FAIL = 2
EXIT_VALIDATION = 3


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ValidationError("config must be a JSON object")
    return cfg


def _parse_profile(text: str):
    """NAME or NAME:N, as the config profile {"name": NAME, "n": N}."""
    name, _, arg = text.partition(":")
    return experiments.build_profile({"name": name, "n": arg} if arg
                                     else {"name": name})


def _parse_scheme(text: str) -> SamplingScheme:
    parts = text.split(":")
    if parts[0] != "uniform" or len(parts) > 3:
        raise ValidationError(
            "scheme must be uniform:STEP or uniform:STEP:OFFSET")
    try:
        step = float(parts[1]) if len(parts) > 1 and parts[1] else 1.0
        offset = float(parts[2]) if len(parts) > 2 else 0.0
    except ValueError:
        raise ValidationError(
            f"scheme step and offset must be numbers (got {text!r})") from None
    return SamplingScheme.uniform(step, offset)


def _cmd_run(args) -> int:
    report = experiments.run(_load_config(args.config))
    print(f"experiment {report['experiment']}: "
          f"{'PASS' if report['passed'] else 'FAIL'}")
    return EXIT_PASS if report["passed"] else EXIT_THEOREM_FAIL


def _cmd_audit(args) -> int:
    cfg = _load_config(args.config)
    cfg.setdefault("experiment", "audit_kernel")
    if cfg["experiment"] != "audit_kernel":
        raise ValidationError(
            "audit expects an audit_kernel config "
            f"(got {cfg['experiment']!r})")
    report = experiments.run(cfg)
    for row in report["rows"]:
        print(f"{row['condition']}: {'pass' if row['passed'] else 'FAIL'}")
    return EXIT_PASS if report["passed"] else EXIT_THEOREM_FAIL


def _cmd_moments(args) -> int:
    profile = _parse_profile(args.profile)
    scheme = _parse_scheme(args.scheme)
    rep = moments.discrete_moment(profile, scheme, args.beta)
    print(experiments.to_json(rep.to_dict()))
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expkant",
        description="Experiments for nonlinear exponential Kantorovich "
                    "sampling operators")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a JSON config")
    p_run.add_argument("config", help="path to the JSON config")
    p_run.set_defaults(func=_cmd_run)

    p_audit = sub.add_parser("audit",
                             help="audit kernel admissibility conditions")
    p_audit.add_argument("config", help="path to the JSON config")
    p_audit.set_defaults(func=_cmd_audit)

    p_mom = sub.add_parser("moments", help="print one discrete moment")
    p_mom.add_argument("--profile", required=True,
                       help="profile name, e.g. bspline:2 or mellin_fejer")
    p_mom.add_argument("--beta", type=float, required=True,
                       help="moment order (>= 0)")
    p_mom.add_argument("--scheme", default="uniform:1",
                       help="sampling scheme, e.g. uniform:1")
    p_mom.set_defaults(func=_cmd_moments)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ExpKantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
