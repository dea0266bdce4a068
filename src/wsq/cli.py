"""Command-line surface: decide, construct, and certify from instance files.

Exit codes follow one contract across all subcommands: 0 for an
affirmative verdict, 1 for a negative verdict, 2 for errors; every
verdict is decided exactly, none is left undecided.  Certificates go
to stdout as JSON; human-readable diagnostics go to stderr.  --tol
overrides the default tolerance, and the certificate records the
tolerance that applied.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import fileio, minimality, petz, sufficiency
from .petz import Feasible, InfeasibleOrthogonality

AFFIRMATIVE, NEGATIVE, ERROR = 0, 1, 2


def _load(args, need_statistic: bool) -> fileio.Instance:
    """The read instance; its statistic is decomposed only when read."""
    with open(args.input, encoding="utf-8") as handle:
        text = handle.read()
    instance = fileio.read_instance(text)
    if need_statistic and not instance.has_statistic:
        raise ValueError("instance file carries no statistic; one is required here")
    return instance


def _cmd_check(args) -> int:
    instance = _load(args, need_statistic=True)
    statistic, family = instance.statistic, instance.family
    tol = args.tol
    kwargs = {} if tol is None else {"tol": tol}
    verdict = sufficiency.check_weak_sufficiency(statistic, family, **kwargs)
    overrides = None if tol is None else {"rank": tol, "witness": tol}
    cert = fileio.make_certificate("weak_sufficiency", verdict,
                                   tolerances=overrides)
    print(fileio.serialize_certificate(cert))
    if verdict.sufficient:
        check = sufficiency.verify_witness(statistic, family, verdict.witness)
        print(f"sufficient; witness residual {check.max_residual:.3e}", file=sys.stderr)
        return AFFIRMATIVE
    reasons = ", ".join(type(v).__name__ for v in verdict.violations)
    print(f"not sufficient ({reasons})", file=sys.stderr)
    return NEGATIVE


def _cmd_construct(args) -> int:
    family = _load(args, need_statistic=False).family
    tol = args.tol
    kwargs = {} if tol is None else {"tol": tol}
    result = sufficiency.exists_weakly_sufficient(family, **kwargs)
    overrides = None if tol is None else {"rank": tol, "witness": tol}
    cert = fileio.make_certificate("existence", result, tolerances=overrides)
    print(fileio.serialize_certificate(cert))
    if isinstance(result, sufficiency.ConstructedStatistic):
        print(f"constructed a statistic with {len(result.statistic)} atoms",
              file=sys.stderr)
        return AFFIRMATIVE
    print("no weakly sufficient statistic exists (inconsistent phase cycle)",
          file=sys.stderr)
    return NEGATIVE


def _cmd_minimal(args) -> int:
    instance = _load(args, need_statistic=True)
    statistic, family = instance.statistic, instance.family
    tol = args.tol
    kwargs = {} if tol is None else {"tol": tol}
    result = minimality.minimal_statistic(statistic, family, **kwargs)
    overrides = None if tol is None else {"rank": tol}
    cert = fileio.make_certificate("minimality", result, tolerances=overrides)
    print(fileio.serialize_certificate(cert))
    if isinstance(result, minimality.NoMinimalExists):
        print(f"no minimal statistic: atom {result.dead_atom} carries no state",
              file=sys.stderr)
        return NEGATIVE
    print(f"minimal statistic has {len(result.statistic)} atoms", file=sys.stderr)
    return AFFIRMATIVE


def _cmd_petz(args) -> int:
    loaded = _load(args, need_statistic=True)
    tol = args.tol
    # an overlap refusal rests on the states alone: no statistic is decomposed
    bad = petz.orthogonality_precheck(loaded.family)
    if bad is not None:
        result = InfeasibleOrthogonality(pair=bad[0], overlap=bad[1])
    else:
        instance = petz.PetzInstance.from_parts(loaded.statistic, loaded.family,
                                                unital=not args.non_unital)
        kwargs = {} if tol is None else {"tol": tol}
        result = petz.petz_feasibility(instance, **kwargs)
    overrides = None if tol is None else {"petz_feasibility": tol}
    cert = fileio.make_certificate("petz", result,
                                   parameters={"unital": not args.non_unital},
                                   tolerances=overrides)
    print(fileio.serialize_certificate(cert))
    if isinstance(result, Feasible):
        print(f"feasible (residual {result.max_constraint_residual:.3e})", file=sys.stderr)
        return AFFIRMATIVE
    if isinstance(result, InfeasibleOrthogonality):
        print(f"infeasible: states {result.pair[0]!r} and {result.pair[1]!r} "
              f"overlap by {abs(result.overlap):.8f}", file=sys.stderr)
        return NEGATIVE
    atoms = ", ".join(f"{k} (with {other!r})" for k, other in result.pairs)
    print(f"infeasible: state {result.state!r} shares atoms {atoms}", file=sys.stderr)
    return NEGATIVE


def _cmd_oracle(args) -> int:
    from . import harness

    instance = _load(args, need_statistic=True)
    statistic, family = instance.statistic, instance.family
    verdict = sufficiency.check_weak_sufficiency(statistic, family)
    brute = harness.brute_force_weak_sufficiency(statistic, family,
                                                 phase_steps=args.steps)
    agree = verdict.sufficient == brute
    report = {
        "checker": verdict.sufficient,
        "brute_force": brute,
        "phase_steps": args.steps,
        "agreement": agree,
    }
    import json

    print(json.dumps(report, indent=2, sort_keys=True))
    print("oracle agrees" if agree else "ORACLE DISAGREEMENT", file=sys.stderr)
    return AFFIRMATIVE if agree else NEGATIVE


def _cmd_selftest(args) -> int:
    from . import harness

    failures = harness.bundled_example_checks()
    for line in failures:
        print(f"bundled example FAILED: {line}", file=sys.stderr)
    report = harness.run_property_suite(seed=args.seed, count=args.count)
    print(report.render())
    if failures or not report.ok:
        return NEGATIVE
    return AFFIRMATIVE


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and reused by run_cli."""
    parser = argparse.ArgumentParser(
        prog="wsq",
        description="decide, construct, and certify sufficiency of discrete "
                    "statistics for families of vector states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--input", required=True, help="instance file (JSON)")
        p.add_argument("--tol", type=float, default=None,
                       help="override the default tolerance")

    p = sub.add_parser("check", help="decide weak sufficiency of the file's statistic")
    add_common(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("construct",
                       help="construct a weakly sufficient statistic or prove none exists")
    add_common(p)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("minimal", help="construct the minimal sufficient coarse-graining")
    add_common(p)
    p.set_defaults(func=_cmd_minimal)

    p = sub.add_parser("petz", help="decide channel-sufficiency feasibility")
    add_common(p)
    p.add_argument("--non-unital", action="store_true",
                   help="drop the trace-one constraint on the solution blocks")
    p.set_defaults(func=_cmd_petz)

    p = sub.add_parser("oracle", help="cross-check the decision against brute force")
    add_common(p)
    p.add_argument("--steps", type=int, default=24,
                   help="phase grid resolution for the brute-force search")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("selftest", help="run bundled examples and the property suite")
    p.add_argument("--seed", type=int, default=0, help="property suite seed")
    p.add_argument("--count", type=int, default=20,
                   help="random instances per property")
    p.set_defaults(func=_cmd_selftest)
    return parser


def run_cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return ERROR if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (fileio.SchemaError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ERROR


def main() -> None:
    sys.exit(run_cli())
