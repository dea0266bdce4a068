"""Command-line surface: decide, construct, and certify from instance files.

Exit codes follow one contract across all subcommands: 0 for an
affirmative verdict, 1 for a negative verdict, 2 for errors.
Certificates go to stdout as JSON; human-readable diagnostics go to
stderr.  minimal on a T that is not weakly sufficient prints check's
certificate and exits 1.  verify replays a certificate against its
instance file: 0 when it verifies, 1 when it does not (the reason on
stderr), 2 when a file or the instance cannot be read.

check, construct, minimal and petz take --tol, the one tolerance their
decision applies; a value outside fileio.TOL_RANGE exits 2.  The
certificate records every tolerance the decision applied, and the
verifier replays it at them.  Besides bad input and a decomposition that
does not converge, exit 2 means: a construct witness that fails its
recorded tolerance (check's and minimal's cannot, by the bound of
sufficiency.tolerances), minimal classes that cannot be separated, or a
feasible petz solution that rebuilds a state less closely than
petz.RECONSTRUCTION_TOL.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import fileio, linalg, minimality, petz, sufficiency
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


def _tol_kwargs(args) -> dict:
    """The decision's tol keyword: empty when --tol was not given."""
    return {} if args.tol is None else {"tol": args.tol}


def _cmd_check(args) -> int:
    instance = _load(args, need_statistic=True)
    statistic, family = instance.statistic, instance.family
    verdict = sufficiency.check_weak_sufficiency(statistic, family, **_tol_kwargs(args))
    cert = fileio.make_certificate("weak_sufficiency", verdict, tol=args.tol)
    print(fileio.serialize_certificate(cert))
    if verdict.sufficient:
        print("sufficient", file=sys.stderr)
        return AFFIRMATIVE
    reasons = ", ".join(type(v).__name__ for v in verdict.violations)
    print(f"not sufficient ({reasons})", file=sys.stderr)
    return NEGATIVE


def _cmd_construct(args) -> int:
    family = _load(args, need_statistic=False).family
    result = sufficiency.exists_weakly_sufficient(family, **_tol_kwargs(args))
    cert = fileio.make_certificate("existence", result, tol=args.tol)
    if isinstance(result, sufficiency.NonExistence):
        print(fileio.serialize_certificate(cert))
        print("no weakly sufficient statistic exists (inconsistent phase cycle)", file=sys.stderr)
        return NEGATIVE
    tol = cert["tolerances"]["witness"]
    check = sufficiency.verify_witness(result.statistic, family, result.witness, tol=tol)
    if not check.ok:
        raise ValueError(f"the statistic was built but its witness residual "
                         f"{check.max_residual:.3e} exceeds {tol:.1e}")
    print(fileio.serialize_certificate(cert))
    print(f"constructed a statistic with {len(result.statistic)} atoms", file=sys.stderr)
    return AFFIRMATIVE


def _cmd_minimal(args) -> int:
    instance = _load(args, need_statistic=True)
    statistic, family = instance.statistic, instance.family
    result = minimality.minimal_statistic(statistic, family, **_tol_kwargs(args))
    refused = isinstance(result, sufficiency.SufficiencyVerdict)
    cert = fileio.make_certificate("weak_sufficiency" if refused else "minimality", result,
                                   tol=args.tol)
    print(fileio.serialize_certificate(cert))
    if refused:
        reasons = ", ".join(type(v).__name__ for v in result.violations)
        print(f"not sufficient ({reasons}), so no coarse-graining is", file=sys.stderr)
        return NEGATIVE
    if isinstance(result, minimality.NoMinimalExists):
        print(f"no minimal statistic: atom {result.dead_atom} carries no state",
              file=sys.stderr)
        return NEGATIVE
    print(f"minimal statistic has {len(result.statistic)} atoms", file=sys.stderr)
    return AFFIRMATIVE


def _cmd_petz(args) -> int:
    loaded = _load(args, need_statistic=True)
    # an overlap refusal rests on the states alone: no statistic is decomposed
    bad = petz.orthogonality_precheck(loaded.family)
    if bad is not None:
        result = InfeasibleOrthogonality(pair=bad[0], overlap=bad[1])
    else:
        instance = petz.PetzInstance.from_parts(loaded.statistic, loaded.family,
                                                unital=not args.non_unital)
        result = petz.petz_feasibility(instance, **_tol_kwargs(args))
        if isinstance(result, Feasible) and \
                result.max_constraint_residual > petz.RECONSTRUCTION_TOL:
            raise ValueError(f"the feasible solution leaves a reconstruction residual "
                             f"{result.max_constraint_residual:.3e} above "
                             f"{petz.RECONSTRUCTION_TOL:.0e}")
    print(fileio.serialize_certificate(fileio.make_certificate(
        "petz", result, parameters={"unital": not args.non_unital}, tol=args.tol)))
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


def _cmd_verify(args) -> int:
    with open(args.input, encoding="utf-8") as handle:
        instance = handle.read()
    with open(args.certificate, encoding="utf-8") as handle:
        certificate = handle.read()
    report = fileio.verify_certificate(instance, certificate)
    print(f"{'verified' if report.ok else 'not verified'}: {report.detail}", file=sys.stderr)
    return AFFIRMATIVE if report.ok else NEGATIVE


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

    if args.count < 1:
        raise ValueError(f"--count must be at least 1, not {args.count}")
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

    for name, func, text in (
        ("check", _cmd_check, "decide weak sufficiency of the file's statistic"),
        ("construct", _cmd_construct,
         "construct a weakly sufficient statistic or prove none exists"),
        ("minimal", _cmd_minimal, "construct the minimal sufficient coarse-graining"),
        ("petz", _cmd_petz, "decide channel-sufficiency feasibility"),
        ("oracle", _cmd_oracle, "cross-check the decision against brute force"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--input", required=True, help="instance file (JSON)")
        if name != "oracle":
            p.add_argument("--tol", type=float, default=None,
                           help="the decision's tolerance, in [%g, %g]" % fileio.TOL_RANGE)
        p.set_defaults(func=func)
    sub.choices["oracle"].add_argument("--steps", type=int, default=24,
                                       help="phase grid resolution for the brute-force search")
    sub.choices["petz"].add_argument("--non-unital", action="store_true",
                                     help="drop the trace-one constraint on the solution blocks")

    p = sub.add_parser("verify", help="re-check a certificate against its instance file")
    p.add_argument("--input", required=True, help="instance file (JSON)")
    p.add_argument("--certificate", required=True, help="certificate file (JSON)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("selftest", help="run bundled examples and the property suite")
    p.add_argument("--seed", type=int, default=0, help="property suite seed")
    p.add_argument("--count", type=int, default=20,
                   help="random instances per property, at least 1")
    p.set_defaults(func=_cmd_selftest)
    return parser


def run_cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return ERROR if exc.code not in (0, None) else 0
    try:
        if getattr(args, "tol", None) is not None:
            fileio.check_tolerance(args.tol)
        return args.func(args)
    except (fileio.SchemaError, ValueError, KeyError, OSError, linalg.EigenConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ERROR


def main() -> None:
    sys.exit(run_cli())
