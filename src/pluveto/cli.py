"""Command-line interface.

Subcommands: run | randomize | certify | distortion | flow | committee |
simulate.  Every output is a pure function of the input files and flags.
Exit codes: 0 success, 1 validation failure (bad input or a failed
certificate check), 2 internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import tempfile
from fractions import Fraction

from .bench import (
    EXACT_ORDER_CAP,
    parse_config,
    potential_winners,
    report_to_csv,
    run_experiment,
)
from .certify.distortion import (
    DistortionInputError,
    distortion,
    worst_case_distortion,
)
from .certify.domination import (
    domination_graph,
    fractional_perfect_matching,
    has_perfect_matching,
    is_fractional_perfect_matching,
    pq_domination_graph,
    verify_veto_matching,
)
from .certify.flow import (
    FlowAssignment,
    FlowError,
    construct_flow,
    dual_from_flow,
    format_flow,
    parse_flow,
    verify_flow,
)
from .certify.metric import metric_to_csv
from .core import BallotParseError, WeightVector, data_lines, parse_election, parse_fraction
from .rules import (
    committee_select,
    format_trace,
    fractional_veto,
    plurality_veto,
    randomized_veto,
    validate_trace,
)

__all__ = ["main"]


class CliError(Exception):
    """Input or flag validation failure; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse's exit-2 behavior through exit 1
        raise CliError(message)


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".pluveto-")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc.strerror or exc}")


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}")


def _load_election(path: str):
    try:
        return parse_election(_read(path))
    except BallotParseError as exc:
        raise CliError(f"{path}: {exc}")


def _parse_order(text: str | None, n: int):
    if text is None:
        return None
    try:
        order = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise CliError(f"--order must be comma-separated integers, got {text!r}")
    if sorted(order) != list(range(n)):
        raise CliError(f"--order must be a permutation of 0..{n - 1}")
    return order


def _load_weights(path: str, size: int, label: str) -> WeightVector:
    entries = []
    for lineno, line in data_lines(_read(path)):
        try:
            entries.append(parse_fraction(line))
        except (ValueError, ZeroDivisionError):
            raise CliError(f"{path} line {lineno}: bad weight {line!r}")
    if len(entries) != size:
        raise CliError(f"{label} file {path} has {len(entries)} entries, need {size}")
    try:
        return WeightVector(tuple(entries))
    except ValueError as exc:
        raise CliError(f"{label} file {path}: {exc}")


def _fraction_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _print_distribution(w: WeightVector) -> None:
    for c, x in enumerate(w):
        print(f"{c}: {_fraction_str(x)}")


def build_parser() -> _Parser:
    parser = _Parser(prog="pluveto", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the deterministic veto rule")
    run.add_argument("ballots")
    run.add_argument("--order", help="comma-separated voter processing order")
    run.add_argument("--trace", action="store_true", help="print the round trace")
    run.add_argument(
        "--all-orders", action="store_true",
        help="enumerate winners over every voter order (n <= 8)",
    )

    rand = sub.add_parser("randomize", help="k-round randomized veto distribution")
    rand.add_argument("ballots")
    rand.add_argument("--k", type=int, required=True)
    rand.add_argument("--order")

    cert = sub.add_parser("certify", help="check the rule's matching certificates")
    cert.add_argument("ballots")
    cert.add_argument("--order")
    cert.add_argument("--p", help="voter weight file for the fractional rule")
    cert.add_argument("--q", help="candidate weight file for the fractional rule")

    dist = sub.add_parser("distortion", help="exact LP worst-case distortion")
    dist.add_argument("ballots")
    dist.add_argument("--winner", type=int, help="point-mass candidate")
    dist.add_argument("--weights", help="candidate distribution file")
    dist.add_argument("--k", type=int, help="use the k-round randomized output")
    dist.add_argument("--order")
    dist.add_argument("--cstar", type=int, help="fix the reference candidate")
    dist.add_argument("--out", help="write the witness metric CSV here")

    flow = sub.add_parser("flow", help="build or verify a distortion-certifying flow")
    flow.add_argument("ballots")
    flow.add_argument("--k", type=int, required=True)
    flow.add_argument("--cstar", type=int, required=True)
    flow.add_argument("--order")
    flow.add_argument("--verify", help="verify this flow file instead of building")
    flow.add_argument("--out", help="write the built flow here")

    comm = sub.add_parser("committee", help="select a fixed-size committee")
    comm.add_argument("ballots")
    comm.add_argument("--size", type=int, required=True)
    comm.add_argument("--rank", type=int, required=True)
    comm.add_argument("--order")

    sim = sub.add_parser("simulate", help="run a reproducible experiment")
    sim.add_argument("--config", required=True)
    sim.add_argument("--out", help="write the report CSV here")
    sim.add_argument("--seed", type=int, help="override the config seed")
    return parser


def _cmd_run(args) -> int:
    e = _load_election(args.ballots)
    if args.all_orders:
        if args.order is not None or args.trace:
            flag = "--order" if args.order is not None else "--trace"
            raise CliError(f"--all-orders runs every voter order; {flag} does not apply")
        if e.n > EXACT_ORDER_CAP:
            raise CliError(
                f"--all-orders enumerates every voter order and is capped at "
                f"n = {EXACT_ORDER_CAP}; {args.ballots} has n = {e.n}"
            )
        winners = potential_winners(e)
        print("potential winners:", " ".join(str(c) for c in sorted(winners)))
        return 0
    trace = plurality_veto(e, _parse_order(args.order, e.n))
    print(f"winner: {trace.winner}")
    if args.trace:
        print(format_trace(trace), end="")
    return 0


def _cmd_randomize(args) -> int:
    e = _load_election(args.ballots)
    if not 0 <= args.k <= e.n - 1:
        raise CliError(f"--k must be in 0..{e.n - 1}")
    _print_distribution(randomized_veto(e, args.k, _parse_order(args.order, e.n)))
    return 0


def _cmd_certify(args) -> int:
    e = _load_election(args.ballots)
    if (args.p is None) != (args.q is None):
        raise CliError("--p and --q must be given together")
    if args.p is not None:
        p = _load_weights(args.p, e.n, "--p")
        q = _load_weights(args.q, e.m, "--q")
    order = _parse_order(args.order, e.n)
    trace = plurality_veto(e, order)
    failures = 0

    def report(name: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        if ok:
            print(f"PASS {name}")
        else:
            failures += 1
            print(f"FAIL {name}{': ' + detail if detail else ''}")

    try:
        validate_trace(e, trace)
        report("trace-invariants", True)
    except ValueError as exc:
        report("trace-invariants", False, str(exc))
    report("veto-pairing-matching", verify_veto_matching(e, trace))
    ok, _ = has_perfect_matching(domination_graph(e, trace.winner))
    report("winner-domination-matching", ok)

    if args.p is not None:
        ftrace = fractional_veto(e, p, q, order)
        graph = pq_domination_graph(e, ftrace.winner, p, q)
        report(
            "fractional-steps", len(ftrace.steps) <= e.n + e.m,
            f"{len(ftrace.steps)} steps exceed n+m",
        )
        report(
            "fractional-matching-balance",
            is_fractional_perfect_matching(graph, ftrace.matching),
        )
        report(
            "fractional-maxflow-feasible",
            fractional_perfect_matching(graph) is not None,
        )
    return 1 if failures else 0


def _distribution_from_flags(args, e) -> WeightVector:
    given = [args.winner is not None, args.weights is not None, args.k is not None]
    if sum(given) != 1:
        raise CliError("give exactly one of --winner, --weights, --k")
    if args.order is not None and args.k is None:
        raise CliError("--order applies only to the --k distribution")
    if args.winner is not None:
        if not 0 <= args.winner < e.m:
            raise CliError(f"--winner out of range 0..{e.m - 1}")
        return WeightVector.point_mass(args.winner, e.m)
    if args.weights is not None:
        return _load_weights(args.weights, e.m, "--weights")
    if not 0 <= args.k <= e.n - 1:
        raise CliError(f"--k must be in 0..{e.n - 1}")
    return randomized_veto(e, args.k, _parse_order(args.order, e.n))


def _cmd_distortion(args) -> int:
    e = _load_election(args.ballots)
    w = _distribution_from_flags(args, e)
    if args.cstar is not None and not 0 <= args.cstar < e.m:
        raise CliError(f"--cstar out of range 0..{e.m - 1}")
    try:
        if args.cstar is not None:
            result = worst_case_distortion(e, w, args.cstar)
        else:
            result = distortion(e, w)
    except DistortionInputError as exc:
        raise CliError(str(exc))
    if args.out:
        _atomic_write(args.out, metric_to_csv(result.witness))
    print(f"distortion: {result.value:.9f} (reference candidate {result.cstar})")
    if args.out:
        print(f"witness metric written to {args.out}")
    return 0


def _cmd_flow(args) -> int:
    e = _load_election(args.ballots)
    if not 0 <= args.k <= e.n - 1:
        raise CliError(f"--k must be in 0..{e.n - 1}")
    if not 0 <= args.cstar < e.m:
        raise CliError(f"--cstar out of range 0..{e.m - 1}")
    order = _parse_order(args.order, e.n)
    if args.verify:
        try:
            flows = parse_flow(_read(args.verify))
        except FlowError as exc:
            raise CliError(f"{args.verify}: {exc}")
        assignment = FlowAssignment(flows, randomized_veto(e, args.k, order), args.cstar)
    else:
        assignment = construct_flow(e, plurality_veto(e, order), args.k, args.cstar)
    try:
        check = verify_flow(e, assignment)
    except FlowError as exc:
        print(f"FAIL flow-verification: {exc}")
        return 1
    dual_report = dual_from_flow(e, assignment, check)
    if args.out:
        _atomic_write(args.out, format_flow(assignment))
    for v, cost in enumerate(check.per_voter_costs):
        print(f"voter {v}: cost {_fraction_str(cost)}")
    print(f"cost: {_fraction_str(check.cost)}")
    print(f"{'PASS' if dual_report.feasible else 'FAIL'} dual-feasibility "
          f"(objective {_fraction_str(dual_report.objective)})")
    if args.out:
        print(f"flow written to {args.out}")
    return 0 if dual_report.feasible else 1


def _cmd_committee(args) -> int:
    e = _load_election(args.ballots)
    try:
        committee = committee_select(
            e, args.size, args.rank, _parse_order(args.order, e.n)
        )
    except ValueError as exc:
        raise CliError(str(exc))
    print("committee:", " ".join(str(c) for c in committee))
    return 0


def _cmd_simulate(args) -> int:
    try:
        config = parse_config(_read(args.config))
    except ValueError as exc:
        raise CliError(f"{args.config}: {exc}")
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    report = run_experiment(config)
    if args.out:
        _atomic_write(args.out, report_to_csv(report))
    print(report.summary(), end="")
    if args.out:
        print(f"report written to {args.out}")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "randomize": _cmd_randomize,
    "certify": _cmd_certify,
    "distortion": _cmd_distortion,
    "flow": _cmd_flow,
    "committee": _cmd_committee,
    "simulate": _cmd_simulate,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (CliError, BallotParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # internal failure
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
