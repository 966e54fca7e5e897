"""Flow-based distortion certificates.

The network has one node per (voter, candidate) pair.  Within a voter's row,
directed preference edges run from better-ranked to worse-ranked candidates;
within a candidate's column, sideways edges run both ways between distinct
voters.  A certificate for a winner distribution w and reference candidate
c* is a circulation injecting w_c at every node (v, c) and absorbing only in
column c*.  Its cost at a voter is the flow absorbed in her row plus all
sideways flow touching her row outside column c*; the maximum per-voter cost
upper-bounds the distribution's distortion, and translating the flow into
multipliers for the distortion LP's dual makes that bound mechanically
checkable.

All flow arithmetic uses exact rationals.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from ..core import Election, WeightVector, data_lines, parse_fraction
from ..rules import VetoTrace, validate_trace

__all__ = [
    "Node",
    "Edge",
    "FlowAssignment",
    "FlowError",
    "FlowCheck",
    "DualReport",
    "construct_flow",
    "verify_flow",
    "dual_from_flow",
    "format_flow",
    "parse_flow",
]

Node = tuple[int, int]  # (voter, candidate)
Edge = tuple[Node, Node]


class FlowError(ValueError):
    """A structural or conservation defect, pinpointed to a node or edge."""


@dataclass(frozen=True)
class FlowAssignment:
    """Edge flows plus the injection distribution and the absorbing column."""

    flows: dict[Edge, Fraction]
    w: WeightVector
    cstar: int


@dataclass(frozen=True)
class FlowCheck:
    per_voter_costs: tuple[Fraction, ...]
    cost: Fraction


def verify_flow(e: Election, g: FlowAssignment) -> FlowCheck:
    """Check a claimed certificate and account its per-voter costs.

    Raises :class:`FlowError` naming the offending edge or node when an
    amount is negative, an edge does not exist in the network, or any node
    outside the absorbing column fails conservation (injection + inflow =
    outflow).  Absorption in column c* must be non-negative at every node.
    """
    w, cstar = g.w, g.cstar
    n, m = e.n, e.m
    if len(w) != m:
        raise FlowError(f"w has {len(w)} entries for {m} candidates")
    if not 0 <= cstar < m:
        raise FlowError(f"cstar {cstar} out of range 0..{m - 1}")
    # balance[v][c]: injection + inflow - outflow at node (v, c)
    balance = [list(w.entries) for _ in range(n)]
    sideways_row = [Fraction(0)] * n
    for (tail, head), amount in g.flows.items():
        if amount < 0:
            raise FlowError(f"negative flow {amount} on edge {tail}->{head}")
        if not (0 <= tail[0] < n and 0 <= head[0] < n and 0 <= tail[1] < m and 0 <= head[1] < m):
            raise FlowError(f"edge {tail}->{head} leaves the node grid")
        sideways = tail[1] == head[1] and tail[0] != head[0]
        if not (sideways or (tail[0] == head[0] and e.prefers(tail[0], tail[1], head[1]))):
            raise FlowError(f"flow on nonexistent edge {tail}->{head}")
        balance[tail[0]][tail[1]] -= amount
        balance[head[0]][head[1]] += amount
        if sideways and tail[1] != cstar:
            sideways_row[tail[0]] += amount
            sideways_row[head[0]] += amount
    costs = []
    for v in range(n):
        for c, net_in in enumerate(balance[v]):
            node = (v, c)
            if c == cstar:
                if net_in < 0:
                    raise FlowError(
                        f"node {node} emits {-net_in} more than it receives"
                    )
                costs.append(net_in + sideways_row[v])  # absorbed + sideways
            elif net_in != 0:
                raise FlowError(
                    f"conservation violated at node {node}: "
                    f"injection + inflow - outflow = {net_in}"
                )
    return FlowCheck(tuple(costs), max(costs))


def construct_flow(
    e: Election, trace: VetoTrace, k: int, cstar: int
) -> FlowAssignment:
    """Build the certifying flow for the k-round randomized rule's output.

    For each of the first k rounds, the acting voter's whole injection is
    funneled along her row to the candidate she vetoed, moved sideways to the
    voter whose first-place vote that veto canceled, then rides a preference
    edge to column c* and is absorbed.  The residual injections of the
    remaining voters are split evenly, column by column, among the voters
    whose votes the later rounds cancel; each of those receives one unit in
    her top choice's column and forwards it to column c*.  Whenever a unit is
    already in column c*, or source and receiver coincide, it stays put, so
    no sideways flow ever runs inside column c*; that keeps every per-voter
    cost at most 3 and the dual translation tight.
    """
    n = e.n
    if len(trace.rounds) != n:
        raise FlowError(f"trace has {len(trace.rounds)} rounds, need all {n}")
    if not 0 <= k <= n - 1:
        raise FlowError(f"k must be in 0..{n - 1}, got {k}")
    if not 0 <= cstar < e.m:
        raise FlowError(f"cstar {cstar} out of range 0..{e.m - 1}")
    try:
        validate_trace(e, trace)
    except ValueError as exc:
        raise FlowError(f"trace inconsistent with election: {exc}") from exc
    denom = n - k
    # the last n - k rounds veto each candidate once per unit of its residual
    # score after the first k
    receivers: dict[int, list[int]] = {}
    for r in trace.rounds[k:]:
        receivers.setdefault(r.vetoed, []).append(r.paired_voter)
    w = WeightVector(tuple(
        Fraction(len(receivers.get(c, ())), denom) for c in range(e.m)
    ))
    flows: dict[Edge, Fraction] = {}

    def add(tail: Node, head: Node, amount: Fraction) -> None:
        if tail == head or amount == 0:
            return
        flows[(tail, head)] = flows.get((tail, head), Fraction(0)) + amount

    one = Fraction(1)
    for r in trace.rounds[:k]:
        v, vetoed, receiver = r.voter, r.vetoed, r.paired_voter
        for c in sorted(w.support):
            if c != vetoed:
                add((v, c), (v, vetoed), w[c])
        if vetoed == cstar:
            continue  # the unit is absorbed at (v, cstar) where it arrived
        add((v, vetoed), (receiver, vetoed), one)
        add((receiver, vetoed), (receiver, cstar), one)

    share = Fraction(1, denom)
    rest = [r.voter for r in trace.rounds[k:]]
    for c in sorted(w.support):
        if c == cstar:
            continue  # residual injections in column c* absorb in place
        for v in rest:
            for receiver in receivers[c]:
                add((v, c), (receiver, c), share)
        for receiver in receivers[c]:
            add((receiver, c), (receiver, cstar), one)
    return FlowAssignment(flows, w, cstar)


@dataclass(frozen=True)
class DualReport:
    feasible: bool
    objective: Fraction
    voter_totals: tuple[Fraction, ...]
    violations: tuple[str, ...]


def dual_from_flow(e: Election, g: FlowAssignment, check: FlowCheck) -> DualReport:
    """Read a valid flow as multipliers for the distortion LP's dual and
    check their feasibility.

    ``check`` is the result of :func:`verify_flow` on ``g``; its cost becomes
    alpha.  Every flow edge is one multiplier: a preference edge
    (v, c) -> (v, c') for a consistency row, a sideways edge (v, c) -> (v', c)
    for a triangle row through c*; every other multiplier is zero.  The
    dual has two constraint families.  The one per (voter, candidate != c*)
    reduces to zero net flow at that node, which is the conservation
    :func:`verify_flow` has already enforced, so only the family of one
    inequality per voter against alpha is evaluated, in exact arithmetic.
    An infeasible report signals a defect in the flow or the translation.
    """
    cstar = g.cstar
    alpha = check.cost
    w = g.w
    n = e.n
    # family-one accumulator per voter
    s1 = [Fraction(0)] * n
    for ((v, c), (v2, c2)), amount in g.flows.items():
        if v == v2:  # verify_flow admits only preference edges within a row
            if c == cstar:
                s1[v] += amount
            if c2 == cstar:
                s1[v] -= amount
        elif c == cstar:
            # the entry matches one positive and one negative pattern for the
            # sender, and two negative patterns for the receiver
            s1[v2] -= 2 * amount
        else:
            s1[v] -= amount
            s1[v2] -= amount

    violations: list[str] = []
    voter_totals = []
    for v in range(n):
        lhs = w[cstar] - s1[v]
        voter_totals.append(lhs)
        if alpha + s1[v] < w[cstar]:
            violations.append(
                f"voter {v}: dual load {lhs} exceeds alpha = {alpha}"
            )
    return DualReport(
        feasible=not violations,
        objective=alpha,
        voter_totals=tuple(voter_totals),
        violations=tuple(violations),
    )


_EDGE_RE = re.compile(
    r"^\((\d+),(\d+)\)->\((\d+),(\d+)\):\s*(\S+)$"
)


def format_flow(g: FlowAssignment) -> str:
    """Edge list, one ``(v,c)->(v',c'): amount`` per line, sorted."""
    lines = []
    for (tail, head), amount in sorted(g.flows.items()):
        lines.append(
            f"({tail[0]},{tail[1]})->({head[0]},{head[1]}): "
            f"{amount.numerator}/{amount.denominator}"
        )
    return "\n".join(lines) + "\n"


def parse_flow(text: str) -> dict[Edge, Fraction]:
    """Parse the edge-list format; amounts may be fractions or decimals.
    An edge given twice is rejected, naming both lines.  So is the line at
    which lcm(denominators) * (1 + 2 * sum |amount|), a bound on every total
    that :func:`verify_flow` and :func:`dual_from_flow` report, comes within
    20 digits (room for the weights' denominator n - k) of the integer digit
    limit, past which no message could print the total."""
    flows: dict[Edge, Fraction] = {}
    first_line: dict[Edge, int] = {}
    limit = sys.get_int_max_str_digits()
    lcm, total = 1, Fraction(0)
    for lineno, line in data_lines(text):
        match = _EDGE_RE.match(line.replace(" -> ", "->"))
        if not match:
            raise FlowError(f"line {lineno}: cannot parse flow edge {line!r}")
        v, c, v2, c2 = (int(match.group(i)) for i in range(1, 5))
        try:
            amount = parse_fraction(match.group(5))
        except (ValueError, ZeroDivisionError):
            raise FlowError(f"line {lineno}: bad amount {match.group(5)!r}")
        edge = ((v, c), (v2, c2))
        if edge in first_line:
            raise FlowError(
                f"line {lineno}: edge ({v},{c})->({v2},{c2}) repeats line "
                f"{first_line[edge]}"
            )
        first_line[edge] = lineno
        flows[edge] = amount
        if limit:
            lcm = math.lcm(lcm, amount.denominator)
            total += abs(amount)
            if lcm * (1 + 2 * total) >= 10 ** (limit - 20):
                raise FlowError(
                    f"line {lineno}: exact flow totals would need more than "
                    f"{limit - 20} digits"
                )
    return flows
