"""Domination graphs and their matching certificates.

For a candidate c, the weighted domination graph links voters to candidates
under node weights (p, q): voter v is linked to candidate c' when v ranks c
weakly above c'.  Its certificate is a fractional perfect matching that
saturates every node weight exactly, decided by one exact max-flow on
n + m + 2 nodes and at most n*m + n + m edges.

The integral domination graph of the paper links voter v to voter v' when v
ranks c weakly above v''s top choice.  Voters who share a top choice are
twins on its right side, so grouping them by that choice turns it into the
weighted graph with p uniform and q the plurality shares.  A perfect
matching of the voter graph exists iff that grouped graph has a fractional
perfect matching, and the max-flow finds an integral one: every capacity is
a multiple of 1/n, so every augmenting path carries a multiple of 1/n.  A
perfect matching certifies that c's total voter distance is within a factor
3 of optimal under every metric consistent with the ballots.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..core import Election, WeightVector, plurality_scores, top
from ..rules import VetoTrace
from .matching import RationalMaxFlow

__all__ = [
    "PQDominationGraph",
    "domination_graph",
    "pq_domination_graph",
    "has_perfect_matching",
    "fractional_perfect_matching",
    "is_fractional_perfect_matching",
    "verify_veto_matching",
]


@dataclass(frozen=True)
class PQDominationGraph:
    """Weighted bipartite graph: voters (weights p) x candidates (weights q)."""

    candidate: int
    p: WeightVector
    q: WeightVector
    edges: frozenset[tuple[int, int]]


def domination_graph(e: Election, c: int) -> PQDominationGraph:
    """The integral domination graph of c with voters grouped by top choice:
    uniform voter weights and plurality shares as candidate weights."""
    return pq_domination_graph(
        e, c, WeightVector.uniform(e.n), WeightVector.from_counts(plurality_scores(e))
    )


def pq_domination_graph(
    e: Election, c: int, p: WeightVector, q: WeightVector
) -> PQDominationGraph:
    """Edge (v, c') iff voter v ranks c weakly above c'."""
    if len(p) != e.n or len(q) != e.m:
        raise ValueError("weight vectors must match the voter/candidate counts")
    edges = frozenset(
        (v, c2)
        for v in range(e.n)
        for c2 in range(e.m)
        if e.weakly_prefers(v, c, c2)
    )
    return PQDominationGraph(c, p, q, edges)


def has_perfect_matching(
    g: PQDominationGraph,
) -> tuple[bool, dict[int, int] | None]:
    """Whether a graph from :func:`domination_graph` has a perfect matching.

    If so, also returns one as voter -> candidate, in which each candidate c'
    receives exactly plurality(c') voters: pairing them with the voters who
    top c' gives a perfect matching of the voter-by-voter graph.
    """
    flow = fractional_perfect_matching(g)
    if flow is None:
        return False, None
    share = g.p[0]
    # integral flow: each voter sends its whole weight 1/n to one candidate
    assert all(amount == share for amount in flow.values())
    return True, {v: c for v, c in flow}


def fractional_perfect_matching(
    g: PQDominationGraph,
) -> dict[tuple[int, int], Fraction] | None:
    """A fractional perfect matching of the weighted domination graph, or None.

    Feasibility is decided by exact max-flow: source -> voter v with capacity
    p_v, candidate c -> sink with capacity q_c, graph edges uncapped.  A
    matching saturating every node exists iff the max-flow value is exactly 1.
    """
    net = RationalMaxFlow()
    source, sink = ("s",), ("t",)
    n, m = len(g.p), len(g.q)
    one = Fraction(1)
    for v in range(n):
        net.add_edge(source, ("v", v), g.p[v])
    for c in range(m):
        net.add_edge(("c", c), sink, g.q[c])
    for v, c in sorted(g.edges):
        net.add_edge(("v", v), ("c", c), one)
    if net.max_flow(source, sink) != 1:
        return None
    out: dict[tuple[int, int], Fraction] = {}
    for v, c in sorted(g.edges):
        amount = net.flow_on(("v", v), ("c", c))
        if amount > 0:
            out[(v, c)] = amount
    return out


def is_fractional_perfect_matching(
    g: PQDominationGraph, w: dict[tuple[int, int], Fraction]
) -> bool:
    """Exact node-balance check: every edge weight lies on a graph edge, is
    non-negative, and incident totals equal the node weights on both sides."""
    voter_total = [Fraction(0)] * len(g.p)
    cand_total = [Fraction(0)] * len(g.q)
    for (v, c), amount in w.items():
        if (v, c) not in g.edges or amount < 0:
            return False
        voter_total[v] += amount
        cand_total[c] += amount
    return all(voter_total[v] == g.p[v] for v in range(len(g.p))) and all(
        cand_total[c] == g.q[c] for c in range(len(g.q))
    )


def verify_veto_matching(e: Election, trace: VetoTrace) -> bool:
    """Check that a veto run's cancellation pairing is a perfect matching of
    the winner's voter-by-voter domination graph, one pair at a time."""
    if len(trace.rounds) != e.n:
        raise ValueError(
            f"trace has {len(trace.rounds)} rounds for an election with {e.n} voters"
        )
    pairing = {}
    for r in trace.rounds:
        if top(e, r.paired_voter) != r.vetoed:
            return False
        pairing[r.voter] = r.paired_voter
    if len(pairing) != e.n or len(set(pairing.values())) != e.n:
        return False
    return all(
        e.weakly_prefers(v, trace.winner, top(e, w)) for v, w in pairing.items()
    )
