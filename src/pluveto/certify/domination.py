"""Domination graphs and their matching certificates.

For a candidate c, the weighted domination graph links voters to candidates
under node weights (p, q): voter v is linked to candidate c' when v ranks c
weakly above c'.  Its certificate is a fractional perfect matching that
saturates every node weight exactly, decided by one exact integer max-flow
from the voters to the candidates along the graph's at most n*m edges.

The integral domination graph of the paper links voter v to voter v' when v
ranks c weakly above v''s top choice.  Voters who share a top choice are
twins on its right side, so grouping them by that choice turns it into the
weighted graph with p uniform and q the plurality shares.  A perfect
matching of the voter graph exists iff that grouped graph has a fractional
perfect matching, and the max-flow finds an integral one: every weight is a
multiple of 1/n, so every augmenting path carries a multiple of 1/n.  A
perfect matching certifies that c's total voter distance is within a factor
3 of optimal under every metric consistent with the ballots.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from ..core import Election, WeightVector, plurality_scores, top
from ..rules import VetoTrace

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
    return PQDominationGraph(p, q, edges)


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

    Edmonds-Karp with an implicit source and sink, on integers: amounts are
    units of 1/L, L the lcm of every weight's denominator, so voter v supplies
    p_v * L units, candidate c absorbs q_c * L, and graph edges are uncapped.
    Each round is one breadth-first search from every voter with supply left,
    forward along graph edges and back along edges carrying flow, up to the
    first candidate with room left; the path found is then augmented.  As p
    and q both sum to 1, a matching exists iff every supply runs out.
    """
    n, m = len(g.p), len(g.q)
    scale = math.lcm(*(x.denominator for x in (*g.p, *g.q)))
    supply = [x.numerator * (scale // x.denominator) for x in g.p]
    room = [x.numerator * (scale // x.denominator) for x in g.q]
    reach: list[list[int]] = [[] for _ in range(n)]
    for v, c in sorted(g.edges):
        reach[v].append(c)
    sent: list[dict[int, int]] = [{} for _ in range(m)]  # sent[c][v]: units v -> c
    pending = [v for v in range(n) if supply[v]]
    while pending:
        came_from: dict[int, int | None] = dict.fromkeys(pending)  # voter -> candidate
        reached_by: dict[int, int] = {}  # candidate -> voter
        queue = deque(pending)
        end = None
        while queue and end is None:
            v = queue.popleft()
            fresh = [c for c in reach[v] if c not in reached_by]
            for c in fresh:
                reached_by[c] = v
            end = next((c for c in fresh if room[c]), None)
            if end is None:
                for c in fresh:
                    for v2 in sent[c]:
                        if v2 not in came_from:
                            came_from[v2] = c
                            queue.append(v2)
        if end is None:
            return None
        path = []  # (voter, candidate it sends to, candidate it takes back from)
        c = end
        while c is not None:
            v = reached_by[c]
            path.append((v, c, came_from[v]))
            c = came_from[v]
        root = path[-1][0]
        amount = min(
            supply[root], room[end], *(sent[b][v] for v, _, b in path if b is not None)
        )
        supply[root] -= amount
        room[end] -= amount
        for v, c, b in path:
            sent[c][v] = sent[c].get(v, 0) + amount
            if b is not None:
                sent[b][v] -= amount
                if not sent[b][v]:
                    del sent[b][v]
        pending = [v for v in pending if supply[v]]
    matching = {
        (v, c): Fraction(units, scale) for c in range(m) for v, units in sent[c].items()
    }
    return dict(sorted(matching.items()))


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
