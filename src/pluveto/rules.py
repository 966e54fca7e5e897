"""The veto-based voting rules and the committee rule built on top of them.

All rules are pure functions of (election, processing order / selection
policy).  There is no canonical voter order: callers pass one explicitly,
defaulting to ballot-file order, because the winner may depend on it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import core
from .core import Election, WeightVector, plurality_scores, top

__all__ = [
    "VetoRound",
    "VetoTrace",
    "FractionalStep",
    "FractionalTrace",
    "Committee",
    "plurality_veto",
    "fractional_veto",
    "randomized_veto",
    "validate_trace",
    "format_trace",
    "q_social_cost",
    "committee_select",
    "top_prefix_committees",
    "induced_committee_election",
]


class VetoRound(NamedTuple):
    """One round of the veto stage.

    ``active`` is the candidate set with positive score at the start of the
    round, ``vetoed`` the round voter's bottom choice in it, and
    ``paired_voter`` the distinct voter whose first-place vote this veto
    cancels (their top choice equals ``vetoed``).
    """

    voter: int
    active: frozenset[int]
    vetoed: int
    paired_voter: int


@dataclass(frozen=True)
class VetoTrace:
    rounds: tuple[VetoRound, ...]

    @property
    def winner(self) -> int:
        """The last candidate whose score reached zero."""
        return self.rounds[-1].vetoed


def _check_order(order: Sequence[int] | None, n: int) -> tuple[int, ...]:
    if order is None:
        return tuple(range(n))
    order = tuple(order)
    if sorted(order) != list(range(n)):
        raise ValueError(f"order must be a permutation of 0..{n - 1}, got {order!r}")
    return order


def plurality_veto(e: Election, order: Sequence[int] | None = None) -> VetoTrace:
    """Run the plurality-then-multi-round-veto rule and record a full trace.

    Every candidate starts with a score equal to his first-place vote count.
    Voters act once each, in ``order``; each decrements the score of her
    bottom choice among candidates whose score is still positive.  The last
    candidate whose score reaches zero wins.

    The paired voter recorded per round is taken from a FIFO queue per
    candidate of the voters whose top choice is that candidate (queued in
    voter-index order).  This makes the cancellation pairing deterministic
    and auditable; it is always a bijection on voters.
    """
    order = _check_order(order, e.n)
    queues: dict[int, deque[int]] = {c: deque() for c in range(e.m)}
    for v, ranking in enumerate(e.rankings):
        queues[ranking[0]].append(v)
    replay, _ = _veto_rounds(e, order, e.n)
    return VetoTrace(tuple(
        VetoRound(v, active, c, queues[c].popleft()) for v, active, c in replay
    ))


def _veto_rounds(e: Election, order: Sequence[int], k: int):
    """The first k veto rounds in ``order`` as (voter, active set, vetoed)
    triples, and the residual scores.  The active set is rebuilt only when a
    score reaches 0, so the rounds in between share one frozenset; the
    bottom choice is the last-ranked candidate with a positive score."""
    scores = list(plurality_scores(e))
    active = frozenset(c for c, s in enumerate(scores) if s > 0)
    rankings = e.rankings
    rounds = []
    for v in order[:k]:
        for c in reversed(rankings[v]):
            if scores[c] > 0:
                break
        rounds.append((v, active, c))
        scores[c] -= 1
        if not scores[c]:
            active = active - {c}
    return rounds, scores


def validate_trace(e: Election, trace: VetoTrace) -> None:
    """Replay a recorded veto run against its election and raise ValueError
    on the first divergence: wrong active set, wrong bottom choice, a paired
    voter whose top choice is not the vetoed candidate, or a non-bijective
    pairing.  A replay of n rounds from plurality scores that sum to n leaves
    every score at zero, so no score is left to check."""
    if len(trace.rounds) != e.n:
        raise ValueError(
            f"trace has {len(trace.rounds)} rounds for {e.n} voters"
        )
    replay, _ = _veto_rounds(e, [r.voter for r in trace.rounds], e.n)
    seen_voters: set[int] = set()
    seen_paired: set[int] = set()
    for i, (r, (_, active, vetoed)) in enumerate(zip(trace.rounds, replay), start=1):
        if r.active != active:
            raise ValueError(f"round {i}: recorded active set {sorted(r.active)} "
                             f"differs from replay {sorted(active)}")
        if r.vetoed != vetoed:
            raise ValueError(f"round {i}: vetoed candidate is not voter "
                             f"{r.voter}'s bottom choice among the active set")
        if top(e, r.paired_voter) != r.vetoed:
            raise ValueError(f"round {i}: paired voter {r.paired_voter} does not "
                             f"top the vetoed candidate {r.vetoed}")
        seen_voters.add(r.voter)
        seen_paired.add(r.paired_voter)
    if len(seen_voters) != e.n or len(seen_paired) != e.n:
        raise ValueError("trace pairing is not a bijection on voters")


def randomized_veto(
    e: Election, k: int, order: Sequence[int] | None = None
) -> WeightVector:
    """Run k veto rounds, then return the distribution proportional to the
    residual scores: w_c = score(c) / (n - k).

    k = 0 gives the top choice of a uniformly random voter; k = n - 1 is a
    point mass on the deterministic veto winner for the same order.
    """
    if not 0 <= k <= e.n - 1:
        raise ValueError(f"k must be in 0..{e.n - 1}, got {k}")
    _, scores = _veto_rounds(e, _check_order(order, e.n), k)
    return WeightVector(tuple(Fraction(s, e.n - k) for s in scores))


@dataclass(frozen=True)
class FractionalStep:
    voter: int
    candidate: int
    amount: Fraction


@dataclass(frozen=True)
class FractionalTrace:
    steps: tuple[FractionalStep, ...]

    @property
    def winner(self) -> int:
        """The candidate of the last step."""
        return self.steps[-1].candidate

    @property
    def matching(self) -> dict[tuple[int, int], Fraction]:
        """Total weight moved per (voter, candidate) pair across all steps."""
        w: dict[tuple[int, int], Fraction] = {}
        for s in self.steps:
            key = (s.voter, s.candidate)
            w[key] = w.get(key, Fraction(0)) + s.amount
        return w


def fractional_veto(
    e: Election, p: WeightVector, q: WeightVector, order: Sequence[int] | None = None
) -> FractionalTrace:
    """Weight-decrementing generalization of the veto rule over arbitrary
    simplex weights p (voters) and q (candidates).

    Voters act in ``order`` (default: index order), each until their weight
    is spent: a step finds their bottom choice c among positive-weight
    candidates and moves epsilon = min(weight(voter), weight(c)) off both.  All
    arithmetic is exact, so the run finishes in at most n + m steps and the
    recorded steps form a fractional perfect matching of the winner's
    weighted domination graph.
    """
    if len(p) != e.n:
        raise ValueError(f"p must have one entry per voter ({e.n}), got {len(p)}")
    if len(q) != e.m:
        raise ValueError(f"q must have one entry per candidate ({e.m}), got {len(q)}")
    cand_weight = list(q.entries)
    steps: list[FractionalStep] = []
    for v in _check_order(order, e.n):
        weight = p[v]
        while weight > 0:
            for c in reversed(e.rankings[v]):
                if cand_weight[c] > 0:
                    break
            eps = min(weight, cand_weight[c])
            weight -= eps
            cand_weight[c] -= eps
            steps.append(FractionalStep(v, c, eps))
    return FractionalTrace(tuple(steps))


def format_trace(trace: VetoTrace) -> str:
    """One round per line: ``i, v_i, {active set}, vetoed, paired voter``,
    with rounds numbered from 1."""
    labels: dict[frozenset[int], str] = {}
    lines = []
    for i, r in enumerate(trace.rounds, start=1):
        if r.active not in labels:
            labels[r.active] = " ".join(str(c) for c in sorted(r.active))
        active = labels[r.active]
        lines.append(f"{i}, {r.voter}, {{{active}}}, {r.vetoed}, {r.paired_voter}")
    return "\n".join(lines) + "\n"


# --- committees -----------------------------------------------------------


@dataclass(frozen=True)
class Committee:
    """A fixed-size candidate subset, stored as a sorted tuple."""

    members: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(sorted(self.members)))
        if len(set(self.members)) != len(self.members):
            raise ValueError(f"committee members must be distinct: {self.members!r}")

    def __iter__(self):
        return iter(self.members)


def q_social_cost(committee: Committee | Iterable[int], d, q: int, n: int) -> float:
    """Total q-cost over voters 0..n-1, added left to right."""
    rows = np.array([d[v] for v in range(n)])
    return _q_social_costs(rows, np.array([tuple(committee)]), q)[0]


def _qth(x: np.ndarray, members: np.ndarray, q: int) -> np.ndarray:
    """out[v, i]: the q-th smallest x[v, c] over the members c in row i."""
    return np.partition(x[:, members], q - 1, axis=2)[:, :, q - 1]


def _q_social_costs(d: np.ndarray, members: np.ndarray, q: int) -> list[float]:
    """The q-social cost of each committee (a row of the index array
    ``members``) under the n x m distances ``d``, adding voters left to right
    as sum() does (np.sum's pairwise order changes the last bits).  Committees
    go in blocks of at most core._BLOCK_ENTRIES distances, or one at a time."""
    count, k = members.shape
    if not 1 <= q <= k:
        raise ValueError(f"q must be in 1..{k}, got {q}")
    step = max(1, core._BLOCK_ENTRIES // (len(d) * k))
    costs: list[float] = []
    for lo in range(0, count, step):
        costs += np.cumsum(_qth(d, members[lo : lo + step], q), axis=0)[-1].tolist()
    return costs


def top_prefix_committees(e: Election, k: int) -> tuple[Committee, ...]:
    """The candidate committees: each voter's top-k prefix, deduplicated and
    sorted for a deterministic indexing."""
    seen = {tuple(sorted(e.rankings[v][:k])) for v in range(e.n)}
    return tuple(Committee(members) for members in sorted(seen))


def induced_committee_election(
    e: Election, committees: Sequence[Committee], q: int
) -> Election:
    """Each voter's strict ranking over ``committees`` (indices into that
    sequence) by her rank of the committee's q-th favorite member; ties go to
    the lexicographically smaller member tuple, then to the lower index.
    Voters are taken a block at a time, so no temporary exceeds
    core._BLOCK_ENTRIES bytes unless one voter's count * k positions do."""
    members = np.array([c.members for c in committees])
    count, k = members.shape
    lex = np.lexsort(members.T[::-1])  # tie-break order, kept by the stable sort below
    dtype = np.min_scalar_type(e.m)
    positions = np.argsort(np.array(e.rankings, dtype=dtype), axis=1).astype(dtype)
    step = max(1, core._BLOCK_ENTRIES // (count * k * 8))
    rankings: list[tuple[int, ...]] = []
    for lo in range(0, e.n, step):
        qth = _qth(positions[lo : lo + step], members[lex], q)
        rankings += map(tuple, lex[np.argsort(qth, axis=1, kind="stable")].tolist())
    return Election(tuple(rankings))


def committee_select(
    e: Election, k: int, q: int, order: Sequence[int] | None = None
) -> Committee:
    """Choose a size-k committee by running the veto rule over the voters'
    top-k prefix committees, ranked via q-th favorite members.

    Requires q > k/2: below that threshold the constant-factor guarantee
    breaks down, so such calls are rejected rather than silently degraded.
    Runs in time polynomial in n, m, k because at most n distinct prefix
    committees exist.
    """
    if not 1 <= k <= e.m:
        raise ValueError(f"committee size must be in 1..{e.m}, got {k}")
    if not 1 <= q <= k:
        raise ValueError(f"q must be in 1..{k}, got {q}")
    if 2 * q <= k:
        raise ValueError(f"q must exceed k/2 (got q={q}, k={k})")
    committees = top_prefix_committees(e, k)
    induced = induced_committee_election(e, committees, q)
    trace = plurality_veto(induced, order)
    return committees[trace.winner]
