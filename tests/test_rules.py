import random
from collections import deque
from fractions import Fraction as F
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from pluveto.core import Election, WeightVector, plurality_scores, top
from pluveto.rules import (
    FractionalStep,
    FractionalTrace,
    VetoRound,
    VetoTrace,
    fractional_veto,
    format_trace,
    plurality_veto,
    randomized_veto,
    validate_trace,
)

from conftest import random_election, random_simplex
from helpers import bottom_among


# --- the round loop as it stood before the incremental kernel: the active set
# is rebuilt from the scores and the bottom choice read from ``positions`` in
# every round.  Kept as the reference the kernel is compared against.


def reference_plurality_veto(e, order):
    scores = list(plurality_scores(e))
    queues = {c: deque() for c in range(e.m)}
    for v in range(e.n):
        queues[top(e, v)].append(v)
    rounds = []
    for v in order:
        active = frozenset(c for c in range(e.m) if scores[c] > 0)
        c = bottom_among(e, v, active)
        scores[c] -= 1
        rounds.append(VetoRound(v, active, c, queues[c].popleft()))
    return VetoTrace(tuple(rounds))


def reference_randomized_veto(e, k, order):
    scores = list(plurality_scores(e))
    for v in order[:k]:
        active = [c for c in range(e.m) if scores[c] > 0]
        scores[bottom_among(e, v, active)] -= 1
    return WeightVector(tuple(F(s, e.n - k) for s in scores))


def reference_fractional_veto(e, p, q, order):
    """The fractional rule with every step rescanning all weights: the first
    voter in ``order`` with weight left acts next, vetoing her bottom choice
    among the candidates with weight left."""
    voter_weight, cand_weight = list(p.entries), list(q.entries)
    steps = []
    while any(w > 0 for w in voter_weight):
        v = next(v for v in order if voter_weight[v] > 0)
        c = bottom_among(e, v, [c for c in range(e.m) if cand_weight[c] > 0])
        eps = min(voter_weight[v], cand_weight[c])
        voter_weight[v] -= eps
        cand_weight[c] -= eps
        steps.append(FractionalStep(v, c, eps))
    return FractionalTrace(tuple(steps))


def reference_validate_trace(e, trace):
    if len(trace.rounds) != e.n:
        raise ValueError(f"trace has {len(trace.rounds)} rounds for {e.n} voters")
    scores = list(plurality_scores(e))
    seen_voters, seen_paired = set(), set()
    for i, r in enumerate(trace.rounds, start=1):
        active = frozenset(c for c in range(e.m) if scores[c] > 0)
        if r.active != active:
            raise ValueError(f"round {i}: recorded active set {sorted(r.active)} "
                             f"differs from replay {sorted(active)}")
        if r.vetoed != bottom_among(e, r.voter, active):
            raise ValueError(f"round {i}: vetoed candidate is not voter "
                             f"{r.voter}'s bottom choice among the active set")
        if top(e, r.paired_voter) != r.vetoed:
            raise ValueError(f"round {i}: paired voter {r.paired_voter} does not "
                             f"top the vetoed candidate {r.vetoed}")
        scores[r.vetoed] -= 1
        seen_voters.add(r.voter)
        seen_paired.add(r.paired_voter)
    if len(seen_voters) != e.n or len(seen_paired) != e.n:
        raise ValueError("trace pairing is not a bijection on voters")
    # validate_trace omits this check, which cannot fire: n rounds that each
    # veto a positive score use up plurality scores summing to n.  The
    # agreement test below would see it fire.
    if any(scores):
        raise ValueError(f"scores nonzero after a full run: {tuple(scores)}")


def reference_format_trace(trace):
    lines = []
    for i, r in enumerate(trace.rounds, start=1):
        active = " ".join(str(c) for c in sorted(r.active))
        lines.append(f"{i}, {r.voter}, {{{active}}}, {r.vetoed}, {r.paired_voter}")
    return "\n".join(lines) + "\n"


def kernel_cases(count=400, seed=11):
    """Seeded (election, order) pairs: the edge shapes n = 1 and m = 1, then
    random shapes, every third one with its first-place votes spread as
    evenly as possible so that several candidates tie on plurality."""
    rng = random.Random(seed)
    shapes = [(1, 1), (1, 5), (6, 1), (2, 2)]
    shapes += [(rng.randint(1, 14), rng.randint(1, 7)) for _ in range(count - 4)]
    for i, (n, m) in enumerate(shapes):
        if i % 3 == 2:
            rankings = []
            for v in range(n):
                rest = [c for c in range(m) if c != v % m]
                rng.shuffle(rest)
                rankings.append((v % m, *rest))
            e = Election(tuple(rankings))
        else:
            e = random_election(rng, n, m)
        order = list(range(n))
        rng.shuffle(order)
        yield rng, e, tuple(order)


@st.composite
def elections(draw, max_voters=5, max_candidates=4):
    m = draw(st.integers(1, max_candidates))
    n = draw(st.integers(1, max_voters))
    rankings = draw(st.lists(st.permutations(range(m)), min_size=n, max_size=n))
    return Election(tuple(tuple(r) for r in rankings))


@st.composite
def elections_with_order(draw):
    e = draw(elections())
    order = draw(st.permutations(range(e.n)))
    return e, tuple(order)


class TestPluralityVeto:
    def test_demo_trace(self, demo):
        trace = plurality_veto(demo, (0, 1, 2, 3))
        assert [r.vetoed for r in trace.rounds] == [3, 1, 0, 0]
        assert trace.winner == 0

    def test_demo_pairing_tops_vetoed(self, demo):
        trace = plurality_veto(demo)
        for r in trace.rounds:
            assert top(demo, r.paired_voter) == r.vetoed
        assert sorted(r.paired_voter for r in trace.rounds) == list(range(demo.n))

    def test_unanimous_every_order(self):
        e = Election(tuple(((2, 0, 1),) * 4))
        for order in permutations(range(4)):
            assert plurality_veto(e, order).winner == 2

    def test_strict_majority_wins_every_order(self):
        # candidate 1 holds three of five first-place votes
        e = Election((
            (1, 0, 2), (1, 2, 0), (1, 0, 2), (0, 2, 1), (2, 0, 1),
        ))
        assert plurality_scores(e)[1] == 3
        for order in permutations(range(5)):
            assert plurality_veto(e, order).winner == 1

    def test_bad_order_rejected(self, demo):
        with pytest.raises(ValueError):
            plurality_veto(demo, (0, 1, 2))
        with pytest.raises(ValueError):
            plurality_veto(demo, (0, 1, 2, 2))

    def test_format_trace(self, demo):
        text = format_trace(plurality_veto(demo))
        assert text.splitlines()[0] == "1, 0, {0 1 3}, 3, 3"
        assert len(text.splitlines()) == 4

    @given(elections_with_order())
    @settings(max_examples=120)
    def test_trace_invariants(self, case):
        e, order = case
        trace = plurality_veto(e, order)
        validate_trace(e, trace)  # replays active sets, bottoms, pairing
        assert plurality_scores(e)[trace.winner] > 0

    @given(elections_with_order())
    @settings(max_examples=120)
    def test_each_candidate_vetoed_plurality_times(self, case):
        e, order = case
        trace = plurality_veto(e, order)
        plu = plurality_scores(e)
        for c in range(e.m):
            assert sum(r.vetoed == c for r in trace.rounds) == plu[c]

    def test_validate_trace_rejects_tampering(self, demo):
        trace = plurality_veto(demo)
        bad = trace.rounds[0]._replace(voter=0, paired_voter=0)
        tampered = VetoTrace((bad,) + trace.rounds[1:])
        with pytest.raises(ValueError):
            validate_trace(demo, tampered)


class TestRandomizedVeto:
    def test_zero_rounds_is_plurality_share(self, demo):
        w = randomized_veto(demo, 0)
        assert w.entries == (F(1, 2), F(1, 4), F(0), F(1, 4))

    def test_one_round_demo(self, demo):
        assert randomized_veto(demo, 1).entries == (F(2, 3), F(1, 3), F(0), F(0))

    def test_last_round_is_point_mass_on_winner(self, demo):
        for order in permutations(range(4)):
            w = randomized_veto(demo, 3, order)
            winner = plurality_veto(demo, order).winner
            assert w[winner] == 1 and w.support == {winner}

    def test_k_out_of_range(self, demo):
        with pytest.raises(ValueError):
            randomized_veto(demo, 4)
        with pytest.raises(ValueError):
            randomized_veto(demo, -1)

    @given(elections_with_order())
    @settings(max_examples=80)
    def test_zero_rounds_matches_plurality(self, case):
        e, order = case
        w = randomized_veto(e, 0, order)
        plu = plurality_scores(e)
        assert all(w[c] == F(plu[c], e.n) for c in range(e.m))

    @given(elections_with_order())
    @settings(max_examples=80)
    def test_support_never_grows(self, case):
        e, order = case
        supports = [randomized_veto(e, k, order).support for k in range(e.n)]
        for earlier, later in zip(supports, supports[1:]):
            assert later <= earlier

    def test_matches_scores_after(self, demo):
        # the residual score after k rounds: plurality less the first k vetoes
        trace = plurality_veto(demo)
        for k in range(demo.n):
            residual = list(plurality_scores(demo))
            for r in trace.rounds[:k]:
                residual[r.vetoed] -= 1
            w = randomized_veto(demo, k)
            assert all(w[c] == F(residual[c], demo.n - k) for c in range(demo.m))


class TestFractionalVeto:
    def test_specializes_to_plurality_veto(self, demo):
        p = WeightVector.uniform(demo.n)
        q = WeightVector.from_counts(plurality_scores(demo))
        ftrace = fractional_veto(demo, p, q)
        trace = plurality_veto(demo)
        assert ftrace.winner == trace.winner
        scaled = {pair: amount * demo.n for pair, amount in ftrace.matching.items()}
        integral = {}
        for r in trace.rounds:
            integral[(r.voter, r.vetoed)] = integral.get((r.voter, r.vetoed), 0) + 1
        assert scaled == integral

    def test_concentrated_candidate_weight(self, demo):
        p = WeightVector.uniform(demo.n)
        q = WeightVector.point_mass(2, demo.m)
        ftrace = fractional_veto(demo, p, q)
        assert ftrace.winner == 2
        assert ftrace.matching == {(v, 2): F(1, 4) for v in range(demo.n)}

    def test_two_by_two_opposed(self):
        e = Election(((0, 1), (1, 0)))
        ftrace = fractional_veto(
            e, WeightVector.uniform(2), WeightVector.uniform(2)
        )
        assert len(ftrace.steps) <= 4
        assert sum(ftrace.matching.values()) == 1

    def test_step_bound_and_exact_exhaustion_random(self):
        rng = random.Random(7)
        order_rng = random.Random(8)  # a second stream keeps rng's instances
        for _ in range(200):
            n, m = rng.randint(1, 6), rng.randint(1, 6)
            e = random_election(rng, n, m)
            p = random_simplex(rng, n)
            q = random_simplex(rng, m)
            assert fractional_veto(e, p, q) == reference_fractional_veto(e, p, q, range(n))
            order = order_rng.sample(range(n), n)
            ftrace = fractional_veto(e, p, q, order)
            assert ftrace == reference_fractional_veto(e, p, q, order)
            assert len(ftrace.steps) <= n + m
            for step in ftrace.steps:
                assert step.amount > 0
            moved_by_voter = [F(0)] * n
            moved_by_cand = [F(0)] * m
            for (v, c), amount in ftrace.matching.items():
                moved_by_voter[v] += amount
                moved_by_cand[c] += amount
            assert moved_by_voter == list(p.entries)
            assert moved_by_cand == list(q.entries)

    def test_wrong_sizes_rejected(self, demo):
        with pytest.raises(ValueError):
            fractional_veto(demo, WeightVector.uniform(3), WeightVector.uniform(4))
        with pytest.raises(ValueError):
            fractional_veto(demo, WeightVector.uniform(4), WeightVector.uniform(3))

    def test_reversed_order(self, demo):
        p = WeightVector.uniform(demo.n)
        q = WeightVector.from_counts(plurality_scores(demo))
        ftrace = fractional_veto(demo, p, q, order=(3, 2, 1, 0))
        assert ftrace.steps[0].voter == 3
        assert [s.voter for s in ftrace.steps] == sorted(
            (s.voter for s in ftrace.steps), reverse=True
        )
        assert sum(ftrace.matching.values()) == 1
        with pytest.raises(ValueError):
            fractional_veto(demo, p, q, order=(0, 1, 2))


class TestKernelMatchesReference:
    def test_traces_and_distributions_equal(self):
        tied = 0
        for rng, e, order in kernel_cases():
            trace = plurality_veto(e, order)
            assert trace == reference_plurality_veto(e, order)
            assert format_trace(trace) == reference_format_trace(trace)
            validate_trace(e, trace)
            for k in {0, e.n - 1, rng.randint(0, e.n - 1)}:
                assert randomized_veto(e, k, order) == reference_randomized_veto(e, k, order)
            plu = plurality_scores(e)
            tied += plu.count(max(plu)) > 1
        assert tied >= 100

    def test_validate_trace_agrees_on_tampered_traces(self):
        def outcome(check, e, trace):
            try:
                check(e, trace)
            except ValueError as exc:
                return str(exc)
            return None

        rejected = 0
        for rng, e, order in kernel_cases(count=300, seed=12):
            trace = plurality_veto(e, order)
            i = rng.randrange(e.n)
            r = trace.rounds[i]
            rounds = list(trace.rounds)
            field = rng.choice(["voter", "active", "vetoed", "paired_voter", "swap"])
            if field == "active":
                rounds[i] = r._replace(active=r.active ^ {rng.randrange(e.m)})
            elif field == "swap":
                j = rng.randrange(e.n)
                rounds[i], rounds[j] = rounds[j], r
            elif field in ("voter", "paired_voter"):
                rounds[i] = r._replace(**{field: rng.randrange(e.n)})
            elif field == "vetoed":
                rounds[i] = r._replace(vetoed=rng.randrange(e.m))
            tampered = VetoTrace(tuple(rounds))
            expected = outcome(reference_validate_trace, e, tampered)
            assert outcome(validate_trace, e, tampered) == expected
            rejected += expected is not None
        assert rejected >= 150
