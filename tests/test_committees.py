import random
from itertools import combinations

import pytest

from pluveto.bench import generate_euclidean
from pluveto.core import Election
from pluveto.rules import (
    Committee,
    committee_rank_key,
    committee_select,
    induced_committee_election,
    plurality_veto,
    q_cost,
    q_social_cost,
    top_prefix_committees,
)


def exhaustive_committee_winner(e, k, q, order=None):
    """Independent re-implementation: rank every size-k committee for every
    voter, then run the veto rule over all of them."""
    committees = [Committee(members) for members in combinations(range(e.m), k)]
    induced = induced_committee_election(e, committees, q)
    trace = plurality_veto(induced, order)
    return committees[trace.winner]


class TestQCost:
    def test_second_closest(self):
        d = [[1.0, 3.0]]
        assert q_cost(0, Committee((0, 1)), d, 2) == 3.0

    def test_q_one_is_min(self):
        d = [[5.0, 2.0, 7.0]]
        committee = Committee((0, 1, 2))
        assert q_cost(0, committee, d, 1) == 2.0
        assert q_cost(0, committee, d, 1) == min(d[0])

    def test_order_statistics(self):
        d = [[5.0, 2.0, 7.0]]
        assert q_cost(0, Committee((0, 1, 2)), d, 2) == 5.0

    def test_q_out_of_range(self):
        d = [[1.0, 2.0]]
        with pytest.raises(ValueError):
            q_cost(0, Committee((0, 1)), d, 3)

    def test_social_cost_sums_over_voters(self):
        d = [[1.0, 3.0], [2.0, 0.5]]
        assert q_social_cost(Committee((0, 1)), d, 2, 2) == 3.0 + 2.0


def committee_distance(d, first, second, q, n):
    """Distance between equal-size committees induced from voter q-costs:
    the cheapest voter relay min_v (q-cost_v(first) + q-cost_v(second))."""
    return min(
        q_cost(v, first, d, q) + q_cost(v, second, d, q) for v in range(n)
    )


class TestCommitteeCompare:
    """Voters compare equal-size committees through committee_rank_key."""

    def test_singletons_reduce_to_ranking(self, demo):
        for v in range(demo.n):
            for a in range(demo.m):
                for b in range(demo.m):
                    if a == b:
                        continue
                    first = committee_rank_key(demo, v, Committee((a,)), 1)
                    second = committee_rank_key(demo, v, Committee((b,)), 1)
                    assert (first < second) == demo.prefers(v, a, b)

    def test_demo_shared_qth_favorite(self, demo):
        first = Committee((0, 2))
        second = Committee((1, 2))
        # voter 0 ranks candidate 2 at position 2 in both, so the tie breaks
        # to the lexicographically smaller member tuple
        assert committee_rank_key(demo, 0, first, 2)[0] == 2
        assert committee_rank_key(demo, 0, second, 2)[0] == 2
        assert committee_rank_key(demo, 0, first, 2) < committee_rank_key(
            demo, 0, second, 2
        )


class TestCommitteeSelect:
    def test_rejects_small_q(self, demo):
        with pytest.raises(ValueError):
            committee_select(demo, 2, 1)
        with pytest.raises(ValueError):
            committee_select(demo, 4, 2)

    def test_rejects_oversized_committee(self, demo):
        with pytest.raises(ValueError):
            committee_select(demo, 5, 3)

    def test_unanimous_gives_common_prefix(self):
        e = Election(tuple(((2, 0, 3, 1),) * 4))
        assert committee_select(e, 2, 2).members == (0, 2)
        assert committee_select(e, 3, 2).members == (0, 2, 3)

    def test_singleton_matches_veto_over_topped_candidates(self, demo):
        # with k = q = 1 the prefix committees are exactly the candidates
        # holding at least one first-place vote
        committees = top_prefix_committees(demo, 1)
        assert [c.members for c in committees] == [(0,), (1,), (3,)]
        selected = committee_select(demo, 1, 1)
        induced = induced_committee_election(demo, committees, 1)
        expected = committees[plurality_veto(induced).winner]
        assert selected == expected

    def test_demo_agrees_with_exhaustive(self, demo):
        selected = committee_select(demo, 2, 2)
        assert selected.members in {(0, 1), (0, 2), (1, 2), (1, 3)}
        assert selected == exhaustive_committee_winner(demo, 2, 2)

    def test_agrees_with_exhaustive_when_q_equals_k(self):
        rng = random.Random(5)
        for _ in range(60):
            n, m = rng.randint(1, 6), rng.randint(2, 5)
            k = rng.randint(1, min(3, m))
            e, _ = generate_euclidean(n, m, 2, "gaussian", rng.randint(0, 10**6))
            order = tuple(rng.sample(range(n), n))
            assert committee_select(e, k, k, order) == exhaustive_committee_winner(
                e, k, k, order
            )

    def test_prefix_committees_deduplicate(self):
        e = Election(((0, 1, 2), (0, 1, 2), (1, 0, 2)))
        committees = top_prefix_committees(e, 2)
        assert [c.members for c in committees] == [(0, 1)]


class TestQCostMetricProperty:
    def test_committee_triangle_on_euclidean_instances(self):
        # committee-committee distances induced through the cheapest voter
        # relay satisfy the triangle inequality whenever q > k/2
        rng = random.Random(13)
        checked = 0
        for _ in range(40):
            n, m = rng.randint(1, 5), rng.randint(1, 5)
            e, d = generate_euclidean(n, m, 2, "uniform", rng.randint(0, 10**6))
            for k in range(1, min(3, m) + 1):
                committees = [
                    Committee(members) for members in combinations(range(m), k)
                ]
                for q in range(k // 2 + 1, k + 1):
                    for ka, kb, kc in combinations(committees, 3):
                        lhs = committee_distance(d, ka, kc, q, n)
                        rhs = committee_distance(d, ka, kb, q, n) + committee_distance(
                            d, kb, kc, q, n
                        )
                        assert lhs <= rhs + 1e-9
                        checked += 1
        assert checked > 100

    def test_mixed_voter_committee_triangle(self):
        # the four-point inequality with committees in the candidate slots
        rng = random.Random(29)
        for _ in range(30):
            n, m = rng.randint(2, 5), rng.randint(2, 5)
            e, d = generate_euclidean(n, m, 2, "gaussian", rng.randint(0, 10**6))
            k = rng.randint(1, min(3, m))
            q = rng.randint(k // 2 + 1, k)
            committees = [
                Committee(members) for members in combinations(range(m), k)
            ]
            for first in committees:
                for second in committees:
                    for v in range(n):
                        for v2 in range(n):
                            lhs = q_cost(v, first, d, q)
                            rhs = (
                                q_cost(v, second, d, q)
                                + q_cost(v2, second, d, q)
                                + q_cost(v2, first, d, q)
                            )
                            assert lhs <= rhs + 1e-9
