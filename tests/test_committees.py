import importlib
import random
from itertools import combinations

import numpy as np
import pytest

from pluveto.bench import (
    ExperimentRecord,
    ExperimentReport,
    generate_euclidean,
    parse_config,
    peer_selection,
    report_to_csv,
    run_experiment,
)
from pluveto.core import Election
from pluveto.rules import (
    Committee,
    _q_social_costs,
    committee_select,
    induced_committee_election,
    plurality_veto,
    q_social_cost,
    randomized_veto,
    top_prefix_committees,
)

from helpers import committee_rank_key, social_cost


def exhaustive_committee_winner(e, k, q, order=None):
    """Independent re-implementation: rank every size-k committee for every
    voter, then run the veto rule over all of them."""
    committees = [Committee(members) for members in combinations(range(e.m), k)]
    induced = induced_committee_election(e, committees, q)
    trace = plurality_veto(induced, order)
    return committees[trace.winner]


class TestQCost:
    # one voter: the q-social cost is that voter's q-cost
    def test_second_closest(self):
        d = [[1.0, 3.0]]
        assert q_social_cost(Committee((0, 1)), d, 2, 1) == 3.0

    def test_q_one_is_min(self):
        d = [[5.0, 2.0, 7.0]]
        committee = Committee((0, 1, 2))
        assert q_social_cost(committee, d, 1, 1) == 2.0
        assert q_social_cost(committee, d, 1, 1) == min(d[0])

    def test_order_statistics(self):
        d = [[5.0, 2.0, 7.0]]
        assert q_social_cost(Committee((0, 1, 2)), d, 2, 1) == 5.0

    def test_q_out_of_range(self):
        d = [[1.0, 2.0]]
        with pytest.raises(ValueError):
            q_social_cost(Committee((0, 1)), d, 3, 1)

    def test_social_cost_sums_over_voters(self):
        d = [[1.0, 3.0], [2.0, 0.5]]
        assert q_social_cost(Committee((0, 1)), d, 2, 2) == 3.0 + 2.0


def loop_q_cost(v, committee, d, q):
    """Distance from voter v to the q-th closest committee member."""
    return sorted(d[v][c] for c in tuple(committee))[q - 1]


def committee_distance(d, first, second, q, n):
    """Distance between equal-size committees induced from voter q-costs:
    the cheapest voter relay min_v (q-cost_v(first) + q-cost_v(second))."""
    return min(
        loop_q_cost(v, first, d, q) + loop_q_cost(v, second, d, q) for v in range(n)
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
                            lhs = loop_q_cost(v, first, d, q)
                            rhs = (
                                loop_q_cost(v, second, d, q)
                                + loop_q_cost(v2, second, d, q)
                                + loop_q_cost(v2, first, d, q)
                            )
                            assert lhs <= rhs + 1e-9


# --- the numpy q-costs and induced rankings against the loops they replace ---


def loop_q_social_cost(committee, d, q, n):
    members = tuple(committee)
    return sum(loop_q_cost(v, members, d, q) for v in range(n))


def loop_induced_committee_election(e, committees, q):
    rankings = []
    for v in range(e.n):
        idx = sorted(
            range(len(committees)),
            key=lambda i: committee_rank_key(e, v, committees[i], q),
        )
        rankings.append(tuple(idx))
    return Election(tuple(rankings))


def loop_committee_select(e, k, q, order=None):
    committees = top_prefix_committees(e, k)
    induced = loop_induced_committee_election(e, committees, q)
    return committees[plurality_veto(induced, order).winner]


def loop_report(config):
    """run_experiment as it was written with Python loops and sum()."""
    records = []
    for i in range(config.instances):
        seed = config.seed * 1_000_003 + i
        e, d = generate_euclidean(
            config.voters, config.candidates, config.dim, config.distribution, seed
        )
        opt = min(social_cost(c, d) for c in range(e.m))
        for rule in config.rules:
            if rule == "plurality_veto":
                winner = plurality_veto(e).winner
                records.append(ExperimentRecord(
                    seed, rule, str(winner), social_cost(winner, d), opt))
            elif rule == "committee_select":
                k, q = config.committee_size, config.committee_rank
                committee = loop_committee_select(e, k, q)
                opt_committee = min(
                    float(loop_q_social_cost(members, d, q, e.n))
                    for members in combinations(range(e.m), k)
                )
                records.append(ExperimentRecord(
                    seed, rule, "+".join(str(c) for c in committee),
                    float(loop_q_social_cost(committee, d, q, e.n)), opt_committee))
            else:
                rounds = 0 if rule == "random_dictatorship" else min(
                    int(rule[len("randomized_veto("):-1]), e.n - 1)
                w = randomized_veto(e, rounds)
                records.append(ExperimentRecord(
                    seed, rule, " ".join(f"{x.numerator}/{x.denominator}" for x in w),
                    float(sum(float(x) * social_cost(c, d) for c, x in enumerate(w))),
                    opt))
    return ExperimentReport(config, tuple(records))


def seeded_instances(count, seed):
    """(election, metric) pairs: Euclidean in one and two dimensions, and
    peer selection over repeated points, which gives zero distances and ties.
    The sizes cover m = 1 and n = 1."""
    rng = random.Random(seed)
    for i in range(count):
        kind = i % 3
        if kind == 2:
            points = [float(rng.randint(0, 3)) for _ in range(rng.randint(1, 8))]
            e, d, _ = peer_selection(points)
        else:
            n, m = rng.randint(1, 12), rng.randint(1, 6)
            e, d = generate_euclidean(
                n, m, kind + 1, rng.choice(["uniform", "gaussian"]), rng.randint(0, 10**6)
            )
        yield rng, e, d


def assert_matches_loops(instances):
    for rng, e, d in instances:
        n, m = e.n, e.m
        k = rng.randint(1, m)
        every = [Committee(c) for c in combinations(range(m), k)]
        shuffled = rng.sample(every, len(every))
        prefixes = top_prefix_committees(e, k)
        for q in range(1, k + 1):
            costs = _q_social_costs(np.array(d.d), np.array([c.members for c in shuffled]), q)
            assert costs == [loop_q_social_cost(c, d, q, n) for c in shuffled]
            assert all(type(x) is float for x in costs)
            for c in every:
                assert q_social_cost(c, d, q, n) == loop_q_social_cost(c, d, q, n)
            for committees in (prefixes, every, shuffled, shuffled + shuffled[:2]):
                assert induced_committee_election(e, committees, q) == (
                    loop_induced_committee_election(e, committees, q)
                )
            if 2 * q > k:
                order = tuple(rng.sample(range(n), n))
                assert committee_select(e, k, q, order) == loop_committee_select(
                    e, k, q, order
                )


class TestAgainstLoops:
    """The array code must give the loops' values bit for bit: the simulate
    CSV prints them with repr."""

    def test_seeded_elections(self):
        assert_matches_loops(seeded_instances(330, seed=41))

    def test_edge_sizes(self):
        rng = random.Random(3)
        shapes = [(1, 1), (5, 1), (1, 4), (6, 3), (7, 5)]
        for n, m in shapes:
            e, d = generate_euclidean(n, m, 2, "gaussian", rng.randint(0, 10**6))
            # every k from 1 to m, so k = 1, k = m and q = k all occur
            for k in range(1, m + 1):
                every = [Committee(c) for c in combinations(range(m), k)]
                for q in range(1, k + 1):
                    assert induced_committee_election(e, every, q) == (
                        loop_induced_committee_election(e, every, q)
                    )
                    for c in every:
                        assert q_social_cost(c, d, q, n) == loop_q_social_cost(c, d, q, n)

    def test_small_blocks(self, monkeypatch):
        # 7 entries a block: every call runs several committee or voter
        # blocks, and some single rows exceed the block
        monkeypatch.setattr(importlib.import_module("pluveto.core"),
                            "_BLOCK_ENTRIES", 7)
        assert_matches_loops(seeded_instances(60, seed=43))
        config = parse_config(TestReportBytes.CONFIGS[0])
        assert report_to_csv(run_experiment(config)) == report_to_csv(loop_report(config))

    def test_blocks_bound_the_temporaries(self, monkeypatch):
        sizes = []
        partition = np.partition

        def recording(a, *args, **kwargs):
            sizes.append(a.size)
            return partition(a, *args, **kwargs)

        monkeypatch.setattr(np, "partition", recording)
        monkeypatch.setattr(importlib.import_module("pluveto.core"),
                            "_BLOCK_ENTRIES", 100)
        e, d = generate_euclidean(10, 6, 2, "uniform", 8)
        every = np.array(list(combinations(range(6), 3)))
        # 20 committees of 3 over 10 voters: 3 committees a block
        _q_social_costs(np.array(d.d), every, 2)
        assert sizes == [90] * 6 + [60]
        # 60 gathered positions a voter, budgeted at 8 bytes each (the
        # widest temporary, the sort's indices, has 8 bytes per committee):
        # 2000 bytes hold 4 voters
        sizes.clear()
        monkeypatch.setattr(importlib.import_module("pluveto.core"),
                            "_BLOCK_ENTRIES", 2000)
        induced = induced_committee_election(e, [Committee(c) for c in every.tolist()], 2)
        assert sizes == [240, 240, 120]
        assert induced == loop_induced_committee_election(
            e, [Committee(c) for c in every.tolist()], 2)


class TestReportBytes:
    CONFIGS = [
        "rules = plurality_veto, random_dictatorship, randomized_veto(3), committee_select\n"
        "instances = 6\nvoters = 9\ncandidates = 5\ndim = 2\ndistribution = gaussian\n"
        "seed = 1\ncommittee_size = 3\ncommittee_rank = 2\n",
        "rules = committee_select, plurality_veto\ninstances = 5\nvoters = 12\n"
        "candidates = 4\ndim = 1\ndistribution = uniform\nseed = 2\n"
        "committee_size = 4\ncommittee_rank = 4\n",
        "rules = committee_select, randomized_veto(20)\ninstances = 4\nvoters = 1\n"
        "candidates = 3\ndim = 3\ndistribution = gaussian\nseed = 3\n"
        "committee_size = 1\ncommittee_rank = 1\n",
        "rules = committee_select, plurality_veto\ninstances = 4\nvoters = 7\n"
        "candidates = 1\ndistribution = uniform\nseed = 4\n"
        "committee_size = 1\ncommittee_rank = 1\n",
        "rules = committee_select\ninstances = 3\nvoters = 40\ncandidates = 8\n"
        "dim = 2\ndistribution = uniform\nseed = 5\ncommittee_size = 5\ncommittee_rank = 3\n",
    ]

    @pytest.mark.parametrize("text", CONFIGS)
    def test_csv_matches_the_loops(self, text):
        config = parse_config(text)
        assert report_to_csv(run_experiment(config)) == report_to_csv(loop_report(config))
