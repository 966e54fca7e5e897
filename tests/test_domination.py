import math
import random
from fractions import Fraction as F
from itertools import combinations

import networkx as nx
import pytest

from pluveto.core import Election, WeightVector, plurality_scores, top
from pluveto.certify.domination import (
    domination_graph,
    fractional_perfect_matching,
    has_perfect_matching,
    is_fractional_perfect_matching,
    pq_domination_graph,
    verify_veto_matching,
)
from pluveto.rules import VetoRound, VetoTrace, fractional_veto, plurality_veto

from conftest import random_election, random_simplex


def brute_force_edges(e, c):
    """Edge predicate evaluated straight off the raw rankings."""
    edges = set()
    for v in range(e.n):
        for w in range(e.n):
            ranking = e.rankings[v]
            if ranking.index(c) <= ranking.index(e.rankings[w][0]):
                edges.add((v, w))
    return edges


def grouped_edges(e, c):
    """The voter-by-voter relation read back off the grouped graph: (v, w)
    is an edge iff v's row reaches w's top choice."""
    g = domination_graph(e, c)
    return {
        (v, w) for v in range(e.n) for w in range(e.n) if (v, top(e, w)) in g.edges
    }


def hall_holds(e, c):
    """Hall's condition on the voter-by-voter relation, by brute force."""
    edges = brute_force_edges(e, c)
    return all(
        len({w for (u, w) in edges if u in subset}) >= len(subset)
        for size in range(1, e.n + 1)
        for subset in map(set, combinations(range(e.n), size))
    )


class TestDominationGraph:
    def test_unanimous_top_is_complete(self):
        e = Election(tuple(((1, 0, 2),) * 3))
        g = domination_graph(e, 1)
        assert len(g.edges) == 9

    def test_matches_brute_force_on_demo(self, demo):
        for c in range(demo.m):
            assert grouped_edges(demo, c) == brute_force_edges(demo, c)

    def test_matches_brute_force_random(self):
        rng = random.Random(2)
        for _ in range(80):
            e = random_election(rng, rng.randint(1, 6), rng.randint(1, 5))
            c = rng.randrange(e.m)
            assert grouped_edges(e, c) == brute_force_edges(e, c)
            assert len(domination_graph(e, c).edges) <= e.n * e.m

    def test_edge_to_voters_topping_candidate(self):
        rng = random.Random(9)
        for _ in range(40):
            e = random_election(rng, rng.randint(1, 5), rng.randint(1, 4))
            c = rng.randrange(e.m)
            g = domination_graph(e, c)
            for v in range(e.n):
                assert (v, c) in g.edges


class TestPerfectMatching:
    def test_complete_graph(self):
        e = Election(tuple(((0, 1),) * 3))
        ok, matching = has_perfect_matching(domination_graph(e, 0))
        assert ok and matching == {0: 0, 1: 0, 2: 0}

    def test_isolated_left_node_fails(self, demo):
        # candidate 2 has no first-place votes and sits low in most ballots
        ok, matching = has_perfect_matching(domination_graph(demo, 2))
        assert ok == hall_holds(demo, 2)
        assert (matching is None) == (not ok)

    def test_agrees_with_hall_on_voter_relation(self):
        rng = random.Random(41)
        both = [0, 0]
        for _ in range(200):
            e = random_election(rng, rng.randint(1, 6), rng.randint(1, 5))
            scores = plurality_scores(e)
            for c in range(e.m):
                g = domination_graph(e, c)
                ok, matching = has_perfect_matching(g)
                assert ok == hall_holds(e, c)
                both[ok] += 1
                if not ok:
                    assert matching is None
                    continue
                assert sorted(matching) == list(range(e.n))
                assert all((v, c2) in g.edges for v, c2 in matching.items())
                received = [0] * e.m
                for c2 in matching.values():
                    received[c2] += 1
                assert tuple(received) == scores
        assert min(both) > 50

    def test_winner_pairing_is_a_matching(self, demo):
        trace = plurality_veto(demo)
        g = domination_graph(demo, trace.winner)
        ok, _ = has_perfect_matching(g)
        assert ok
        for r in trace.rounds:
            assert (r.voter, top(demo, r.paired_voter)) in g.edges


class TestVerifyVetoMatching:
    def test_demo_trace_passes(self, demo):
        assert verify_veto_matching(demo, plurality_veto(demo))

    def test_single_voter_self_pairing(self):
        e = Election(((0, 1),))
        assert verify_veto_matching(e, plurality_veto(e))

    def test_broken_pairing_fails(self, demo):
        trace = plurality_veto(demo)
        first = trace.rounds[0]
        # paired voter 0 tops candidate 0, not the vetoed candidate 3
        bad = VetoRound(first.voter, first.active, first.vetoed, 0)
        tampered = VetoTrace((bad,) + trace.rounds[1:])
        assert not verify_veto_matching(demo, tampered)

    def test_wrong_round_count_rejected(self, demo):
        trace = plurality_veto(demo)
        short = VetoTrace(trace.rounds[:2])
        with pytest.raises(ValueError):
            verify_veto_matching(demo, short)


class TestFractionalMatching:
    def test_concentrated_weight(self, demo):
        p = WeightVector.uniform(4)
        q = WeightVector.point_mass(1, 4)
        g = pq_domination_graph(demo, 1, p, q)
        matching = fractional_perfect_matching(g)
        assert matching == {(v, 1): F(1, 4) for v in range(4)}

    def test_demo_uniform_plurality(self, demo):
        p = WeightVector.uniform(4)
        q = WeightVector.from_counts(plurality_scores(demo))
        ftrace = fractional_veto(demo, p, q)
        g = pq_domination_graph(demo, ftrace.winner, p, q)
        assert fractional_perfect_matching(g) is not None
        assert is_fractional_perfect_matching(g, ftrace.matching)

    def test_starved_neighborhood_infeasible(self):
        # voter 0's only neighbor in candidate 1's weighted graph is
        # candidate 1 itself, whose weight 1/2 cannot absorb p_0 = 3/4
        e = Election(((0, 1), (1, 0)))
        p = WeightVector((F(3, 4), F(1, 4)))
        q = WeightVector((F(1, 2), F(1, 2)))
        g = pq_domination_graph(e, 1, p, q)
        assert (0, 0) not in g.edges
        assert fractional_perfect_matching(g) is None

    def test_feasibility_matches_weighted_hall_condition(self):
        rng = random.Random(17)
        for _ in range(120):
            n, m = rng.randint(1, 5), rng.randint(1, 5)
            e = random_election(rng, n, m)
            p = random_simplex(rng, n)
            q = random_simplex(rng, m)
            c = rng.randrange(m)
            g = pq_domination_graph(e, c, p, q)
            matching = fractional_perfect_matching(g)
            neighborhoods = {
                v: {c2 for (vv, c2) in g.edges if vv == v} for v in range(n)
            }
            hall_ok = True
            for size in range(1, n + 1):
                for subset in combinations(range(n), size):
                    mass = sum(p[v] for v in subset)
                    reach = set().union(*(neighborhoods[v] for v in subset))
                    if mass > sum(q[c2] for c2 in reach):
                        hall_ok = False
            assert (matching is not None) == hall_ok
            if matching is not None:
                assert is_fractional_perfect_matching(g, matching)

    def test_reroutes_through_a_matched_edge(self):
        # voter 0 first fills candidate 0, voter 1's only neighbor; the
        # second search must take that flow back and send it to candidate 1
        e = Election(((0, 1), (1, 0)))
        half = WeightVector.uniform(2)
        g = pq_domination_graph(e, 0, half, half)
        assert fractional_perfect_matching(g) == {(0, 1): F(1, 2), (1, 0): F(1, 2)}

    def test_large_coprime_denominators_stay_exact(self):
        primes = [1_000_003, 998_244_353, 1_000_000_007, 2_147_483_647]
        shares = [F(1, prime) for prime in primes]
        p = WeightVector((*shares, 1 - sum(shares)))
        assert p[4].denominator > 10**30
        q = WeightVector.uniform(3)
        e = Election(((0, 1, 2), (1, 0, 2), (2, 1, 0), (1, 2, 0), (0, 2, 1)))
        g = pq_domination_graph(e, fractional_veto(e, p, q).winner, p, q)
        matching = fractional_perfect_matching(g)
        assert matching is not None
        assert is_fractional_perfect_matching(g, matching)

    def test_feasibility_agrees_with_networkx_max_flow(self):
        # the same question as a max-flow in integer units of 1/L, solved
        # by networkx; missing capacities are unbounded there
        rng = random.Random(29)
        both = [0, 0]
        for i in range(60):
            n, m = rng.randint(20, 60), rng.randint(3, 8)
            e = random_election(rng, n, m)
            p = random_simplex(rng, n, 60)
            q = random_simplex(rng, m, 60)
            c = fractional_veto(e, p, q).winner if i % 3 == 0 else rng.randrange(m)
            g = pq_domination_graph(e, c, p, q)
            scale = math.lcm(*(x.denominator for x in (*p, *q)))
            net = nx.DiGraph()
            for v in range(n):
                net.add_edge("s", ("v", v), capacity=int(p[v] * scale))
            for c2 in range(m):
                net.add_edge(("c", c2), "t", capacity=int(q[c2] * scale))
            net.add_edges_from((("v", v), ("c", c2)) for v, c2 in g.edges)
            feasible = nx.maximum_flow_value(net, "s", "t") == scale
            matching = fractional_perfect_matching(g)
            assert (matching is not None) == feasible
            if feasible:
                assert is_fractional_perfect_matching(g, matching)
            both[feasible] += 1
        assert min(both) >= 20

    def test_balance_checker_rejects_off_edge_weight(self, demo):
        p = WeightVector.uniform(4)
        q = WeightVector.point_mass(1, 4)
        g = pq_domination_graph(demo, 1, p, q)
        bad = {(v, 0): F(1, 4) for v in range(4)}
        assert not is_fractional_perfect_matching(g, bad)


class TestMatchingImpliesBoundedCost:
    def test_matching_candidates_within_three_on_sampled_metrics(self):
        # a perfect matching certifies a factor-3 cost bound; spot-check it
        # against 100 sampled consistent metrics
        from pluveto.bench import generate_euclidean
        from helpers import social_cost

        rng = random.Random(53)
        checked = 0
        for _ in range(100):
            n, m = rng.randint(1, 6), rng.randint(1, 5)
            e, d = generate_euclidean(n, m, 2, "gaussian", rng.randint(0, 10**9))
            optimum = min(social_cost(c, d) for c in range(m))
            for c in range(m):
                if has_perfect_matching(domination_graph(e, c))[0]:
                    assert social_cost(c, d) <= 3 * optimum + 1e-9
                    checked += 1
        assert checked >= 100
