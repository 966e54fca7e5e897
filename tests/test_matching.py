import random
from fractions import Fraction as F

from pluveto.certify.matching import RationalMaxFlow


def greedy_oracle(adjacency, n_right):
    """Exact maximum matching by exhaustive search over subsets (small n)."""
    lefts = list(adjacency)

    def solve(i, used):
        if i == len(lefts):
            return 0
        best = solve(i + 1, used)
        for w in adjacency[lefts[i]]:
            if w not in used:
                best = max(best, 1 + solve(i + 1, used | {w}))
        return best

    return solve(0, frozenset())


def unit_capacity_matching(adjacency):
    """Maximum matching read off an integral max-flow with unit capacities,
    as left -> right."""
    net = RationalMaxFlow()
    for u, row in adjacency.items():
        net.add_edge("s", ("l", u), F(1))
        for w in row:
            net.add_edge(("l", u), ("r", w), F(1))
    for w in {w for row in adjacency.values() for w in row}:
        net.add_edge(("r", w), "t", F(1))
    net.add_node("t")
    size = net.max_flow("s", "t")
    matching = {}
    for u, row in adjacency.items():
        for w in row:
            amount = net.flow_on(("l", u), ("r", w))
            assert amount in (0, 1), "unit capacities must give an integral flow"
            if amount:
                matching[u] = w
    assert len(matching) == size
    return matching


class TestBipartiteMatching:
    """The max-flow primitive answers integral matching questions: with unit
    capacities it finds a maximum matching, and the flow it routes is one."""

    def test_complete_graph_has_identity_size(self):
        adjacency = {v: list(range(4)) for v in range(4)}
        matching = unit_capacity_matching(adjacency)
        assert len(matching) == 4
        assert sorted(matching.values()) == [0, 1, 2, 3]

    def test_isolated_left_node(self):
        adjacency = {0: [0], 1: []}
        assert len(unit_capacity_matching(adjacency)) == 1

    def test_requires_augmenting_swap(self):
        adjacency = {0: [0, 1], 1: [0]}
        matching = unit_capacity_matching(adjacency)
        assert matching == {0: 1, 1: 0}

    def test_against_exhaustive_oracle(self):
        rng = random.Random(3)
        for _ in range(150):
            n_left, n_right = rng.randint(1, 6), rng.randint(1, 6)
            adjacency = {
                u: [w for w in range(n_right) if rng.random() < 0.4]
                for u in range(n_left)
            }
            got = len(unit_capacity_matching(adjacency))
            assert got == greedy_oracle(adjacency, n_right)

    def test_matching_edges_are_graph_edges(self):
        rng = random.Random(5)
        for _ in range(50):
            adjacency = {
                u: [w for w in range(5) if rng.random() < 0.5] for u in range(5)
            }
            matching = unit_capacity_matching(adjacency)
            assert all(w in adjacency[u] for u, w in matching.items())
            assert len(set(matching.values())) == len(matching)


class TestRationalMaxFlow:
    def test_single_path(self):
        net = RationalMaxFlow()
        net.add_edge("s", "a", F(1, 3))
        net.add_edge("a", "t", F(1, 2))
        assert net.max_flow("s", "t") == F(1, 3)
        assert net.flow_on("s", "a") == F(1, 3)

    def test_rerouting_through_residual_edges(self):
        net = RationalMaxFlow()
        net.add_edge("s", "a", F(1))
        net.add_edge("s", "b", F(1))
        net.add_edge("a", "x", F(1))
        net.add_edge("a", "y", F(1))
        net.add_edge("b", "x", F(1))
        net.add_edge("x", "t", F(1))
        net.add_edge("y", "t", F(1))
        assert net.max_flow("s", "t") == F(2)

    def test_exact_fractions_never_round(self):
        net = RationalMaxFlow()
        net.add_edge("s", "a", F(1, 3))
        net.add_edge("s", "b", F(1, 7))
        net.add_edge("a", "t", F(1))
        net.add_edge("b", "t", F(1))
        assert net.max_flow("s", "t") == F(1, 3) + F(1, 7)

    def test_against_min_cut_enumeration(self):
        # max flow equals the smallest s-t cut, checked by enumerating cuts
        rng = random.Random(11)
        for _ in range(60):
            nodes = list(range(rng.randint(2, 5)))
            edges = {}
            for u in nodes:
                for v in nodes:
                    if u != v and rng.random() < 0.5:
                        edges[(u, v)] = F(rng.randint(0, 6), rng.randint(1, 4))
            net = RationalMaxFlow()
            net.add_node(nodes[0])
            net.add_node(nodes[-1])
            for (u, v), cap in edges.items():
                net.add_edge(u, v, cap)
            flow = net.max_flow(nodes[0], nodes[-1])
            best_cut = None
            middle = nodes[1:-1]
            for mask in range(1 << len(middle)):
                side = {nodes[0]} | {
                    middle[i] for i in range(len(middle)) if mask >> i & 1
                }
                cut = sum(
                    cap
                    for (u, v), cap in edges.items()
                    if u in side and v not in side
                )
                best_cut = cut if best_cut is None else min(best_cut, cut)
            assert flow == best_cut

    def test_large_coprime_denominators_stay_exact(self):
        primes = [1_000_003, 998_244_353, 1_000_000_007, 2_147_483_647]
        net = RationalMaxFlow()
        expected = []
        for i, p in enumerate(primes):
            into, out = F(p - 1, p), F(1, p) + F(1, primes[i - 1])
            net.add_edge("s", i, into)
            net.add_edge(i, "t", out)
            expected.append(min(into, out))
        flow = net.max_flow("s", "t")
        assert flow == sum(expected)
        assert flow.denominator > 10**30
        assert [net.flow_on("s", i) for i in range(4)] == expected

    def test_flow_on_sums_to_max_flow(self):
        rng = random.Random(23)
        for _ in range(60):
            size = rng.randint(1, 5)
            net = RationalMaxFlow()
            edges = []

            def cap():
                return F(rng.randint(1, 9), rng.randint(1, 97))

            for u in range(size):
                net.add_edge("s", ("a", u), cap())
                for w in range(size):
                    if rng.random() < 0.6:
                        net.add_edge(("a", u), ("b", w), cap())
                        edges.append((u, w))
                net.add_edge(("b", u), "t", cap())
            flow = net.max_flow("s", "t")
            out_of_source = sum(net.flow_on("s", ("a", u)) for u in range(size))
            into_sink = sum(net.flow_on(("b", w), "t") for w in range(size))
            middle = sum(net.flow_on(("a", u), ("b", w)) for u, w in edges)
            assert out_of_source == into_sink == middle == flow
