import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from pluveto.core import Election, WeightVector
from pluveto.certify.flow import (
    FlowAssignment,
    FlowError,
    construct_flow,
    dual_from_flow,
    format_flow,
    parse_flow,
    verify_flow,
)
from pluveto.rules import plurality_veto, randomized_veto

from conftest import (
    REFERENCE_FLOW,
    REFERENCE_FLOW_COSTS,
    REFERENCE_FLOW_CSTAR,
    random_election,
)


@pytest.fixture
def reference_assignment(demo_w):
    return FlowAssignment(dict(REFERENCE_FLOW), demo_w, REFERENCE_FLOW_CSTAR)


def edge_set(e):
    """Every node pair that verify_flow accepts as an edge of e's network,
    found by routing one unit along it inside an otherwise empty flow."""
    nodes = [(v, c) for v in range(e.n) for c in range(e.m)]
    w = WeightVector.uniform(e.m)
    edges = set()
    for tail in nodes:
        for head in nodes:
            g = FlowAssignment({(tail, head): F(1)}, w, 0)
            try:
                verify_flow(e, g)
            except FlowError as exc:
                if "nonexistent edge" in str(exc):
                    continue
            edges.add((tail, head))
    return edges


class TestFlowNetwork:
    def test_demo_counts(self, demo):
        edges = edge_set(demo)
        preference = {(t, h) for t, h in edges if t[0] == h[0]}
        assert len(preference) == 24
        assert len(edges - preference) == 48

    def test_single_voter_has_no_sideways(self):
        e = Election(((0, 1, 2),))
        assert all(t[0] == h[0] for t, h in edge_set(e))

    def test_single_candidate_has_no_preference(self):
        e = Election(((0,), (0,)))
        assert edge_set(e) == {((0, 0), (1, 0)), ((1, 0), (0, 0))}

    def test_edge_predicates(self, demo):
        edges = edge_set(demo)
        assert ((1, 0), (1, 2)) in edges
        assert ((1, 2), (1, 0)) not in edges
        assert ((0, 2), (3, 2)) in edges
        assert ((0, 2), (0, 2)) not in edges
        assert ((0, 0), (1, 1)) not in edges


class TestVerifyFlow:
    def test_reference_costs_exact(self, demo, reference_assignment):
        check = verify_flow(demo, reference_assignment)
        assert check.per_voter_costs == REFERENCE_FLOW_COSTS
        assert check.cost == F(3)

    def test_tiny_self_absorbing_instance(self):
        e = Election(((0,),))
        g = FlowAssignment({}, WeightVector.point_mass(0, 1), 0)
        check = verify_flow(e, g)
        assert check.per_voter_costs == (F(1),)
        assert check.cost == F(1)

    def test_sideways_cycle_raises_cost_both_ways(self, demo, demo_w,
                                                  reference_assignment):
        base = verify_flow(demo, reference_assignment)
        flows = dict(REFERENCE_FLOW)
        flows[((0, 0), (1, 0))] = flows.get(((0, 0), (1, 0)), F(0)) + 1
        flows[((1, 0), (0, 0))] = flows.get(((1, 0), (0, 0)), F(0)) + 1
        cycled = FlowAssignment(flows, demo_w, REFERENCE_FLOW_CSTAR)
        check = verify_flow(demo, cycled)
        assert check.per_voter_costs[0] == base.per_voter_costs[0] + 2
        assert check.per_voter_costs[1] == base.per_voter_costs[1] + 2

    def test_missing_edge_reported(self, demo, demo_w):
        g = FlowAssignment({((0, 3), (0, 0)): F(1)}, demo_w, 3)
        with pytest.raises(FlowError, match="nonexistent edge"):
            verify_flow(demo, g)

    def test_negative_flow_reported(self, demo, demo_w):
        g = FlowAssignment({((0, 0), (0, 1)): F(-1)}, demo_w, 3)
        with pytest.raises(FlowError, match="negative flow"):
            verify_flow(demo, g)

    def test_conservation_violation_pinpointed(self, demo, demo_w,
                                               reference_assignment):
        flows = dict(REFERENCE_FLOW)
        flows[((0, 0), (0, 1))] += F(1, 2)  # voter 0 now over-drains node (0,0)
        broken = FlowAssignment(flows, demo_w, REFERENCE_FLOW_CSTAR)
        with pytest.raises(FlowError, match=r"node \(0, 0\)"):
            verify_flow(demo, broken)

    def test_absorbing_column_cannot_emit(self, demo):
        w = WeightVector.point_mass(3, 4)
        g = FlowAssignment({((0, 3), (1, 3)): F(2)}, w, 3)
        with pytest.raises(FlowError, match="emits"):
            verify_flow(demo, g)


class TestConstructFlow:
    def test_demo_all_rounds_and_references(self, demo):
        trace = plurality_veto(demo)
        for k in range(demo.n):
            w = randomized_veto(demo, k)
            for cstar in range(demo.m):
                g = construct_flow(demo, trace, k, cstar)
                assert g.w.entries == w.entries
                check = verify_flow(demo, g)
                assert check.cost <= 3

    def test_point_mass_flow(self, demo):
        # k = n - 1 leaves one unit on the deterministic winner
        trace = plurality_veto(demo)
        g = construct_flow(demo, trace, demo.n - 1, 2)
        assert g.w.support == {trace.winner}
        check = verify_flow(demo, g)
        assert check.cost <= 3

    def test_cstar_equals_winner_stays_valid(self, demo):
        trace = plurality_veto(demo)
        g = construct_flow(demo, trace, 1, trace.winner)
        check = verify_flow(demo, g)
        assert check.cost <= 3

    def test_no_sideways_flow_in_absorbing_column(self):
        rng = random.Random(19)
        for _ in range(60):
            e = random_election(rng, rng.randint(1, 6), rng.randint(1, 5))
            order = tuple(rng.sample(range(e.n), e.n))
            trace = plurality_veto(e, order)
            k = rng.randint(0, e.n - 1)
            cstar = rng.randrange(e.m)
            g = construct_flow(e, trace, k, cstar)
            for (tail, head), amount in g.flows.items():
                if tail[0] != head[0]:
                    assert tail[1] != cstar
            assert verify_flow(e, g).cost <= 3

    def test_inconsistent_trace_rejected(self, demo):
        other = Election(((1, 0, 2, 3), (2, 1, 3, 0), (0, 1, 2, 3), (3, 2, 1, 0)))
        trace = plurality_veto(other)
        with pytest.raises(FlowError, match="inconsistent"):
            construct_flow(demo, trace, 1, 0)

    def test_k_range_checked(self, demo):
        trace = plurality_veto(demo)
        with pytest.raises(FlowError):
            construct_flow(demo, trace, demo.n, 0)


class TestDualFromFlow:
    def test_reference_flow_feasible_alpha_three(self, demo, reference_assignment):
        report = dual_from_flow(
            demo, reference_assignment, verify_flow(demo, reference_assignment)
        )
        assert report.feasible
        assert report.objective == F(3)
        assert report.voter_totals == REFERENCE_FLOW_COSTS

    def test_constructed_flows_feasible(self):
        rng = random.Random(23)
        for _ in range(60):
            e = random_election(rng, rng.randint(1, 5), rng.randint(1, 5))
            trace = plurality_veto(e, tuple(rng.sample(range(e.n), e.n)))
            k = rng.randint(0, e.n - 1)
            cstar = rng.randrange(e.m)
            g = construct_flow(e, trace, k, cstar)
            check = verify_flow(e, g)
            report = dual_from_flow(e, g, check)
            assert report.feasible
            assert report.objective == check.cost <= 3
            assert report.voter_totals == check.per_voter_costs

    def test_all_zero_flow_on_cstar_point_mass(self, demo):
        w = WeightVector.point_mass(3, 4)
        g = FlowAssignment({}, w, 3)
        report = dual_from_flow(demo, g, verify_flow(demo, g))
        assert report.feasible
        assert report.objective == F(1)

    def test_sideways_flow_in_absorbing_column_is_infeasible(self, demo, demo_w):
        # a valid flow of cost 7/2 whose sideways edge inside column c* puts
        # two multipliers' worth of load on its receiver
        flows = dict(REFERENCE_FLOW)
        flows[((0, 3), (1, 3))] = F(1, 2)
        g = FlowAssignment(flows, demo_w, REFERENCE_FLOW_CSTAR)
        check = verify_flow(demo, g)
        assert check.cost == F(7, 2)
        report = dual_from_flow(demo, g, check)
        assert not report.feasible
        assert report.violations == ("voter 1: dual load 4 exceeds alpha = 7/2",)

    def test_voter_family_on_perturbed_flows(self):
        # built flows plus sideways 2-cycles outside column c* and sideways
        # edges inside it; a voter's dual total exceeds its flow cost by
        # exactly the c*-column sideways flow into or out of its c* node
        rng = random.Random(31)
        amounts = (F(1, 4), F(1, 2), F(1, 3), F(1))
        kept = infeasible = 0
        for _ in range(600):
            e = random_election(rng, rng.randint(2, 8), rng.randint(1, 6))
            trace = plurality_veto(e, tuple(rng.sample(range(e.n), e.n)))
            cstar = rng.randrange(e.m)
            g = construct_flow(e, trace, rng.randint(0, e.n - 1), cstar)
            flows = dict(g.flows)
            cstar_sideways = [F(0)] * e.n
            for _ in range(rng.randint(0, 3)):
                v, v2 = rng.sample(range(e.n), 2)
                c, amount = rng.randrange(e.m), rng.choice(amounts)
                edges = [((v, c), (v2, c))]
                if c == cstar:
                    cstar_sideways[v] += amount
                    cstar_sideways[v2] += amount
                else:
                    edges.append(((v2, c), (v, c)))
                for edge in edges:
                    flows[edge] = flows.get(edge, F(0)) + amount
            g = FlowAssignment(flows, g.w, cstar)
            try:
                check = verify_flow(e, g)
            except FlowError:
                continue
            report = dual_from_flow(e, g, check)
            assert report.voter_totals == tuple(
                cost + x for cost, x in zip(check.per_voter_costs, cstar_sideways)
            )
            assert report.feasible == (max(report.voter_totals) <= check.cost)
            assert report.objective == check.cost
            kept += 1
            infeasible += not report.feasible
        assert kept >= 400 and infeasible > 0


class TestFlowSerialization:
    def test_round_trip(self, demo, reference_assignment):
        text = format_flow(reference_assignment)
        assert parse_flow(text) == REFERENCE_FLOW

    def test_accepts_decimals(self):
        flows = parse_flow("(0,0)->(0,1): 0.25\n")
        assert flows[((0, 0), (0, 1))] == F(1, 4)

    def test_rejects_garbage(self):
        with pytest.raises(FlowError, match="line 1"):
            parse_flow("not an edge\n")
        with pytest.raises(FlowError, match="amount"):
            parse_flow("(0,0)->(0,1): x\n")

    def test_comments_ignored(self):
        assert parse_flow("# empty\n\n") == {}

    @given(
        st.dictionaries(
            st.tuples(
                st.tuples(st.integers(0, 20), st.integers(0, 20)),
                st.tuples(st.integers(0, 20), st.integers(0, 20)),
            ),
            st.fractions(),
            max_size=12,
        )
    )
    def test_round_trip_any_edge_list(self, flows):
        g = FlowAssignment(flows, WeightVector.uniform(1), 0)
        assert parse_flow(format_flow(g)) == flows

    @given(st.text(alphabet="0123456789(),->: /.#x\n", max_size=40))
    def test_rejection_is_a_flow_error_with_a_line(self, text):
        try:
            parse_flow(text)
        except FlowError as exc:
            assert str(exc).startswith("line ")

    def test_repeated_edge_names_both_lines(self):
        text = "(0,0)->(0,1): 1/4\n# comment\n(1,0)->(1,2): 1\n(0,0) -> (0,1): 1/2\n"
        with pytest.raises(FlowError, match=r"line 4: .*\(0,0\)->\(0,1\).* line 1"):
            parse_flow(text)
