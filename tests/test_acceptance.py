"""Acceptance suite.

One test per criterion; each prints a single PASS line when it holds (run
with ``pytest -s`` to see the lines as they complete).  Tolerances are fixed
here and nowhere else: LP comparisons use 1e-6, flow and matching arithmetic
is exact rational with zero tolerance.
"""

import random
from fractions import Fraction as F
from itertools import combinations, permutations, product

import pytest

from pluveto.bench import convex_hull_vertices, generate_euclidean, peer_selection
from pluveto.certify.distortion import worst_case_distortion
from pluveto.certify.domination import (
    domination_graph,
    fractional_perfect_matching,
    has_perfect_matching,
    is_fractional_perfect_matching,
    pq_domination_graph,
)
from pluveto.certify.flow import (
    FlowAssignment,
    construct_flow,
    dual_from_flow,
    verify_flow,
)
from pluveto.core import Election, WeightVector
from pluveto.rules import (
    Committee,
    committee_select,
    fractional_veto,
    induced_committee_election,
    plurality_veto,
    q_social_cost,
    randomized_veto,
    top_prefix_committees,
)

from conftest import (
    DEMO_RANKINGS,
    REFERENCE_FLOW,
    REFERENCE_FLOW_COSTS,
    REFERENCE_FLOW_CSTAR,
    REFERENCE_FLOW_W,
    random_election,
    random_simplex,
)

LP_TOL = 1e-6


def _report(number: int, message: str) -> None:
    print(f"[criterion {number}] PASS — {message}")


# --------------------------------------------------------------------------
# criterion 1: exhaustive sweep of every small election and voter order


def test_criterion_1_exhaustive_small_elections():
    matching_cache: dict = {}
    lp_cache: dict = {}
    elections = orders_checked = lp_solved = 0
    for m in range(1, 4):
        ballots = list(permutations(range(m)))
        for n in range(1, 5):
            for profile in product(ballots, repeat=n):
                e = Election(profile)
                elections += 1
                winners = set()
                for order in permutations(range(n)):
                    winners.add(plurality_veto(e, order).winner)
                    orders_checked += 1
                for winner in winners:
                    key = (profile, winner)
                    if key not in matching_cache:
                        matching_cache[key] = has_perfect_matching(
                            domination_graph(e, winner)
                        )[0]
                    assert matching_cache[key], (
                        f"no perfect matching for winner {winner} of {profile}"
                    )
                    if key not in lp_cache:
                        w = WeightVector.point_mass(winner, m)
                        lp_cache[key] = max(
                            worst_case_distortion(e, w, cstar).value
                            for cstar in range(m)
                        )
                        lp_solved += m
                    assert lp_cache[key] <= 3 + LP_TOL, (
                        f"distortion {lp_cache[key]} for winner {winner} of {profile}"
                    )
    _report(
        1,
        f"{elections} elections, {orders_checked} (election, order) runs, "
        f"{lp_solved} LPs: every winner has a perfect matching and "
        f"point-mass distortion <= 3 + 1e-6",
    )


# --------------------------------------------------------------------------
# criterion 2: the worked flow example reproduces exactly


def test_criterion_2_reference_flow_costs_exact():
    e = Election(DEMO_RANKINGS)
    g = FlowAssignment(
        dict(REFERENCE_FLOW), WeightVector(REFERENCE_FLOW_W), REFERENCE_FLOW_CSTAR
    )
    check = verify_flow(e, g)
    assert check.per_voter_costs == REFERENCE_FLOW_COSTS
    assert check.cost == F(3)
    _report(2, "per-voter costs (4/3, 3, 8/3, 1) and overall cost 3, exact")


# --------------------------------------------------------------------------
# criterion 3: fractional veto always certifies itself


def test_criterion_3_fractional_veto_property_suite():
    rng = random.Random(320)
    for i in range(1000):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        e = random_election(rng, n, m)
        p = random_simplex(rng, n)
        q = random_simplex(rng, m)
        trace = fractional_veto(e, p, q)
        assert len(trace.steps) <= n + m, f"instance {i}: too many steps"
        graph = pq_domination_graph(e, trace.winner, p, q)
        assert is_fractional_perfect_matching(graph, trace.matching), (
            f"instance {i}: recorded matching not exactly balanced"
        )
        assert fractional_perfect_matching(graph) is not None, (
            f"instance {i}: max-flow denies feasibility"
        )
    _report(
        3,
        "1000 random (election, p, q): <= n+m steps, exactly balanced "
        "matching, max-flow confirms feasibility",
    )


# --------------------------------------------------------------------------
# criteria 4-6 share one instance suite


@pytest.fixture(scope="module")
def flow_lp_suite():
    rng = random.Random(46_000)
    rows = []
    for _ in range(1000):
        n, m = rng.randint(1, 6), rng.randint(1, 5)
        e = random_election(rng, n, m)
        order = tuple(rng.sample(range(n), n))
        trace = plurality_veto(e, order)
        for k in range(n):
            w = randomized_veto(e, k, order)
            per_cstar = []
            for cstar in range(m):
                g = construct_flow(e, trace, k, cstar)
                check = verify_flow(e, g)
                dual_report = dual_from_flow(e, g, check)
                lp = worst_case_distortion(e, w, cstar)
                per_cstar.append(
                    (check.cost, dual_report.feasible, dual_report.objective,
                     lp.value)
                )
            rows.append((n, m, k, per_cstar))
    return rows


def test_criterion_4_randomized_rule_flow_and_lp(flow_lp_suite):
    flows = lps = 0
    for n, m, k, per_cstar in flow_lp_suite:
        for cost, feasible, objective, lp_value in per_cstar:
            assert cost <= 3, f"flow cost {cost} > 3 at n={n} m={m} k={k}"
            assert feasible, f"dual infeasible at n={n} m={m} k={k}"
            assert objective == cost, "dual objective differs from flow cost"
            flows += 1
        worst = max(value for *_, value in per_cstar)
        assert worst <= 3 + LP_TOL, f"distortion {worst} at n={n} m={m} k={k}"
        lps += len(per_cstar)
    _report(
        4,
        f"1000 elections, every k: {flows} constructed flows verify with "
        f"cost <= 3 and exact feasible duals; {lps} LPs <= 3 + 1e-6",
    )


def test_criterion_5_zero_round_bound(flow_lp_suite):
    checked = 0
    for n, m, k, per_cstar in flow_lp_suite:
        if k != 0:
            continue
        worst = max(value for *_, value in per_cstar)
        assert worst <= 3 - 2 / n + LP_TOL, (
            f"zero-round distortion {worst} > 3 - 2/{n} at n={n} m={m}"
        )
        checked += 1
    assert checked == 1000
    _report(5, f"{checked} zero-round instances within 3 - 2/n + 1e-6")


def test_criterion_6_weak_duality_coupling(flow_lp_suite):
    pairs = 0
    for n, m, k, per_cstar in flow_lp_suite:
        for cost, _, _, lp_value in per_cstar:
            assert lp_value <= float(cost) + LP_TOL, (
                f"LP value {lp_value} exceeds flow cost {cost} at n={n} m={m} k={k}"
            )
            pairs += 1
    _report(6, f"{pairs} (flow, LP) pairs satisfy LP <= cost + 1e-6")


# --------------------------------------------------------------------------
# criterion 7: committee rule against brute force


def exhaustive_committee_winner(e, k, q, order):
    committees = [Committee(members) for members in combinations(range(e.m), k)]
    induced = induced_committee_election(e, committees, q)
    return committees[plurality_veto(induced, order).winner]


def test_criterion_7_committee_rule():
    rng = random.Random(700)
    agreements = 0
    for i in range(200):
        k = rng.choice((2, 3))
        m = rng.randint(k, 6)
        n = rng.randint(1, 8)
        q = k
        e, d = generate_euclidean(n, m, 2, "gaussian", rng.randint(0, 10**9))
        order = tuple(rng.sample(range(n), n))
        selected = committee_select(e, k, q, order)
        cost = q_social_cost(selected, d, q, n)
        optimum = min(
            q_social_cost(members, d, q, n)
            for members in combinations(range(m), k)
        )
        assert cost <= 3 * optimum + 1e-9, (
            f"instance {i}: q-social cost {cost} > 3x optimum {optimum}"
        )
        exhaustive = exhaustive_committee_winner(e, k, q, order)
        covered = exhaustive.members in {
            c.members for c in top_prefix_committees(e, k)
        }
        if covered:
            assert selected == exhaustive, (
                f"instance {i}: disagreement {selected} vs {exhaustive}"
            )
            agreements += 1
    assert agreements == 200  # with q = k the prefix set always covers
    _report(
        7,
        "200 Euclidean instances: q-social cost within 3x of the brute-force "
        "optimum and full agreement with the exhaustive re-implementation",
    )


# --------------------------------------------------------------------------
# criterion 8: the known LP point


def test_criterion_8_opposed_pair_lp_point():
    e = Election(((0, 1), (1, 0)))
    result = worst_case_distortion(e, WeightVector.point_mass(0, 2), 1)
    assert result.value == pytest.approx(3.0, abs=LP_TOL)
    _report(8, f"opposed two-by-two instance solves to {result.value:.9f}")


# --------------------------------------------------------------------------
# criterion 9: peer-selection vetoes peel hull vertices


def test_criterion_9_peer_selection_hull_property():
    rng = random.Random(900)
    rounds_checked = 0
    for _ in range(200):
        n = rng.randint(1, 10)
        e, _, points = peer_selection(n, seed=rng.randint(0, 10**9))
        order = tuple(rng.sample(range(n), n))
        for r in plurality_veto(e, order).rounds:
            active = sorted(r.active)
            hull = convex_hull_vertices([points[a] for a in active])
            assert active.index(r.vetoed) in hull, (
                f"vetoed agent {r.vetoed} not a hull vertex of {active}"
            )
            rounds_checked += 1
    _report(
        9,
        f"200 planar peer-selection instances, {rounds_checked} veto rounds: "
        f"every vetoed agent is a convex-hull vertex of the survivors",
    )
