import importlib
import random
from itertools import product

import numpy as np
import pytest
from scipy.optimize import linprog

from pluveto.core import Election, WeightVector
from pluveto.certify.distortion import (
    DistortionInputError,
    LPInternalError,
    distortion,
    worst_case_distortion,
)
from pluveto.bench import generate_euclidean
from pluveto.rules import plurality_veto, randomized_veto

from conftest import random_election
from helpers import consistent_with, is_valid, social_cost


class TestWorstCaseDistortion:
    def test_single_voter_point_mass_is_one(self):
        e = Election(((0, 1, 2),))
        w = WeightVector.point_mass(0, 3)
        for cstar in range(3):
            r = worst_case_distortion(e, w, cstar)
            assert r.value == pytest.approx(1.0, abs=1e-9)

    def test_opposed_pair_reaches_three(self):
        e = Election(((0, 1), (1, 0)))
        r = worst_case_distortion(e, WeightVector.point_mass(0, 2), 1)
        assert r.value == pytest.approx(3.0, abs=1e-6)
        # a known maximizer: voter 0 equidistant, voter 1 on its favorite
        assert is_valid(r.witness)
        assert consistent_with(r.witness, e)
        assert social_cost(1, r.witness) == pytest.approx(1.0, abs=1e-9)
        assert social_cost(0, r.witness) == pytest.approx(3.0, abs=1e-6)

    def test_single_candidate(self):
        e = Election(((0,), (0,)))
        r = worst_case_distortion(e, WeightVector.point_mass(0, 1), 0)
        assert r.value == pytest.approx(1.0)

    def test_witnesses_validate(self):
        rng = random.Random(31)
        for _ in range(25):
            e = random_election(rng, rng.randint(1, 5), rng.randint(1, 4))
            k = rng.randint(0, e.n - 1)
            r = distortion(e, randomized_veto(e, k))
            assert is_valid(r.witness)
            assert consistent_with(r.witness, e)

    def test_normalization_holds_at_witness(self):
        rng = random.Random(37)
        for _ in range(20):
            e = random_election(rng, rng.randint(2, 5), rng.randint(2, 4))
            cstar = rng.randrange(e.m)
            w = WeightVector.point_mass(plurality_veto(e).winner, e.m)
            r = worst_case_distortion(e, w, cstar)
            assert social_cost(cstar, r.witness) == pytest.approx(1.0, abs=1e-7)

    def test_unsupported_point_mass_is_unbounded(self):
        # every voter tops candidate 0; a point mass on candidate 1 can be
        # pushed arbitrarily far, so the LP reports infinite distortion
        e = Election(((0, 1), (0, 1)))
        with pytest.raises(DistortionInputError, match="unbounded"):
            worst_case_distortion(e, WeightVector.point_mass(1, 2), 0)

    def test_variable_cap_enforced(self):
        e = Election(tuple(tuple(range(6)) for _ in range(17)))
        with pytest.raises(DistortionInputError, match="102 variables, over the cap of 100"):
            worst_case_distortion(e, WeightVector.point_mass(0, 6), 0)

    def test_bad_inputs(self, demo):
        with pytest.raises(ValueError):
            worst_case_distortion(demo, WeightVector.point_mass(0, 3), 0)
        with pytest.raises(ValueError):
            worst_case_distortion(demo, WeightVector.point_mass(0, 4), 9)


class TestDistortionWrapper:
    def test_lp_value_dominates_every_realized_ratio(self):
        # the LP maximizes over all consistent metrics, so a sampled metric
        # can never beat it
        rng = random.Random(41)
        for _ in range(15):
            n, m = rng.randint(2, 5), rng.randint(2, 4)
            e, d = generate_euclidean(n, m, 2, "gaussian", rng.randint(0, 10**6))
            winner = plurality_veto(e).winner
            w = WeightVector.point_mass(winner, e.m)
            lp = distortion(e, w).value
            realized = social_cost(winner, d) / min(
                social_cost(c, d) for c in range(e.m)
            )
            assert realized <= lp + 1e-6

    def test_veto_winner_within_three_small_exhaustive(self):
        # spot sample of the full exhaustive acceptance sweep
        for rankings in product(
            *[list(__import__("itertools").permutations(range(3)))] * 3
        ):
            if random.Random(str(rankings)).random() < 0.9:
                continue  # thin deterministically to keep this test quick
            e = Election(tuple(rankings))
            winner = plurality_veto(e).winner
            value = distortion(e, WeightVector.point_mass(winner, 3)).value
            assert value <= 3 + 1e-6

    def test_randomized_rule_within_three(self):
        rng = random.Random(43)
        for _ in range(10):
            e = random_election(rng, rng.randint(1, 5), rng.randint(1, 4))
            k = rng.randint(0, e.n - 1)
            value = distortion(e, randomized_veto(e, k)).value
            assert value <= 3 + 1e-6


def full_lp_value(e, w, cstar):
    """The distortion LP with every four-point triangle row and every
    adjacent ranking row, built row by row and solved by scipy's HiGHS: the
    reference for the LP that adds triangle rows lazily."""
    n, m = e.n, e.m
    rows = []
    for c in range(m):
        for c2 in range(m):
            if c == c2:
                continue
            for v in range(n):
                for v2 in range(n):
                    if v == v2:
                        continue
                    row = np.zeros(n * m)
                    row[c * n + v] += 1.0
                    row[c * n + v2] -= 1.0
                    row[c2 * n + v2] -= 1.0
                    row[c2 * n + v] -= 1.0
                    rows.append(row)
    for v, ranking in enumerate(e.rankings):
        for better, worse in zip(ranking, ranking[1:]):
            row = np.zeros(n * m)
            row[better * n + v] += 1.0
            row[worse * n + v] -= 1.0
            rows.append(row)
    A_eq = np.zeros((1, n * m))
    A_eq[0, cstar * n : (cstar + 1) * n] = 1.0
    objective = np.repeat([float(x) for x in w], n)
    result = linprog(
        -objective,
        A_ub=np.array(rows) if rows else None,
        b_ub=np.zeros(len(rows)) if rows else None,
        A_eq=A_eq,
        b_eq=[1.0],
        method="highs",
    )
    assert result.status == 0, result.message
    return -result.fun


class TestLazyTriangleRows:
    def test_matches_full_lp_on_random_elections(self):
        rng = random.Random(3_001)
        lazy = 0
        for _ in range(200):
            e = random_election(rng, rng.randint(1, 6), rng.randint(1, 5))
            w = randomized_veto(e, rng.randint(0, e.n - 1))
            for cstar in range(e.m):
                r = worst_case_distortion(e, w, cstar)
                assert abs(r.value - full_lp_value(e, w, cstar)) <= 1e-9
                r.witness.validate()
                assert consistent_with(r.witness, e)
                lazy += r.lazy_rounds > 0
        assert lazy > 0  # the sample reaches the re-solve path

    @pytest.mark.parametrize("tol", [1e-6, 1e-11])
    def test_lazy_check_uses_the_solve_tolerance(self, tol, monkeypatch):
        # one tolerance, DEFAULT_TOL, reaches both the solve and the check
        module = importlib.import_module("pluveto.certify.distortion")
        check, solve = module.triangle_violations, module.linprog_max
        seen = set()

        def recording_check(d, tol):
            seen.add(("check", tol))
            return check(d, tol)

        def recording_solve(*args, tol):
            seen.add(("solve", tol))
            return solve(*args, tol=tol)

        monkeypatch.setattr(module, "DEFAULT_TOL", tol)
        monkeypatch.setattr(module, "triangle_violations", recording_check)
        monkeypatch.setattr(module, "linprog_max", recording_solve)
        rng = random.Random(3_002)
        for _ in range(30):
            e = random_election(rng, rng.randint(2, 6), rng.randint(2, 5))
            w = randomized_veto(e, rng.randint(0, e.n - 1))
            r = distortion(e, w)
            expected = max(full_lp_value(e, w, c) for c in range(e.m))
            assert abs(r.value - expected) <= 1e-9
            r.witness.validate(tol)
            assert consistent_with(r.witness, e)
        assert seen == {("check", tol), ("solve", tol)}

    def test_first_solve_violation_is_resolved(self):
        # the LP through c* = 0 omits d(v,0) <= d(v,1) + d(v2,1) + d(v2,0);
        # its first witness breaks that row, which the second solve adds
        e = Election(((0, 1), (1, 0)))
        w = WeightVector.point_mass(0, 2)
        r = worst_case_distortion(e, w, 0)
        assert r.lazy_rounds == 1
        assert r.value == pytest.approx(full_lp_value(e, w, 0), abs=1e-9)
        r.witness.validate()
        assert consistent_with(r.witness, e)

    def test_violation_of_a_held_row_is_an_internal_error(self, monkeypatch):
        # a reported violation of a row the LP already holds is float noise;
        # re-adding it would loop, so the solver gives up instead
        e = Election(((0, 1), (1, 0)))
        monkeypatch.setattr(
            importlib.import_module("pluveto.certify.distortion"),
            "triangle_violations",
            lambda d, tol: np.array([[0, 1, 0, 1]]),
        )
        with pytest.raises(LPInternalError, match="holds"):
            worst_case_distortion(e, WeightVector.point_mass(0, 2), 1)

    def test_counters_sum_over_reference_candidates(self):
        e = Election(((0, 1), (1, 0)))
        w = WeightVector.point_mass(0, 2)
        per_cstar = [worst_case_distortion(e, w, cstar) for cstar in range(2)]
        total = distortion(e, w)
        assert total.pivots == sum(r.pivots for r in per_cstar) > 0
        assert total.lazy_rounds == sum(r.lazy_rounds for r in per_cstar) >= 1
