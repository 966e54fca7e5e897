import random
from itertools import combinations

import numpy as np
import pytest

from pluveto.certify.simplex import LPStatus, linprog_max


class TestKnownPrograms:
    def test_box(self):
        r = linprog_max([1.0, 1.0], [[1, 0], [0, 1]], [1, 2])
        assert r.status is LPStatus.OPTIMAL
        assert r.value == pytest.approx(3.0)
        assert r.x == pytest.approx([1.0, 2.0])

    def test_shared_resource(self):
        # max 3x + 2y with x + y <= 4, x <= 2
        r = linprog_max([3, 2], [[1, 1], [1, 0]], [4, 2])
        assert r.value == pytest.approx(10.0)

    def test_equality_constraint(self):
        r = linprog_max([1, 0], A_eq=[[1, 1]], b_eq=[1])
        assert r.value == pytest.approx(1.0)
        assert r.x == pytest.approx([1.0, 0.0])

    def test_infeasible(self):
        # x <= 1 and x = 3
        r = linprog_max([1], [[1]], [1], [[1]], [3])
        assert r.status is LPStatus.INFEASIBLE

    def test_unbounded(self):
        r = linprog_max([1, 0], [[0, 1]], [1])
        assert r.status is LPStatus.UNBOUNDED

    def test_negative_rhs_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            linprog_max([-1.0], [[-1.0]], [-2.0])
        with pytest.raises(ValueError, match="non-negative"):
            linprog_max([1.0], A_eq=[[1.0]], b_eq=[-1.0])

    def test_redundant_equality_rows(self):
        # the second and third rows repeat the first; phase 1 drops them
        r = linprog_max(
            [1, 2], [[0, 1]], [0.5], [[1, 1], [2, 2], [1, 1]], [1, 2, 1]
        )
        assert r.status is LPStatus.OPTIMAL
        assert r.value == pytest.approx(1.5)
        assert r.x == pytest.approx([0.5, 0.5])

    def test_degenerate_cycling_candidate(self):
        # classic cycling setup for naive pivoting; must still terminate
        c = [0.75, -150.0, 0.02, -6.0]
        A = [
            [0.25, -60.0, -0.04, 9.0],
            [0.5, -90.0, -0.02, 3.0],
            [0.0, 0.0, 1.0, 0.0],
        ]
        b = [0.0, 0.0, 1.0]
        r = linprog_max(c, A, b)
        assert r.status is LPStatus.OPTIMAL
        assert r.value == pytest.approx(0.05)

    def test_zero_objective(self):
        r = linprog_max([0.0, 0.0], [[1, 1]], [1])
        assert r.status is LPStatus.OPTIMAL
        assert r.value == pytest.approx(0.0)


def vertex_enumeration_optimum(c, A, b):
    """Exact optimum of max c.x s.t. A x <= b, x >= 0 by checking every
    basic point (intersection of n constraint hyperplanes)."""
    c = np.asarray(c, float)
    A = np.asarray(A, float)
    b = np.asarray(b, float)
    n = c.size
    rows = [(A[i], b[i]) for i in range(len(b))]
    rows += [(np.eye(n)[i], 0.0) for i in range(n)]  # x_i >= 0 as -x <= 0
    best = None
    for chosen in combinations(range(len(rows)), n):
        M = np.array([rows[i][0] for i in chosen])
        rhs = np.array([rows[i][1] for i in chosen])
        if abs(np.linalg.det(M)) < 1e-9:
            continue
        x = np.linalg.solve(M, rhs)
        if (x >= -1e-9).all() and (A @ x <= b + 1e-9).all():
            value = float(c @ x)
            best = value if best is None else max(best, value)
    return best


class TestAgainstVertexEnumeration:
    def test_random_bounded_programs(self):
        rng = random.Random(23)
        for _ in range(60):
            n = rng.randint(1, 3)
            rows = rng.randint(1, 5)
            A = [[rng.randint(-2, 4) for _ in range(n)] for _ in range(rows)]
            b = [rng.randint(0, 6) for _ in range(rows)]
            # cap every variable so the program is bounded
            for i in range(n):
                A.append([1 if j == i else 0 for j in range(n)])
                b.append(5)
            c = [rng.randint(-3, 3) for _ in range(n)]
            got = linprog_max(c, A, b)
            expected = vertex_enumeration_optimum(c, A, b)
            assert got.status is LPStatus.OPTIMAL
            assert got.value == pytest.approx(expected, abs=1e-7)
