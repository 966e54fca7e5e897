import importlib
import random
import re

import pytest
from hypothesis import given, strategies as st

from pluveto.bench import generate_euclidean
from pluveto.core import Election
from pluveto.certify.metric import Metric, metric_to_csv, triangle_violations

from helpers import all_positive, consistent_with, csv_metric, is_valid, social_cost


def loop_validation_error(d, tol=1e-9):
    """The first violation's message by the nested-loop check, or None."""
    n, m = len(d), len(d[0])
    for v in range(n):
        for c in range(m):
            if d[v][c] < -tol:
                return f"negative distance d({v},{c}) = {d[v][c]}"
    for v in range(n):
        for v2 in range(n):
            for c in range(m):
                for c2 in range(m):
                    bound = d[v][c2] + d[v2][c2] + d[v2][c]
                    if d[v][c] > bound + tol:
                        return (
                            f"triangle violation: d({v},{c}) = {d[v][c]} > "
                            f"d({v},{c2}) + d({v2},{c2}) + d({v2},{c}) = {bound}"
                        )
    return None


def validation_error(metric):
    try:
        metric.validate()
    except ValueError as exc:
        return str(exc)
    return None


class TestMetricValidation:
    def test_euclidean_instances_validate(self):
        for seed in range(20):
            _, d = generate_euclidean(4, 3, 2, "gaussian", seed)
            d.validate()

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            Metric(((1.0, -0.5),)).validate()

    @pytest.mark.parametrize("text, first", [
        ("nan,1.0\n1.0,1.0\n", "d(0,0) = nan"),
        ("inf\n", "d(0,0) = inf"),
        ("1.0,2.0\n-inf,nan\n", "d(1,0) = -inf"),
    ])
    def test_non_finite_entry_rejected(self, text, first):
        # NaN is neither negative nor part of a triangle violation
        with pytest.raises(ValueError, match=rf"non-finite distance {re.escape(first)}$"):
            csv_metric(text).validate()

    def test_triangle_violation_caught(self):
        # d(0,0) = 10 but the relay through voter 1 and candidate 1 costs 3
        d = Metric(((10.0, 1.0), (1.0, 1.0)))
        with pytest.raises(ValueError, match="triangle"):
            d.validate()
        assert not is_valid(d)

    def test_zero_distances_are_legal(self):
        Metric(((0.0, 0.0), (0.0, 0.0))).validate()

    def test_tolerance_absorbs_float_noise(self):
        d = Metric(((1.0 + 1e-12, 1.0), (1.0, 1.0)))
        d.validate()

    def test_first_violation_matches_loop_order(self, monkeypatch):
        # small blocks make the tensor check cross several voter blocks
        monkeypatch.setattr(
            importlib.import_module("pluveto.core"), "_BLOCK_ENTRIES", 16
        )
        rng = random.Random(47)
        errors = 0
        for _ in range(300):
            n, m = rng.randint(1, 5), rng.randint(1, 4)
            values = (0.0, 0.5, 1.0, rng.uniform(-0.1, 4.0))
            d = tuple(
                tuple(rng.choice(values) for _ in range(m)) for _ in range(n)
            )
            expected = loop_validation_error(d)
            assert validation_error(Metric(d)) == expected
            errors += expected is not None
        assert 0 < errors < 300

    def test_triangle_violations_lists_every_row(self):
        d = Metric(((10.0, 1.0), (1.0, 1.0)))
        assert triangle_violations(d.d).tolist() == [[0, 1, 0, 1]]
        assert triangle_violations(((1.0, 2.0), (2.0, 1.0))).tolist() == []

    def test_consistency(self):
        e = Election(((0, 1), (1, 0)))
        good = Metric(((1.0, 2.0), (3.0, 0.5)))
        assert consistent_with(good, e)
        bad = Metric(((2.0, 1.0), (3.0, 0.5)))
        assert not consistent_with(bad, e)

    def test_consistency_checks_shape(self):
        e = Election(((0, 1), (1, 0)))
        assert not consistent_with(Metric(((1.0, 2.0),)), e)

    def test_all_positive(self):
        assert all_positive(Metric(((1.0, 2.0),)))
        assert not all_positive(Metric(((0.0, 2.0),)))


class TestMetricIO:
    def test_social_cost(self):
        d = Metric(((1.0, 2.0), (3.0, 4.0)))
        assert social_cost(0, d) == 4.0
        assert social_cost(1, d) == 6.0

    def test_csv_round_trip(self):
        _, d = generate_euclidean(3, 4, 2, "uniform", 7)
        assert csv_metric(metric_to_csv(d)).d == d.d

    @given(
        st.integers(1, 4).flatmap(
            lambda m: st.lists(
                st.lists(
                    st.floats(allow_nan=False, allow_infinity=False),
                    min_size=m,
                    max_size=m,
                ),
                min_size=1,
                max_size=5,
            )
        )
    )
    def test_csv_round_trip_any_finite_matrix(self, rows):
        d = Metric(rows)
        assert csv_metric(metric_to_csv(d)) == d

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            Metric(((1.0, 2.0), (1.0,)))
