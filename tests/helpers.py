"""Predicates and oracles that only the tests use."""

from pluveto.certify.metric import DEFAULT_TOL, Metric
from pluveto.core import Election
from pluveto.rules import Committee


def is_valid(metric: Metric, tol: float = DEFAULT_TOL) -> bool:
    """True iff ``metric.validate(tol)`` raises nothing."""
    try:
        metric.validate(tol)
    except ValueError:
        return False
    return True


def consistent_with(metric: Metric, e: Election, tol: float = DEFAULT_TOL) -> bool:
    """True iff every voter's ranking is non-decreasing in distance."""
    if e.n != len(metric.d) or e.m != len(metric.d[0]):
        return False
    for v, ranking in enumerate(e.rankings):
        row = metric.d[v]
        for a, b in zip(ranking, ranking[1:]):
            if row[a] > row[b] + tol:
                return False
    return True


def all_positive(metric: Metric) -> bool:
    return all(x > 0 for row in metric.d for x in row)


def csv_metric(text: str) -> Metric:
    """Read back the rows that ``metric_to_csv`` wrote."""
    return Metric(tuple(
        tuple(float(tok) for tok in line.split(",")) for line in text.splitlines()
    ))


def social_cost(c: int, d) -> float:
    """Total distance from candidate c to all voters, added left to right;
    ``d`` is a Metric or a sequence of rows."""
    rows = d.d if isinstance(d, Metric) else d
    return sum(row[c] for row in rows)


def bottom_among(e: Election, v: int, candidates) -> int:
    """The candidate in the nonempty ``candidates`` that voter v ranks last."""
    return max(candidates, key=e.positions[v].__getitem__)


def committee_rank_key(e: Election, v: int, committee: Committee, q: int):
    """Sort key realizing voter v's strict order over equal-size committees.

    Primary key: the rank (under v) of the committee's q-th favorite member.
    Ties mean the q-th favorites coincide; they are broken lexicographically
    on the sorted member tuples so the order is total and reproducible.
    """
    pos = e.positions[v]
    qth = sorted(pos[c] for c in committee.members)[q - 1]
    return (qth, committee.members)
