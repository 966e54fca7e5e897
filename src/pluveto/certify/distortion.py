"""Exact worst-case distortion of a winner distribution, by linear program.

The adversary chooses a pseudo-metric consistent with the ballots that
maximizes the expected winner cost while pinning a reference candidate's
cost to 1.  Maximizing over reference candidates gives the distortion of
the distribution.  The optimizer's variable values form a witness distance
matrix, returned alongside the value.

Each LP starts from the triangle rows whose middle candidate is the
reference c*, the sideways edges of the flow network in :mod:`.flow`, and
adds any other four-point row only once a witness violates it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..core import Election, WeightVector
from .metric import DEFAULT_TOL, Metric, triangle_violations
from .simplex import LPStatus, linprog_max

__all__ = [
    "DistortionInputError",
    "DistortionResult",
    "LPInternalError",
    "worst_case_distortion",
    "distortion",
]

MAX_VARIABLES = 100  # n * m; a 10 x 10 distortion takes a few seconds


class LPInternalError(RuntimeError):
    """The solver reported a state that valid inputs cannot produce."""


class DistortionInputError(ValueError):
    """The instance is over the variable cap, or its distortion is infinite."""


@dataclass(frozen=True)
class DistortionResult:
    """``pivots`` counts simplex pivots and ``lazy_rounds`` the re-solves
    after adding violated triangle rows, both summed over every LP solved
    for the result."""

    value: float
    witness: Metric
    cstar: int
    pivots: int
    lazy_rounds: int


def _ranking_rows(e: Election) -> np.ndarray:
    """x[better * n + v] - x[worse * n + v] <= 0 for every adjacent pair of
    every ballot; the full pairwise family follows by transitivity."""
    n, m = e.n, e.m
    ranks = np.array(e.rankings)
    voters = np.arange(n)[:, None]
    rows = np.arange(n * (m - 1))
    A = np.zeros((len(rows), n * m))
    A[rows, (ranks[:, :-1] * n + voters).ravel()] = 1.0
    A[rows, (ranks[:, 1:] * n + voters).ravel()] = -1.0
    return A


def _triangle_rows(n: int, m: int, quads: np.ndarray) -> np.ndarray:
    """x[c * n + v] - x[c2 * n + v] - x[c2 * n + v2] - x[c * n + v2] <= 0,
    the four-point inequality d(v,c) <= d(v,c2) + d(v2,c2) + d(v2,c), for
    each row (v, v2, c, c2) of ``quads``."""
    v, v2, c, c2 = quads.T
    rows = np.arange(len(quads))
    A = np.zeros((len(quads), n * m))
    for column, sign in (
        (c * n + v, 1.0), (c2 * n + v, -1.0), (c2 * n + v2, -1.0), (c * n + v2, -1.0)
    ):
        A[rows, column] += sign
    return A


def worst_case_distortion(e: Election, w: WeightVector, cstar: int) -> DistortionResult:
    """Largest expected cost of the distribution w over ballot-consistent
    pseudo-metrics in which candidate ``cstar`` has total cost exactly 1.

    Returns the LP optimum and the maximizing distance matrix.  The first
    LP holds the n(m-1) ranking rows and the (m-1)n(n-1) triangle rows
    through ``cstar``.  Its witness is checked against all four-point rows;
    violated rows are added and the LP solved again until the witness is a
    metric.  Each LP relaxes the full one, so the final optimum is the full
    LP's.  Every solve and every triangle check uses the tolerance
    ``DEFAULT_TOL``, and instances over ``MAX_VARIABLES`` = n * m variables
    are refused.
    """
    if len(w) != e.m:
        raise ValueError(f"w must have one entry per candidate ({e.m})")
    if not 0 <= cstar < e.m:
        raise ValueError(f"cstar out of range 0..{e.m - 1}")
    n, m = e.n, e.m
    if n * m > MAX_VARIABLES:
        raise DistortionInputError(
            f"instance has {n * m} variables, over the cap of {MAX_VARIABLES}"
        )
    # in_lp[v, v2, c, c2]: the row for d(v,c) <= d(v,c2) + d(v2,c2) + d(v2,c)
    in_lp = np.zeros((n, n, m, m), dtype=bool)
    in_lp[:, :, :, cstar] = True
    in_lp[np.arange(n), np.arange(n)] = False
    in_lp[:, :, cstar, cstar] = False
    A_ub = np.vstack([_ranking_rows(e), _triangle_rows(n, m, np.argwhere(in_lp))])
    A_eq = np.zeros((1, n * m))
    A_eq[0, cstar * n : (cstar + 1) * n] = 1.0
    objective = np.repeat([float(x) for x in w], n)
    pivots = lazy_rounds = 0
    while True:
        result = linprog_max(
            objective, A_ub, np.zeros(len(A_ub)), A_eq, [1.0], tol=DEFAULT_TOL
        )
        pivots += result.iterations
        if result.status is LPStatus.UNBOUNDED:
            # w puts weight on a candidate that can sit arbitrarily far from
            # every voter while c* keeps cost 1.  Such a candidate has no
            # first-place votes, so the veto rules never produce this: it is
            # a property of the input, not a solver fault.
            raise DistortionInputError(
                "distortion LP is unbounded: the distribution has infinite "
                "worst-case distortion (weight on a candidate with no "
                "first-place votes)"
            )
        if result.status is not LPStatus.OPTIMAL:
            raise LPInternalError(
                f"distortion LP did not converge: {result.status.value}"
            )
        d = result.x.reshape(m, n).T
        violated = triangle_violations(d, DEFAULT_TOL)
        if not len(violated):
            break
        if in_lp[tuple(violated.T)].any():
            raise LPInternalError(
                "distortion LP witness violates a triangle row the LP holds"
            )
        in_lp[tuple(violated.T)] = True
        A_ub = np.vstack([A_ub, _triangle_rows(n, m, violated)])
        lazy_rounds += 1
    return DistortionResult(
        result.value, Metric(d.tolist()), cstar, pivots, lazy_rounds
    )


def distortion(e: Election, w: WeightVector) -> DistortionResult:
    """Worst-case expected distortion of w: the maximum over all reference
    candidates of :func:`worst_case_distortion`, with the pivots and lazy
    rounds of every reference candidate summed."""
    results = [worst_case_distortion(e, w, cstar) for cstar in range(e.m)]
    best = max(results, key=lambda r: r.value)
    return replace(
        best,
        pivots=sum(r.pivots for r in results),
        lazy_rounds=sum(r.lazy_rounds for r in results),
    )
