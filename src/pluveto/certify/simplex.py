"""A self-contained dense simplex solver.

Two-phase tableau method over numpy float64 for one problem form: maximize
c @ x subject to A_ub @ x <= b_ub, A_eq @ x = b_eq, x >= 0, with every
right-hand side non-negative.  The slack of each <= row and the artificial
of each equality row then form an identity start basis, and phase 1 runs
only when there are equality rows.  Pivoting uses Dantzig's rule for speed
and falls back to Bland's smallest-index rule permanently once the
objective stalls, which guarantees termination on the highly degenerate
programs this package produces (most right-hand sides are zero).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = ["LPStatus", "LPResult", "linprog_max"]

_STALL_LIMIT = 64


class LPStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration_limit"


@dataclass
class LPResult:
    status: LPStatus
    x: np.ndarray | None
    value: float | None
    iterations: int


def _block(A, b, nvars: int) -> tuple[np.ndarray, np.ndarray]:
    if A is None or not len(A):
        return np.zeros((0, nvars)), np.zeros(0)
    return np.asarray(A, dtype=float), np.asarray(b, dtype=float)


def linprog_max(
    c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, *, tol: float = 1e-9
) -> LPResult:
    """Maximize c @ x subject to A_ub @ x <= b_ub, A_eq @ x = b_eq, x >= 0.

    Every entry of ``b_ub`` and ``b_eq`` must be non-negative (negate a row
    to bring it to this form); a negative one raises ValueError.  Equality
    rows may be redundant.  The pivot budget is 500 * (rows + columns + 1).
    """
    c = np.asarray(c, dtype=float)
    nvars = c.size
    A_ub, b_ub = _block(A_ub, b_ub, nvars)
    A_eq, b_eq = _block(A_eq, b_eq, nvars)
    if (b_ub < 0).any() or (b_eq < 0).any():
        raise ValueError("linprog_max needs non-negative right-hand sides")
    n_ub = len(A_ub)
    nrows = n_ub + len(A_eq)
    art_start = nvars + n_ub
    ncols = nvars + nrows
    # structural columns, then one identity block (slacks, then artificials),
    # then the right-hand side; the bottom row is the objective
    T = np.zeros((nrows + 1, ncols + 1))
    T[:n_ub, :nvars] = A_ub
    T[n_ub:nrows, :nvars] = A_eq
    basis = np.arange(nvars, ncols)
    T[np.arange(nrows), basis] = 1.0
    T[:n_ub, -1] = b_ub
    T[n_ub:nrows, -1] = b_eq
    iterations = 0
    budget = 500 * (nrows + ncols + 1)

    if len(A_eq):
        # phase 1: maximize -(artificial total); bottom row holds z_j - c_j
        T[-1, art_start:ncols] = 1.0
        for i in range(n_ub, nrows):
            T[-1] -= T[i]
        status, iterations = _pivot_loop(
            T, basis, np.arange(ncols), tol, budget, iterations
        )
        if status is not LPStatus.OPTIMAL:
            return LPResult(status, None, None, iterations)
        if T[-1, -1] < -tol:
            return LPResult(LPStatus.INFEASIBLE, None, None, iterations)
        _evict_artificials(T, basis, art_start, tol)
        # rows whose artificial could not be evicted are redundant; drop them
        keep = basis < art_start
        if not keep.all():
            T = np.vstack([T[:-1][keep], T[-1:]])
            basis = basis[keep]
            nrows = len(basis)

    # phase 2 objective: maximize c @ x  ->  bottom row holds -reduced costs
    T[-1, :] = 0.0
    T[-1, :nvars] = -c
    for i in range(nrows):
        if abs(T[-1, basis[i]]) > 0:
            T[-1] -= T[-1, basis[i]] * T[i]
    allowed = np.arange(art_start)  # artificials may never re-enter
    status, iterations = _pivot_loop(T, basis, allowed, tol, budget, iterations)
    if status is not LPStatus.OPTIMAL:
        return LPResult(status, None, None, iterations)
    x = np.zeros(ncols)
    x[basis] = T[:-1, -1]
    x = x[:nvars]
    np.clip(x, 0.0, None, out=x)
    return LPResult(LPStatus.OPTIMAL, x, float(c @ x), iterations)


def _pivot(T, basis, r, c) -> None:
    """Make column c basic in row r: scale the row, then clear column c from
    every other row, the objective included."""
    T[r] /= T[r, c]
    column = T[:, c].copy()
    column[r] = 0.0
    T -= np.outer(column, T[r])
    T[:, c] = 0.0
    T[r, c] = 1.0
    basis[r] = c


def _pivot_loop(T, basis, allowed, tol, budget, iterations):
    """Run simplex pivots to optimality on the maximization tableau in place."""
    use_bland = False
    stall = 0
    while True:
        reduced = T[-1, allowed]
        if use_bland:
            negatives = np.flatnonzero(reduced < -tol)
            if negatives.size == 0:
                return LPStatus.OPTIMAL, iterations
            pc = allowed[negatives[0]]
        else:
            j = int(np.argmin(reduced))
            if reduced[j] >= -tol:
                return LPStatus.OPTIMAL, iterations
            pc = allowed[j]
        col = T[:-1, pc]
        positive = col > tol
        if not positive.any():
            return LPStatus.UNBOUNDED, iterations
        ratios = np.full(col.shape, np.inf)
        ratios[positive] = T[:-1, -1][positive] / col[positive]
        best = ratios.min()
        ties = np.flatnonzero(ratios <= best + tol * max(1.0, abs(best)))
        pr = int(ties[np.argmin(basis[ties])])  # smallest basic index on ties

        before = T[-1, -1]
        _pivot(T, basis, pr, pc)
        iterations += 1
        if iterations > budget:
            return LPStatus.ITERATION_LIMIT, iterations
        if not use_bland:
            if T[-1, -1] - before <= tol:
                stall += 1
                if stall >= _STALL_LIMIT:
                    use_bland = True
            else:
                stall = 0


def _evict_artificials(T, basis, art_start, tol) -> None:
    """Pivot basic artificial variables out on any usable structural column;
    a row with none is redundant and left for the caller to drop."""
    for i in np.flatnonzero(basis >= art_start):
        row = T[i, :art_start]
        candidates = np.flatnonzero(np.abs(row) > max(tol, 1e-7))
        if candidates.size:
            _pivot(T, basis, i, int(candidates[np.argmax(np.abs(row[candidates]))]))
