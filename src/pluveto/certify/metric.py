"""Voter-candidate distance matrices and their validity checks.

Only voter-to-candidate distances matter, so a metric is an n x m matrix.
The triangle requirement takes the four-point form
``d(v, c) <= d(v, c') + d(v', c') + d(v', c)``.  Zero distances between
distinct points are allowed throughout: every guarantee in this package
holds for pseudo-metrics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import core

__all__ = ["Metric", "metric_to_csv", "triangle_violations"]

DEFAULT_TOL = 1e-9


def triangle_violations(d, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Every four-point violation ``d[v, c] > d[v, c2] + d[v2, c2] + d[v2, c]
    + tol`` of the n x m distance array ``d``, as rows (v, v2, c, c2) in
    lexicographic order.  The n x n x m x m tensor of right-hand sides is
    built a block of voters v at a time, which bounds its memory."""
    d = np.asarray(d, dtype=float)
    n, m = d.shape
    step = max(1, core._BLOCK_ENTRIES // (n * m * m))
    found = []
    for lo in range(0, n, step):
        block = d[lo : lo + step]
        bound = block[:, None, None, :] + d[None, :, None, :] + d[None, :, :, None]
        hit = np.argwhere(block[:, None, :, None] > bound + tol)
        hit[:, 0] += lo
        found.append(hit)
    return np.concatenate(found)


@dataclass(frozen=True)
class Metric:
    """d[v][c] = distance between voter v and candidate c."""

    d: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "d", tuple(tuple(row) for row in self.d))
        if not self.d or not self.d[0]:
            raise ValueError("a metric needs at least one voter and candidate")
        width = len(self.d[0])
        if any(len(row) != width for row in self.d):
            raise ValueError("all metric rows must have equal length")

    def __getitem__(self, v: int) -> tuple[float, ...]:
        return self.d[v]

    def validate(self, tol: float = DEFAULT_TOL) -> None:
        """Raise ValueError on a non-finite entry, a negative entry or a
        four-point triangle violation beyond ``tol``; the first one in (v, c)
        or (v, v2, c, c2) order is reported."""
        d = self.d
        array = np.array(d)
        infinite = np.argwhere(~np.isfinite(array))
        if len(infinite):
            v, c = (int(i) for i in infinite[0])
            raise ValueError(f"non-finite distance d({v},{c}) = {d[v][c]}")
        negative = np.argwhere(array < -tol)
        if len(negative):
            v, c = (int(i) for i in negative[0])
            raise ValueError(f"negative distance d({v},{c}) = {d[v][c]}")
        violations = triangle_violations(array, tol)
        if len(violations):
            v, v2, c, c2 = (int(i) for i in violations[0])
            bound = d[v][c2] + d[v2][c2] + d[v2][c]
            raise ValueError(
                f"triangle violation: d({v},{c}) = {d[v][c]} > "
                f"d({v},{c2}) + d({v2},{c2}) + d({v2},{c}) = {bound}"
            )


def metric_to_csv(metric: Metric) -> str:
    """n rows x m columns, one voter per row."""
    return "\n".join(",".join(repr(x) for x in row) for row in metric.d) + "\n"
