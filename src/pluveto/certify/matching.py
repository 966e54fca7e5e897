"""Exact-rational max-flow, the one primitive behind every matching check.

Capacities are given as ``fractions.Fraction`` values.  The network keeps
them as Python ints over a common scale, the least common multiple of every
denominator added so far, so shortest-augmenting-path max-flow (Edmonds-Karp)
runs on integers.  Saturation tests are exact and never drift, and flows are
reported back as exact Fractions.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction

__all__ = ["RationalMaxFlow"]


class RationalMaxFlow:
    """Max-flow network with exact rational capacities (Edmonds-Karp).

    Edge records come in pairs: record ``i`` and its reverse ``i ^ 1``, with
    forward edges at even indices.  ``_cap`` holds residual capacities in
    units of ``1 / _scale``.
    """

    def __init__(self):
        self._index: dict = {}
        self._adj: list[list[int]] = []
        self._head: list[int] = []
        self._cap: list[int] = []
        self._scale = 1

    def add_node(self, node) -> None:
        if node not in self._index:
            self._index[node] = len(self._adj)
            self._adj.append([])

    def add_edge(self, u, v, capacity: Fraction) -> None:
        capacity = Fraction(capacity)
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        den = capacity.denominator
        if self._scale % den:
            factor = den // math.gcd(self._scale, den)
            self._cap = [c * factor for c in self._cap]
            self._scale *= factor
        self.add_node(u)
        self.add_node(v)
        iu, iv = self._index[u], self._index[v]
        self._adj[iu].append(len(self._head))
        self._head.append(iv)
        self._cap.append(capacity.numerator * (self._scale // den))
        self._adj[iv].append(len(self._head))
        self._head.append(iu)
        self._cap.append(0)

    def max_flow(self, source, sink) -> Fraction:
        s, t = self._index[source], self._index[sink]
        adj, head, cap = self._adj, self._head, self._cap
        total = 0
        while True:
            via: list = [None] * len(adj)  # edge record that reached each node
            via[s] = -1
            queue = deque([s])
            while queue and via[t] is None:
                u = queue.popleft()
                for ei in adj[u]:
                    w = head[ei]
                    if cap[ei] > 0 and via[w] is None:
                        via[w] = ei
                        queue.append(w)
            if via[t] is None:
                return Fraction(total, self._scale)
            path = []
            node = t
            while node != s:
                ei = via[node]
                path.append(ei)
                node = head[ei ^ 1]
            bottleneck = min(cap[ei] for ei in path)
            for ei in path:
                cap[ei] -= bottleneck
                cap[ei ^ 1] += bottleneck
            total += bottleneck

    def flow_on(self, u, v) -> Fraction:
        """Net flow currently routed on the (first) edge u -> v."""
        iu, iv = self._index.get(u), self._index.get(v)
        if iu is not None:
            for ei in self._adj[iu]:
                if ei % 2 == 0 and self._head[ei] == iv:
                    # forward edge: flow = residual capacity of its reverse record
                    return Fraction(self._cap[ei ^ 1], self._scale)
        return Fraction(0)
