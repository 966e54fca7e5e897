"""Random metric elections, peer selection, potential winners, experiments.

Instances are generated with the standard library RNG so a seed fixes every
byte of an experiment report.  Distance ties in generated rankings are
broken by candidate index: they have probability zero under the continuous
distributions used, but determinism must not depend on that.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Sequence

import numpy as np

from .core import Election, data_lines
from .certify.metric import Metric
from .rules import _q_social_costs, committee_select, plurality_veto, randomized_veto

__all__ = [
    "generate_euclidean",
    "peer_selection",
    "potential_winners",
    "convex_hull_vertices",
    "ExperimentConfig",
    "ExperimentRecord",
    "ExperimentReport",
    "parse_config",
    "run_experiment",
    "report_to_csv",
]

EXACT_ORDER_CAP = 8  # 8! orders; potential_winners refuses larger n


def _sample_points(count: int, dim: int, distribution: str, rng: random.Random):
    if distribution == "uniform":
        return [tuple(rng.random() for _ in range(dim)) for _ in range(count)]
    if distribution == "gaussian":
        return [tuple(rng.gauss(0.0, 1.0) for _ in range(dim)) for _ in range(count)]
    raise ValueError(f"unknown distribution {distribution!r}")


def _rankings_from_distances(rows: Sequence[Sequence[float]]) -> Election:
    rankings = []
    for row in rows:
        order = sorted(range(len(row)), key=lambda c: (row[c], c))
        rankings.append(tuple(order))
    return Election(tuple(rankings))


def generate_euclidean(
    n: int,
    m: int,
    dim: int = 2,
    distribution: str = "gaussian",
    seed: int = 0,
) -> tuple[Election, Metric]:
    """Sample voter points, then candidate points, i.i.d. from one RNG seeded
    with ``seed``, and derive the election whose rankings sort candidates by
    distance (candidate index breaks ties)."""
    if n < 1 or m < 1 or dim < 1:
        raise ValueError("n, m and dim must all be at least 1")
    rng = random.Random(seed)
    voters = _sample_points(n, dim, distribution, rng)
    candidates = _sample_points(m, dim, distribution, rng)
    metric = Metric(tuple(tuple(math.dist(v, c) for c in candidates) for v in voters))
    return _rankings_from_distances(metric.d), metric


def peer_selection(
    points: Sequence[Sequence[float]] | int,
    seed: int = 0,
    dim: int = 2,
    distribution: str = "gaussian",
) -> tuple[Election, Metric, tuple[tuple[float, ...], ...]]:
    """An election whose voters and candidates are the same point set, so
    every agent ranks herself first.  ``points`` is either explicit
    coordinates (scalars are accepted for one dimension) or an agent count
    to sample.  Returns the election, its metric, and the points."""
    if isinstance(points, int):
        if points < 1:
            raise ValueError("need at least one agent")
        pts = _sample_points(points, dim, distribution, random.Random(seed))
    else:
        pts = [
            tuple(p) if isinstance(p, (tuple, list)) else (float(p),)
            for p in points
        ]
        if not pts:
            raise ValueError("need at least one agent")
    rows = tuple(tuple(math.dist(a, b) for b in pts) for a in pts)
    return _rankings_from_distances(rows), Metric(rows), tuple(pts)


def potential_winners(e: Election) -> frozenset[int]:
    """Candidates that win the veto rule under some voter order, found by
    running every order (so n is capped at ``EXACT_ORDER_CAP``)."""
    if e.n > EXACT_ORDER_CAP:
        raise ValueError(f"exact enumeration is capped at n = {EXACT_ORDER_CAP}")
    return frozenset(
        plurality_veto(e, order).winner for order in permutations(range(e.n))
    )


def _orient(a, b, c) -> float:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def convex_hull_vertices(points: Sequence[tuple[float, float]]) -> frozenset[int]:
    """Indices of the strict convex-hull vertices of a 2-D point set
    (monotone chain; collinear boundary points are not vertices)."""
    idx = sorted(range(len(points)), key=lambda i: points[i])
    if len(idx) <= 2:
        return frozenset(idx)

    def half(indices):
        chain: list[int] = []
        for i in indices:
            while (
                len(chain) >= 2
                and _orient(points[chain[-2]], points[chain[-1]], points[i]) <= 0
            ):
                chain.pop()
            chain.append(i)
        return chain

    lower = half(idx)
    upper = half(list(reversed(idx)))
    return frozenset(lower[:-1] + upper[:-1])


# --- experiments -----------------------------------------------------------

_RULE_RE = re.compile(r"^randomized_veto\((0|[1-9]\d*)\)$")
_KNOWN_RULES = {"plurality_veto", "random_dictatorship", "committee_select"}


@dataclass(frozen=True)
class ExperimentConfig:
    rules: tuple[str, ...]
    instances: int
    voters: int
    candidates: int
    dim: int = 2
    distribution: str = "gaussian"
    seed: int = 0
    committee_size: int = 2
    committee_rank: int = 2

    def __post_init__(self):
        if not self.rules:
            raise ValueError("rules must name at least one rule")
        for rule in self.rules:
            if rule not in _KNOWN_RULES and not _RULE_RE.match(rule):
                raise ValueError(f"unknown rule name {rule!r}")
            if self.rules.count(rule) > 1:
                raise ValueError(f"rule {rule!r} is listed more than once")
        if min(self.instances, self.voters, self.candidates, self.dim) < 1:
            raise ValueError("instances, voters, candidates and dim must be positive")
        if self.distribution not in ("uniform", "gaussian"):
            raise ValueError(f"unknown distribution {self.distribution!r}")
        if "committee_select" in self.rules:
            k, q = self.committee_size, self.committee_rank
            if not 1 <= k <= self.candidates:
                raise ValueError("committee_size must be in 1..candidates")
            if not (1 <= q <= k and 2 * q > k):
                raise ValueError("committee_rank must be in 1..k and exceed k/2")


@dataclass(frozen=True)
class ExperimentRecord:
    seed: int
    rule: str
    winner: str
    cost: float
    opt_cost: float

    @property
    def ratio(self) -> float:
        return self.cost / self.opt_cost if self.opt_cost else 1.0


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    records: tuple[ExperimentRecord, ...]

    def max_ratio(self, rule: str) -> float:
        return max(r.ratio for r in self.records if r.rule == rule)

    def mean_ratio(self, rule: str) -> float:
        ratios = [r.ratio for r in self.records if r.rule == rule]
        return sum(ratios) / len(ratios)

    def summary(self) -> str:
        lines = []
        for rule in self.config.rules:
            lines.append(
                f"{rule}: instances={self.config.instances} "
                f"mean_ratio={self.mean_ratio(rule):.6f} "
                f"max_ratio={self.max_ratio(rule):.6f}"
            )
        return "\n".join(lines) + "\n"


_CONFIG_KEYS = {
    "rules": lambda s: tuple(tok.strip() for tok in s.split(",") if tok.strip()),
    "instances": int,
    "voters": int,
    "candidates": int,
    "dim": int,
    "distribution": str,
    "seed": int,
    "committee_size": int,
    "committee_rank": int,
}


def parse_config(text: str) -> ExperimentConfig:
    """Flat ``key = value`` lines; ``#`` starts a comment.  A key given
    twice is rejected, naming both lines."""
    values = {}
    first_line: dict[str, int] = {}
    for lineno, line in data_lines(text):
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        if key in first_line:
            raise ValueError(
                f"line {lineno}: config key {key!r} repeats line {first_line[key]}"
            )
        first_line[key] = lineno
        try:
            values[key] = _CONFIG_KEYS[key](value.strip())
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    missing = {"rules", "instances", "voters", "candidates"} - values.keys()
    if missing:
        raise ValueError(f"config is missing keys: {sorted(missing)}")
    return ExperimentConfig(**values)


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Evaluate the configured rules on freshly generated instances.

    Each rule's realized cost is measured against the hindsight optimum
    under the generated metric (for randomized rules: the exact expected
    cost of the returned distribution).  Instance i uses the derived seed
    ``config.seed * 1_000_003 + i``, so reports are reproducible bit for
    bit.
    """
    records: list[ExperimentRecord] = []
    for i in range(config.instances):
        inst_seed = config.seed * 1_000_003 + i
        e, d = generate_euclidean(
            config.voters, config.candidates, config.dim,
            config.distribution, inst_seed,
        )
        dist = np.array(d.d)
        costs = _q_social_costs(dist, np.arange(e.m)[:, None], 1)
        for rule in config.rules:
            records.append(_evaluate_rule(rule, e, dist, costs, inst_seed, config))
    return ExperimentReport(config, tuple(records))


def _evaluate_rule(rule: str, e: Election, dist: np.ndarray, costs: list[float],
                   inst_seed: int, config: ExperimentConfig) -> ExperimentRecord:
    """One record; ``costs`` holds each candidate's social cost under ``dist``."""
    opt = min(costs)
    if rule == "plurality_veto":
        winner = plurality_veto(e).winner
        return ExperimentRecord(inst_seed, rule, str(winner), costs[winner], opt)
    match = _RULE_RE.match(rule)
    if match or rule == "random_dictatorship":
        w = randomized_veto(e, min(int(match.group(1)), e.n - 1) if match else 0)
        label = " ".join(f"{x.numerator}/{x.denominator}" for x in w)
        cost = sum(float(x) * costs[c] for c, x in enumerate(w))
        return ExperimentRecord(inst_seed, rule, label, cost, opt)
    # committee_select: its q-cost against the best of all C(m, k) committees
    k, q = config.committee_size, config.committee_rank
    committee = committee_select(e, k, q)
    every = list(combinations(range(e.m), k))
    q_costs = _q_social_costs(dist, np.array(every), q)
    label = "+".join(str(c) for c in committee)
    cost = q_costs[every.index(committee.members)]
    return ExperimentRecord(inst_seed, rule, label, cost, min(q_costs))


def report_to_csv(report: ExperimentReport) -> str:
    lines = ["seed,rule,winner,cost,opt_cost,ratio"]
    for r in report.records:
        lines.append(
            f"{r.seed},{r.rule},{r.winner},{r.cost!r},{r.opt_cost!r},{r.ratio!r}"
        )
    return "\n".join(lines) + "\n"
