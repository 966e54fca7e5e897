"""Output checks computed apart from the program.

Each check takes the inputs the benchmark generated and the text the CLI
printed or wrote, recomputes what it can from the definitions (a plain veto
loop, a domination relation matched by networkx, an LP solved by HiGHS, a
flow re-balanced in exact rationals) and raises :class:`OracleError` on the
first mismatch.  Nothing here imports ``pluveto``.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

import numpy as np

LP_TOL = 1e-6
BOUND = 3  # the paper's distortion bound for every rule checked here


class OracleError(AssertionError):
    """The program's output disagrees with the independent computation."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise OracleError(message)


def _rows(ranks) -> list[list[int]]:
    """Rankings as plain lists, which the loops below index fastest."""
    return ranks.tolist() if isinstance(ranks, np.ndarray) else ranks


# --- veto ---------------------------------------------------------------------


def reference_veto(ranks, rounds: int):
    """Plurality scores, then ``rounds`` voters in ballot order each veto their
    lowest-ranked candidate whose score is still positive.  Returns the
    vetoed candidate of each round and the residual scores."""
    scores = [0] * len(ranks[0])
    for ranking in ranks:
        scores[ranking[0]] += 1
    vetoed = []
    for ranking in ranks[:rounds]:
        for c in reversed(ranking):
            if scores[c] > 0:
                break
        scores[c] -= 1
        vetoed.append(c)
    return vetoed, scores


def reference_distribution(ranks, k: int) -> list[Fraction]:
    _, scores = reference_veto(ranks, k)
    return [Fraction(s, len(ranks) - k) for s in scores]


def reference_winner(ranks) -> int:
    return reference_veto(ranks, len(ranks))[0][-1]


def parse_distribution(text: str, m: int) -> list[Fraction]:
    lines = text.splitlines()
    _require(len(lines) == m, f"distribution has {len(lines)} lines, expected {m}")
    out = []
    for c, line in enumerate(lines):
        label, _, value = line.partition(": ")
        _require(label == str(c), f"distribution line {c} reads {line!r}")
        out.append(Fraction(value))
    return out


def check_tally(ranks, k: int, run_out: str, randomize_out: str) -> None:
    """``run --trace`` and ``randomize --k k`` on ballots ``ranks``."""
    ranks = _rows(ranks)
    n = len(ranks)
    vetoed, _ = reference_veto(ranks, n)
    lines = run_out.splitlines()
    _require(lines[0] == f"winner: {vetoed[-1]}",
             f"{lines[0]!r}, reference winner is {vetoed[-1]}")
    _require(len(lines) == n + 1, f"trace has {len(lines) - 1} rounds for {n} voters")
    printed = [int(line.rsplit(", ", 2)[1]) for line in lines[1:]]
    _require(printed == vetoed, "traced vetoes differ from the reference veto")
    expected = reference_distribution(ranks, k)
    _require(parse_distribution(randomize_out, len(ranks[0])) == expected,
             f"randomized distribution differs from residual scores / (n - {k})")


# --- matching -----------------------------------------------------------------


def domination_adjacency(ranks, c: int) -> list[list[int]]:
    """Voter v is linked to voter w iff v ranks c weakly above w's top."""
    by_top: dict[int, list[int]] = {}
    for w, ranking in enumerate(ranks):
        by_top.setdefault(ranking[0], []).append(w)
    adjacency = []
    for ranking in ranks:
        below = ranking[list(ranking).index(c):]
        adjacency.append([w for top in below for w in by_top.get(top, ())])
    return adjacency


def perfect_matching(ranks, c: int) -> dict[int, int]:
    """A maximum matching of c's domination relation (networkx Hopcroft-Karp),
    as left voter -> right voter."""
    import networkx as nx

    n = len(ranks)
    graph = nx.Graph()
    graph.add_nodes_from(range(2 * n))
    for v, row in enumerate(domination_adjacency(ranks, c)):
        graph.add_edges_from((v, n + w) for w in row)
    found = nx.bipartite.hopcroft_karp_matching(graph, top_nodes=range(n))
    return {v: found[v] - n for v in range(n) if v in found}


def check_matching(ranks, c: int, matching: dict[int, int]) -> None:
    """``matching`` is a perfect matching of c's domination relation."""
    n = len(ranks)
    _require(sorted(matching) == list(range(n)), "matching leaves a voter unmatched")
    _require(sorted(matching.values()) == list(range(n)),
             "matching is not a bijection on voters")
    for v, w in matching.items():
        ranking = list(ranks[v])
        _require(ranking.index(c) <= ranking.index(ranks[w][0]),
                 f"({v}, {w}) is not an edge of candidate {c}'s domination relation")


CERTIFY_PASS_LINES = [
    "PASS trace-invariants",
    "PASS veto-pairing-matching",
    "PASS winner-domination-matching",
    "PASS fractional-steps",
    "PASS fractional-matching-balance",
    "PASS fractional-maxflow-feasible",
]


def check_certify(ranks, certify_out: str) -> None:
    ranks = _rows(ranks)
    _require(certify_out.splitlines() == CERTIFY_PASS_LINES,
             f"certify printed {certify_out.splitlines()!r}")
    winner = reference_winner(ranks)
    check_matching(ranks, winner, perfect_matching(ranks, winner))


# --- flow ---------------------------------------------------------------------

_EDGE = re.compile(r"^\((\d+),(\d+)\)->\((\d+),(\d+)\): (\d+)/(\d+)$")


def parse_flow_file(text: str) -> dict:
    flows = {}
    for line in text.splitlines():
        match = _EDGE.match(line)
        _require(match is not None, f"unreadable flow line {line!r}")
        v, c, v2, c2, num, den = (int(g) for g in match.groups())
        _require(((v, c), (v2, c2)) not in flows, f"flow edge repeated: {line!r}")
        flows[((v, c), (v2, c2))] = Fraction(num, den)
    return flows


def flow_costs(ranks, w: list[Fraction], cstar: int, flows: dict) -> list[Fraction]:
    """Check conservation and edge validity, and return each voter's cost:
    what her row absorbs in column c* plus all sideways flow touching her
    row outside column c*.  Sums run in integers over the common
    denominator of every amount, so they stay exact."""
    n, m = len(ranks), len(ranks[0])
    scale = math.lcm(*(a.denominator for a in flows.values()), *(x.denominator for x in w))
    position = [{c: i for i, c in enumerate(ranking)} for ranking in ranks]
    balance = [[int(w[c] * scale) for c in range(m)] for _ in range(n)]
    sideways = [0] * n
    for ((v, c), (v2, c2)), amount in flows.items():
        _require(amount > 0, f"non-positive flow on ({v},{c})->({v2},{c2})")
        _require(v < n and v2 < n and c < m and c2 < m, f"({v},{c})->({v2},{c2}) off grid")
        units = amount.numerator * (scale // amount.denominator)
        if v == v2:
            _require(position[v][c] < position[v][c2],
                     f"({v},{c})->({v2},{c2}) runs against voter {v}'s ranking")
        else:
            _require(c == c2, f"({v},{c})->({v2},{c2}) is neither a row nor a column edge")
            if c != cstar:
                sideways[v] += units
                sideways[v2] += units
        balance[v][c] -= units
        balance[v2][c2] += units
    for v in range(n):
        for c in range(m):
            if c == cstar:
                _require(balance[v][c] >= 0, f"node ({v},{c}) absorbs {balance[v][c]}/{scale}")
            else:
                _require(balance[v][c] == 0,
                         f"node ({v},{c}) is off balance by {balance[v][c]}/{scale}")
    return [Fraction(balance[v][cstar] + sideways[v], scale) for v in range(n)]


def check_flow(ranks, k: int, cstar: int, flow_out: str, flow_text: str) -> int:
    """``flow --k k --cstar cstar --out file``.  Returns the largest
    denominator among the flow amounts."""
    ranks = _rows(ranks)
    n = len(ranks)
    lines = flow_out.splitlines()
    _require(len(lines) == n + 3, f"flow printed {len(lines)} lines for {n} voters")
    printed = []
    for v, line in enumerate(lines[:n]):
        prefix = f"voter {v}: cost "
        _require(line.startswith(prefix), f"flow line {v} reads {line!r}")
        printed.append(Fraction(line[len(prefix):]))
    cost = Fraction(lines[n].removeprefix("cost: "))
    _require(lines[n + 1] == f"PASS dual-feasibility (objective {cost.numerator}/{cost.denominator})",
             f"dual line reads {lines[n + 1]!r}")
    _require(cost <= BOUND, f"flow cost {cost} exceeds {BOUND}")
    _require(cost == max(printed), f"cost {cost} is not the largest voter cost")
    flows = parse_flow_file(flow_text)
    costs = flow_costs(ranks, reference_distribution(ranks, k), cstar, flows)
    _require(costs == printed, "per-voter costs differ from the flow file's")
    return max(a.denominator for a in flows.values())


# --- distortion LP ------------------------------------------------------------


def lp_value(ranks, w: list[float], cstar: int) -> float:
    """max sum_c w_c sum_v d(v,c) over d >= 0 with every four-point triangle
    d(v,c) <= d(v,c') + d(v',c') + d(v',c), every ranking pair, and
    sum_v d(v,c*) = 1; variable d(v,c) is x[v*m + c].  Solved by HiGHS."""
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix

    n, m = len(ranks), len(ranks[0])
    v, v2, c, c2 = np.meshgrid(np.arange(n), np.arange(n), np.arange(m), np.arange(m),
                               indexing="ij")
    keep = (v != v2) & (c != c2)
    v, v2, c, c2 = v[keep], v2[keep], c[keep], c2[keep]
    tri = len(v)
    cols = [v * m + c, v * m + c2, v2 * m + c2, v2 * m + c]
    signs = [1.0, -1.0, -1.0, -1.0]
    rows, cidx, vals = [], [], []
    for col, sign in zip(cols, signs):
        rows.append(np.arange(tri))
        cidx.append(col)
        vals.append(np.full(tri, sign))
    r = tri
    for voter, ranking in enumerate(ranks):
        for i, better in enumerate(ranking):
            for worse in ranking[i + 1:]:
                rows.append(np.array([r, r]))
                cidx.append(np.array([voter * m + better, voter * m + worse]))
                vals.append(np.array([1.0, -1.0]))
                r += 1
    A_ub = coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cidx))),
                      shape=(r, n * m)).tocsr()
    A_eq = np.zeros((1, n * m))
    A_eq[0, cstar::m] = 1.0
    objective = -np.tile(np.asarray(w, dtype=float), n)
    res = linprog(objective, A_ub=A_ub, b_ub=np.zeros(r), A_eq=A_eq, b_eq=[1.0],
                  bounds=(0, None), method="highs")
    _require(res.status == 0, f"HiGHS did not solve the LP for c* = {cstar}: {res.message}")
    return -res.fun


_DISTORTION = re.compile(r"^distortion: (\S+) \(reference candidate (\d+)\)$")


def check_distortion(ranks, k: int, out: str) -> None:
    """``distortion --k k``: the printed value is the maximum over c* of the
    HiGHS optimum, attained at the printed c*, and at most 3."""
    ranks = _rows(ranks)
    match = _DISTORTION.match(out.strip())
    _require(match is not None, f"distortion printed {out!r}")
    value, cstar = float(match.group(1)), int(match.group(2))
    w = [float(x) for x in reference_distribution(ranks, k)]
    values = [lp_value(ranks, w, c) for c in range(len(ranks[0]))]
    best = max(values)
    _require(abs(value - best) <= LP_TOL, f"distortion {value} but HiGHS finds {best}")
    _require(abs(values[cstar] - best) <= LP_TOL,
             f"reference candidate {cstar} reaches {values[cstar]}, not the maximum {best}")
    _require(value <= BOUND + LP_TOL, f"distortion {value} exceeds {BOUND}")


# --- simulate -----------------------------------------------------------------

# Rules whose every realized ratio the paper bounds by 3.
_BOUNDED = re.compile(r"^(plurality_veto|random_dictatorship|randomized_veto\(\d+\))$")


def check_simulate(rules: list[str], instances: int, summary: str, csv_text: str) -> None:
    """``simulate --out report.csv``: every ratio is cost / opt_cost, at least
    1, at most 3 for the veto rules, and the CSV re-derives the summary."""
    lines = csv_text.splitlines()
    _require(lines[0] == "seed,rule,winner,cost,opt_cost,ratio", f"CSV header {lines[0]!r}")
    ratios: dict[str, list[float]] = {rule: [] for rule in rules}
    for line in lines[1:]:
        _, rule, _, cost, opt, ratio = line.split(",")
        cost, opt, ratio = float(cost), float(opt), float(ratio)
        _require(rule in ratios, f"unexpected rule {rule!r}")
        _require(ratio == cost / opt, f"ratio {ratio} is not {cost} / {opt}")
        _require(ratio >= 1 - 1e-9, f"{rule} beats the optimum: ratio {ratio}")
        if _BOUNDED.match(rule):
            _require(ratio <= BOUND + 1e-9, f"{rule} ratio {ratio} exceeds {BOUND}")
        ratios[rule].append(ratio)
    expected = []
    for rule in rules:
        values = ratios[rule]
        _require(len(values) == instances, f"{rule} has {len(values)} rows, not {instances}")
        expected.append(f"{rule}: instances={instances} "
                        f"mean_ratio={sum(values) / len(values):.6f} "
                        f"max_ratio={max(values):.6f}")
    _require(summary.splitlines() == expected, "summary differs from the CSV report")
