"""Per-layer spans recorded from outside the program.

:class:`Tracer` replaces each traced public function at every module
attribute that holds it (``pluveto.cli.plurality_veto`` and
``pluveto.rules.plurality_veto`` alike), so calls made through any import
name are seen.  Each call appends a span (name, start, end, parent span, job
id) to an in-memory list; :meth:`Tracer.layer_metrics` turns the spans into
per-job layer times and counts, where a self time is a span's duration minus
that of its direct children.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# Traced functions: defining module, function name, span name.
TRACED = [
    ("pluveto.cli", "main", "cli.main"),
    ("pluveto.core", "parse_election", "core.parse"),
    ("pluveto.rules", "plurality_veto", "rules.veto"),
    ("pluveto.rules", "randomized_veto", "rules.randomized"),
    ("pluveto.rules", "validate_trace", "rules.validate"),
    ("pluveto.rules", "fractional_veto", "rules.fractional"),
    ("pluveto.rules", "committee_select", "rules.committee"),
    ("pluveto.certify.domination", "domination_graph", "matching.graph"),
    ("pluveto.certify.domination", "has_perfect_matching", "matching.perfect"),
    ("pluveto.certify.domination", "verify_veto_matching", "matching.veto_check"),
    ("pluveto.certify.domination", "pq_domination_graph", "matching.pq_graph"),
    ("pluveto.certify.domination", "fractional_perfect_matching", "matching.maxflow"),
    ("pluveto.certify.flow", "construct_flow", "flow.construct"),
    ("pluveto.certify.flow", "verify_flow", "flow.verify"),
    ("pluveto.certify.flow", "dual_from_flow", "flow.dual"),
    ("pluveto.certify.distortion", "worst_case_distortion", "lp.distortion"),
    ("pluveto.certify.simplex", "linprog_max", "lp.solve"),
    ("pluveto.bench", "generate_euclidean", "bench.generate"),
    ("pluveto.bench", "run_experiment", "bench.experiment"),
]

# Per-layer metric -> (span name, "total" | "self"), reported in seconds per job.
TIMES = {
    "core.parse_s": ("core.parse", "total"),
    "rules.veto_s": ("rules.veto", "total"),
    "rules.randomized_s": ("rules.randomized", "total"),
    "rules.validate_s": ("rules.validate", "total"),
    "rules.fractional_s": ("rules.fractional", "total"),
    "rules.committee_s": ("rules.committee", "total"),
    "matching.graph_s": ("matching.graph", "total"),
    "matching.perfect_s": ("matching.perfect", "total"),
    "matching.veto_check_s": ("matching.veto_check", "self"),
    "matching.pq_graph_s": ("matching.pq_graph", "total"),
    "matching.maxflow_s": ("matching.maxflow", "total"),
    "flow.construct_s": ("flow.construct", "total"),
    "flow.verify_s": ("flow.verify", "total"),
    "flow.dual_s": ("flow.dual", "self"),
    "lp.build_s": ("lp.distortion", "self"),
    "lp.solve_s": ("lp.solve", "total"),
    "bench.generate_s": ("bench.generate", "total"),
    "bench.experiment_s": ("bench.experiment", "self"),
    "cli.self_s": ("cli.main", "self"),
}

# Counts, reported per job, read off arguments and results at the same calls.
COUNTS = [
    "core.ballots", "rules.fractional_steps", "matching.graph_builds",
    "matching.graph_edges", "flow.edges", "flow.verify_calls",
    "lp.solves", "lp.pivots", "lp.rows",
]


def _count(counts, maxima, name, args, kwargs, result) -> None:
    if name == "core.parse":
        counts["core.ballots"] += result.n
    elif name == "rules.fractional":
        counts["rules.fractional_steps"] += len(result.steps)
    elif name == "matching.graph":
        counts["matching.graph_builds"] += 1
        counts["matching.graph_edges"] += len(result.edges)
    elif name == "flow.construct":
        counts["flow.edges"] += len(result.flows)
    elif name == "flow.verify":
        counts["flow.verify_calls"] += 1
    elif name == "lp.solve":
        counts["lp.solves"] += 1
        counts["lp.pivots"] += result.iterations
        a_ub = args[1] if len(args) > 1 else kwargs.get("A_ub")
        a_eq = args[3] if len(args) > 3 else kwargs.get("A_eq")
        rows = len(a_ub) + len(a_eq)
        counts["lp.rows"] += rows
        # The dense float64 tableau has a row per constraint plus the
        # objective, and a column per variable, per slack or artificial (one
        # each per row, as every right-hand side here is non-negative) plus
        # the right-hand side.
        mb = (rows + 1) * (len(args[0]) + rows + 1) * 8 / 2**20
        maxima["lp.tableau_mb"] = max(maxima["lp.tableau_mb"], mb)


class Tracer:
    """Spans and counters for one run.  :meth:`install` puts the wrappers in
    place, :meth:`uninstall` restores the original functions."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, job id]
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.job: int | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name):
        spans, stack, counts, maxima = self.spans, self._stack, self.counts, self.maxima

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.job]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            _count(counts, maxima, name, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [mod for key, mod in list(sys.modules.items())
                   if key == "pluveto" or key.startswith("pluveto.")]
        for module_name, attr, name in TRACED:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(original, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def layer_metrics(self, jobs: int) -> dict[str, float]:
        """Every per-layer time and count divided by ``jobs``, plus maxima."""
        total: dict[str, float] = defaultdict(float)
        child: dict[int, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            if parent is not None:
                child[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            own[name] += end - start - child[i]
        out = {}
        for metric, (span, kind) in TIMES.items():
            out[metric] = (total if kind == "total" else own)[span] / jobs
        for metric in COUNTS:
            out[metric] = self.counts[metric] / jobs
        out["lp.tableau_mb"] = self.maxima["lp.tableau_mb"]
        return out

    def dump(self, path) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, job in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "job": job}) + "\n")
