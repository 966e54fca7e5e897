"""The four workloads and the loop that times them.

A job is a fixed bundle of CLI commands on one freshly generated input.  A
round is one job of every shape in a workload's list, always in the same
order; a run is whole rounds until the timed job time reaches the run
length, so every run holds the same mix of shapes whatever the seed or the
program's speed.
"""

from __future__ import annotations

import io
import os
import resource
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from typing import Callable

from . import inputs, oracles
from .tracing import Tracer

WARMUPS = 3  # set-ups per run; setup_s reports their median


@dataclass(frozen=True)
class Workload:
    name: str
    rounds: tuple[dict, ...]  # one shape per job of a round
    smoke: tuple[dict, ...]  # tiny shapes for the smoke run
    make: Callable  # (rng, shape) -> data
    write: Callable  # (data, base path) -> list of argv lists
    check: Callable  # (data, stdout texts, base path) -> extra counters


# --- tally-large: parse and the veto rule -----------------------------------


def _make_tally(rng, shape):
    n = shape["n"]
    return {"ranks": inputs.rankings(rng, n, shape["m"], shape["culture"]), "k": n // 2}


def _write_tally(data, base):
    inputs.write(base + ".ballots", inputs.ballot_text(data["ranks"]))
    return [["run", base + ".ballots", "--trace"],
            ["randomize", base + ".ballots", "--k", str(data["k"])]]


def _check_tally(data, outs, base):
    oracles.check_tally(data["ranks"], data["k"], outs[0], outs[1])
    return {}


# --- certify-audit: domination graphs, matchings and exact flows -------------


def _make_certify(rng, shape):
    n, m = shape["n"], shape["m"]
    return {
        "ranks": inputs.rankings(rng, n, m, shape["culture"]),
        "p": inputs.simplex_weights(rng, n),
        "q": inputs.simplex_weights(rng, m),
        "k": int(shape["k"] * n),
        "cstar": int(rng.integers(m)),
    }


def _write_certify(data, base):
    inputs.write(base + ".ballots", inputs.ballot_text(data["ranks"]))
    inputs.write(base + ".p", "\n".join(data["p"]) + "\n")
    inputs.write(base + ".q", "\n".join(data["q"]) + "\n")
    return [["certify", base + ".ballots", "--p", base + ".p", "--q", base + ".q"],
            ["flow", base + ".ballots", "--k", str(data["k"]),
             "--cstar", str(data["cstar"]), "--out", base + ".flow"]]


def _check_certify(data, outs, base):
    oracles.check_certify(data["ranks"], outs[0])
    with open(base + ".flow", encoding="utf-8") as handle:
        denominator = oracles.check_flow(data["ranks"], data["k"], data["cstar"],
                                         outs[1], handle.read())
    return {"flow.max_denominator": denominator}


# --- distortion-lp: the dense simplex ----------------------------------------


def _make_distortion(rng, shape):
    n = shape["n"]
    return {"ranks": inputs.rankings(rng, n, shape["m"], shape["culture"]),
            "k": round(shape["k"] * (n - 1))}


def _write_distortion(data, base):
    inputs.write(base + ".ballots", inputs.ballot_text(data["ranks"]))
    return [["distortion", base + ".ballots", "--k", str(data["k"])]]


def _check_distortion(data, outs, base):
    oracles.check_distortion(data["ranks"], data["k"], outs[0])
    return {}


# --- simulate-sweep: many small generated elections ---------------------------


def _make_simulate(rng, shape):
    n = shape["n"]
    rules = ["plurality_veto", "random_dictatorship",
             f"randomized_veto({n // 2})", "committee_select"]
    return {"rules": rules, "instances": shape["instances"], "config": (
        f"rules = {', '.join(rules)}\n"
        f"instances = {shape['instances']}\nvoters = {n}\n"
        f"candidates = {shape['m']}\ndim = {shape['dim']}\n"
        f"distribution = {shape['distribution']}\n"
        f"seed = {int(rng.integers(2**31))}\n"
        f"committee_size = {shape['size']}\ncommittee_rank = {shape['rank']}\n")}


def _write_simulate(data, base):
    inputs.write(base + ".cfg", data["config"])
    return [["simulate", "--config", base + ".cfg", "--out", base + ".csv"]]


def _check_simulate(data, outs, base):
    summary = outs[0].removesuffix(f"report written to {base}.csv\n")
    with open(base + ".csv", encoding="utf-8") as handle:
        oracles.check_simulate(data["rules"], data["instances"], summary, handle.read())
    return {}


def _shapes(*rows, keys):
    return tuple(dict(zip(keys, row)) for row in rows)


# Within a workload the shapes take similar time per job, so the median job
# falls among several shapes rather than in the gap between two.
WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "tally-large",
            _shapes((10000, 20, "ic"), (12500, 16, "euclid2"), (20000, 10, "euclid1"),
                    (25000, 10, "ic"), keys=("n", "m", "culture")),
            _shapes((300, 5, "euclid2"), (200, 4, "ic"), keys=("n", "m", "culture")),
            _make_tally, _write_tally, _check_tally,
        ),
        Workload(
            "certify-audit",
            _shapes((200, 10, "euclid1", 1 / 2), (250, 6, "euclid2", 1 / 2),
                    (300, 8, "ic", 3 / 4), (400, 6, "ic", 4 / 5),
                    keys=("n", "m", "culture", "k")),
            _shapes((12, 4, "euclid2", 1 / 2), (10, 3, "ic", 0.0),
                    keys=("n", "m", "culture", "k")),
            _make_certify, _write_certify, _check_certify,
        ),
        Workload(
            "distortion-lp",
            # Dense tableaux of 1.2 to 1.5 MB, then 2.3 and 3.9 MB: either side
            # of a 2 MiB per-core L2 cache.  The 8x4 jobs take about twice as
            # long as the others, which cluster around the median.
            _shapes((4, 6, "ic", 0.5), (5, 5, "euclid2", 0.5), (4, 6, "euclid2", 0.0),
                    (5, 5, "ic", 1.0), (7, 4, "ic", 0.5), (8, 4, "euclid2", 1.0),
                    keys=("n", "m", "culture", "k")),
            _shapes((3, 3, "ic", 0.5), (3, 4, "euclid2", 0.0), keys=("n", "m", "culture", "k")),
            _make_distortion, _write_distortion, _check_distortion,
        ),
        Workload(
            "simulate-sweep",
            _shapes((50, 6, 1, "gaussian", 2, 2, 300), (100, 8, 2, "uniform", 3, 2, 70),
                    (150, 9, 2, "gaussian", 3, 2, 35), (200, 10, 2, "gaussian", 3, 2, 20),
                    keys=("n", "m", "dim", "distribution", "size", "rank", "instances")),
            _shapes((10, 4, 2, "gaussian", 2, 2, 3),
                    keys=("n", "m", "dim", "distribution", "size", "rank", "instances")),
            _make_simulate, _write_simulate, _check_simulate,
        ),
    ]
}


# --- running ------------------------------------------------------------------


@dataclass
class Job:
    stream: int
    index: int
    shape: dict
    base: str
    seconds: float = 0.0
    commands: int = 0  # commands that ran, each leaving one ``.out<i>`` file
    failed: bool = False


def call(cli, argvs) -> tuple[bool, list[str]]:
    """Run the commands through ``cli.main`` (looked up at each call, so a
    tracer's wrapper is used); stop at the first non-zero exit."""
    outs = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        outs.append(out.getvalue())
        if code != 0:
            return False, outs
    return True, outs


@dataclass
class Run:
    """One run: the set-ups, the timed jobs and, when traced, the tracer."""

    workload: Workload
    seed: int
    workdir: str
    cli: object
    tracer: object = None
    warmups: list[Job] = field(default_factory=list)
    jobs: list[Job] = field(default_factory=list)
    untraced_seconds: float = 0.0
    check_seconds: float = 0.0

    def _job(self, stream: int, index: int, shape: dict, timed: bool) -> Job:
        job = Job(stream, index, shape, os.path.join(self.workdir, f"s{stream}-j{index}"))
        argvs = self.workload.write(
            self.workload.make(inputs.rng_for(self.seed, stream, index), shape), job.base)
        traced = timed and self.tracer is not None
        if traced:
            self.tracer.job = index
            self.tracer.install()
        start = time.perf_counter()
        try:
            ok, outs = call(self.cli, argvs)
        finally:
            job.seconds = time.perf_counter() - start
            if traced:
                self.tracer.uninstall()
        if traced:
            # The same job untraced, after the traced one so the traced run
            # sees the program's caches as cold as an untraced job does.
            start = time.perf_counter()
            ok_again, outs_again = call(self.cli, argvs)
            self.untraced_seconds += time.perf_counter() - start
            ok = ok and ok_again and outs_again == outs
        job.failed = not ok
        job.commands = len(outs)
        for i, text in enumerate(outs):
            inputs.write(f"{job.base}.out{i}", text)
        return job

    def setup(self, rounds) -> float:
        """Median time of the set-ups: generate and write one input of the
        first shape and run that job once, outside the timed part."""
        times = []
        for i in range(WARMUPS):
            start = time.perf_counter()
            self.warmups.append(self._job(inputs.SETUP_STREAM, i, rounds[0], timed=False))
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    def measure(self, rounds, seconds: float) -> None:
        """Whole rounds until the timed job seconds reach ``seconds``."""
        spent = 0.0
        while True:
            for shape in rounds:
                job = self._job(inputs.JOB_STREAM, len(self.jobs), shape, timed=True)
                self.jobs.append(job)
                spent += job.seconds
            if spent + self.untraced_seconds >= seconds:
                return

    def check(self) -> tuple[bool, dict]:
        """Run the oracles on every job that did not fail.  Returns whether
        all agreed, and the largest of each extra counter they reported."""
        correct, extra = True, {}
        for job in self.warmups + self.jobs:
            if job.failed:
                continue
            data = self.workload.make(inputs.rng_for(self.seed, job.stream, job.index),
                                      job.shape)
            outs = []
            for i in range(job.commands):
                with open(f"{job.base}.out{i}", encoding="utf-8") as handle:
                    outs.append(handle.read())
            try:
                for key, value in self.workload.check(data, outs, job.base).items():
                    extra[key] = max(extra.get(key, 0), value)
            except oracles.OracleError as exc:
                correct = False
                print(f"oracle: job {job.stream}/{job.index} {job.shape}: {exc}",
                      file=sys.stderr)
        return correct, extra


def run_workload(cli, workload, seed: int, seconds: float, traced: bool,
                 workdir: str, smoke: bool = False, import_s: float = 0.0):
    """Set up, measure and check one workload; return (result, run).
    ``import_s`` is the time the caller took to import the program, which
    set-up time includes."""
    shapes = workload.smoke if smoke else workload.rounds
    run = Run(workload, seed, workdir, cli, Tracer() if traced else None)
    setup_s = import_s + run.setup(shapes)
    run.measure(shapes, seconds)
    # Read before the oracles run, so their memory is not counted.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    start = time.perf_counter()
    correct, extra = run.check()
    run.check_seconds = time.perf_counter() - start
    timed = [job.seconds for job in run.jobs]
    if traced:
        metrics = run.tracer.layer_metrics(len(run.jobs))
        metrics["flow.max_denominator"] = extra.get("flow.max_denominator", 0)
        metrics["trace.overhead_pct"] = 100 * (sum(timed) / run.untraced_seconds - 1)
        units = {name: _unit(name) for name in metrics}
    else:
        metrics = {"jobs_per_s": len(timed) / sum(timed),
                   "job_s_p50": statistics.median(timed),
                   "setup_s": setup_s,
                   "peak_rss_mb": peak_rss_mb}
        units = {"jobs_per_s": "1/s", "job_s_p50": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    jobs = run.warmups + run.jobs
    result = {
        "correct": correct,
        "attempted": len(jobs),
        "failed": sum(job.failed for job in jobs),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return result, run


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_pct"):
        return "%"
    return "count"


def write_inputs(workload, seed: int, directory: str) -> None:
    """Write the inputs a run with ``seed`` uses for its set-ups and first
    round, and list each job's commands in ``commands.txt``."""
    os.makedirs(directory, exist_ok=True)
    jobs = [(inputs.SETUP_STREAM, i, workload.rounds[0]) for i in range(WARMUPS)]
    jobs += [(inputs.JOB_STREAM, i, shape) for i, shape in enumerate(workload.rounds)]
    lines = []
    for stream, index, shape in jobs:
        base = os.path.join(directory, f"s{stream}-j{index}")
        argvs = workload.write(workload.make(inputs.rng_for(seed, stream, index), shape), base)
        lines.extend(" ".join(["pluveto", *argv]) for argv in argvs)
    inputs.write(os.path.join(directory, "commands.txt"), "\n".join(lines) + "\n")

