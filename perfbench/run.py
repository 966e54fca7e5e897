"""Benchmark of the pluveto command line, run in-process on seeded inputs.

    python3 perfbench/run.py --workload tally-large --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a source checkout: the program is imported from
``src/``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Results and spans are written under ``.perfbench_out/``.  See README.md.
"""

import time

_START = time.perf_counter()  # set-up is timed from here

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

# One thread: pin numpy's BLAS and OpenMP pools before anything imports numpy.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"


def _import_cli():
    """Import ``pluveto.cli`` from this checkout's ``src/``, never from an
    installed copy."""
    src = ROOT / "src"
    if not (src / "pluveto" / "cli.py").is_file():
        sys.exit(f"perfbench: no program source at {src}/pluveto; "
                 "run from the root of a pluveto checkout")
    sys.path.insert(0, str(src))
    import pluveto.cli

    if Path(pluveto.cli.__file__).resolve().parent != src / "pluveto":
        sys.exit(f"perfbench: imported pluveto from {pluveto.cli.__file__}, not {src}")
    return pluveto.cli


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one round of every workload at tiny sizes, with the oracles")
    parser.add_argument("--inputs", metavar="DIR",
                        help="write the set-up inputs and the first round's inputs and "
                             "commands to DIR, then stop")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not args.smoke and args.workload is None:
        parser.error("give --workload or --smoke")
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    cli = _import_cli()
    import_s = time.perf_counter() - _START
    from pvbench.workloads import WORKLOADS, run_workload, write_inputs

    names = list(WORKLOADS) if args.smoke else [args.workload]
    if any(name not in WORKLOADS for name in names):
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    if args.inputs:
        write_inputs(WORKLOADS[args.workload], args.seed, args.inputs)
        return 0
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.smoke:
            ok = True
            for name in names:
                result, _ = run_workload(cli, WORKLOADS[name], args.seed, 0, bool(args.trace),
                                         str(workdir), smoke=True)
                print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
                      f"failed={result['failed']}")
                ok = ok and result["correct"] and not result["failed"]
            return 0 if ok else 1
        result, run = run_workload(cli, WORKLOADS[args.workload], args.seed, args.seconds,
                                   bool(args.trace), str(workdir), import_s=import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = dict(result, jobs=[{"shape": job.shape, "seconds": job.seconds,
                                 "failed": job.failed} for job in run.jobs],
                  import_s=import_s, check_s=run.check_seconds,
                  wall_s=time.perf_counter() - _START)
    (stem.with_suffix(".json")).write_text(json.dumps(detail, indent=1) + "\n")
    if run.tracer is not None:
        run.tracer.dump(stem.with_suffix(".spans.jsonl"))
    for name, metric in result["metrics"].items():
        print(f"{name:28s} {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
