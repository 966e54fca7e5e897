"""Benchmark harness for the pluveto command line: seeded inputs, workloads,
independent output oracles and per-layer tracing."""
