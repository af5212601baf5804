"""Benchmark of the specblend pipeline: protocol time, decode latency and
memory per workload, with per-module spans from a separate traced run."""
