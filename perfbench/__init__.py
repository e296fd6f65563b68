"""Benchmark for covloc: four workloads, end-to-end metrics and a per-layer trace."""
