"""Repository benchmark: workloads, per-layer tracing, output checks."""
