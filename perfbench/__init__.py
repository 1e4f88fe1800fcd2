"""The repository benchmark: compress, ingest and serve workloads with a
traced per-layer breakdown.  Run it with ``python3 perfbench/run.py``."""
