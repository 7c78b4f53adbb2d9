"""End-to-end and per-layer benchmark of the HashFlow collection system.

``perfbench/run.py`` is the entry point; ``BENCHMARK.json`` at the
repository root names its workloads and metrics, and
``perfbench/metrics.py`` says which end-to-end metric each per-layer
metric should move.
"""
