"""Benchmark of the shardgraph compiler and oracle; see run.py."""
