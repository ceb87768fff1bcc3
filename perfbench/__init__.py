"""Benchmark for icmpscope's measurement campaigns on the simulated internet.

``run.py`` is the command; see ``README.md`` for the workloads and metrics.
"""
