"""Benchmark harness: one module per experiment family.

Each module tags its result rows with an experiment id (``E1`` … ``E12``);
the README's *Benchmarks* section lists how to run them.
"""
