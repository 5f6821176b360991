"""Shared utilities: RNG handling, result records, dtypes, memory probes."""

from repro.util.rng import as_rng, spawn_rngs

__all__ = [
    "as_rng",
    "spawn_rngs",
]
