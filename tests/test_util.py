"""Tests for the utility modules (rng, records)."""

from __future__ import annotations

import numpy as np

from repro.util.records import ExperimentRow, format_table
from repro.util.rng import as_rng, derive_seed, spawn_rngs


class TestRng:
    def test_as_rng_from_int_deterministic(self):
        assert as_rng(7).integers(0, 100) == as_rng(7).integers(0, 100)

    def test_as_rng_passthrough(self):
        g = np.random.default_rng(0)
        assert as_rng(g) is g

    def test_as_rng_from_none(self):
        assert isinstance(as_rng(None), np.random.Generator)

    def test_spawn_rngs_independent_and_deterministic(self):
        a = [g.integers(0, 1000) for g in spawn_rngs(3, 4)]
        b = [g.integers(0, 1000) for g in spawn_rngs(3, 4)]
        assert a == b
        assert len(set(a)) > 1

    def test_spawn_from_generator(self):
        gens = spawn_rngs(np.random.default_rng(1), 3)
        assert len(gens) == 3

    def test_derive_seed_range(self):
        s = derive_seed(np.random.default_rng(0))
        assert 0 <= s < 2**63


class TestRecords:
    def test_experiment_row_as_dict(self):
        row = ExperimentRow("E1", "grid", params={"rho": 4}, measured={"radius": 3})
        d = row.as_dict()
        assert d["experiment"] == "E1"
        assert d["params"]["rho"] == 4

    def test_format_table_contains_values(self):
        rows = [
            ExperimentRow("E1", "grid", params={"rho": 4}, measured={"cut": 0.25}),
            ExperimentRow("E1", "torus", params={"rho": 8}, measured={"cut": 0.125}),
        ]
        table = format_table(rows)
        assert "grid" in table and "torus" in table
        assert "rho" in table and "cut" in table
        assert "0.25" in table

    def test_format_table_empty(self):
        assert format_table([]) == "(no rows)"

    def test_format_table_explicit_columns(self):
        rows = [ExperimentRow("E2", "g", params={"alpha": 1}, measured={"b": 2.0})]
        table = format_table(rows, columns=["b"])
        header = table.splitlines()[0]
        assert "b" in header
        assert "alpha" not in header
