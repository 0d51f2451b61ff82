"""Determinism: fixed seed -> bit-identical result rows.

The golden fixtures (``golden_fast_rows.json`` at seed 42 and its
seed-7 twin) hold every experiment's fast-preset rows;
``tools/check_golden_rows.py`` checks all eighteen at both seeds.
Tier-1 checks here every experiment whose fast preset runs in about
3 s or less, which still crosses every layer of the simulator: RDMA
delivery ops, resource grants, the doorbell sweep loop, the sweep
executor's per-point seeds (E03, E05, E09, E10), the consistency-barrier
plan (E15) and the fault injector (E16).
"""

import json
import os

import pytest

from repro.experiments import REGISTRY, e01_invocation_overhead, \
    e15_consistency_barrier

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")

#: experiments whose fast preset is cheap enough for tier-1
CHEAP = ("E01", "E03", "E05", "E08", "E09", "E10", "E14", "E15", "E16")

SEEDS = (42, 7)

#: (experiment, seed) cases beyond the named E01/E15 seed-42 tests below
CASES = [(exp_id, seed) for seed in SEEDS for exp_id in CHEAP
         if seed != 42 or exp_id not in ("E01", "E15")]


def _fixture(seed):
    name = ("golden_fast_rows.json" if seed == 42
            else "golden_fast_rows_seed%d.json" % seed)
    with open(os.path.join(FIXTURES, name)) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def golden():
    return {seed: _fixture(seed) for seed in SEEDS}


def _rows(module, seed=42):
    result = module.run(fast=True, seed=seed)
    # Round-trip through JSON so float formatting matches the fixture.
    return json.loads(json.dumps(result.rows))


class TestGoldenRows:
    @pytest.mark.parametrize("exp_id, seed", CASES)
    def test_rows_bit_identical(self, golden, exp_id, seed):
        assert _rows(REGISTRY[exp_id], seed) == golden[seed][exp_id]

    def test_e01_rows_bit_identical(self, golden):
        assert _rows(e01_invocation_overhead) == golden[42]["E01"]

    def test_e15_rows_bit_identical(self, golden):
        assert _rows(e15_consistency_barrier) == golden[42]["E15"]

    def test_fixtures_cover_every_experiment(self, golden):
        for seed in SEEDS:
            assert sorted(golden[seed]) == sorted(REGISTRY)

    def test_e01_repeatable_within_process(self, golden):
        first = _rows(e01_invocation_overhead)
        second = _rows(e01_invocation_overhead)
        assert first == second == golden[42]["E01"]


class TestUnarmedFaultLayer:
    """PR 5's zero-overhead guarantee: with the fault-injection layer
    importable (it always is — E16 pulls it in) but no schedule armed,
    the golden rows captured before the layer existed still match."""

    def test_e01_golden_with_fault_layer_loaded(self, golden):
        import repro.faults  # noqa: F401 — presence is the point

        assert _rows(e01_invocation_overhead) == golden[42]["E01"]

    def test_e15_golden_with_fault_layer_loaded(self, golden):
        import repro.faults  # noqa: F401

        assert _rows(e15_consistency_barrier) == golden[42]["E15"]
