"""The §5.2 end-to-end cost model."""

from __future__ import annotations

import pytest

from repro.detectors.cost import CostMeter
from paper.endtoend import (
    EndToEndCostModel,
    RuntimeDecomposition,
    decompose_runtime,
)


class TestCostModel:
    def test_training_dominates(self):
        model = EndToEndCostModel()
        minutes = model.query_cost_minutes(n_shots=10_000)
        assert minutes > model.finetune_hours * 60 * 0.99

    def test_fused_f1_capped(self):
        model = EndToEndCostModel(f1_gain=0.04)
        assert model.fused_f1(0.85) == pytest.approx(0.89)
        assert model.fused_f1(0.99) == 1.0

    def test_validation(self):
        with pytest.raises(Exception):
            EndToEndCostModel(finetune_hours=-1)


class TestDecomposition:
    def test_shares(self):
        decomposition = RuntimeDecomposition(inference_ms=980.0, algorithm_ms=20.0)
        assert decomposition.total_ms == 1000.0
        assert decomposition.inference_share == pytest.approx(0.98)

    def test_from_cost_meter(self):
        meter = CostMeter()
        meter.record("I3D", 100, 10.0)
        decomposition = decompose_runtime(meter, algorithm_wall_seconds=0.5)
        assert decomposition.inference_ms == 1000.0
        assert decomposition.algorithm_ms == 500.0

    def test_zero_total(self):
        assert RuntimeDecomposition(0.0, 0.0).inference_share == 0.0
