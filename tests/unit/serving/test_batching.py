"""Unit tests for the scoring result types."""

import pytest

from repro.serving.batching import LatencyBreakdown


class TestLatencyBreakdown:
    def test_total(self):
        lat = LatencyBreakdown(queued_s=0.002, compute_s=0.001, batch_size=4)
        assert lat.total_s == pytest.approx(0.003)
