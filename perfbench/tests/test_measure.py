"""The benchmark's own arithmetic: percentiles, span self time, /proc."""

from pathlib import Path

import numpy as np
import pytest

from perfbench.measure import (
    SpanRecorder,
    children,
    covered,
    descendants,
    parse_stat_cpu_s,
    parse_status_kb,
    peak_rss_mb,
    percentile,
    top_percentile,
)

FIXTURES = Path(__file__).parent / "fixtures" / "proc"


class TestPercentile:
    def test_value_count_and_tail(self):
        p = percentile(list(range(1, 101)), 90)
        assert p.value == pytest.approx(90.1)  # numpy's linear interpolation
        assert (p.n, p.beyond) == (100, 10)

    def test_ties_do_not_count_as_beyond(self):
        p = percentile([1.0] * 20 + [5.0] * 5, 50)
        assert p.value == 1.0 and p.beyond == 5

    def test_top_percentile_needs_ten_samples_beyond(self):
        assert top_percentile(np.arange(100.0)).q == 90
        assert top_percentile(np.arange(99.0)).q == 50
        assert top_percentile(np.arange(1000.0)).q == 99
        assert top_percentile(np.arange(340.0)).beyond == 34

    def test_empty_sample_is_an_error(self):
        with pytest.raises(ValueError):
            percentile([], 50)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestSpans:
    def test_covered_merges_overlaps_and_clips(self):
        assert covered([(1, 3), (2, 5), (8, 12)], 0, 10) == pytest.approx(6.0)
        assert covered([], 0, 10) == 0.0
        assert covered([(11, 12)], 0, 10) == 0.0

    def test_self_time_subtracts_children_once(self):
        clock = FakeClock()
        spans = SpanRecorder(clock=clock)
        with spans.span("replay") as root:
            spans.add("decode", 1.0, 3.0)
            spans.add("ingest", 2.0, 5.0)  # overlaps decode: counted once
            clock.now = 6.0
            with spans.span("score"):
                clock.now = 7.0
                spans.add("inner", 6.5, 6.8)  # grandchild: not root's child
            clock.now = 10.0
        assert root.duration == 10.0
        assert spans.self_time(root) == pytest.approx(10.0 - 4.0 - 1.0)
        score = next(s for s in spans.spans if s.name == "score")
        assert score.parent == root.id
        assert spans.self_time(score) == pytest.approx(0.7)

    def test_default_parent_for_spans_without_an_open_parent(self):
        spans = SpanRecorder(clock=FakeClock())
        spans.default_parent = 7
        assert spans.spans[spans.add("decode", 0.0, 1.0)].parent == 7

    def test_disabled_recorder_keeps_nothing(self):
        spans = SpanRecorder(enabled=False)
        with spans.span("replay") as root:
            spans.add("decode", 0.0, 1.0)
        assert root is None and spans.spans == []
        assert spans.total("decode") == 0.0


class TestProc:
    def test_stat_cpu_with_parentheses_in_the_name(self):
        text = (FIXTURES / "4242" / "stat").read_text()
        assert parse_stat_cpu_s(text, clk_tck=100) == pytest.approx(4.75)

    def test_status_peak_rss(self):
        text = (FIXTURES / "4242" / "status").read_text()
        assert parse_status_kb(text, "VmHWM") == 123456
        assert peak_rss_mb(4242, proc=FIXTURES) == pytest.approx(123456 * 1024 / 1e6)
        with pytest.raises(KeyError):
            parse_status_kb(text, "VmSwap")

    def test_children_over_all_threads(self):
        assert children(4242, proc=FIXTURES) == [4300, 4301, 4302]
        assert sorted(descendants(4242, proc=FIXTURES)) == [4300, 4301, 4302]
        assert descendants(4300, proc=FIXTURES) == []
