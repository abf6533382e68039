"""The percentile rule and span self-time arithmetic."""

import math

import pytest

from spans import Span, Tracer, percentile, self_times, supported_percentile, tail


@pytest.mark.parametrize(
    ("n", "expected"),
    [
        (9, None),
        (10, None),
        (19, None),
        (20, 50.0),
        (99, 50.0),
        (100, 90.0),
        (199, 90.0),
        (200, 95.0),
        (999, 95.0),
        (1000, 99.0),
        (50_000, 99.0),
    ],
)
def test_highest_percentile_with_ten_samples_beyond(n, expected):
    assert supported_percentile(n) == expected


def test_supported_percentile_leaves_ten_samples_beyond():
    for n in range(1, 3000):
        q = supported_percentile(n)
        if q is not None:
            assert n * (100 - q) / 100 >= 10 - 1e-9


def test_tail_reports_the_supported_percentile():
    values = [float(v) for v in range(1, 201)]
    q, value = tail(values)
    assert q == 95.0
    assert value == pytest.approx(percentile(values, 95.0))
    with pytest.raises(ValueError):
        tail(values[:15])


def test_percentile_interpolates_like_numpy():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 50.0) == 2.5
    assert percentile(values, 0.0) == 1.0
    assert percentile(values, 100.0) == 4.0
    assert percentile(values, 90.0) == pytest.approx(3.7)


def _span(sid, start, end, parent=None):
    return Span(sid, f"s{sid}", start, end, parent)


def test_self_time_subtracts_children():
    spans = [_span(1, 0.0, 10.0), _span(2, 1.0, 3.0, 1), _span(3, 5.0, 6.0, 1)]
    assert self_times(spans) == {1: 7.0, 2: 2.0, 3: 1.0}


def test_self_time_counts_overlapping_children_once():
    # Two children on other threads overlap each other: their union
    # covers [1, 5), so the parent keeps 6 of its 10.
    spans = [_span(1, 0.0, 10.0), _span(2, 1.0, 4.0, 1), _span(3, 2.0, 5.0, 1)]
    assert self_times(spans)[1] == pytest.approx(6.0)


def test_self_time_clips_children_to_the_parent():
    spans = [_span(1, 0.0, 4.0), _span(2, 3.0, 9.0, 1)]
    assert self_times(spans)[1] == pytest.approx(3.0)
    assert self_times(spans)[2] == pytest.approx(6.0)


def test_self_time_of_nested_chain():
    spans = [_span(1, 0.0, 10.0), _span(2, 2.0, 8.0, 1), _span(3, 3.0, 4.0, 2)]
    assert self_times(spans) == {1: 4.0, 2: 5.0, 3: 1.0}


def test_tracer_nests_spans_and_inherits_request_id():
    tracer = Tracer()
    with tracer.span("outer", rid="r1") as outer:
        with tracer.span("inner") as inner:
            pass
    assert inner.parent == outer.id
    assert inner.rid == "r1"
    assert outer.parent is None
    assert not math.isnan(outer.end)
    assert [s.name for s in tracer.spans] == ["inner", "outer"]
    recorded = tracer.record("wait", 1.0, 2.0, rid="r2", depth=3)
    assert (recorded.duration, recorded.rid) == (1.0, "r2")
    assert recorded.attrs == {"depth": 3}
