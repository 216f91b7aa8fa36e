"""The traced run's wrappers come off cleanly and record what they wrap."""

from __future__ import annotations

import pytest

from perfbench.tracing import Tracer, layer_metrics, self_time_us, tail_quantile
from repro.messaging.message import Message, MessageKind
from repro.messaging.reactor import ConsumerReactor


def _snapshot(tracer: Tracer):
    owners = [(owner, attr) for owner, attr, _name, _describe in tracer.targets()]
    owners.append((ConsumerReactor, "subscribe"))
    return {(owner, attr): vars(owner)[attr] for owner, attr in owners}


def test_remove_restores_every_original_attribute():
    tracer = Tracer()
    before = _snapshot(tracer)
    tracer.install()
    try:
        during = _snapshot(tracer)
        assert all(during[k] is not before[k] for k in before)
        assert isinstance(vars(Message)["from_bytes"], staticmethod)
    finally:
        tracer.remove()
    after = _snapshot(tracer)
    assert all(after[k] is before[k] for k in before)
    assert not tracer.installed


def test_wrappers_record_spans_with_parents():
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.region("session.serve"):
            data = Message("t", MessageKind.HEARTBEAT, "x").to_bytes()
        Message.from_bytes(data)
    finally:
        tracer.remove()
    names = [span[1] for span in tracer.spans]
    assert names == ["messaging.to_bytes", "session.serve", "messaging.from_bytes"]
    to_bytes, region, from_bytes = tracer.spans
    assert to_bytes[4] == region[0]  # nested in the region
    assert from_bytes[4] == 0
    totals = self_time_us(tracer.spans)
    assert totals["messaging"] > 0


def test_wrapped_call_still_raises():
    tracer = Tracer()
    tracer.install()
    try:
        with pytest.raises(Exception):
            Message.from_bytes(b"not a pickle")
    finally:
        tracer.remove()
    assert [span[1] for span in tracer.spans] == ["messaging.from_bytes"]


def test_tail_quantile_keeps_ten_samples_beyond():
    assert tail_quantile(10_000) == 0.99
    assert tail_quantile(500) == pytest.approx(0.98)
    assert tail_quantile(12) == 0.5


def test_layer_metrics_of_no_spans_are_zero():
    metrics = layer_metrics([], deliveries=0)
    assert all(value == 0.0 for value in metrics.values())
