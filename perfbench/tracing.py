"""The traced run's wrappers: spans around public calls into each layer.

:meth:`Tracer.install` replaces a fixed set of public callables of the
program (and the benchmark's own transform and collate callables) with
wrappers that record one span per call: name, start, end, parent span and,
where the call concerns one batch, the batch's ``(cycle, epoch,
batch_index)`` key.  :meth:`Tracer.remove` puts every original attribute
back.  Nothing in the program is edited; the end-to-end metrics come from
runs with the wrappers removed.

Spans stay in memory (a list of tuples) and are written out once, at exit.

Which end-to-end metric each per-layer metric should move, and on which
workload; on the workloads not named the prediction is no change:

=================================================  ==========================================
per-layer metric                                   moves
=================================================  ==========================================
data.transform_us_per_item, data.collate_us_*      deliveries_per_s, cpu_us_per_delivery on
                                                   loadbound-inproc
tensor.share_batch_us, tensor.segment_reuse_ratio  deliveries_per_s, peak_shm_mb on
                                                   loadbound-inproc
tensor.unpack_us                                   cpu_us_per_delivery on both fan-outs
tensor.attach_us, .attach_calls_per_delivery,      cpu_us_per_delivery on fanout-tcp
.attach_cache_hit_ratio
core.capacity_wait_us_per_batch                    step_wait_p99_ms on both fan-outs
core.publish_us                                    deliveries_per_s on fanout-inproc
core.ack_send_us                                   cpu_us_per_delivery on both fan-outs
messaging.hub_publish_us, .hub_deliveries_*        deliveries_per_s, cpu_us_per_delivery on
                                                   fanout-inproc
messaging.to_bytes_*, messaging.from_bytes_*       cpu_us_per_delivery on fanout-tcp
messaging.dispatch_us                              cpu_us_per_delivery on both fan-outs
messaging.publish_to_dispatch_p50_us / _p99_us     step_wait_p99_ms on fanout-tcp
obs.record_span_us                                 cpu_us_per_delivery on both fan-outs
session.serve_us, .attach_us, .register_wait_us    setup_s, first_batch_s on fanout-tcp
session.close_us, .shutdown_us, .threads_peak,     teardown_tail_s on every workload
.teardown_mean_us
=================================================  ==========================================
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.producer import TensorProducer
from repro.messaging.message import Message, MessageKind
from repro.messaging.reactor import ConsumerReactor
from repro.messaging.sockets import PushSocket
from repro.messaging.transport import InProcHub
from repro.obs import trace as obs_trace
from repro.tensor.payload import BatchPayload
from repro.tensor.shared_memory import SharedMemoryPool

from perfbench.workloads import BenchCollate, BenchTransform

#: Returned by a describe function: call through without recording a span.
SKIP = object()

#: A recorded span: (id, name, start_ns, end_ns, parent_id, key, value).
Span = Tuple[int, str, int, int, int, Optional[tuple], object]

LAYERS = ("data", "tensor", "core", "messaging", "obs")


def _payload_key(body) -> Optional[Tuple[int, int]]:
    if isinstance(body, BatchPayload):
        return (body.epoch, body.batch_index)
    return None


def _message_key(message) -> Optional[Tuple[int, int]]:
    return _payload_key(getattr(message, "body", None))


class Tracer:
    """Installs the wrappers and keeps the spans they record."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Prefixed to batch keys: one run serves many sessions, and every
        #: session numbers its batches from (0, 0).
        self.cycle = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: List[Tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _key(self, key: Optional[Tuple[int, int]]) -> Optional[tuple]:
        return None if key is None else (self.cycle, *key)

    def wrap(self, name: str, fn: Callable, describe: Optional[Callable] = None) -> Callable:
        """``fn`` recording a span per call.

        ``describe(args, kwargs, result)`` returns ``(key, value)`` for the
        span, or :data:`SKIP` to leave the call unrecorded.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            result = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                described = (None, None) if describe is None else describe(args, kwargs, result)
                if described is not SKIP:
                    key, value = described
                    tracer.spans.append(
                        (span_id, name, start, end, parent, tracer._key(key), value)
                    )

        return traced

    @contextmanager
    def region(self, name: str):
        """A span around a block of the benchmark's own code (session calls)."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent, None, None))

    # -- installing -----------------------------------------------------------------
    def targets(self) -> List[Tuple[object, str, str, Optional[Callable]]]:
        """What :meth:`install` wraps: ``(owner, attribute, span name, describe)``."""

        def ack_only(args, kwargs, result):
            kind = kwargs.get("kind", args[1] if len(args) > 1 else None)
            if kind is not MessageKind.ACK:
                return SKIP
            body = kwargs.get("body", args[2] if len(args) > 2 else None) or {}
            return (body.get("epoch"), body.get("batch_index")), None

        def batch_publish(args, kwargs, result):
            message = args[2]
            if message.kind is not MessageKind.BATCH:
                return SKIP
            return _message_key(message), result

        return [
            (BenchTransform, "__call__", "data.transform", None),
            (BenchCollate, "__call__", "data.collate", None),
            (SharedMemoryPool, "share_batch", "tensor.share_batch", None),
            (BatchPayload, "unpack", "tensor.unpack",
             lambda a, k, r: (a[0].key(), None)),
            (SharedMemoryPool, "attach", "tensor.attach", None),
            (TensorProducer, "wait_for_capacity", "core.capacity_wait", None),
            (TensorProducer, "publish", "core.publish",
             lambda a, k, r: (a[1].key(), None)),
            (PushSocket, "send", "core.ack_send", ack_only),
            (InProcHub, "publish", "messaging.hub_publish", batch_publish),
            (Message, "to_bytes", "messaging.to_bytes",
             lambda a, k, r: (_message_key(a[0]), None)),
            (Message, "from_bytes", "messaging.from_bytes",
             lambda a, k, r: (_message_key(r), None)),
            (obs_trace, "record_span", "obs.record_span",
             lambda a, k, r: ((k.get("epoch"), k.get("batch_index")), None)),
        ]

    def install(self) -> None:
        """Wrap every target; :meth:`remove` undoes it."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, describe in self.targets():
            raw = vars(owner)[attr]
            if isinstance(raw, staticmethod):
                replacement = staticmethod(self.wrap(name, raw.__func__, describe))
            else:
                replacement = self.wrap(name, raw, describe)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, replacement)
        # Dispatch: the handler each consumer hands the reactor is wrapped as
        # it subscribes, so every message the reactor delivers is timed.
        subscribe = vars(ConsumerReactor)["subscribe"]
        tracer = self

        def traced_subscribe(reactor, hub, address, topics, handler):
            wrapped = tracer.wrap(
                "messaging.dispatch", handler, lambda a, k, r: (_message_key(a[0]), None)
            )
            return subscribe(reactor, hub, address, topics, wrapped)

        self._saved.append((ConsumerReactor, "subscribe", subscribe))
        ConsumerReactor.subscribe = functools.wraps(subscribe)(traced_subscribe)

    def remove(self) -> None:
        """Restore every attribute :meth:`install` replaced."""
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    @property
    def installed(self) -> bool:
        return bool(self._saved)

    # -- output ---------------------------------------------------------------------
    def write_jsonl(self, path) -> int:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, key, value in self.spans:
                record = {"id": span_id, "name": name, "start_ns": start,
                          "end_ns": end, "parent": parent}
                if key is not None:
                    record["key"] = list(key)
                if isinstance(value, int):
                    record["value"] = value
                handle.write(json.dumps(record) + "\n")
        return len(self.spans)


# -- per-layer metrics ------------------------------------------------------------------
def tail_quantile(count: int, target: float = 0.99) -> float:
    """The highest quantile up to ``target`` with at least ten samples beyond
    it (never below the median)."""
    if count <= 0:
        return 0.5
    return max(0.5, min(target, 1.0 - 10.0 / count))


def quantile(values, q: float) -> float:
    return float(np.quantile(np.asarray(values, dtype=np.float64), q)) if len(values) else 0.0


def _by_name(spans: Iterable[Span]) -> Dict[str, List[Span]]:
    groups: Dict[str, List[Span]] = {}
    for span in spans:
        groups.setdefault(span[1], []).append(span)
    return groups


def _mean_us(spans: List[Span]) -> float:
    if not spans:
        return 0.0
    return sum(s[3] - s[2] for s in spans) / len(spans) / 1e3


def _median_us(spans: List[Span]) -> float:
    return quantile([(s[3] - s[2]) / 1e3 for s in spans], 0.5)


def self_time_us(spans: List[Span]) -> Dict[str, float]:
    """Total self time per layer: each span minus its direct children."""
    children: Dict[int, int] = {}
    for span in spans:
        if span[4]:
            children[span[4]] = children.get(span[4], 0) + (span[3] - span[2])
    totals = {layer: 0.0 for layer in LAYERS}
    for span in spans:
        layer = span[1].split(".", 1)[0]
        if layer in totals:
            totals[layer] += (span[3] - span[2] - children.get(span[0], 0)) / 1e3
    return totals


def publish_to_dispatch_us(spans: List[Span]) -> List[float]:
    """Per delivered batch message: time from the producer's publish call to
    the start of the consumer handler that received it."""
    published = {s[5]: s[2] for s in spans if s[1] == "core.publish" and s[5] is not None}
    return [
        (s[2] - published[s[5]]) / 1e3
        for s in spans
        if s[1] == "messaging.dispatch" and s[5] in published
    ]


def layer_metrics(spans: List[Span], deliveries: int) -> Dict[str, float]:
    """Per-layer figures derived from the spans of the traced cycles."""
    groups = _by_name(spans)

    def get(name: str) -> List[Span]:
        return groups.get(name, [])

    batches = max(1, len(get("core.publish")))
    deliveries = max(1, deliveries)
    hub = get("messaging.hub_publish")
    latency = publish_to_dispatch_us(spans)
    metrics = {
        "data.transform_us_per_item": _mean_us(get("data.transform")),
        "data.collate_us_per_batch": _mean_us(get("data.collate")),
        "tensor.share_batch_us": _mean_us(get("tensor.share_batch")),
        "tensor.unpack_us": _mean_us(get("tensor.unpack")),
        "tensor.attach_us": _mean_us(get("tensor.attach")),
        "tensor.attach_calls_per_delivery": len(get("tensor.attach")) / deliveries,
        "core.capacity_wait_us_per_batch":
            sum(s[3] - s[2] for s in get("core.capacity_wait")) / 1e3 / batches,
        "core.publish_us": _mean_us(get("core.publish")),
        "core.ack_send_us": _mean_us(get("core.ack_send")),
        "messaging.hub_publish_us": _mean_us(hub),
        "messaging.hub_deliveries_per_publish":
            sum(s[6] or 0 for s in hub) / len(hub) if hub else 0.0,
        "messaging.to_bytes_calls_per_batch": len(get("messaging.to_bytes")) / batches,
        "messaging.to_bytes_us": _mean_us(get("messaging.to_bytes")),
        "messaging.from_bytes_calls_per_batch": len(get("messaging.from_bytes")) / batches,
        "messaging.from_bytes_us": _mean_us(get("messaging.from_bytes")),
        "messaging.dispatch_us": _mean_us(get("messaging.dispatch")),
        "messaging.publish_to_dispatch_p50_us": quantile(latency, 0.5),
        "messaging.publish_to_dispatch_p99_us": quantile(latency, tail_quantile(len(latency))),
        "obs.record_span_us": _mean_us(get("obs.record_span")),
        "session.serve_us": _median_us(get("session.serve")),
        "session.attach_us": _median_us(get("session.attach")),
        "session.register_wait_us": _median_us(get("session.register_wait")),
        "session.close_us": _median_us(get("session.close")),
        "session.shutdown_us": _median_us(get("session.shutdown")),
    }
    for layer, total in self_time_us(spans).items():
        metrics[f"{layer}.self_us_per_delivery"] = total / deliveries
    return metrics
