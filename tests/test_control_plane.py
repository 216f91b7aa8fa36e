"""The serving side's control channels run no threads of their own.

Every serving session answers ``{address}/group`` (describe) and
``{address}/metrics``; every broker also answers ``{address}/catalog``.
Each channel is a :class:`~repro.messaging.sockets.RepSocket` whose requests
are answered on the thread that delivers them, so serving adds no responder
thread and shutting down waits on none.
"""

import statistics
import threading
import time

import pytest

import repro
from repro.data import DataLoader, SyntheticImageDataset
from repro.data.transforms import Compose, DecodeJpeg, Normalize, ToTensor

#: Names of the polling responder threads the control channels used to run.
RESPONDER_THREADS = {
    "repro-session-describe",
    "repro-metrics-service",
    "repro-broker-catalog",
}


def tiny_loader(size=16, batch_size=4):
    dataset = SyntheticImageDataset(size, image_size=8, payload_bytes=16)
    pipeline = Compose([DecodeJpeg(height=8, width=8), Normalize(), ToTensor()])
    return DataLoader(dataset, batch_size=batch_size, transform=pipeline)


def new_threads(before):
    return [t for t in threading.enumerate() if t not in before and t.is_alive()]


def responder_threads():
    return sorted(t.name for t in threading.enumerate() if t.name in RESPONDER_THREADS)


class TestThreadCensus:
    def test_inproc_serve_starts_no_thread(self):
        before = set(threading.enumerate())
        session = repro.serve(tiny_loader(), address="inproc://census-inproc", start=False)
        try:
            assert new_threads(before) == []
            assert responder_threads() == []
        finally:
            session.shutdown()

    def test_tcp_serve_starts_no_responder_thread(self):
        session = repro.serve(tiny_loader(), address="tcp://127.0.0.1:0", start=False)
        try:
            assert responder_threads() == []
        finally:
            session.shutdown()

    @pytest.mark.parametrize("address", ["inproc://census-plane", "tcp://127.0.0.1:0"])
    def test_broker_with_a_tenant_starts_no_responder_thread(self, address):
        broker = repro.broker(address)
        try:
            broker.publish("tenant", tiny_loader())
            assert broker.session("tenant") is not None
            assert responder_threads() == []
        finally:
            broker.shutdown()


class TestShutdownLatency:
    def test_idle_session_shutdown_is_prompt(self):
        durations = []
        for _ in range(5):
            session = repro.serve(
                tiny_loader(), address="inproc://shutdown-latency", start=False
            )
            started = time.perf_counter()
            session.shutdown()
            durations.append(time.perf_counter() - started)
        assert statistics.median(durations) < 0.05, durations
