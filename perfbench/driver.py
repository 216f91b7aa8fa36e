"""The closed-loop driver: sessions served, trainers stepped, outputs checked.

One *cycle* is one whole session: ``repro.serve`` at a fresh address, K
trainers attached before ``start()``, the warm-up and measured epochs, then
every trainer closed and the session shut down.  A single driver thread steps
the trainers round-robin, one ``next()`` each per batch; the program's own
threads (producer, reactor, broker) are the system under test.

The driver is epoch-aware: it takes each trainer's admitted epoch from
``wait_until_registered`` and steps a trainer only in epochs it was admitted
to, because blocking on a trainer the producer parked for the next epoch
would stall the producer on everyone else.  A trainer is closed right after
its last expected batch so the producer's final ack drain does not wait for
it.  Nothing sleeps: a trainer admitted late is counted, not avoided.
"""

from __future__ import annotations

import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import List, Optional

import repro
from repro.core.config import ConsumerConfig

from perfbench.checks import Checker
from perfbench.tracing import Tracer
from perfbench.workloads import Inputs

#: A step that blocks this long counts as a timeout failure.
RECEIVE_TIMEOUT_S = 20.0
REGISTER_TIMEOUT_S = 10.0


@dataclass
class CycleStats:
    """What one session contributed to the run's metrics."""

    setup_s: float = 0.0
    first_batch_s: List[float] = field(default_factory=list)
    step_waits_s: List[float] = field(default_factory=list)
    measured_deliveries: int = 0
    deliveries: int = 0
    window_s: float = 0.0
    window_cpu_s: float = 0.0
    teardown_s: float = 0.0
    trainers: int = 0
    late_trainers: int = 0
    peak_shm_bytes: int = 0
    threads_peak: int = 0
    segment_reuse_hits: int = 0
    segment_reuse_misses: int = 0
    attach_cache_hits: int = 0
    attach_opens: int = 0


class _Trainer:
    def __init__(self, name: str, consumer) -> None:
        self.name = name
        self.consumer = consumer
        self.admitted: Optional[int] = None
        self.expected = 0
        self.received = 0
        self.closed = False
        self.stream = None


class _Clock:
    """Wall and process-CPU time of the measured epochs, minus excluded spans."""

    def __init__(self) -> None:
        self.wall = 0.0
        self.cpu = 0.0
        self._started: Optional[tuple] = None

    def start(self) -> None:
        self._started = (time.perf_counter(), time.process_time())

    def stop(self) -> None:
        if self._started is not None:
            wall, cpu = self._started
            self.wall += time.perf_counter() - wall
            self.cpu += time.process_time() - cpu
            self._started = None

    @property
    def running(self) -> bool:
        return self._started is not None


class StepFailed(Exception):
    """A trainer's ``next()`` raised or its stream ended early."""


def _step(trainer: _Trainer):
    try:
        return next(trainer.stream)
    except StopIteration:
        raise StepFailed(f"{trainer.name}: stream ended at batch {trainer.received}") from None
    except Exception as exc:  # any error of the program under test is one failure
        raise StepFailed(f"{trainer.name}: {type(exc).__name__}: {exc}") from exc


def _address(inputs: Inputs, cycle: int) -> str:
    if inputs.workload.scheme == "tcp":
        return "tcp://127.0.0.1:0"
    return f"inproc://perfbench-{inputs.workload.name}-{inputs.seed}-{cycle}"


def run_cycle(
    inputs: Inputs, cycle: int, checker: Checker, tracer: Optional[Tracer] = None
) -> CycleStats:
    """Serve, attach, step and tear down one session; return its figures."""
    workload = inputs.workload
    stats = CycleStats()
    region = tracer.region if tracer is not None else (lambda _name: nullcontext())
    loader = inputs.loader(cycle)
    batches = workload.batches_per_epoch

    started = time.perf_counter()
    with region("session.serve"):
        session = repro.serve(
            loader,
            address=_address(inputs, cycle),
            start=False,
            epochs=workload.epochs,
            pipeline_depth=workload.pipeline_depth,
            pipeline_workers=workload.pipeline_workers,
        )
    # session.shutdown() ends with pool.shutdown(), which zeroes the pool's
    # books whatever they held; what was still in flight is read just before.
    in_flight: List[int] = []
    pool_shutdown = session.pool.shutdown

    def probe_pool_shutdown() -> None:
        in_flight.append(session.pool.bytes_in_flight)
        pool_shutdown()

    session.pool.shutdown = probe_pool_shutdown
    trainers: List[_Trainer] = []
    clock = _Clock()
    closing_s = 0.0

    def close(trainer: _Trainer) -> None:
        """Close one trainer; the measured window does not include it."""
        nonlocal closing_s
        if trainer.closed:
            return
        trainer.closed = True
        paused = clock.running
        clock.stop()
        closing = time.perf_counter()
        with region("session.close"):
            trainer.consumer.close()
        closing_s += time.perf_counter() - closing
        if paused:
            clock.start()

    try:
        for k in range(workload.trainers):
            config = ConsumerConfig(
                address=session.address,
                consumer_id=f"trainer-{k}",
                receive_timeout=RECEIVE_TIMEOUT_S,
            )
            with region("session.attach"):
                if workload.scheme == "tcp":
                    consumer = repro.TensorConsumer(address=session.address, config=config)
                else:
                    consumer = session.consumer(config)
            trainers.append(_Trainer(f"c{cycle}/t{k}", consumer))
        session.start()
        for trainer in trainers:
            with region("session.register_wait"):
                trainer.admitted = trainer.consumer.wait_until_registered(REGISTER_TIMEOUT_S)
        stats.setup_s = time.perf_counter() - started
        stats.trainers = len(trainers)
        stats.threads_peak = threading.active_count()

        for trainer in trainers:
            if trainer.admitted > 0:
                stats.late_trainers += 1
            for epoch in range(trainer.admitted, workload.epochs):
                checker.expect(trainer.name, epoch)
                trainer.expected += batches
            trainer.stream = trainer.consumer.iter_batches()
            if trainer.expected == 0:
                close(trainer)

        for epoch in range(workload.epochs):
            measuring = epoch >= workload.warmup_epochs
            if measuring and not clock.running:
                clock.start()
            for _ in range(batches):
                for trainer in trainers:
                    if trainer.closed or trainer.admitted > epoch:
                        continue
                    asked = time.perf_counter()
                    payload, batch = _step(trainer)
                    got = time.perf_counter()
                    if trainer.received == 0:
                        stats.first_batch_s.append(got - started)
                    trainer.received += 1
                    stats.deliveries += 1
                    if measuring:
                        stats.step_waits_s.append(got - asked)
                        stats.measured_deliveries += 1
                    # The check stands in for the training step: it runs
                    # inside the measured window, before the trainer acks.
                    checker.observe(trainer.name, cycle, payload.epoch, payload.batch_index, batch)
                    if trainer.received == trainer.expected:
                        close(trainer)
            stats.threads_peak = max(stats.threads_peak, threading.active_count())
    except StepFailed as exc:
        # The other trainers would only wait out their receive timeouts on a
        # producer that lost a peer; end the session, its missing batches
        # count as failures when the checker finishes.
        checker.fail(str(exc))
    finally:
        clock.stop()
        for trainer in trainers:
            close(trainer)
        shutting = time.perf_counter()
        with region("session.shutdown"):
            session.shutdown()
        stats.teardown_s = closing_s + time.perf_counter() - shutting
    stats.window_s, stats.window_cpu_s = clock.wall, clock.cpu
    stats.peak_shm_bytes = session.pool.peak_bytes
    stats.segment_reuse_hits = session.pool.segment_reuse_hits
    stats.segment_reuse_misses = session.pool.segment_reuse_misses
    for pool in {id(t.consumer.pool): t.consumer.pool for t in trainers}.values():
        stats.attach_cache_hits += pool.attach_cache_hits
        stats.attach_opens += pool.attach_opens
    checker.drained(f"session {cycle}", in_flight[0] if in_flight else -1)
    checker.finish()
    return stats
