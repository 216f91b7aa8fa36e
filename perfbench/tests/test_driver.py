"""Whole sessions through the driver: clean runs pass, broken streams fail."""

from __future__ import annotations

import pytest

from perfbench import driver
from perfbench.checks import Checker
from perfbench.driver import run_cycle
from perfbench.workloads import WORKLOADS, make_inputs, tiny
from repro.core.consumer import TensorConsumer


@pytest.fixture(scope="module")
def inputs():
    return make_inputs(tiny(WORKLOADS["fanout-inproc"]), seed=11)


def cycle(inputs):
    checker = Checker(inputs.expected_labels, inputs.workload.batches_per_epoch)
    stats = run_cycle(inputs, 0, checker)
    return checker, stats


def tamper(monkeypatch, edit):
    """Make trainer-1's stream pass through ``edit(items)``.

    A tampered stream leaves the others waiting on acks that never come, so
    the receive timeout is shortened to keep the failing session short.
    """
    monkeypatch.setattr(driver, "RECEIVE_TIMEOUT_S", 2.0)
    original = TensorConsumer.iter_batches

    def iter_batches(self, **kwargs):
        stream = original(self, **kwargs)
        return edit(stream) if self.consumer_id == "trainer-1" else stream

    monkeypatch.setattr(TensorConsumer, "iter_batches", iter_batches)


def test_clean_session_passes(inputs):
    checker, stats = cycle(inputs)
    assert checker.correct, checker.problems
    workload = inputs.workload
    assert stats.deliveries == workload.trainers * workload.epochs * workload.batches_per_epoch
    assert stats.teardown_s > 0 and stats.setup_s > 0


def test_dropped_delivery_fails(inputs, monkeypatch):
    def drop_second(stream):
        for position, item in enumerate(stream):
            if position != 1:
                yield item

    tamper(monkeypatch, drop_second)
    checker, _ = cycle(inputs)
    assert not checker.correct
    assert any("never arrived" in p for p in checker.problems), checker.problems


def test_duplicated_delivery_fails(inputs, monkeypatch):
    def repeat_first(stream):
        for position, item in enumerate(stream):
            yield item
            if position == 0:
                yield item

    tamper(monkeypatch, repeat_first)
    checker, _ = cycle(inputs)
    assert not checker.correct
    assert any("twice" in p for p in checker.problems), checker.problems


def test_blocks_cover_every_session_in_order():
    from perfbench.driver import CycleStats
    from perfbench.run import BLOCK_WAITS, MAX_BLOCKS, blocks

    def sessions(count, waits_each):
        return [CycleStats(step_waits_s=[0.0] * waits_each) for _ in range(count)]

    many = sessions(50, 300)
    cut = blocks(many)
    assert len(cut) == MAX_BLOCKS
    assert [id(c) for block in cut for c in block] == [id(c) for c in many]
    assert max(map(len, cut)) - min(map(len, cut)) <= 1
    # Too few waits for two full blocks: one block, the pooled figures.
    few = sessions(5, BLOCK_WAITS // 5)
    assert len(blocks(few)) == 1 and blocks(few)[0] == few
    assert len(blocks(sessions(10, BLOCK_WAITS // 4))) == 2
