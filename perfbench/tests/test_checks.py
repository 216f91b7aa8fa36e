"""The output checks catch wrong labels, differing bytes and undrained pools.

Dropped and duplicated deliveries are tested through whole sessions in
test_driver.py.
"""

from __future__ import annotations

import numpy as np
import pytest

from perfbench.checks import BYTES_SAMPLE_EVERY, Checker
from perfbench.workloads import WORKLOADS, make_inputs, tiny
from repro.tensor.tensor import from_numpy


@pytest.fixture(scope="module")
def inputs():
    workload = tiny(WORKLOADS["fanout-inproc"])
    return make_inputs(workload, seed=3)


def epoch_batches(inputs):
    return list(inputs.loader(cycle=0))


def check(inputs, deliveries, trainers=("a", "b")):
    """Run one epoch of ``deliveries`` (per trainer) through a fresh checker."""
    checker = Checker(inputs.expected_labels, inputs.workload.batches_per_epoch)
    for trainer in trainers:
        checker.expect(trainer, 0)
        for index, batch in deliveries(trainer):
            checker.observe(trainer, 0, 0, index, batch)
    checker.drained("session 0", 0)
    checker.finish()
    return checker


def test_every_batch_once_passes(inputs):
    batches = epoch_batches(inputs)
    checker = check(inputs, lambda t: enumerate(batches))
    assert checker.correct, checker.problems
    assert checker.attempted == 2 * len(batches) + 1


def test_wrong_label_fails(inputs):
    batches = epoch_batches(inputs)

    def deliveries(trainer):
        for index, batch in enumerate(batches):
            if trainer == "a" and index == 0:
                batch = dict(batch, label=from_numpy(batch["label"].numpy() + 1))
            yield index, batch

    checker = check(inputs, deliveries)
    assert not checker.correct
    assert any("labels" in p for p in checker.problems)


def test_bytes_differing_between_trainers_fail(inputs):
    batches = epoch_batches(inputs)

    def deliveries(trainer):
        for index, batch in enumerate(batches):
            if trainer == "b" and index % BYTES_SAMPLE_EVERY == 0:
                batch = dict(batch, image=from_numpy(np.zeros_like(batch["image"].numpy())))
            yield index, batch

    checker = check(inputs, deliveries)
    assert not checker.correct
    assert any("bytes differ" in p for p in checker.problems)


def test_bytes_in_flight_after_shutdown_fail(inputs):
    checker = Checker(inputs.expected_labels, inputs.workload.batches_per_epoch)
    checker.drained("session 0", 4096)
    assert not checker.correct
