"""The benchmark's workloads: one closed loop each, inputs derived from a seed.

A workload fixes the transport, the number of trainers, the batch shape and
the preprocessing chain.  The program under test only ever sees the loader
built here; the seed picks the dataset contents, the shuffle order and the
augmentation draws.  Why each workload exists is recorded in
``BENCHMARK.json`` next to its name.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.data import (
    Compose,
    DataLoader,
    DecodeJpeg,
    Normalize,
    RandomCrop,
    RandomHorizontalFlip,
    ToTensor,
    default_collate,
)
from repro.data.synthetic import SyntheticImageDataset


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``warmup_epochs`` run before the measured epochs of every cycle; they
    also absorb the trainers that the producer admits one epoch late.
    """

    name: str
    scheme: str  # "inproc" or "tcp"
    trainers: int
    samples: int  # dataset size; samples // batch_size batches per epoch
    batch_size: int
    decode_size: int  # DecodeJpeg output edge
    crop_size: Optional[int]  # RandomCrop + flip when set
    warmup_epochs: int
    measured_epochs: int
    pipeline_depth: int = 1
    pipeline_workers: Optional[int] = None

    @property
    def epochs(self) -> int:
        return self.warmup_epochs + self.measured_epochs

    @property
    def batches_per_epoch(self) -> int:
        return self.samples // self.batch_size


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="fanout-inproc",
            scheme="inproc",
            trainers=16,
            samples=128,
            batch_size=8,
            decode_size=32,
            crop_size=None,
            warmup_epochs=1,
            measured_epochs=1,
        ),
        Workload(
            name="fanout-tcp",
            scheme="tcp",
            trainers=8,
            samples=128,
            batch_size=8,
            decode_size=32,
            crop_size=None,
            warmup_epochs=1,
            measured_epochs=1,
        ),
        Workload(
            name="loadbound-inproc",
            scheme="inproc",
            trainers=3,
            samples=128,
            batch_size=32,
            decode_size=160,
            crop_size=128,
            warmup_epochs=1,
            measured_epochs=2,
            pipeline_depth=2,
            pipeline_workers=1,
        ),
    )
}


def tiny(workload: Workload) -> Workload:
    """A seconds-long variant of ``workload`` for the benchmark's self-tests."""
    return dataclasses.replace(
        workload,
        trainers=min(workload.trainers, 3),
        samples=4 * workload.batch_size,
        measured_epochs=1,
    )


class BenchTransform:
    """The per-item preprocessing chain the workloads serve.

    A class of the benchmark's own, so the traced run can time it by
    wrapping ``BenchTransform.__call__``.
    """

    def __init__(self, workload: Workload, seed: int) -> None:
        steps = [DecodeJpeg(workload.decode_size, workload.decode_size)]
        if workload.crop_size is not None:
            steps.append(RandomCrop(workload.crop_size, seed=seed))
            steps.append(RandomHorizontalFlip(seed=seed + 1))
        steps += [Normalize(), ToTensor()]
        self._chain = Compose(steps)

    def __call__(self, record):
        return self._chain(record)


class BenchCollate:
    """The collate function the workloads serve (wrapped by the traced run)."""

    def __call__(self, items):
        return default_collate(items)


@dataclass
class Inputs:
    """Everything one run derives from its seed."""

    workload: Workload
    seed: int
    dataset: SyntheticImageDataset
    #: label of every sample index, read from the dataset before serving
    expected_labels: np.ndarray

    def loader(self, cycle: int) -> DataLoader:
        """A fresh loader for one session; the shuffle order depends on the seed."""
        return DataLoader(
            self.dataset,
            batch_size=self.workload.batch_size,
            shuffle=True,
            seed=self.seed * 1009 + cycle,
            transform=BenchTransform(self.workload, self.seed * 7919 + cycle),
            collate_fn=BenchCollate(),
            drop_last=True,
        )


def make_inputs(workload: Workload, seed: int) -> Inputs:
    dataset = SyntheticImageDataset(
        size=workload.samples,
        num_classes=100,
        image_size=workload.decode_size,
        payload_bytes=64,
        seed=seed,
    )
    labels = np.array([dataset[i].label for i in range(len(dataset))], dtype=np.int64)
    return Inputs(workload=workload, seed=seed, dataset=dataset, expected_labels=labels)
