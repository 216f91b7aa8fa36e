"""Output checks: what every trainer received, compared with what it should.

One operation is one batch a trainer should receive in an epoch it was
admitted to, plus one pool-drain check per session.  A failure is a missing,
duplicated or wrong delivery, an error, a timeout, or shared memory still in
flight when the session's shutdown frees its pool.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Set, Tuple

import numpy as np

#: Every this-many batch indices, all trainers' image bytes are hashed and
#: compared; the other batches get the (cheap) index and label checks only.
BYTES_SAMPLE_EVERY = 8

_MAX_PROBLEMS = 20


class Checker:
    """Counts attempted and failed operations for one run."""

    def __init__(self, expected_labels: np.ndarray, batches_per_epoch: int) -> None:
        self.expected_labels = expected_labels
        self.batches_per_epoch = batches_per_epoch
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self._expected: Set[Tuple[object, int]] = set()
        self._seen: Dict[Tuple[object, int], Set[int]] = {}
        self._coverage: Dict[Tuple[object, int], np.ndarray] = {}
        self._digests: Dict[Tuple[object, int, int], int] = {}

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < _MAX_PROBLEMS:
            self.problems.append(problem)

    def expect(self, trainer, epoch: int) -> None:
        """``trainer`` should receive every batch of ``epoch`` exactly once."""
        self._expected.add((trainer, epoch))

    def observe(self, trainer, session, epoch: int, batch_index: int, batch) -> None:
        """Check one delivered batch (call before the trainer advances)."""
        slot = (trainer, epoch)
        if slot not in self._expected:
            self.fail(f"{trainer}: batch {epoch}/{batch_index} from an epoch it is not admitted to")
            return
        seen = self._seen.setdefault(slot, set())
        if batch_index in seen:
            self.fail(f"{trainer}: batch {epoch}/{batch_index} delivered twice")
            return
        seen.add(batch_index)
        indices = batch["index"].numpy()
        coverage = self._coverage.get(slot)
        if coverage is None:
            coverage = self._coverage[slot] = np.zeros(len(self.expected_labels), np.int32)
        if indices.min() < 0 or indices.max() >= len(coverage):
            self.fail(f"{trainer}: batch {epoch}/{batch_index} has out-of-range sample indices")
            return
        coverage[indices] += 1
        if not np.array_equal(batch["label"].numpy(), self.expected_labels[indices]):
            self.fail(f"{trainer}: batch {epoch}/{batch_index} labels differ from the dataset")
        if batch_index % BYTES_SAMPLE_EVERY == 0:
            digest = zlib.crc32(batch["image"].numpy())
            reference = self._digests.setdefault((session, epoch, batch_index), digest)
            if digest != reference:
                self.fail(f"{trainer}: batch {epoch}/{batch_index} bytes differ between trainers")

    def drained(self, session, bytes_in_flight: int) -> None:
        """The pool's in-flight bytes as shutdown frees it; anything but 0 fails."""
        self.attempted += 1
        if bytes_in_flight != 0:
            self.fail(f"{session}: {bytes_in_flight} bytes in flight when the pool shut down")

    def finish(self) -> None:
        """Count the expected batches and every one that never arrived."""
        for slot in sorted(self._expected, key=repr):
            self.attempted += self.batches_per_epoch
            seen = self._seen.get(slot, set())
            missing = self.batches_per_epoch - len(seen)
            if missing:
                self.fail(f"{slot[0]}: {missing} batches of epoch {slot[1]} never arrived")
            coverage = self._coverage.get(slot)
            if not missing and (coverage is None or not np.all(coverage == 1)):
                self.fail(f"{slot[0]}: epoch {slot[1]} did not cover every sample exactly once")
        self._expected.clear()
        self._seen.clear()
        self._coverage.clear()
        self._digests.clear()

    @property
    def correct(self) -> bool:
        return self.failed == 0
