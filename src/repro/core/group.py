"""Sharded producer groups: one dataset served by N cooperating producers.

A single :class:`~repro.core.producer.TensorProducer` tops out at one
process's load/stage bandwidth.  This module scales past that the way
CoorDL's partitioned cache and DGL's ``DistDataLoader`` do: partition the
sample space across members, keep a single logical stream at the consumer.

Serving side — :class:`ShardedLoaderSession` (``repro.serve(loader, address,
shards=N)``):

* binds the *logical* address once through the transport registry (one hub,
  one shared-memory pool for the whole group);
* splits the loader into N disjoint shard loaders
  (:meth:`~repro.data.dataloader.DataLoader.shard`, backed by
  :class:`~repro.data.samplers.ShardSampler`) — every epoch each member pins
  its equal-seeded sampler to the same epoch, so the shards cover the
  dataset exactly once per epoch;
* runs one member producer per shard (each with its own
  :class:`~repro.core.epoch_runner.EpochRunner`, ack ledger and optional
  epoch cache over *its shard only*) on channels derived from the logical
  address (``{address}/shard{k}``);
* answers ``{address}/group`` describe requests so consumers in other OS
  processes discover the membership with nothing but the address string.

Attaching side — :class:`GroupConsumer` (what ``repro.attach(address)``
returns for a sharded address): one
:class:`~repro.core.consumer.TensorConsumer` per member, merged into a
single batch stream.  ``interleave="index"`` (default) delivers globally
in-order by ``(epoch, batch index, shard)``; ``interleave="any"`` delivers in
arrival order.  Both modes enforce an **epoch barrier**: no batch of epoch
``e+1`` is delivered until every member finished delivering epoch ``e``, and
flow control (per-member acks against per-member ledgers) naturally bounds
how far fast members can run ahead.
"""

from __future__ import annotations

import dataclasses
import os
import threading
import time
import uuid
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.config import ConsumerConfig, ProducerConfig
from repro.core.consumer import _DONE, _WAIT, TensorConsumer
from repro.core.manifest import SessionManifest
from repro.core.producer import TensorProducer
from repro.core.session import register_session, unregister_session
from repro.messaging import endpoint as endpoints
from repro.messaging.errors import MessagingError, TimeoutError_
from repro.messaging.sockets import RepSocket
from repro.obs import naming
from repro.tensor.tensor import Tensor

__all__ = [
    "GroupConsumer",
    "ShardedLoaderSession",
    "attach_address",
    "catalog_resolve",
    "describe_address",
    "member_address",
]

#: How long a remote attach waits for a describe reply before assuming the
#: address is served by a plain (single-producer, possibly pre-describe)
#: endpoint.  In-process attaches never wait: they hit the session directory.
GROUP_DISCOVERY_TIMEOUT = 2.0


def member_address(address: str, shard_index: int) -> str:
    """The channel prefix of one group member behind a logical address."""
    return f"{address}/shard{shard_index}"


def _build_member_consumers(
    *, shards: int, config: ConsumerConfig, hub, pool, address: str
) -> List[TensorConsumer]:
    """One consumer per member, all under one consumer id; unwind on failure.

    Shared by in-process attach (:meth:`ShardedLoaderSession.consumer`) and
    cross-process attach (:func:`attach_address`) so the two paths cannot
    drift in how member configs are derived or partially-built consumers are
    cleaned up.
    """
    consumer_id = config.consumer_id or f"consumer-{uuid.uuid4().hex[:8]}"
    members: List[TensorConsumer] = []
    try:
        for rank in range(shards):
            member_config = dataclasses.replace(
                config, address=member_address(address, rank), consumer_id=consumer_id
            )
            members.append(TensorConsumer(hub=hub, pool=pool, config=member_config))
    except BaseException:
        for member in members:
            try:
                member.close()
            except Exception:
                pass
        raise
    return members


def describe_address(hub, address: str, timeout: float = GROUP_DISCOVERY_TIMEOUT):
    """Ask the serving side how ``address`` is shaped (shards, members).

    Returns the manifest dict, or ``None`` when nothing answers — a plain
    producer without a session, or a pre-describe server.  On ``inproc://``
    an unserved describe channel fails fast (the push raises); over a TCP
    broker it costs the full ``timeout``.
    """
    from repro.messaging.sockets import ReqSocket

    try:
        req = ReqSocket(hub, f"{address}/group")
    except Exception:
        return None
    try:
        manifest = req.request({"op": "describe"}, timeout=timeout)
        return manifest if isinstance(manifest, dict) else None
    except MessagingError:
        return None
    finally:
        req.close()


def catalog_resolve(
    hub,
    base_address: str,
    dataset: str,
    *,
    consumer_id: Optional[str] = None,
    timeout: float = GROUP_DISCOVERY_TIMEOUT,
):
    """Resolve ``dataset`` through a broker's ``{base_address}/catalog`` channel.

    Sends a ``subscribe`` request — which also marks the dataset active for
    idle-eviction purposes and spins up lazily registered datasets — and
    returns the manifest dict, or ``None`` when no catalog answers (the
    address is not served by a :class:`~repro.broker.DatasetBroker`).
    """
    from repro.messaging.sockets import ReqSocket

    try:
        req = ReqSocket(hub, f"{base_address}/catalog")
    except Exception:
        return None
    try:
        reply = req.request(
            {"op": "subscribe", "dataset": dataset, "consumer_id": consumer_id},
            timeout=timeout,
        )
    except MessagingError:
        return None
    finally:
        req.close()
    if not isinstance(reply, dict) or not reply.get("ok"):
        return None
    manifest = reply.get("manifest")
    return manifest if isinstance(manifest, dict) else None


class GroupConsumer:
    """A single logical batch stream merged from N member consumers.

    Iterating yields plain batch dicts, exactly like a
    :class:`~repro.core.consumer.TensorConsumer` — training code cannot tell
    a sharded address from a plain one.  Internally each member stream is
    consumed through :meth:`TensorConsumer.iter_batches`, so acknowledgement
    timing (ack after the training loop moves past a batch) and therefore
    flow control are identical per member.

    Admission is synchronised before the first batch: every member reports
    its admitted epoch and the merge starts at the latest one, acknowledging
    (not training on) any earlier batches a faster member already granted —
    a group never trains on a partial epoch.
    """

    def __init__(
        self,
        members: List[TensorConsumer],
        *,
        interleave: str = "index",
        address: Optional[str] = None,
        endpoint: Optional["endpoints.Endpoint"] = None,
    ) -> None:
        if not members:
            raise ValueError("a group consumer needs at least one member")
        if interleave not in ("index", "any"):
            raise ValueError(f"interleave must be 'index' or 'any', got {interleave!r}")
        self.members = list(members)
        self.interleave = interleave
        self.address = address
        self.consumer_id = members[0].consumer_id
        self._endpoint = endpoint
        self._closed = False

    # ------------------------------------------------------------------ iteration
    def _sync_admission(self) -> int:
        """Wait for every member's registration; start at the latest epoch.

        A member whose producer already shut down (stopped before this
        consumer was admitted — group churn) is tolerated: its stream simply
        ends immediately and the merge proceeds with the survivors.
        """
        admitted = []
        for member in self.members:
            try:
                admitted.append(
                    member.wait_until_registered(timeout=member.config.receive_timeout)
                )
            except MessagingError:
                if not member.shutdown_received:
                    raise
        return max(admitted, default=0)

    def __iter__(self) -> Iterator[Dict[str, Tensor]]:
        if self._closed:
            raise RuntimeError("group consumer has been closed")
        min_epoch = self._sync_admission()
        if self.interleave == "any":
            return self._iter_any(min_epoch)
        return self._iter_in_order(min_epoch)

    def _iter_in_order(self, min_epoch: int) -> Iterator[Dict[str, Tensor]]:
        """K-way merge on ``(epoch, batch_index, shard)``.

        One head batch is held per member; refilling a member's head is what
        acknowledges the batch previously taken from it, so at most one
        delivered-but-unacked batch per member rides in the merge (within
        every member's buffer budget).  Because *all* heads are refilled
        before a winner is picked, a member whose next batch belongs to the
        next epoch simply waits unchosen — the epoch barrier — and a member
        that ends (producer stopped, shard exhausted) drops out of the merge
        while the others keep serving.
        """
        iters = [member.iter_batches(min_epoch=min_epoch) for member in self.members]
        heads: List[Optional[Tuple]] = [None] * len(iters)
        finished = [False] * len(iters)
        while True:
            for rank, member_iter in enumerate(iters):
                if heads[rank] is None and not finished[rank]:
                    try:
                        heads[rank] = next(member_iter)
                    except StopIteration:
                        finished[rank] = True
            candidates = [
                (pair[0].epoch, pair[0].batch_index, rank)
                for rank, pair in enumerate(heads)
                if pair is not None
            ]
            if not candidates:
                return
            _, _, rank = min(candidates)
            payload, batch = heads[rank]
            heads[rank] = None
            yield batch

    def _iter_any(self, min_epoch: int) -> Iterator[Dict[str, Tensor]]:
        """Arrival-order merge with an epoch barrier — and no feeder threads.

        Every member's reactor mailbox pokes one shared condition variable;
        this loop drives all members through their non-blocking
        ``_try_take()`` step from the calling thread.  At most one taken,
        not-yet-delivered head rides per member — the batch is acknowledged
        right after the training loop moves past it, preserving
        ack-after-training and each member's flow-control budget.  A head
        from a future epoch parks its member; only when every live member's
        head has crossed the boundary does the epoch advance.

        Only a *cleanly ended* member stream (producer shutdown — group
        churn) is survivable; a member that starves re-raises the same
        receive timeout its own iteration would have, exactly like the
        in-order merge — swallowing it would silently drop a whole shard
        from training.
        """
        wake = threading.Condition()
        # A counter, not an event: a wake-up landing between a fruitless poll
        # round and the wait() below must not be lost.
        state = {"events": 0}

        def on_delivery() -> None:
            with wake:
                state["events"] += 1
                wake.notify_all()

        members = list(self.members)
        for member in members:
            member._begin_iteration(min_epoch)
            member._add_mailbox_listener(on_delivery)

        heads: Dict[int, Tuple] = {}  # rank -> (payload, batch) taken, undelivered
        done: set = set()
        waiting_since: Dict[int, float] = {}  # rank -> start of batch-less stretch
        current_epoch = min_epoch
        try:
            while True:
                with wake:
                    events_before = state["events"]
                progressed = False
                for rank, member in enumerate(members):
                    if rank in done or rank in heads:
                        continue
                    step = member._try_take()
                    if step is _DONE:
                        done.add(rank)
                        waiting_since.pop(rank, None)
                        progressed = True
                    elif step is _WAIT:
                        waiting_since.setdefault(rank, time.monotonic())
                    else:
                        heads[rank] = step
                        waiting_since.pop(rank, None)
                        progressed = True
                ready = [
                    rank for rank, (payload, _batch) in heads.items()
                    if payload.epoch <= current_epoch
                ]
                if ready:
                    for rank in ready:
                        payload, batch = heads.pop(rank)
                        yield batch
                        # The training loop moved past the batch: ack it so
                        # the member's producer can release the hold.
                        members[rank]._acknowledge(payload)
                    continue
                if len(done) == len(members) and not heads:
                    return
                if len(heads) == len(members) - len(done) and heads:
                    # Every live member's head is beyond the barrier: advance.
                    current_epoch = min(
                        payload.epoch for payload, _batch in heads.values()
                    )
                    continue
                if progressed:
                    continue
                # Nothing moved: park until a mailbox delivery (or a member's
                # receive timeout) — the per-member deadline mirrors what its
                # own iter_batches would raise.
                now = time.monotonic()
                wait_timeout = 0.2
                for rank, since in waiting_since.items():
                    member = members[rank]
                    remaining = since + member.config.receive_timeout - now
                    if remaining <= 0:
                        raise TimeoutError_(
                            f"consumer {member.consumer_id!r} received no data for "
                            f"{member.config.receive_timeout}s; is the producer "
                            f"running?"
                        )
                    wait_timeout = min(wait_timeout, remaining)
                with wake:
                    if state["events"] == events_before:
                        wake.wait(timeout=wait_timeout)
        finally:
            for rank, (payload, _batch) in heads.items():
                try:
                    members[rank]._acknowledge(payload)
                except Exception:
                    pass
            for member in members:
                member._remove_mailbox_listener(on_delivery)

    # ------------------------------------------------------------------ introspection
    @property
    def batches_consumed(self) -> int:
        return sum(member.batches_consumed for member in self.members)

    @property
    def samples_consumed(self) -> int:
        return sum(member.samples_consumed for member in self.members)

    @property
    def duplicates_dropped(self) -> int:
        return sum(member.duplicates_dropped for member in self.members)

    def __len__(self) -> int:
        """Batches per completed epoch, summed over the member shards."""
        return sum(len(member) for member in self.members)

    def metrics(self) -> Dict[str, object]:
        """Aggregated counters under the canonical ``repro.*`` namespace."""
        return {
            "repro.consumer.id": self.consumer_id,
            "repro.group.interleave": self.interleave,
            "repro.group.shards": len(self.members),
            "repro.consumer.batches": self.batches_consumed,
            "repro.consumer.samples": self.samples_consumed,
            "repro.consumer.duplicates": self.duplicates_dropped,
        }

    def stats(self) -> Dict[str, object]:
        """Aggregated consumer stats plus one row per member shard.

        Deprecated view: a projection of :meth:`metrics` onto the historical
        key names (plus the per-member legacy rows).
        """
        legacy = naming.to_legacy(
            self.metrics(), naming.GROUP_CONSUMER_KEYS, role="group-consumer"
        )
        legacy["members"] = [member.stats() for member in self.members]
        return legacy

    # ------------------------------------------------------------------ shutdown
    def close(self) -> None:
        """Close every member consumer and release the attach endpoint."""
        if self._closed:
            return
        self._closed = True
        for member in self.members:
            try:
                member.close()
            except Exception:
                pass
        if self._endpoint is not None:
            self._endpoint.release()

    def __enter__(self) -> "GroupConsumer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"GroupConsumer({self.consumer_id!r}, shards={len(self.members)}, "
            f"interleave={self.interleave!r}, consumed={self.batches_consumed})"
        )


class ShardedLoaderSession:
    """Serve one dataset from N member producers behind a single address.

    The session binds the logical address once (one hub + one shared-memory
    pool for the whole group), builds one shard loader and one member
    producer per shard, and runs each member's producer loop on its own
    thread.  Members publish on channels derived from the logical address
    (``{address}/shard{k}``), so on ``tcp://`` a single broker carries the
    whole group and remote consumers attach to all members over one
    connection set.

    Directory- and describe-registered exactly like a
    :class:`~repro.core.session.SharedLoaderSession`, so ``repro.attach``
    transparently returns a :class:`GroupConsumer` for sharded addresses.
    """

    def __init__(
        self,
        data_loader,
        *,
        address: str,
        shards: int,
        producer_config: Optional[ProducerConfig] = None,
        shard_mode: str = "strided",
        hub=None,
        pool=None,
        embedded: bool = False,
        dataset: Optional[str] = None,
    ) -> None:
        if shards < 2:
            raise ValueError(
                "a sharded session needs shards >= 2; use SharedLoaderSession "
                "(repro.serve without shards=) for a single producer"
            )
        if not hasattr(data_loader, "shard"):
            raise TypeError(
                f"{type(data_loader).__name__} cannot be sharded: it has no .shard() "
                f"(wrap the dataset in repro.data.DataLoader to serve it sharded)"
            )
        if embedded and (hub is None or pool is None):
            raise ValueError(
                "an embedded sharded session rides a shared transport: pass "
                "both hub= and pool= (the broker owns the bind)"
            )
        config = producer_config or ProducerConfig()
        self.shards = int(shards)
        self.shard_mode = shard_mode
        self.dataset = dataset
        self._embedded = embedded
        if embedded:
            # The broker bound the base address; member channels hang off the
            # mount path, so no further endpoint registration is needed.
            self._endpoint = None
            self.address = address
            self.hub = hub
            self.pool = pool
        else:
            self._endpoint = endpoints.bind(address)
            self.address = self._endpoint.address
            self.hub = self._endpoint.hub
            self.pool = self._endpoint.pool
        self.members: List[TensorProducer] = []
        self._describe: Optional[RepSocket] = None
        self._metrics_service = None
        try:
            for rank in range(self.shards):
                shard_loader = data_loader.shard(rank, self.shards, mode=shard_mode)
                try:
                    shard_batches = len(shard_loader)
                except TypeError:
                    shard_batches = None  # unsized loaders cannot be validated
                if shard_batches == 0:
                    # An empty shard's member would burn through its epoch
                    # budget instantly and vanish, wedging later attaches on
                    # a member that never admits them.
                    raise ValueError(
                        f"shard {rank} of {self.shards} is empty "
                        f"(mode={shard_mode!r}); serve with fewer shards"
                        + (" or shard_mode='strided'" if shard_mode != "strided" else "")
                    )
                member_overrides = {"address": member_address(self.address, rank)}
                if config.cache_bytes is not None:
                    # The configured budget is the GROUP total: each member
                    # caches only its shard, so it gets an equal slice —
                    # otherwise a sharded session would silently pin up to
                    # shards x cache_bytes of shared memory.
                    member_overrides["cache_bytes"] = max(
                        1, config.cache_bytes // self.shards
                    )
                member_config = dataclasses.replace(config, **member_overrides)
                self.members.append(
                    TensorProducer(
                        shard_loader, hub=self.hub, pool=self.pool, config=member_config
                    )
                )
            manifest = self.manifest().to_dict()
            self._describe = RepSocket(
                self.hub, f"{self.address}/group", identity=f"describe-{self.address}"
            )
            self._describe.serve(lambda _payload: dict(manifest))
            # The observability channel for the whole group on
            # {address}/metrics (see repro.obs.service).
            try:
                from repro.obs.service import MetricsService

                self._metrics_service = MetricsService(
                    self.hub, self.address, stats_fn=self.stats
                )
            except Exception:
                self._metrics_service = None
        except BaseException:
            for member in self.members:
                try:
                    member.join(timeout=0.1)
                except Exception:
                    pass
            if self._endpoint is not None:
                self._endpoint.release()
            raise
        # Soft epoch tracking: members report boundary crossings (each on
        # its own producer thread); surfaced in stats() so drift between
        # shards is observable.
        self._progress_lock = threading.Lock()
        self._epoch_progress: Dict[int, int] = {}  #: guarded by _progress_lock
        for rank, member in enumerate(self.members):
            member.on_epoch_end = self._note_epoch_end(rank)
        self._threads: List[threading.Thread] = []
        self._consumers: List[GroupConsumer] = []
        self._member_errors: List[BaseException] = []
        self._shutdown = False
        # Read by SharedLoaderSession.at(): a fork()ed child must not reuse
        # this process's member threads through the inherited directory.
        self._owner_pid = os.getpid()
        register_session(self.address, self)

    def _note_epoch_end(self, rank: int):
        def note(epoch: int) -> None:
            with self._progress_lock:
                self._epoch_progress[rank] = epoch

        return note

    def epoch_progress(self) -> Dict[int, int]:
        """Per-rank last-completed-epoch snapshot."""
        with self._progress_lock:
            return dict(self._epoch_progress)

    def manifest(self) -> SessionManifest:
        """What remote attachers need to construct a :class:`GroupConsumer`."""
        return SessionManifest(
            address=self.address,
            kind="dataset" if self.dataset is not None else "group",
            shards=self.shards,
            shard_mode=self.shard_mode,
            member_addresses=tuple(
                member_address(self.address, rank) for rank in range(self.shards)
            ),
            dataset=self.dataset,
        )

    # ------------------------------------------------------------------ lifecycle
    def start(self) -> "ShardedLoaderSession":
        """Start every member's producer loop on its own daemon thread."""
        if self._shutdown:
            raise RuntimeError(
                f"session at {self.address!r} has been shut down; "
                f"create a new session to serve again"
            )
        if self._threads:
            raise RuntimeError("session already started")
        self._threads = [
            threading.Thread(
                target=self._run_member,
                args=(member,),
                daemon=True,
                name=f"repro-producer-shard{rank}",
            )
            for rank, member in enumerate(self.members)
        ]
        for thread in self._threads:
            thread.start()
        return self

    def _run_member(self, member: TensorProducer) -> None:
        try:
            for _ in member:
                pass
            member.join()
        except BaseException as exc:  # surfaced via raise_producer_error
            self._member_errors.append(exc)

    def consumer(self, config: Optional[ConsumerConfig] = None) -> GroupConsumer:
        """A :class:`GroupConsumer` attached to every member of this session."""
        if self._shutdown:
            raise RuntimeError(
                f"session at {self.address!r} has been shut down; its producers are "
                f"stopped and cannot serve new consumers"
            )
        config = config or ConsumerConfig()
        members = _build_member_consumers(
            shards=self.shards,
            config=config,
            hub=self.hub,
            pool=self.pool,
            address=self.address,
        )
        group = GroupConsumer(members, interleave=config.interleave, address=self.address)
        self._consumers.append(group)
        return group

    # Alias matching the module-level repro.attach() vocabulary.
    attach = consumer

    # ------------------------------------------------------------------ introspection
    def metrics(self) -> Dict[str, object]:
        """Group aggregate under the canonical ``repro.*`` namespace.

        Counter fields are summed across members; the pool buckets
        (``repro.pool.*``) are read once from the shared pool — members share
        it, so summing would double-count.
        """
        member_rows = [member.metrics() for member in self.members]
        cache_totals: Dict[str, int] = {}
        for row in member_rows:
            for key, value in row["repro.cache"].items():
                if isinstance(value, (int, float)):
                    cache_totals[key] = cache_totals.get(key, 0) + value
        return {
            "repro.group.shards": self.shards,
            "repro.producer.epoch": min(
                (row["repro.producer.epoch"] for row in member_rows), default=0
            ),
            "repro.producer.epochs_completed": min(
                (row["repro.producer.epochs_completed"] for row in member_rows),
                default=0,
            ),
            "repro.producer.batches_loaded": sum(
                row["repro.producer.batches_loaded"] for row in member_rows
            ),
            "repro.producer.publishes": sum(
                row["repro.producer.publishes"] for row in member_rows
            ),
            "repro.producer.pending_batches": sum(
                row["repro.producer.pending_batches"] for row in member_rows
            ),
            "repro.producer.consumers": max(
                (row["repro.producer.consumers"] for row in member_rows), default=0
            ),
            "repro.pool.bytes_in_flight": self.pool.bytes_in_flight,
            "repro.pool.cached_bytes": self.pool.cached_bytes,
            "repro.pool.peak_bytes": self.pool.peak_bytes,
            "repro.pool.free_bytes": self.pool.free_bytes,
            "repro.pool.segment_reuse_hits": self.pool.segment_reuse_hits,
            "repro.pool.segment_reuse_misses": self.pool.segment_reuse_misses,
            "repro.pool.mmap_total": self.pool.mmap_total,
            "repro.cache": cache_totals,
        }

    def stats(self) -> Dict[str, object]:
        """One snapshot of the group: aggregate + one row per member shard.

        Deprecated view: the aggregate row is a projection of :meth:`metrics`
        onto the historical key names.
        """
        member_rows = []
        for rank, member in enumerate(self.members):
            row = member.stats()
            row["shard"] = rank
            row["address"] = member.address
            member_rows.append(row)
        aggregate = naming.to_legacy(
            self.metrics(), naming.PRODUCER_KEYS, role="producer-group"
        )
        aggregate["shards"] = self.shards
        aggregate["epoch_progress"] = self.epoch_progress()
        return {
            "address": self.address,
            "running": self.is_running,
            "shards": self.shards,
            "producer": aggregate,
            "members": member_rows,
            "consumers": [consumer.stats() for consumer in self._consumers],
        }

    @property
    def producer(self) -> TensorProducer:
        """The first member (compatibility handle for single-producer code).

        Prefer :attr:`members` / :meth:`stats` for group-aware callers.
        """
        return self.members[0]

    def raise_producer_error(self) -> None:
        """Re-raise the first exception any member's producer thread died with."""
        if self._member_errors:
            raise self._member_errors[0]

    @property
    def is_running(self) -> bool:
        return any(thread.is_alive() for thread in self._threads)

    # ------------------------------------------------------------------ shutdown
    def shutdown(self, timeout: float = 10.0) -> None:
        """Stop every member, close consumers and release shared memory.

        Exception-safe like the single-producer session: every teardown step
        runs, the first consumer-close error (and any member-thread error) is
        re-raised at the end.
        """
        if self._shutdown:
            return
        self._shutdown = True
        close_error: Optional[BaseException] = None
        try:
            for member in self.members:
                member.stop()
            for consumer in self._consumers:
                try:
                    consumer.close()
                except BaseException as exc:
                    if close_error is None:
                        close_error = exc
            for thread in self._threads:
                thread.join(timeout=timeout)
            if not self._threads:
                # Never started: run each member's drain path directly so
                # window/cache holds are returned before the pool goes away.
                for member in self.members:
                    try:
                        member.join(timeout=1.0)
                    except Exception:
                        pass
        finally:
            unregister_session(self.address, self)
            if self._describe is not None:
                self._describe.close()
            if self._metrics_service is not None:
                self._metrics_service.stop()
            try:
                if not self._embedded:
                    # Embedded groups share the broker's pool: their bytes
                    # drained through the member joins above.
                    self.pool.shutdown()
            finally:
                if self._endpoint is not None:
                    self._endpoint.release()
        self.raise_producer_error()
        if close_error is not None:
            raise close_error

    def __enter__(self) -> "ShardedLoaderSession":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def __repr__(self) -> str:
        state = "shutdown" if self._shutdown else ("running" if self.is_running else "idle")
        return (
            f"ShardedLoaderSession(address={self.address!r}, shards={self.shards}, "
            f"state={state}, consumers={len(self._consumers)})"
        )


def attach_address(address: str, config: ConsumerConfig):
    """Attach to ``address`` without an in-process session (the remote path).

    Resolves the address through the transport registry, asks the serving
    side how it is shaped, and returns a :class:`GroupConsumer` for sharded
    addresses or a plain :class:`~repro.core.consumer.TensorConsumer`
    otherwise (including when nothing answers any probe — a bare producer
    served by address).  An address carrying a dataset path
    (``tcp://host:port/imagenet``) is resolved through the broker's catalog
    channel first — which also lazily mounts registered-but-unmounted
    datasets — falling back to the mount's own describe responder.
    """
    endpoint = endpoints.connect(address)
    base, dataset = endpoints.split_dataset_address(address)
    manifest = None
    if dataset is not None:
        try:
            manifest = catalog_resolve(
                endpoint.hub, base, dataset, consumer_id=config.consumer_id
            )
        except Exception:
            manifest = None
    if manifest is None:
        try:
            manifest = describe_address(endpoint.hub, address)
        except Exception:
            manifest = None
    if manifest is not None:
        try:
            manifest = SessionManifest.from_dict(manifest)
        except ValueError:
            manifest = None
    shards = manifest.shards if manifest else 1
    if shards <= 1:
        # Reuse the live connection instead of tearing it down and letting
        # the consumer redial (for tcp:// that is a second broker handshake
        # plus a second attach-by-name pool).  The consumer adopts the
        # endpoint and releases it in close().
        try:
            consumer = TensorConsumer(
                hub=endpoint.hub,
                pool=endpoint.pool,
                config=dataclasses.replace(config, address=address),
            )
        except BaseException:
            endpoint.release()
            raise
        consumer._endpoint = endpoint
        return consumer
    try:
        members = _build_member_consumers(
            shards=shards,
            config=config,
            hub=endpoint.hub,
            pool=endpoint.pool,
            address=address,
        )
    except BaseException:
        endpoint.release()
        raise
    return GroupConsumer(
        members, interleave=config.interleave, address=address, endpoint=endpoint
    )
