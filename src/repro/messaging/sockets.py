"""ZeroMQ-style socket pattern wrappers over a hub transport.

Three patterns are provided, matching the channels TensorSocket uses:

* **PUB/SUB** — the data channel.  The producer's :class:`PubSocket` binds the
  data address and multicasts :class:`BatchPayload` messages; every consumer's
  :class:`SubSocket` connects and filters on a topic prefix.
* **PUSH/PULL** — the acknowledgement and registration channel.  Consumers
  push ``ACK`` / ``HELLO`` / ``BYE`` messages toward the producer's single
  :class:`PullSocket`.
* **REQ/REP** — the small synchronous control channels (describe, metrics,
  catalog).  :meth:`RepSocket.serve` answers each request on the thread that
  delivers it, so a serving endpoint needs no responder thread.

All sockets work over anything with the hub surface
(``bind/connect/publish/push``): an
:class:`~repro.messaging.transport.InProcHub`, the broker-owning process's
:class:`~repro.messaging.transport.TcpServerHub`, or a remote process's
:class:`~repro.messaging.transport.TcpHubClient`, which routes through a
:class:`~repro.messaging.transport.TcpHub` broker over TCP.
"""

from __future__ import annotations

import functools
import uuid
from typing import Iterable, List, Optional

from repro.messaging.errors import MessagingError
from repro.messaging.message import Message, MessageKind
from repro.messaging.transport import Endpoint, InProcHub, TcpClientEndpoint


class _HubSocket:
    """Shared plumbing for sockets living on an in-process hub."""

    def __init__(self, hub: InProcHub, address: str, identity: Optional[str] = None) -> None:
        self._hub = hub
        self._address = address
        self.identity = identity or f"sock-{uuid.uuid4().hex[:8]}"
        self._endpoint: Optional[Endpoint] = None

    @property
    def address(self) -> str:
        return self._address

    def close(self) -> None:
        if self._endpoint is not None:
            self._hub.disconnect(self._endpoint)
            self._endpoint = None

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class PubSocket(_HubSocket):
    """Publisher end of PUB/SUB: multicast to all connected subscribers."""

    def __init__(self, hub: InProcHub, address: str, identity: Optional[str] = None) -> None:
        super().__init__(hub, address, identity)
        self._messages_sent = 0
        self._deliveries = 0

    def send(self, kind: MessageKind, body=None, topic: str = "") -> int:
        """Publish a message; returns the number of subscribers it reached."""
        message = Message(topic=topic, kind=kind, sender=self.identity, body=body)
        delivered = self._hub.publish(self._address, message)
        self._messages_sent += 1
        self._deliveries += delivered
        return delivered

    @property
    def messages_sent(self) -> int:
        return self._messages_sent

    @property
    def total_deliveries(self) -> int:
        return self._deliveries


class SubSocket(_HubSocket):
    """Subscriber end of PUB/SUB with topic-prefix filtering."""

    def __init__(
        self,
        hub: InProcHub,
        address: str,
        topics: Iterable[str] = ("",),
        identity: Optional[str] = None,
    ) -> None:
        super().__init__(hub, address, identity)
        # Subscriptions are applied atomically at connect time so no publish
        # can slip between the connect and a half-applied topic filter.
        self._endpoint = hub.connect(address, name=self.identity, subscriptions=tuple(topics))

    def subscribe(self, prefix: str) -> None:
        self._endpoint.subscribe(prefix)

    def recv(self, timeout: Optional[float] = None, block: bool = True) -> Message:
        return self._endpoint.receive(timeout=timeout, block=block)

    def try_recv(self) -> Optional[Message]:
        return self._endpoint.try_receive()

    def pending(self) -> int:
        return self._endpoint.pending()


class PushSocket(_HubSocket):
    """Push end of PUSH/PULL: deliver to the single bound pull socket."""

    def send(self, kind: MessageKind, body=None, topic: str = "") -> None:
        message = Message(topic=topic, kind=kind, sender=self.identity, body=body)
        self._hub.push(self._address, message)


class PullSocket(_HubSocket):
    """Pull end of PUSH/PULL: owns the bound endpoint at the address."""

    def __init__(self, hub: InProcHub, address: str, identity: Optional[str] = None) -> None:
        super().__init__(hub, address, identity)
        self._endpoint = hub.bind(address, name=self.identity)

    def recv(self, timeout: Optional[float] = None, block: bool = True) -> Message:
        return self._endpoint.receive(timeout=timeout, block=block)

    def try_recv(self) -> Optional[Message]:
        return self._endpoint.try_receive()

    def drain(self) -> List[Message]:
        """Receive every message currently queued without blocking."""
        messages = []
        while True:
            message = self._endpoint.try_receive()
            if message is None:
                return messages
            messages.append(message)

    def pending(self) -> int:
        return self._endpoint.pending()


class ReqSocket(_HubSocket):
    """Synchronous request socket: send one request, wait for its reply."""

    def __init__(self, hub: InProcHub, address: str, identity: Optional[str] = None) -> None:
        super().__init__(hub, address, identity)
        self._reply_address = f"{address}/reply/{self.identity}"
        self._endpoint = hub.bind(self._reply_address, name=self.identity)

    def request(self, body, timeout: Optional[float] = None):
        message = Message(
            topic="",
            kind=MessageKind.REQUEST,
            sender=self.identity,
            body={"reply_to": self._reply_address, "payload": body},
        )
        self._hub.push(self._address, message)
        reply = self._endpoint.receive(timeout=timeout)
        if reply.kind is not MessageKind.REPLY:
            raise MessagingError(f"expected a REPLY, got {reply.kind}")
        return reply.body

    def close(self) -> None:
        if self._endpoint is not None:
            self._hub.disconnect(self._endpoint)
            self._endpoint = None


class RepSocket(_HubSocket):
    """Reply socket: receive requests and route replies back to the requester."""

    def __init__(self, hub: InProcHub, address: str, identity: Optional[str] = None) -> None:
        super().__init__(hub, address, identity)
        self._endpoint = hub.bind(address, name=self.identity)

    def recv(self, timeout: Optional[float] = None) -> Message:
        return self._endpoint.receive(timeout=timeout)

    def try_recv(self) -> Optional[Message]:
        return self._endpoint.try_receive()

    def reply(self, request: Message, body) -> None:
        reply_to = request.body.get("reply_to") if isinstance(request.body, dict) else None
        if not reply_to:
            raise MessagingError("request carries no reply_to address")
        message = Message(topic="", kind=MessageKind.REPLY, sender=self.identity, body=body)
        self._hub.push(reply_to, message)

    def serve(self, handler) -> None:
        """Answer every request with ``handler(payload)`` as it is delivered.

        No thread and no polling: the endpoint's sink runs the handler on the
        thread that delivers the request, after first draining any requests
        already queued, in order.  For an in-process requester that is the
        requester's own thread; for a remote requester it is the broker's
        serve thread for that requester's connection.  A handler must
        therefore never wait on the network — local work only (reading
        counters, building a manifest, mounting an in-process session).

        A handler that raises is answered with ``{"ok": False, "error":
        "<Type>: <msg>"}``; a requester that has gone away is ignored.
        Closing the socket stops serving.
        """
        self._endpoint.set_sink(functools.partial(self._answer, handler))

    def serve_pending(self, handler) -> int:
        """Answer every queued request with ``handler(payload)``; returns count."""
        served = 0
        while True:
            request = self.try_recv()
            if request is None:
                return served
            self._answer(handler, request)
            served += 1

    def _answer(self, handler, request: Message) -> None:
        payload = request.body.get("payload") if isinstance(request.body, dict) else None
        try:
            body = handler(payload)
        except Exception as exc:
            body = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        try:
            self.reply(request, body)
        except MessagingError:
            pass  # the requester vanished (or never named a reply address)


# ---------------------------------------------------------------------------
# TCP-backed variants
# ---------------------------------------------------------------------------


class TcpPubSocket:
    """Publisher over a :class:`~repro.messaging.transport.TcpHub` broker."""

    def __init__(self, host: str, port: int, address: str, identity: Optional[str] = None) -> None:
        self.identity = identity or f"sock-{uuid.uuid4().hex[:8]}"
        self._address = address
        self._client = TcpClientEndpoint(host, port, op="open")

    def send(self, kind: MessageKind, body=None, topic: str = "") -> None:
        message = Message(topic=topic, kind=kind, sender=self.identity, body=body)
        self._client.send_publish(self._address, message)

    def close(self) -> None:
        self._client.close()


class TcpSubSocket:
    """Subscriber over a TCP broker."""

    def __init__(
        self,
        host: str,
        port: int,
        address: str,
        topics: Iterable[str] = ("",),
        identity: Optional[str] = None,
    ) -> None:
        self.identity = identity or f"sock-{uuid.uuid4().hex[:8]}"
        self._client = TcpClientEndpoint(
            host, port, op="connect", address=address, subscriptions=list(topics)
        )

    def recv(self, timeout: Optional[float] = None, block: bool = True) -> Message:
        return self._client.receive(timeout=timeout, block=block)

    def try_recv(self) -> Optional[Message]:
        return self._client.try_receive()

    def close(self) -> None:
        self._client.close()


class TcpPushSocket:
    """Push socket over a TCP broker."""

    def __init__(self, host: str, port: int, address: str, identity: Optional[str] = None) -> None:
        self.identity = identity or f"sock-{uuid.uuid4().hex[:8]}"
        self._address = address
        self._client = TcpClientEndpoint(host, port, op="open")

    def send(self, kind: MessageKind, body=None, topic: str = "") -> None:
        message = Message(topic=topic, kind=kind, sender=self.identity, body=body)
        self._client.send_push(self._address, message)

    def close(self) -> None:
        self._client.close()


class TcpPullSocket:
    """Pull socket over a TCP broker (binds the address broker-side)."""

    def __init__(self, host: str, port: int, address: str, identity: Optional[str] = None) -> None:
        self.identity = identity or f"sock-{uuid.uuid4().hex[:8]}"
        self._client = TcpClientEndpoint(host, port, op="bind", address=address)

    def recv(self, timeout: Optional[float] = None, block: bool = True) -> Message:
        return self._client.receive(timeout=timeout, block=block)

    def try_recv(self) -> Optional[Message]:
        return self._client.try_receive()

    def drain(self) -> List[Message]:
        messages = []
        while True:
            message = self._client.try_receive()
            if message is None:
                return messages
            messages.append(message)

    def close(self) -> None:
        self._client.close()
