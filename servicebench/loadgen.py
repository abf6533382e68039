"""Closed- and open-loop request drivers over ``ServiceClient``.

Every request becomes one :class:`Sample`.  Latency is ``done - due``:
in a closed loop a request is due when it is sent; in an open loop it is
due at its scheduled arrival, so time spent waiting for a free
connection behind a stall counts against it.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.service.client import ServiceClient, ServiceError

CLIENT_TIMEOUT_S = 60.0


@dataclass
class Sample:
    """One request as the load generator saw it."""

    rid: str
    kind: str
    due: float
    issued: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    ok: bool = False
    error: str | None = None
    response: dict[str, Any] = field(default_factory=dict)
    op: Any = None

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1000.0

    @property
    def rtt_ms(self) -> float:
        return (self.done - self.sent) * 1000.0

    @property
    def lag_ms(self) -> float:
        """How late the generator handed the request over (closed loops
        are never late)."""
        return (self.issued - self.due) * 1000.0 if self.issued else 0.0


Send = Callable[[ServiceClient, Sample], dict[str, Any]]


def _issue(client: ServiceClient, sample: Sample, send: Send) -> Sample:
    sample.sent = time.perf_counter()
    try:
        sample.response = send(client, sample)
        sample.ok = True
    except ServiceError as exc:
        sample.error = f"{exc.status} {exc.reason or ''} {exc}".strip()
    sample.done = time.perf_counter()
    return sample


def new_client(url: str) -> ServiceClient:
    return ServiceClient(url, timeout=CLIENT_TIMEOUT_S)


def closed_loop(
    url: str,
    streams: list[list[Any]],
    send: Send,
    *,
    seconds: float = float("inf"),
) -> tuple[list[Sample], list[ServiceClient]]:
    """One client thread per stream; each sends its next op after the
    previous reply, until its stream ends or ``seconds`` have passed."""
    clients = [new_client(url) for _ in streams]
    results: list[list[Sample]] = [[] for _ in streams]
    start = time.perf_counter()

    def worker(index: int) -> None:
        for n, op in enumerate(streams[index]):
            now = time.perf_counter()
            if now - start >= seconds:
                return
            sample = Sample(f"req{index}-{n}", "read", now, op=op)
            results[index].append(_issue(clients[index], sample, send))

    threads = [
        threading.Thread(target=worker, args=(i,), name=f"closed-{i}")
        for i in range(len(streams))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [s for chunk in results for s in chunk], clients


def open_loop(
    url: str,
    schedule: list[tuple[float, str, Any]],
    send: Send,
    *,
    connections: int,
) -> tuple[list[Sample], list[ServiceClient]]:
    """Issue ``(offset_s, kind, op)`` entries at their offsets on at
    most ``connections`` concurrent connections."""
    local = threading.local()
    clients: list[ServiceClient] = []
    clients_lock = threading.Lock()

    def task(sample: Sample) -> Sample:
        client = getattr(local, "client", None)
        if client is None:
            client = local.client = new_client(url)
            with clients_lock:
                clients.append(client)
        return _issue(client, sample, send)

    futures = []
    start = time.perf_counter()
    with ThreadPoolExecutor(connections, thread_name_prefix="open") as pool:
        for n, (offset, kind, op) in enumerate(schedule):
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sample = Sample(f"op-{n}", kind, due, op=op)
            sample.issued = time.perf_counter()
            futures.append(pool.submit(task, sample))
    return [f.result() for f in futures], clients
