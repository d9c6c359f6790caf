"""The load generator of the HTTP workloads: one process, two
connections.

The writer is an open loop: write ``i`` is due ``i * interval``
after the start, whether or not earlier writes came back, and its
latency runs from its due time, so a stall that delays later writes
is counted against them.  How late the writer sent (it cannot send
before the previous write is answered on its one connection) is
reported as lateness.  The reader is a closed loop over pages: a
page is one or more ``GET`` requests sent back to back, timed from
the first request to the last answer, and the next page starts
:data:`READ_THINK` seconds after the last one was answered.
"""

from __future__ import annotations

import asyncio
import time
from collections.abc import Callable
from dataclasses import dataclass, field

from common import Connection, median, quantile, ratio

#: the reader's think time, seconds.  A reader without one saturates
#: both cores, and its rate then swung 4x between runs (and the delta
#: times 1.6x) with the scheduling of the two processes.
READ_THINK = 0.002


@dataclass
class Write:
    due: float
    sent: float
    done: float
    status: int
    payload: bytes

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def lateness(self) -> float:
        return self.sent - self.due


@dataclass
class Load:
    """What one timed window measured (times relative to its start)."""

    writes: list[Write] = field(default_factory=list)
    #: (start, latency, ok) per page of reads; ok when every read was
    reads: list[tuple[float, float, bool]] = field(default_factory=list)
    #: the timed window, seconds
    window: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.writes) + len(self.reads)

    @property
    def failed(self) -> int:
        return sum(1 for w in self.writes if w.status != 200) + sum(
            1 for _start, _latency, ok in self.reads if not ok
        )

    def write_latencies(self, since: float = 0.0, until: float = 1e18) -> list[float]:
        return [
            w.latency for w in self.writes if w.status == 200 and since <= w.due < until
        ]

    def read_latencies(self, since: float = 0.0, until: float = 1e18) -> list[float]:
        return [
            latency
            for start, latency, ok in self.reads
            if ok and since <= start < until
        ]

    def summary(self) -> dict[str, float]:
        writes = self.write_latencies()
        reads = self.read_latencies()
        lateness = [w.lateness for w in self.writes]
        return {
            "writes": len(self.writes),
            "write_p50_ms": median(writes) * 1000.0,
            "write_p80_ms": quantile(writes, 0.8) * 1000.0,
            "write_p90_ms": quantile(writes, 0.9) * 1000.0,
            "write_max_ms": max(writes, default=0.0) * 1000.0,
            "lateness_p50_ms": median(lateness) * 1000.0,
            "lateness_max_ms": max(lateness, default=0.0) * 1000.0,
            "reads": len(self.reads),
            "read_p50_ms": median(reads) * 1000.0,
            "read_p80_ms": quantile(reads, 0.8) * 1000.0,
            "read_p90_ms": quantile(reads, 0.9) * 1000.0,
            "read_p99_ms": quantile(reads, 0.99) * 1000.0,
            "read_qps": ratio(len(reads), self.window),
        }


async def drive(
    writer: Connection,
    reader: Connection,
    bodies: list[bytes],
    interval: float,
    page: Callable[[], list[str]],
    seconds: float,
    on_half: Callable[[], None] | None = None,
) -> Load:
    """Run the writer and the reader for ``seconds``; writes are
    ``POST /v1/update`` with ``bodies`` in order, reads ``GET`` each
    target of ``page()`` in turn.  ``on_half`` runs once, half-way
    through."""
    # both connections open (and the server warm) before timing
    await writer.request("GET", "/v1/healthz")
    await reader.request("GET", "/v1/healthz")
    load = Load(window=seconds)
    start = time.perf_counter()

    async def write_loop() -> None:
        for index, body in enumerate(bodies):
            due = index * interval
            if due >= seconds:
                return
            delay = start + due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            sent = time.perf_counter() - start
            try:
                status, payload = await writer.request("POST", "/v1/update", body)
            except Exception:  # noqa: BLE001 - counted as a failed write
                status, payload = 0, b""
            load.writes.append(
                Write(due, sent, time.perf_counter() - start, status, payload)
            )

    async def read_loop() -> None:
        while (began := time.perf_counter() - start) < seconds:
            ok = True
            for target in page():
                try:
                    status, _body = await reader.request("GET", target)
                except Exception:  # noqa: BLE001 - counted as a failed page
                    status = 0
                ok = ok and status == 200
            elapsed = time.perf_counter() - start - began
            load.reads.append((began, elapsed, ok))
            await asyncio.sleep(READ_THINK)

    async def half() -> None:
        await asyncio.sleep(seconds / 2)
        if on_half is not None:
            on_half()

    await asyncio.gather(write_loop(), read_loop(), half())
    return load
