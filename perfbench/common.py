"""Shared plumbing of the benchmark: paths, statistics, the result
line, the environment record, a minimal keep-alive HTTP client and
the control of the server process under test."""

from __future__ import annotations

import asyncio
import json
import os
import platform
import select
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: working directories of the shard stores, ignored by git
WORK_ROOT = ROOT / ".perfbench_tmp"

#: how many times a run sets its workload up; ``setup_s`` is the median
SETUP_REPEATS = 3
#: per-request timeout of the load generator, seconds
REQUEST_TIMEOUT = 30.0
#: longest the server process may take to start or to report, seconds
SERVER_TIMEOUT = 120.0


def add_paths() -> None:
    for path in (str(SRC), str(BENCH_DIR)):
        if path not in sys.path:
            sys.path.insert(0, path)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def quantile(values: list[float], fraction: float) -> float:
    """Linear-interpolated quantile (``statistics.quantiles``'
    inclusive method); the lone value for a single sample."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ---------------------------------------------------------------------------
# the result
# ---------------------------------------------------------------------------


def environment(seed: int, tracing: bool, **sizes: Any) -> dict[str, Any]:
    """Where and on what a result was measured."""
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "seed": seed,
        "tracing": tracing,
        **sizes,
    }


def emit(
    workload: str,
    env: dict[str, Any],
    details: dict[str, Any],
    checks: dict[str, bool],
    attempted: int,
    failed: int,
    metrics: dict[str, tuple[float, str]],
) -> None:
    """Print the details line, then the result as the last line."""
    print(
        json.dumps(
            {
                "workload": workload,
                "env": env,
                "details": details,
                "checks": checks,
                "error_rate": ratio(failed, attempted),
            },
            sort_keys=True,
        )
    )
    print(
        json.dumps(
            {
                "correct": all(checks.values()),
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        ),
        flush=True,
    )


def peak_rss_mb() -> float:
    """Peak resident set size of this process, MiB."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# HTTP
# ---------------------------------------------------------------------------


class Connection:
    """One keep-alive HTTP/1.1 connection (the load generator uses at
    most two)."""

    def __init__(self, port: int) -> None:
        self._port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def _open(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            "127.0.0.1", self._port
        )

    def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
        self._reader = self._writer = None

    async def request(
        self, method: str, target: str, body: bytes = b""
    ) -> tuple[int, bytes]:
        """Send one request; a failure closes the connection (the next
        request reconnects) and re-raises."""
        try:
            return await asyncio.wait_for(
                self._exchange(method, target, body), REQUEST_TIMEOUT
            )
        except BaseException:
            self.close()
            raise

    async def _exchange(
        self, method: str, target: str, body: bytes
    ) -> tuple[int, bytes]:
        if self._writer is None:
            await self._open()
        assert self._reader is not None and self._writer is not None
        head = f"{method} {target} HTTP/1.1\r\nHost: bench\r\n"
        if body:
            head += (
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
            )
        self._writer.write(head.encode("latin-1") + b"\r\n" + body)
        await self._writer.drain()
        status_line = await self._reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _sep, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        payload = await self._reader.readexactly(length) if length else b""
        return status, payload


def scrape(metrics_doc: dict[str, Any]) -> dict[str, Any]:
    """Index a ``/v1/metrics?format=json`` document by series name."""
    return {entry["name"]: entry for entry in metrics_doc["metrics"]}


def series_total(scraped: dict[str, Any], name: str, **labels: str) -> float:
    """Sum of a counter/gauge's samples whose labels match."""
    entry = scraped.get(name)
    if entry is None:
        return 0.0
    return float(
        sum(
            sample["value"]
            for sample in entry["samples"]
            if all(sample["labels"].get(k) == v for k, v in labels.items())
        )
    )


def histogram_quantile(
    scraped: dict[str, Any], name: str, fraction: float, **labels: str
) -> float:
    """Quantile of a scraped histogram (bucket upper bound, seconds)."""
    from repro.obs.metrics import quantile_from_buckets

    entry = scraped.get(name)
    if entry is None:
        return 0.0
    bounds: list[float] = []
    merged: list[int] = []
    for sample in entry["samples"]:
        if not all(sample["labels"].get(k) == v for k, v in labels.items()):
            continue
        buckets = sample["buckets"]
        if not merged:
            bounds = [float(b["le"]) for b in buckets[:-1]]
            merged = [0] * len(buckets)
        for index, bucket in enumerate(buckets):
            merged[index] += int(bucket["count"])
    if not merged or not sum(merged):
        return 0.0
    return quantile_from_buckets(bounds, merged, fraction)


# ---------------------------------------------------------------------------
# the server process under test
# ---------------------------------------------------------------------------


class ServerProcess:
    """``server.py`` in its own process, driven over stdin/stdout."""

    def __init__(self, workload: str, seed: int, workdir: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC), str(BENCH_DIR)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self._proc = subprocess.Popen(
            [
                sys.executable,
                str(BENCH_DIR / "server.py"),
                "--workload",
                workload,
                "--seed",
                str(seed),
                "--workdir",
                str(workdir),
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=env,
            cwd=str(ROOT),
        )
        ready = self._read_line()
        self.port = int(ready["port"])
        #: store version the server published at start
        self.version = int(ready["version"])

    def _read_line(self) -> dict[str, Any]:
        assert self._proc.stdout is not None
        ready, _w, _x = select.select([self._proc.stdout], [], [], SERVER_TIMEOUT)
        if not ready:
            self.kill()
            raise RuntimeError(f"server silent for {SERVER_TIMEOUT:g} s")
        line = self._proc.stdout.readline()
        if not line:
            self._proc.wait(timeout=30)
            raise RuntimeError(
                f"server process exited with {self._proc.returncode}"
            )
        return json.loads(line)

    def command(self, name: str) -> None:
        assert self._proc.stdin is not None
        self._proc.stdin.write(name + "\n")
        self._proc.stdin.flush()

    def stop(self) -> dict[str, Any]:
        """Shut the server down; returns its final report."""
        try:
            self.command("stop")
            report = self._read_line()
            self._proc.wait(timeout=60)
            return report
        finally:
            self.kill()

    def kill(self) -> None:
        if self._proc.poll() is None:
            self._proc.kill()
            self._proc.wait()
