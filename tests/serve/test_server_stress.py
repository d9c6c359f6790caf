"""Concurrency stress test: readers racing a stream of updates.

Threaded clients hammer ``GET /patterns`` while ``POST /update``
re-points the store at a sequence of known mining results.  The
contract under test is the server's read/write isolation:

* **no torn reads** — every answer's id set is exactly the pattern
  set of *one* store generation, never a mix of two;
* **truthful versions** — the ``store_version`` stamped into an
  answer identifies a generation that actually existed, and the ids
  are precisely that generation's ids;
* ``expect_version`` pins fail loudly (409) once the store has moved
  on, instead of quietly serving mixed generations;
* no request ever surfaces a 5xx.

The miner is a stub cycling through precomputed results, so the store
generations (and their exact id sets, version by version) are known
before the race starts.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.bench.serve import synthetic_serve_result
from repro.serve import AsyncPatternServer, PatternStore

#: store generations the writer pushes (beyond the initial build)
_N_UPDATES = 6
#: concurrent reader threads x requests each
_N_READERS = 4
_READS_EACH = 30


def _get(url: str):
    with urllib.request.urlopen(url) as resp:
        return resp.status, json.loads(resp.read().decode("utf-8"))


class _ScriptedMiner:
    """Stands in for an incremental miner: update() walks a script of
    precomputed results (the transactions payload is ignored)."""

    def __init__(self, results):
        self._results = list(results)
        self._cursor = 0

    def update(self, transactions):
        result = self._results[self._cursor]
        self._cursor = min(self._cursor + 1, len(self._results) - 1)
        return result


@pytest.fixture
def generations():
    """Distinct mining results; sizes differ so every generation has
    a different pattern-id set and every update bumps the version."""
    return [
        synthetic_serve_result(20 + 7 * index, seed=300 + index)
        for index in range(_N_UPDATES + 1)
    ]


def test_readers_never_observe_torn_state(generations):
    initial, *updates = generations
    store = PatternStore.build(initial)
    # version -> exact id set of that generation, known up front
    expected: dict[int, set[str]] = {store.version: set(store.ids())}
    version = store.version
    for result in updates:
        version += 1  # every generation differs, so each applies +1
        expected[version] = set(PatternStore.build(result).ids())

    failures: list[str] = []
    stop = threading.Event()

    with AsyncPatternServer(
        store, miner=_ScriptedMiner(updates), cache_size=32
    ) as server:

        def read_loop() -> None:
            for _ in range(_READS_EACH):
                if stop.is_set():
                    return
                try:
                    status, page = _get(server.url + "/v1/patterns")
                except urllib.error.HTTPError as error:  # pragma: no cover
                    failures.append(f"GET /patterns -> {error.code}")
                    stop.set()
                    return
                observed = page["store_version"]
                ids = set(p["id"] for p in page["patterns"])
                if observed not in expected:
                    failures.append(
                        f"answer stamped with version {observed}, "
                        "which never existed"
                    )
                    stop.set()
                    return
                if ids != expected[observed]:
                    torn = sorted(ids ^ expected[observed])[:5]
                    failures.append(
                        f"torn read at version {observed}: id set "
                        f"differs by {torn}"
                    )
                    stop.set()
                    return
                if page["total"] != len(expected[observed]):
                    failures.append(
                        f"total {page['total']} != "
                        f"{len(expected[observed])} at v{observed}"
                    )
                    stop.set()
                    return

        readers = [
            threading.Thread(target=read_loop, name=f"reader-{i}")
            for i in range(_N_READERS)
        ]
        for thread in readers:
            thread.start()
        # the writer races the readers from the main thread
        last_version = store.version
        for _ in updates:
            request = urllib.request.Request(
                server.url + "/v1/update",
                data=json.dumps({"transactions": []}).encode(),
                method="POST",
            )
            with urllib.request.urlopen(request) as resp:
                body = json.loads(resp.read().decode("utf-8"))
            assert body["store_version"] == last_version + 1
            last_version = body["store_version"]
        for thread in readers:
            thread.join(timeout=30)
            assert not thread.is_alive(), "reader thread hung"

        assert not failures, failures
        # after the dust settles the store serves the final generation
        _status, page = _get(server.url + "/v1/patterns")
        assert page["store_version"] == last_version
        assert set(p["id"] for p in page["patterns"]) == expected[last_version]


def test_stale_version_pins_conflict_cleanly(generations):
    initial, *updates = generations
    store = PatternStore.build(initial)
    pinned = store.version
    with AsyncPatternServer(store, miner=_ScriptedMiner(updates)) as server:
        # a pin on the current generation succeeds
        status, _page = _get(
            server.url + f"/v1/patterns?expect_version={pinned}"
        )
        assert status == 200
        request = urllib.request.Request(
            server.url + "/v1/update",
            data=json.dumps({"transactions": []}).encode(),
            method="POST",
        )
        with urllib.request.urlopen(request):
            pass
        # ...and fails loudly (409, not mixed results) once it moved
        with pytest.raises(urllib.error.HTTPError) as info:
            _get(server.url + f"/v1/patterns?expect_version={pinned}")
        assert info.value.code == 409
        payload = json.loads(info.value.read().decode("utf-8"))
        assert "version" in payload["error"]["message"]
