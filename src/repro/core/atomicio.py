"""The one atomic-write idiom every persistence path flows through.

Crash-safety contract (PR 6): a writer crash — or a full disk, or an
interrupting signal — must never leave a torn file where a manifest,
store, shard, or image used to be.  The idiom is the classic
temp-sibling dance: write the full payload to a ``NamedTemporaryFile``
in the *target's own directory* (``os.replace`` is only atomic within
a filesystem), ``fsync`` so the bytes are durable before the rename
makes them visible, ``os.replace`` into place, then ``fsync`` the
directory so the rename itself survives a power loss (POSIX only;
skipped where a directory cannot be opened).  Readers see either the
old complete file or the new complete file, never a mixture, and a
failure unlinks the temp so nothing leaks next to the target.

Names go at once; blocks are freed off the caller's thread.  Dropping
the last reference to a file whose blocks were fsynced can cost far
more than writing it: 35–51 ms per file on the ext4 root of a 2-vCPU
host mounted with ``discard``, against about 0.1 ms for an ``fsync``.
So on POSIX a file is *pinned* — opened read-only — before its name
goes: :func:`atomic_write_bytes` pins the file it replaces before
``os.replace``, and :func:`unlink_deferred` pins a file, then unlinks
it.  The name disappears at once; the inode lives on in the pinned
descriptor, which one lazily started daemon thread closes, paying for
the free.  At most :data:`_RELEASE_BOUND` pinned files wait for that
thread; past it the caller closes inline and pays for the free
itself.  A crash leaves nothing new on disk: the kernel reclaims an
unlinked inode that was still open.  :func:`drain_releases` waits
until every pinned file is closed.

FLIP003 (``repro analyze``) enforces that write-mode ``open`` calls
in the persistence layers only ever appear inside these helpers or a
function that performs the rename itself.
"""

from __future__ import annotations

import json
import os
import queue
import tempfile
import threading
from pathlib import Path
from typing import Any

__all__ = [
    "atomic_write_bytes",
    "atomic_write_text",
    "atomic_write_json",
    "drain_releases",
    "unlink_deferred",
]

_POSIX = os.name == "posix"

#: the most pinned files that wait for the closer thread; a constant,
#: so a burst of frees holds a bounded number of descriptors
_RELEASE_BOUND = 64

_release_lock = threading.Lock()
_released: queue.Queue[int] = queue.Queue()
_closer: threading.Thread | None = None


def atomic_write_bytes(path: str | Path, chunks: bytes | list[bytes]) -> None:
    """Write ``chunks`` to ``path`` atomically (temp + fsync +
    :func:`os.replace` + directory fsync).  The file it replaces is
    freed on the closer thread."""
    target = Path(path)
    payload = [chunks] if isinstance(chunks, bytes) else chunks
    handle = tempfile.NamedTemporaryFile(
        mode="wb",
        dir=target.parent,
        prefix=f".{target.name}.",
        suffix=".tmp",
        delete=False,
    )
    try:
        with handle:
            for chunk in payload:
                handle.write(chunk)
            handle.flush()
            os.fsync(handle.fileno())
        replaced = _pin(target)
        try:
            os.replace(handle.name, target)
            _fsync_directory(target.parent)
        finally:
            # after the directory fsync: a free in flight would stall it
            if replaced is not None:
                _release(replaced)
    except BaseException:
        # Never leave the temp file behind next to the target.
        try:
            os.unlink(handle.name)
        except FileNotFoundError:
            pass
        raise


def atomic_write_text(
    path: str | Path, text: str, encoding: str = "utf-8"
) -> None:
    """Write ``text`` to ``path`` atomically."""
    atomic_write_bytes(path, text.encode(encoding))


def atomic_write_json(payload: Any, path: str | Path) -> None:
    """Serialize ``payload`` as indented sorted-key JSON to ``path``
    atomically.

    (Argument order is historical — this predates the byte/text
    helpers and callers across the tree pass ``payload`` first.)
    """
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True))


def unlink_deferred(path: str | Path) -> None:
    """Unlink ``path`` now and free its blocks on the closer thread.

    Raises what :func:`os.unlink` raises; the name is gone when this
    returns.
    """
    pinned = _pin(path)
    try:
        os.unlink(path)
    finally:
        if pinned is not None:
            _release(pinned)


def drain_releases() -> None:
    """Wait until the closer thread has closed every pinned file."""
    _released.join()


def _pin(path: str | Path) -> int | None:
    """A read-only descriptor holding ``path``'s inode, or ``None``
    where there is nothing to pin (not POSIX, no such file, no read
    permission)."""
    if not _POSIX:
        return None
    try:
        return os.open(path, os.O_RDONLY)
    except OSError:
        return None


def _fsync_directory(directory: Path) -> None:
    if not _POSIX:
        return
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _release(fd: int) -> None:
    """Hand a pinned descriptor to the closer thread, or close it
    inline when :data:`_RELEASE_BOUND` already wait."""
    global _closer
    with _release_lock:
        # only the closer thread lowers the count, so under the lock
        # the bound holds
        queued = _released.unfinished_tasks < _RELEASE_BOUND
        if queued:
            if _closer is None:
                _closer = threading.Thread(
                    target=_close_released,
                    name="repro-atomicio-closer",
                    daemon=True,
                )
                _closer.start()
            _released.put(fd)
    if not queued:
        _close_quietly(fd)


def _close_released() -> None:
    while True:
        fd = _released.get()
        _close_quietly(fd)
        _released.task_done()


def _close_quietly(fd: int) -> None:
    try:
        os.close(fd)
    except OSError:
        pass


def _after_fork_in_child() -> None:
    """A forked child inherits copies of the waiting descriptors but
    not the closer thread: close the copies and start afresh."""
    global _release_lock, _released, _closer
    for fd in list(_released.queue):
        _close_quietly(fd)
    _release_lock = threading.Lock()
    _released = queue.Queue()
    _closer = None


if _POSIX:
    os.register_at_fork(after_in_child=_after_fork_in_child)
