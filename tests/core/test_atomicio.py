"""The atomic-write helpers: commit ordering and the deferred free.

A write is durable in this order: the temp file's bytes are fsynced
before ``os.replace`` names them, and the directory is fsynced after
it, so the rename survives a power loss.  A file that loses its last
name — replaced by an atomic write or unlinked through
``unlink_deferred`` — is pinned by an open descriptor first; the name
goes at once and the descriptor is handed to the closer thread, which
frees the blocks.
"""

from __future__ import annotations

import gc
import os
import stat
import threading
import time

import pytest

import repro.core.atomicio as atomicio
from repro.core.atomicio import (
    atomic_write_bytes,
    drain_releases,
    unlink_deferred,
)

posix_only = pytest.mark.skipif(
    os.name != "posix", reason="pinning and directory fsync are POSIX-only"
)


@pytest.fixture
def collected(monkeypatch):
    """Replace the releaser with a collector; close what it kept."""
    fds: list[int] = []
    monkeypatch.setattr(atomicio, "_release", fds.append)
    yield fds
    for fd in fds:
        os.close(fd)


def _open_fds() -> int:
    gc.collect()  # mmaps other tests left to the collector
    return len(os.listdir("/proc/self/fd"))


@posix_only
class TestCommitOrder:
    def test_file_fsync_before_replace_directory_fsync_after(
        self, tmp_path, monkeypatch
    ):
        target = tmp_path / "manifest.json"
        target.write_bytes(b"old")
        events: list[tuple[str, int | None]] = []
        real_fsync, real_replace = os.fsync, os.replace

        def spy_fsync(fd):
            info = os.fstat(fd)
            kind = "fsync-dir" if stat.S_ISDIR(info.st_mode) else "fsync-file"
            events.append((kind, info.st_ino))
            real_fsync(fd)

        def spy_replace(source, destination):
            events.append(("replace", None))
            real_replace(source, destination)

        monkeypatch.setattr(os, "fsync", spy_fsync)
        monkeypatch.setattr(os, "replace", spy_replace)
        atomic_write_bytes(target, b"new")
        monkeypatch.undo()

        assert [kind for kind, _ in events] == [
            "fsync-file",
            "replace",
            "fsync-dir",
        ]
        # the file fsynced is the one now at the target, the directory
        # fsynced is the target's own
        assert events[0][1] == target.stat().st_ino
        assert events[2][1] == tmp_path.stat().st_ino
        assert target.read_bytes() == b"new"

    def test_unopenable_directory_skips_the_directory_fsync(
        self, tmp_path, monkeypatch
    ):
        target = tmp_path / "data.bin"
        real_open = os.open

        def refuse_directories(path, flags, *args, **kwargs):
            if os.path.isdir(path):
                raise PermissionError("no directory handles here")
            return real_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", refuse_directories)
        atomic_write_bytes(target, b"payload")
        monkeypatch.undo()
        assert target.read_bytes() == b"payload"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.bin"]


@posix_only
class TestDeferredFree:
    def test_replaced_file_is_pinned_and_handed_off(
        self, tmp_path, collected
    ):
        target = tmp_path / "manifest.json"
        atomic_write_bytes(target, b"first")
        assert collected == []  # nothing was replaced
        atomic_write_bytes(target, b"second")
        assert len(collected) == 1
        (fd,) = collected
        assert os.fstat(fd).st_nlink == 0
        assert os.pread(fd, 16, 0) == b"first"
        assert target.read_bytes() == b"second"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json"]

    def test_unlink_deferred_drops_the_name_at_once(self, tmp_path, collected):
        path = tmp_path / "shard-00000.col"
        path.write_bytes(b"shard bytes")
        unlink_deferred(path)
        assert not path.exists()
        (fd,) = collected
        assert os.fstat(fd).st_nlink == 0
        assert os.pread(fd, 32, 0) == b"shard bytes"

    def test_unlink_deferred_of_a_missing_file_raises(
        self, tmp_path, collected
    ):
        with pytest.raises(FileNotFoundError):
            unlink_deferred(tmp_path / "gone")
        assert collected == []

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
    )
    @pytest.mark.parametrize("bound", [None, 0])
    def test_every_pinned_file_is_closed(self, tmp_path, monkeypatch, bound):
        if bound is not None:
            # a full queue: every free happens inline
            monkeypatch.setattr(atomicio, "_RELEASE_BOUND", bound)
        closed_inline: list[bool] = []
        close = atomicio._close_quietly
        caller = threading.get_ident()

        def spy(fd):
            closed_inline.append(threading.get_ident() == caller)
            close(fd)

        drain_releases()
        before = _open_fds()
        monkeypatch.setattr(atomicio, "_close_quietly", spy)
        for index in range(8):
            path = tmp_path / f"file-{index}"
            path.write_bytes(b"x" * 4096)
            unlink_deferred(path)
            atomic_write_bytes(tmp_path / "manifest.json", bytes([index]))
        drain_releases()
        # 8 unlinked files and 7 replaced manifests
        assert closed_inline == [bound == 0] * 15
        assert _open_fds() == before
        assert atomicio._released.unfinished_tasks == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json"]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    # the child takes only locks the fork handler made afresh
    @pytest.mark.filterwarnings("ignore:This process.*fork:DeprecationWarning")
    def test_forked_child_frees_without_the_parents_thread(self, tmp_path):
        # start the closer thread in this process first: a child that
        # kept its handle but not the thread would hang in the drain
        first = tmp_path / "parent"
        first.write_bytes(b"p")
        unlink_deferred(first)
        drain_releases()
        child_file = tmp_path / "child"
        child_file.write_bytes(b"c")
        pid = os.fork()
        if pid == 0:  # pragma: no cover - runs in the child
            code = 1
            try:
                unlink_deferred(child_file)
                drain_releases()
                code = 0
            finally:
                os._exit(code)
        deadline = time.monotonic() + 20
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, 9)
                os.waitpid(pid, 0)
                pytest.fail("the forked child hung draining its frees")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(status) == 0
        assert not child_file.exists()
