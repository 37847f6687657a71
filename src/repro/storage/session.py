"""Spill-directory lifecycle: per-session scratch space that cannot leak.

A :class:`StorageSession` owns one temporary directory under the
platform tempdir.  Everything the out-of-core substrate writes — spill
runs, disk-backed solution-set logs, part-store files — lives inside
it, so cleanup is a single tree removal with three independent
triggers:

* ``ExecutionEnvironment.close()`` (or the session's own ``close``),
* an ``atexit`` sweep over every session this process still owns,
* the owning process's next sweep for directories workers left behind —
  worker-side views nest *inside* the parent directory, so a worker
  killed mid-spill can only ever strand files the parent will remove.

Ownership is pinned to the creating pid: a pool worker forked while
the session exists inherits the object, and every job receives it by
value (sessions pickle as non-owning views) — neither ever removes the
parent's directory, no matter how the worker exits.
"""

from __future__ import annotations

import atexit
import os
import shutil
import tempfile

_OWNED: dict[int, "StorageSession"] = {}
_next_id = 0


def _register(session: "StorageSession") -> int:
    global _next_id
    _next_id += 1
    _OWNED[_next_id] = session
    return _next_id


def sweep_owned_sessions() -> None:
    """Close every session this process still owns (atexit hook)."""
    for session in list(_OWNED.values()):
        try:
            session.close()
        except OSError:  # pragma: no cover - best-effort teardown
            pass


atexit.register(sweep_owned_sessions)


class StorageSession:
    """One spill directory plus a unique-name allocator over it."""

    def __init__(self, path: str | None = None, owner: bool = True):
        if path is None:
            path = tempfile.mkdtemp(prefix="repro-spill-")
        else:
            os.makedirs(path, exist_ok=True)
        self.path = path
        self.owner = owner
        self.closed = False
        self._owner_pid = os.getpid()
        self._seq = 0
        self._registry_id = _register(self) if owner else None

    # ------------------------------------------------------------------

    def new_file(self, prefix: str = "spill", suffix: str = ".bin") -> str:
        """Reserve a fresh unique path inside the session directory."""
        if self.closed:
            raise RuntimeError("storage session is closed")
        self._seq += 1
        return os.path.join(self.path, f"{prefix}-{self._seq:06d}{suffix}")

    def subdir(self, name: str) -> str:
        path = os.path.join(self.path, name)
        os.makedirs(path, exist_ok=True)
        return path

    def worker_view(self, rank: int) -> "StorageSession":
        """A non-owning view rooted *inside* this session's directory.

        Each SPMD worker spills under ``worker-<rank>-<pid>/``; nesting
        means the parent's close/atexit sweep removes a crashed
        worker's files even though the worker never ran its own
        cleanup.
        """
        return StorageSession(
            path=os.path.join(self.path, f"worker-{rank}-{os.getpid()}"),
            owner=False,
        )

    def disk_bytes(self) -> int:
        """Total bytes currently on disk under the session directory."""
        total = 0
        for dirpath, _dirnames, filenames in os.walk(self.path):
            for name in filenames:
                try:
                    total += os.path.getsize(os.path.join(dirpath, name))
                except OSError:
                    pass
        return total

    def close(self) -> None:
        """Remove the directory tree (owners only; idempotent)."""
        if self.closed:
            return
        self.closed = True
        if self._registry_id is not None:
            _OWNED.pop(self._registry_id, None)
        if self.owner and os.getpid() == self._owner_pid:
            shutil.rmtree(self.path, ignore_errors=True)

    # ------------------------------------------------------------------
    # a session crosses process boundaries as a path-only view: the
    # receiver allocates files inside the same tree but never deletes it

    def __getstate__(self):
        return {"path": self.path}

    def __setstate__(self, state):
        self.path = state["path"]
        self.owner = False
        self.closed = False
        self._owner_pid = os.getpid()
        self._seq = 0
        self._registry_id = None
        os.makedirs(self.path, exist_ok=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def __repr__(self):  # pragma: no cover - debugging aid
        role = "owner" if self.owner else "view"
        return f"StorageSession({self.path!r}, {role})"
