"""One crash-safe append-only record log, and one directory fsync.

A :class:`RecordLog` holds JSON records, one ``json.dumps(record,
sort_keys=True)`` line each: the metadata database, the keeper's repair
journal and the process supervisor's event log.  Under ALICE's crash
model (an append may be cut at any byte; a rename is durable once its
directory is fsynced) it keeps three rules, DESIGN.md §3l: opening
truncates a torn tail back to the last newline; an append is one write
and one fsync, and a failed one is truncated away before it re-raises;
a rewrite fsyncs its tmp file and, after the rename, the directory.
"""

from __future__ import annotations

import json
import os
from typing import Any, Iterable, Iterator

__all__ = ["RecordLog", "fsync_dir"]


def fsync_dir(path: str) -> bool:
    """Make a create, unlink, rename or mkdir in ``path`` durable.

    Best effort: False when the directory cannot be opened or synced (it
    vanished, or the platform refuses directory fds), True once synced.
    """
    try:
        fd = os.open(path, os.O_RDONLY | getattr(os, "O_DIRECTORY", 0))
    except OSError:
        return False
    try:
        os.fsync(fd)
        return True
    except OSError:
        return False
    finally:
        os.close(fd)


def _line(record: Any) -> bytes:
    return (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")


class RecordLog:
    """An append-only JSON-lines file that survives a crash mid-append.

    Not thread-safe: callers serialise appends and rewrites under their
    own lock.  The parent directory must exist.
    """

    def __init__(self, path: str):
        self.path = path
        self._open()
        if self._end and os.pread(self._fd, 1, self._end - 1) != b"\n":
            # A crash cut the last append short: drop the fragment.
            self._end = os.pread(self._fd, self._end, 0).rfind(b"\n") + 1
            os.ftruncate(self._fd, self._end)
            os.fsync(self._fd)

    def _open(self) -> None:
        self._fd = os.open(self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
        self._end = os.fstat(self._fd).st_size  # end of the last full record

    def records(self) -> Iterator[Any]:
        """Replay the log from disk, oldest record first.

        Full lines that do not parse (a fragment a build without the
        torn-tail rule appended onto) are skipped.
        """
        with open(self.path, "rb") as f:
            for line in f:
                if not line.endswith(b"\n"):
                    return
                try:
                    yield json.loads(line)
                except ValueError:
                    continue

    def append(self, record: Any) -> None:
        """Write one record durably; on failure the log is unchanged."""
        if self._fd is None:
            raise ValueError(f"record log {self.path} is closed")
        line = _line(record)
        try:
            if os.write(self._fd, line) != len(line):
                raise OSError(f"short write appending to {self.path}")
            os.fsync(self._fd)
        except OSError:
            try:
                os.ftruncate(self._fd, self._end)
            except OSError:
                self.close()  # a fragment we cannot remove: refuse more appends
            raise
        self._end += len(line)

    def rewrite(self, records: Iterable[Any]) -> None:
        """Atomically replace the log's contents with ``records``."""
        tmp = self.path + ".tmp"
        with open(tmp, "wb") as f:
            for record in records:
                f.write(_line(record))
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, self.path)
        fsync_dir(os.path.dirname(os.path.abspath(self.path)))
        self.close()
        self._open()

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None
