"""fsck for stub filesystems: audit and repair DPFS/DSFS volumes.

Failure coherence leaves two benign kinds of litter behind (paper,
section 5): *dangling stubs* (a crash between creation steps 2 and 3, or
data evicted by a server's owner) and *orphan data files* (a crash
between data deletion and stub deletion never happens by construction --
data goes first -- but data servers rejoining after a partition, or
interrupted ``heal``/replication, can strand data no stub points to).

``fsck_volume`` walks the directory tree and every data server's volume
directory, classifies both kinds, and (optionally) removes them.  It
works on every layout and needs nothing beyond the Unix interface of the
volume's tree and members -- one more dividend of recursive abstraction.
"""

from __future__ import annotations

import logging
import posixpath
from dataclasses import dataclass, field
from typing import Optional

from repro.core.stubfs import StubFilesystem
from repro.util.errors import ChirpError, DisconnectedError, DoesNotExistError

__all__ = ["FsckReport", "fsck_volume"]

log = logging.getLogger("repro.core.fsck")


@dataclass
class FsckReport:
    """What an fsck pass found (and possibly fixed)."""

    files_checked: int = 0
    directories_checked: int = 0
    healthy: int = 0
    #: stub path -> reason ("no data file" / "server unreachable")
    dangling_stubs: dict = field(default_factory=dict)
    #: (host, port, data path) of data files no stub references
    orphan_data: list = field(default_factory=list)
    unreachable_servers: list = field(default_factory=list)
    removed_stubs: int = 0
    removed_orphans: int = 0

    @property
    def clean(self) -> bool:
        return not self.dangling_stubs and not self.orphan_data


def _walk_stubs(fs: StubFilesystem, report: FsckReport):
    """Yield (path, stub) for every file entry; count directories."""
    pending = ["/"]
    while pending:
        directory = pending.pop()
        report.directories_checked += 1
        for name in fs.listdir(directory):
            path = posixpath.join(directory, name)
            try:
                if fs.meta.stat(path).is_dir:
                    pending.append(path)
                    continue
            except ChirpError:
                continue
            report.files_checked += 1
            try:
                yield path, fs.stub_for(path)
            except ChirpError:
                report.dangling_stubs[path] = "unreadable stub"


def _dangling(fs: StubFilesystem, stub) -> Optional[str]:
    """Why ``stub``'s current data cannot be read, or None when it can.

    A redundant layout's stub is dangling only when every copy is
    missing; any other layout's is dangling when any member is.
    """
    members = fs.layout.members(stub)
    errors = []
    for member in members:
        try:
            fs.member(member.endpoint).stat(member.path)
        except ChirpError as exc:
            errors.append(exc)
    if not errors or (fs.layout.redundant and len(errors) < len(members)):
        return None
    missing = sum(isinstance(e, DoesNotExistError) for e in errors)
    if missing == len(members) or (missing and not fs.layout.redundant):
        return "no data file"
    if any(isinstance(e, DisconnectedError) for e in errors):
        return "server unreachable"
    return f"error: {next(e for e in errors if not isinstance(e, DoesNotExistError))}"


def fsck_volume(
    fs: StubFilesystem,
    *,
    remove_dangling: bool = False,
    remove_orphans: bool = False,
) -> FsckReport:
    """Audit (and optionally repair) one volume of any layout.

    Repair is conservative: dangling stubs whose data server is merely
    *unreachable* are reported but never removed -- the server may come
    back.  Only stubs whose data the servers answered "no such file"
    for are eligible for removal (what else such a stub referenced is an
    orphan from then on), and only orphan files in this volume's own
    data directory are eligible for deletion.
    """
    report = FsckReport()
    referenced: dict[tuple[str, int], set[str]] = {
        tuple(endpoint): set() for endpoint in fs.servers
    }

    # Pass 1: every stub must point at live data.
    for path, stub in _walk_stubs(fs, report):
        reason = _dangling(fs, stub)
        if reason is None:
            report.healthy += 1
        else:
            report.dangling_stubs[path] = reason
            if remove_dangling and reason == "no data file":
                try:
                    fs.meta.unlink(path)
                    report.removed_stubs += 1
                    continue
                except ChirpError:
                    pass
        for member in fs.layout.referenced(stub):
            referenced.setdefault(member.endpoint, set()).add(member.path)

    # Pass 2: every data file must be referenced by some stub.
    for endpoint in fs.servers:
        endpoint = tuple(endpoint)
        try:
            member = fs.member(endpoint)
            names = member.listdir(fs.data_dir)
        except DisconnectedError:
            report.unreachable_servers.append(endpoint)
            continue
        except ChirpError:
            continue
        known = referenced.get(endpoint, set())
        for name in names:
            data_path = fs.data_dir + "/" + name
            if data_path in known:
                continue
            report.orphan_data.append((endpoint[0], endpoint[1], data_path))
            if remove_orphans:
                try:
                    member.unlink(data_path)
                    report.removed_orphans += 1
                except ChirpError:
                    pass

    if not report.clean:
        log.info(
            "fsck: %d dangling stubs, %d orphan data files",
            len(report.dangling_stubs),
            len(report.orphan_data),
        )
    return report
