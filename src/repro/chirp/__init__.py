"""The resource layer: the Chirp personal file server and its client.

A Chirp file server exports a Unix-like I/O interface over a single TCP
connection per client (control and data share the connection, keeping the
TCP window open across files).  It can be deployed by an ordinary user with
one command, confines all requests inside an exported root directory by a
software chroot, manages a fully virtual user space, and enforces
per-directory ACLs.  On disconnect the server frees all connection state --
open files are closed; recovery is the adapter's responsibility.

Public API:

- :class:`repro.chirp.server.FileServer` -- the deployable server.
- :class:`repro.chirp.client.ChirpClient` -- the client library.
- :class:`repro.chirp.protocol.ChirpStat` -- stat results on the wire.
- :class:`repro.chirp.protocol.OpenFlags` -- portable open flags.
"""

from repro.chirp.protocol import ChirpStat, OpenFlags, StatFs
from repro.chirp.client import ChirpClient
from repro.chirp.server import FileServer, ServerConfig

__all__ = [
    "ChirpStat",
    "OpenFlags",
    "StatFs",
    "ChirpClient",
    "FileServer",
    "ServerConfig",
]
