"""Wire-level vocabulary of the Chirp protocol.

Requests are single lines of tokens (see :mod:`repro.util.wire`); this
module defines the request verbs, the portable open-flag encoding, and the
codecs for structured replies (``stat``, ``statfs``).

The RPC surface mirrors the fragment printed in the paper
(``chirp_open/pread/pwrite/close/stat/unlink/rename``) plus the streaming
``getfile``/``putfile`` calls and the ACL management calls the text
describes.
"""

from __future__ import annotations

import os
import stat as stat_mod
from dataclasses import dataclass
from typing import NamedTuple, Optional

from repro.util.errors import InvalidRequestError

__all__ = [
    "VERBS",
    "DB_VERBS",
    "Verb",
    "STATUS",
    "PAYLOAD",
    "LINES",
    "payload_length",
    "OpenFlags",
    "ChirpStat",
    "StatFs",
    "PROTOCOL_VERSION",
    "STATGET_MAX_BYTES",
]

# v3 adds the content-addressed verbs: lookup, putkey, keyof
# v4 adds the compound verbs: statget, putflags
PROTOCOL_VERSION = 4

#: The most content one ``statget`` returns, whatever limit is asked for.
STATGET_MAX_BYTES = 64 * 1024


#: Reply shapes: what follows the status line of a successful reply.
#: Nothing more (the line may carry more tokens than the status) ...
STATUS = "status"
#: ... a payload whose length is the line's last token (for most verbs
#: the status itself; a negative length means no payload) ...
PAYLOAD = "payload"
#: ... or as many lines as the status counts.
LINES = "lines"


class Verb(NamedTuple):
    """The shape of one request line and of its reply."""

    #: arguments after the verb
    nargs: int
    #: how many trailing arguments a client may leave out
    optional: int = 0
    #: index (among the arguments) of the length of the payload that
    #: follows the line, for verbs that carry one
    payload: Optional[int] = None
    #: what the reply carries after its status line
    reply: str = STATUS


#: Every request verb the server understands, with its line shape.
VERBS: dict[str, Verb] = {
    "open": Verb(3),  # path flags mode
    "close": Verb(1),  # fd
    "pread": Verb(3, reply=PAYLOAD),  # fd length offset
    "pwrite": Verb(3, payload=1),  # fd length offset
    "fsync": Verb(1),
    "fstat": Verb(1),
    "ftruncate": Verb(2),  # fd size
    "stat": Verb(1),
    "lstat": Verb(1),
    "access": Verb(2, optional=1),  # path [rights]
    "unlink": Verb(1),
    "rename": Verb(2),  # old new
    "mkdir": Verb(2, optional=1),  # path [mode]
    "rmdir": Verb(1),
    "getdir": Verb(1, reply=LINES),
    "getfile": Verb(1, reply=PAYLOAD),
    "putfile": Verb(3, payload=2),  # path mode length
    "getacl": Verb(1, reply=LINES),
    "setacl": Verb(3),  # path pattern rights
    "whoami": Verb(0),
    "statfs": Verb(0),
    "truncate": Verb(2),  # path size
    "utime": Verb(3),  # path atime mtime
    "checksum": Verb(1),
    "lookup": Verb(1),  # key
    "putkey": Verb(3),  # path mode key
    "keyof": Verb(1),
    "statget": Verb(2, reply=PAYLOAD),  # path limit
    "putflags": Verb(4, payload=3),  # path flags mode length
}

#: The metadata-database server's vocabulary: the same framing, one verb.
DB_VERBS: dict[str, Verb] = {
    "dbcmd": Verb(1, reply=PAYLOAD),  # json-command
}


def payload_length(tokens: list[str]) -> int:
    """Payload bytes that follow the request line ``tokens`` on the wire.

    Raises ``ValueError`` when the stated length is not an integer.
    """
    verb = VERBS.get(tokens[0])
    if verb is None or verb.payload is None or len(tokens) <= verb.payload + 1:
        return 0
    return int(tokens[verb.payload + 1])


@dataclass(frozen=True)
class OpenFlags:
    """Portable open flags, encoded as a compact letter string.

    ======  ==========================================
    ``r``   open for reading
    ``w``   open for writing
    ``c``   create if absent (``O_CREAT``)
    ``x``   exclusive create (``O_EXCL``) -- the primitive the DSFS
            3-step creation protocol relies on
    ``t``   truncate (``O_TRUNC``)
    ``a``   append (``O_APPEND``)
    ``s``   synchronous writes (``O_SYNC``) -- the adapter's
            sync-vs-async switch simply adds this letter
    ======  ==========================================
    """

    read: bool = False
    write: bool = False
    create: bool = False
    exclusive: bool = False
    truncate: bool = False
    append: bool = False
    sync: bool = False

    _LETTERS = (
        ("read", "r"),
        ("write", "w"),
        ("create", "c"),
        ("exclusive", "x"),
        ("truncate", "t"),
        ("append", "a"),
        ("sync", "s"),
    )

    def encode(self) -> str:
        out = "".join(ch for attr, ch in self._LETTERS if getattr(self, attr))
        return out or "-"

    @classmethod
    def decode(cls, text: str) -> "OpenFlags":
        if text == "-":
            text = ""
        kwargs = {}
        letter_map = {ch: attr for attr, ch in cls._LETTERS}
        for ch in text:
            attr = letter_map.get(ch)
            if attr is None:
                raise InvalidRequestError(f"unknown open flag {ch!r}")
            kwargs[attr] = True
        flags = cls(**kwargs)
        if not (flags.read or flags.write):
            raise InvalidRequestError("open needs at least one of r/w")
        return flags

    def to_os_flags(self) -> int:
        if self.read and self.write:
            out = os.O_RDWR
        elif self.write:
            out = os.O_WRONLY
        else:
            out = os.O_RDONLY
        if self.create:
            out |= os.O_CREAT
        if self.exclusive:
            out |= os.O_EXCL
        if self.truncate:
            out |= os.O_TRUNC
        if self.append:
            out |= os.O_APPEND
        if self.sync and hasattr(os, "O_SYNC"):
            out |= os.O_SYNC
        return out

    @classmethod
    def parse_mode_string(cls, mode: str) -> "OpenFlags":
        """Translate a Python-style mode ('r', 'w', 'a', 'r+', 'x'...)."""
        mode = mode.replace("b", "")
        table = {
            "r": cls(read=True),
            "r+": cls(read=True, write=True),
            "w": cls(write=True, create=True, truncate=True),
            "w+": cls(read=True, write=True, create=True, truncate=True),
            "a": cls(write=True, create=True, append=True),
            "a+": cls(read=True, write=True, create=True, append=True),
            "x": cls(write=True, create=True, exclusive=True),
            "x+": cls(read=True, write=True, create=True, exclusive=True),
        }
        try:
            return table[mode]
        except KeyError:
            raise ValueError(f"unsupported open mode {mode!r}") from None


@dataclass(frozen=True)
class ChirpStat:
    """File metadata on the wire (a trimmed ``struct stat``).

    ``uid``/``gid`` carry the *server-local* numeric ids; the virtual user
    space means clients should not interpret them as their own users --
    ownership questions are answered by ACLs, not uids.
    """

    device: int
    inode: int
    mode: int
    nlink: int
    uid: int
    gid: int
    size: int
    atime: int
    mtime: int
    ctime: int

    @classmethod
    def from_os(cls, st: os.stat_result) -> "ChirpStat":
        return cls(
            device=st.st_dev,
            inode=st.st_ino,
            mode=st.st_mode,
            nlink=st.st_nlink,
            uid=st.st_uid,
            gid=st.st_gid,
            size=st.st_size,
            atime=int(st.st_atime),
            mtime=int(st.st_mtime),
            ctime=int(st.st_ctime),
        )

    def to_tokens(self) -> list[int]:
        return [
            self.device,
            self.inode,
            self.mode,
            self.nlink,
            self.uid,
            self.gid,
            self.size,
            self.atime,
            self.mtime,
            self.ctime,
        ]

    @classmethod
    def from_tokens(cls, tokens: list[str]) -> "ChirpStat":
        if len(tokens) != 10:
            raise InvalidRequestError(f"bad stat reply: {tokens!r}")
        vals = [int(t) for t in tokens]
        return cls(*vals)

    @property
    def is_dir(self) -> bool:
        return stat_mod.S_ISDIR(self.mode)

    @property
    def is_file(self) -> bool:
        return stat_mod.S_ISREG(self.mode)

    @property
    def is_symlink(self) -> bool:
        return stat_mod.S_ISLNK(self.mode)


@dataclass(frozen=True)
class StatFs:
    """Filesystem capacity summary, as reported to catalogs."""

    total_bytes: int
    free_bytes: int

    def to_tokens(self) -> list[int]:
        return [self.total_bytes, self.free_bytes]

    @classmethod
    def from_tokens(cls, tokens: list[str]) -> "StatFs":
        if len(tokens) != 2:
            raise InvalidRequestError(f"bad statfs reply: {tokens!r}")
        return cls(int(tokens[0]), int(tokens[1]))
