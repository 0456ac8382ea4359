"""Per-directory access control lists with the reserve right.

Rights (paper, section 4):

======  =====================================================
``r``   read files in the directory
``w``   write or create files
``l``   list the directory
``d``   delete files (but not modify them)
``a``   administer: modify the ACL
``v``   *reserve*: ``mkdir`` creates a fresh namespace whose ACL
        grants the caller only the rights in the parenthesized
        group, e.g. ``v(rwla)``
======  =====================================================

An ACL is an ordered list of ``(subject-pattern, rights)`` entries.  The
effective rights of a subject are the *union* of all matching entries.
ACLs are stored in a hidden file (``.__acl``) inside each directory, one
entry per line -- the same recursive-abstraction trick the server uses for
everything else: plain files are sufficient.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.auth.subjects import subject_matches, validate_subject

__all__ = [
    "Rights",
    "ALL_RIGHTS",
    "ACL_FILE_NAME",
    "AclEntry",
    "Acl",
    "parse_rights",
    "format_rights",
]

ACL_FILE_NAME = ".__acl"
ALL_RIGHTS = frozenset("rwldav")

# Convenience aliases accepted by parse_rights.
_RIGHT_ALIASES = {
    "read": "r",
    "write": "w",
    "list": "l",
    "delete": "d",
    "admin": "a",
    "reserve": "v",
    "rw": "rw",
    "rwl": "rwl",
    "rwld": "rwld",
    "rwlda": "rwlda",
    "full": "rwldav",
    "none": "",
    "n": "",  # the canonical no-rights marker emitted by format_rights
}


@dataclass(frozen=True)
class Rights:
    """An immutable set of rights plus the reserve sub-rights.

    ``flags`` is a frozenset drawn from ``rwldav``.  When ``v`` is present,
    ``reserve`` holds the rights a reserved (freshly mkdir'd) directory
    grants its creator; an empty reserve group means ``v()`` -- the caller
    may reserve a directory but receives no rights inside it, which is
    legal if unusual.
    """

    flags: frozenset[str] = frozenset()
    reserve: frozenset[str] = frozenset()

    def __post_init__(self):
        bad = self.flags - ALL_RIGHTS
        if bad:
            raise ValueError(f"unknown rights {sorted(bad)}")
        bad = self.reserve - (ALL_RIGHTS - {"v"})
        if bad:
            raise ValueError(f"unknown reserve rights {sorted(bad)}")
        if self.reserve and "v" not in self.flags:
            raise ValueError("reserve group present without the v right")

    def has(self, right: str) -> bool:
        return right in self.flags

    def union(self, other: "Rights") -> "Rights":
        return Rights(self.flags | other.flags, self.reserve | other.reserve)

    def __bool__(self) -> bool:
        return bool(self.flags)

    def __str__(self) -> str:
        return format_rights(self)


def parse_rights(text: str) -> Rights:
    """Parse a rights string such as ``rwl``, ``v(rwla)``, or ``rlv(rwl)``."""
    text = text.strip().lower()
    text = _RIGHT_ALIASES.get(text, text)
    flags: set[str] = set()
    reserve: set[str] = set()
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "v":
            flags.add("v")
            i += 1
            if i < n and text[i] == "(":
                close = text.find(")", i)
                if close < 0:
                    raise ValueError(f"unclosed reserve group in {text!r}")
                group = text[i + 1 : close]
                for g in group:
                    if g not in ALL_RIGHTS or g == "v":
                        raise ValueError(f"bad reserve right {g!r} in {text!r}")
                    reserve.add(g)
                i = close + 1
        elif ch in ALL_RIGHTS:
            flags.add(ch)
            i += 1
        else:
            raise ValueError(f"bad right {ch!r} in {text!r}")
    return Rights(frozenset(flags), frozenset(reserve))


def format_rights(rights: Rights) -> str:
    """Serialize rights in canonical order, e.g. ``rwlv(rwla)``."""
    order = "rwlda"
    out = "".join(c for c in order if c in rights.flags)
    if "v" in rights.flags:
        out += "v(" + "".join(c for c in order if c in rights.reserve) + ")"
    return out or "n"  # "n" = explicit no-rights marker


@dataclass(frozen=True)
class AclEntry:
    """One line of an ACL: a subject pattern and its rights."""

    pattern: str
    rights: Rights

    def matches(self, subject: str) -> bool:
        return subject_matches(self.pattern, subject)

    def to_line(self) -> str:
        return f"{self.pattern} {format_rights(self.rights)}"

    @classmethod
    def from_line(cls, line: str) -> "AclEntry":
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"malformed ACL line {line!r}")
        pattern, rights_text = parts
        if "*" not in pattern and "?" not in pattern and "[" not in pattern:
            validate_subject(pattern)
        elif ":" not in pattern and pattern != "*":
            raise ValueError(f"ACL pattern {pattern!r} lacks a method prefix")
        rights = parse_rights(rights_text) if rights_text != "n" else Rights()
        return cls(pattern, rights)


@dataclass
class Acl:
    """An ordered access control list.

    The union rule means order does not affect the outcome of permission
    checks, but order is preserved for human readability and round-trips.
    """

    entries: list[AclEntry] = field(default_factory=list)

    # -- construction --------------------------------------------------

    @classmethod
    def from_text(cls, text: str) -> "Acl":
        entries = []
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            entries.append(AclEntry.from_line(line))
        return cls(entries)

    @classmethod
    def owner_default(cls, owner_subject: str) -> "Acl":
        """The ACL a fresh server root gets: owner has every right."""
        return cls([AclEntry(owner_subject, parse_rights("rwldav(rwlda)"))])

    def to_text(self) -> str:
        return "".join(e.to_line() + "\n" for e in self.entries)

    # -- queries -------------------------------------------------------

    def rights_for(self, subject: str) -> Rights:
        """Union of rights over all entries matching ``subject``."""
        out = Rights()
        for entry in self.entries:
            if entry.matches(subject):
                out = out.union(entry.rights)
        return out

    def check(self, subject: str, right: str) -> bool:
        """Does ``subject`` hold ``right`` (one of ``rwldav``)?"""
        if right not in ALL_RIGHTS:
            raise ValueError(f"unknown right {right!r}")
        return right in self.rights_for(subject).flags

    def reserve_rights_for(self, subject: str) -> frozenset[str]:
        """The rights a reserved mkdir grants this subject (union rule)."""
        return self.rights_for(subject).reserve

    def __iter__(self) -> Iterator[AclEntry]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    # -- mutation ------------------------------------------------------

    def set_entry(self, pattern: str, rights: Rights | str) -> None:
        """Add or replace the entry for ``pattern``.

        Setting empty rights removes the entry entirely (matching the
        behaviour of the real chirp ``setacl ... none``).
        """
        if isinstance(rights, str):
            rights = parse_rights(rights)
        self.entries = [e for e in self.entries if e.pattern != pattern]
        if rights.flags:
            self.entries.append(AclEntry(pattern, rights))

    def reserved_for(self, subject: str) -> "Acl":
        """Build the ACL of a directory created under the reserve right.

        Per the paper: "the newly-created directory is initialized with an
        ACL giving only the calling user the rights specified in the parent
        directory" -- i.e. the parenthesized group, which may deliberately
        omit ``a`` to stop the visitor extending access to others.
        """
        granted = self.reserve_rights_for(subject)
        return Acl([AclEntry(subject, Rights(frozenset(granted)))] if granted else [])
