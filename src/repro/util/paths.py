"""Software "chroot": confining request paths inside an exported root.

The paper notes that a real ``chroot`` needs root privilege, so the Chirp
server "provides an equivalent facility in software."  This module is that
facility.  Every path arriving over the wire is a *virtual* absolute path
(``/a/b/c``) interpreted relative to the server's root directory.  We
normalize on the virtual side first -- ``..`` components can never climb
above the virtual root because normalization happens before the root is
joined -- and then optionally verify that symlinks inside the tree do not
point outside it.
"""

from __future__ import annotations

import os
import posixpath
from stat import S_ISDIR, S_ISLNK

__all__ = [
    "PathEscapeError",
    "Resolved",
    "confine",
    "normalize_virtual",
    "resolve",
    "split_virtual",
]


class PathEscapeError(Exception):
    """A request path attempted to escape the exported root."""


def normalize_virtual(path: str) -> str:
    """Normalize a virtual path to a canonical absolute form.

    ``""`` and ``"/"`` both mean the root.  ``..`` components are resolved
    purely lexically and clamp at the root, exactly like a real chroot.
    Backslashes are rejected rather than interpreted (the wire protocol is
    POSIX-only).
    """
    if "\\" in path:
        raise PathEscapeError(f"backslash in path: {path!r}")
    if "\x00" in path:
        raise PathEscapeError(f"NUL byte in path: {path!r}")
    if not path.startswith("/"):
        path = "/" + path
    norm = posixpath.normpath(path)
    # normpath("/../x") == "/x": '..' at the root clamps, as desired.
    # POSIX lets normpath preserve a leading "//"; collapse it -- the
    # virtual namespace has no implementation-defined roots.
    if norm.startswith("//"):
        norm = "/" + norm.lstrip("/")
    return norm


def split_virtual(path: str) -> tuple[str, str]:
    """Split a virtual path into (parent directory, basename)."""
    norm = normalize_virtual(path)
    if norm == "/":
        return "/", ""
    parent, base = posixpath.split(norm)
    return (parent or "/", base)


class Resolved(str):
    """A normal virtual path, confined, with what its one walk saw.

    The string is the normal virtual path, so a ``Resolved`` goes
    wherever a path does.  The attributes are the walk's:

    - ``root``: the real root it was confined under;
    - ``real``: the real path, guaranteed to lie under ``root``;
    - ``st``: the leaf's ``lstat``, None when the leaf does not exist.

    It describes the moment of its walk: use it for one request, never
    keep it.
    """

    def stat(self) -> os.stat_result:
        """The leaf's ``stat`` (a symlink followed); ``OSError`` when absent."""
        st = self.st
        if st is None or S_ISLNK(st.st_mode):
            return os.stat(self.real)
        return st

    def lstat(self) -> os.stat_result:
        """The leaf's ``lstat``; ``OSError`` when absent."""
        return os.lstat(self.real) if self.st is None else self.st

    def same_entry(self, other: "Resolved") -> bool:
        """Whether both walks ended on one existing inode (the same
        name, or two hard links to one file)."""
        return (
            self.st is not None
            and other.st is not None
            and os.path.samestat(self.st, other.st)
        )

    def isdir(self) -> bool:
        """Whether the leaf is a directory (a symlink followed)."""
        st = self.st
        if st is None:
            return False
        if S_ISLNK(st.st_mode):
            return os.path.isdir(self.real)
        return S_ISDIR(st.st_mode)


def resolve(root: str, virtual_path: str) -> Resolved:
    """Normalize ``virtual_path`` and confine it under ``root`` in one walk.

    The walk takes one ``lstat`` per component below the root.  Without
    a symlink on the way, the lexically normalised path *is* the
    resolved one and the last ``lstat`` describes the leaf; a missing
    component ends the walk, since nothing below it can exist.  A
    symlink sends the path through :func:`_resolve_links`, which
    resolves it and checks that it stays under ``root``.

    A ``virtual_path`` that is already a ``Resolved`` under ``root`` is
    returned as it is: its walk is not repeated.

    :param root: real filesystem directory exported by the server, already
        resolved (``os.path.realpath``): it is not resolved again here.
    :raises PathEscapeError: on any escape attempt.
    """
    if isinstance(virtual_path, Resolved) and virtual_path.root == root:
        return virtual_path
    norm = normalize_virtual(virtual_path)
    res = Resolved(norm)
    res.root = root
    res.real = os.path.join(root, norm.lstrip("/"))
    res.st = None
    path = root.rstrip("/")
    for name in norm[1:].split("/"):
        # The name is empty only when the path is the root itself.
        path = path + "/" + name if name else root
        try:
            st = os.lstat(path)
        except OSError:
            return res
        if S_ISLNK(st.st_mode):
            res.real, res.st = _resolve_links(root, virtual_path, res.real)
            return res
    res.st = st
    return res


def confine(root: str, virtual_path: str, *, check_symlinks: bool = True) -> str:
    """Map a virtual path to a real path guaranteed to lie under ``root``.

    :param root: real filesystem directory exported by the server, already
        resolved (``os.path.realpath``): it is not resolved again here.
    :param virtual_path: client-supplied path, interpreted as absolute
        within the export.
    :param check_symlinks: when true, verify that resolving symlinks does
        not land outside ``root``.  The final component is allowed to be a
        dangling symlink (so ``unlink`` of a broken link works), but it is
        still checked when it resolves.
    :raises PathEscapeError: on any escape attempt.
    """
    if not check_symlinks:
        return os.path.join(root, normalize_virtual(virtual_path).lstrip("/"))
    return resolve(root, virtual_path).real


def _resolve_links(
    root_real: str, virtual_path: str, candidate: str
) -> tuple[str, os.stat_result | None]:
    """The real path and leaf ``lstat`` of a path with a symlink on it,
    checked to stay under ``root_real``."""
    # Resolve the parent fully; the leaf may not exist yet (create paths).
    parent = os.path.dirname(candidate)
    parent_real = os.path.realpath(parent)
    if parent_real != root_real and not parent_real.startswith(root_real + os.sep):
        raise PathEscapeError(f"path {virtual_path!r} escapes export root")
    resolved_leaf = os.path.join(parent_real, os.path.basename(candidate))
    try:
        st = os.lstat(resolved_leaf)
    except OSError:
        return resolved_leaf, None
    # If the leaf itself is a symlink, make sure its target stays inside.
    if S_ISLNK(st.st_mode):
        target_real = os.path.realpath(resolved_leaf)
        if target_real != root_real and not target_real.startswith(root_real + os.sep):
            raise PathEscapeError(
                f"symlink at {virtual_path!r} points outside export root"
            )
    return resolved_leaf, st
