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
import stat

__all__ = ["PathEscapeError", "normalize_virtual", "confine", "split_virtual"]


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
    norm = normalize_virtual(virtual_path)
    candidate = os.path.join(root, norm.lstrip("/"))
    if not check_symlinks:
        return candidate
    # One lstat per component below the root.  Without a symlink on the
    # way, the lexically normalised candidate *is* the resolved path; a
    # missing component ends the walk, since nothing below it can exist.
    path = root.rstrip("/")
    for name in norm[1:].split("/"):
        path = path + "/" + name
        try:
            mode = os.lstat(path).st_mode
        except OSError:
            return candidate
        if stat.S_ISLNK(mode):
            return _confine_resolved(root, virtual_path, candidate)
    return candidate


def _confine_resolved(root_real: str, virtual_path: str, candidate: str) -> str:
    """``confine`` for a path with a symlink on it: resolve and check."""
    # Resolve the parent fully; the leaf may not exist yet (create paths).
    parent = os.path.dirname(candidate)
    parent_real = os.path.realpath(parent)
    if parent_real != root_real and not parent_real.startswith(root_real + os.sep):
        raise PathEscapeError(f"path {virtual_path!r} escapes export root")
    resolved_leaf = os.path.join(parent_real, os.path.basename(candidate))
    # If the leaf itself is a symlink, make sure its target stays inside.
    if os.path.islink(resolved_leaf):
        target_real = os.path.realpath(resolved_leaf)
        if target_real != root_real and not target_real.startswith(root_real + os.sep):
            raise PathEscapeError(
                f"symlink at {virtual_path!r} points outside export root"
            )
    return resolved_leaf
