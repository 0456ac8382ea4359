"""Property tests: the software chroot never lets a path escape."""

import os
import tempfile

from hypothesis import given, assume, settings
from hypothesis import strategies as st

from repro.util.paths import PathEscapeError, confine, normalize_virtual

# Path-ish strings: realistic component names plus traversal attacks.
component = st.one_of(
    st.sampled_from(["..", ".", "etc", "passwd", "f.txt", "", "..."]),
    st.text(
        alphabet=st.characters(
            whitelist_categories=("Ll", "Lu", "Nd"), max_codepoint=0x7F
        ),
        min_size=1,
        max_size=12,
    ),
)

path_strings = st.lists(component, min_size=0, max_size=8).map(
    lambda parts: "/" + "/".join(parts)
)

nasty_strings = st.text(
    alphabet=st.characters(blacklist_characters="\\\x00", codec="utf-8"),
    min_size=0,
    max_size=64,
)


class TestNormalizeVirtual:
    @given(path_strings)
    def test_always_absolute_and_normal(self, path):
        norm = normalize_virtual(path)
        assert norm.startswith("/")
        assert ".." not in norm.split("/")
        assert "//" not in norm or norm == "/"

    @given(path_strings)
    def test_idempotent(self, path):
        norm = normalize_virtual(path)
        assert normalize_virtual(norm) == norm

    @given(nasty_strings)
    def test_arbitrary_text_is_normalized_or_rejected(self, text):
        try:
            norm = normalize_virtual(text)
        except PathEscapeError:
            return
        assert norm.startswith("/")
        assert ".." not in norm.split("/")


class TestConfine:
    @given(path_strings)
    def test_result_stays_under_root(self, path):
        root = os.path.realpath("/tmp")
        real = confine(root, path, check_symlinks=False)
        assert real == root or real.startswith(root + os.sep)

    @given(nasty_strings)
    def test_arbitrary_text_confined_or_rejected(self, text):
        root = os.path.realpath("/tmp")
        try:
            real = confine(root, text, check_symlinks=False)
        except PathEscapeError:
            return
        assert real == root or real.startswith(root + os.sep)


def reference_confine(root: str, virtual_path: str) -> str:
    """The oracle: ``confine`` as three ``realpath`` walks (root, parent, leaf)."""
    norm = normalize_virtual(virtual_path)
    root_real = os.path.realpath(root)
    candidate = os.path.join(root_real, norm.lstrip("/"))
    parent_real = os.path.realpath(os.path.dirname(candidate))
    if parent_real != root_real and not parent_real.startswith(root_real + os.sep):
        raise PathEscapeError(f"path {virtual_path!r} escapes export root")
    resolved_leaf = os.path.join(parent_real, os.path.basename(candidate))
    if os.path.islink(resolved_leaf):
        target_real = os.path.realpath(resolved_leaf)
        if target_real != root_real and not target_real.startswith(root_real + os.sep):
            raise PathEscapeError(f"symlink at {virtual_path!r} points outside export root")
    return resolved_leaf


NAMES = ("a", "b", "c")
# Where a symlink may point: inside the root (absolute or relative),
# outside it, nowhere, or at itself.
LINK_TARGETS = (
    "{root}", "{root}/a", "{root}/a/b", "{root}/missing",
    "a", "b/c", ".", "..", "../..", "../outside", "missing",
    "{outside}", "{outside}/f", "{outside}/missing", "/", "{self}",
)

nodes = st.tuples(
    st.lists(st.sampled_from(NAMES), min_size=1, max_size=3),
    st.sampled_from(("dir", "file", "link")),
    st.sampled_from(LINK_TARGETS),
)
symlink_paths = st.lists(st.sampled_from(NAMES + ("f", ".", "..")), max_size=5).map(
    lambda parts: "/" + "/".join(parts)
)


def _build_tree(root: str, outside: str, tree) -> None:
    """Create the nodes that fit, never writing through a symlink."""
    for parts, kind, target in sorted(tree, key=lambda node: len(node[0])):
        path = os.path.join(root, *parts)
        parent = os.path.dirname(path)
        if os.path.lexists(path) or os.path.realpath(parent) != parent or not os.path.isdir(parent):
            continue
        if kind == "dir":
            os.mkdir(path)
        elif kind == "file":
            with open(path, "w") as fh:
                fh.write("x")
        else:
            os.symlink(target.format(root=root, outside=outside, self=path), path)


def _outcome(fn, root: str, path: str):
    try:
        return fn(root, path)
    except PathEscapeError:
        return PathEscapeError


class TestConfineSymlinks:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(nodes, max_size=8), st.lists(symlink_paths, min_size=1, max_size=6))
    def test_matches_realpath_oracle(self, tree, paths):
        with tempfile.TemporaryDirectory() as base:
            base = os.path.realpath(base)
            root, outside = os.path.join(base, "root"), os.path.join(base, "outside")
            os.mkdir(root)
            os.mkdir(outside)
            with open(os.path.join(outside, "f"), "w") as fh:
                fh.write("secret")
            _build_tree(root, outside, tree)
            for path in paths:
                assert _outcome(confine, root, path) == _outcome(reference_confine, root, path), path
