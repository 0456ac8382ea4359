"""Unit tests for ACLs: rights parsing, the union rule, the reserve right."""

import pytest

from repro.auth.acl import (
    ACL_FILE_NAME,
    Acl,
    AclEntry,
    Rights,
    format_rights,
    parse_rights,
)
from repro.store.localdir import LocalDirStore


class TestRightsParsing:
    @pytest.mark.parametrize("text", ["r", "rwl", "rwld", "rwlda", "d"])
    def test_simple_rights(self, text):
        rights = parse_rights(text)
        assert rights.flags == frozenset(text)

    def test_reserve_with_group(self):
        rights = parse_rights("v(rwla)")
        assert "v" in rights.flags
        assert rights.reserve == frozenset("rwla")

    def test_mixed_rights_and_reserve(self):
        rights = parse_rights("rlv(rwl)")
        assert rights.flags == frozenset("rlv")
        assert rights.reserve == frozenset("rwl")

    def test_empty_reserve_group(self):
        rights = parse_rights("v()")
        assert "v" in rights.flags
        assert rights.reserve == frozenset()

    def test_unclosed_group_rejected(self):
        with pytest.raises(ValueError):
            parse_rights("v(rwl")

    def test_nested_v_in_group_rejected(self):
        with pytest.raises(ValueError):
            parse_rights("v(rv)")

    def test_unknown_letter_rejected(self):
        with pytest.raises(ValueError):
            parse_rights("rqx")

    def test_aliases(self):
        assert parse_rights("read").flags == frozenset("r")
        assert parse_rights("full").flags == frozenset("rwldav")
        assert parse_rights("none").flags == frozenset()

    def test_format_roundtrip(self):
        for text in ["r", "rwl", "rwlda", "v(rwla)", "rwv(rl)", "rwldav(rwlda)"]:
            rights = parse_rights(text)
            assert parse_rights(format_rights(rights)) == rights

    def test_format_canonical_order(self):
        assert format_rights(parse_rights("lwr")) == "rwl"

    def test_no_rights_formats_as_n(self):
        assert format_rights(Rights()) == "n"


class TestRightsObject:
    def test_union(self):
        a = parse_rights("rl")
        b = parse_rights("wv(d)")
        u = a.union(b)
        assert u.flags == frozenset("rlwv")
        assert u.reserve == frozenset("d")

    def test_reserve_without_v_rejected(self):
        with pytest.raises(ValueError):
            Rights(frozenset("r"), frozenset("w"))

    def test_bool(self):
        assert parse_rights("r")
        assert not Rights()


class TestAclEntry:
    def test_line_roundtrip(self):
        entry = AclEntry("hostname:*.cse.nd.edu", parse_rights("rwl"))
        assert AclEntry.from_line(entry.to_line()) == entry

    def test_paper_example_lines(self):
        # The exact ACL printed in section 4 of the paper.
        acl = Acl.from_text(
            "hostname:*.cse.nd.edu v(rwl)\n" "globus:/O=Notre_Dame/* v(rwla)\n"
        )
        assert len(acl) == 2
        assert acl.reserve_rights_for("hostname:pc.cse.nd.edu") == frozenset("rwl")
        assert acl.reserve_rights_for("globus:/O=Notre_Dame/CN=x") == frozenset("rwla")

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError):
            AclEntry.from_line("too many parts here")

    def test_pattern_without_method_rejected(self):
        with pytest.raises(ValueError):
            AclEntry.from_line("justaname rwl")


class TestAclSemantics:
    def test_union_across_matching_entries(self):
        acl = Acl.from_text("unix:alice rl\nunix:* w\n")
        rights = acl.rights_for("unix:alice")
        assert rights.flags == frozenset("rlw")

    def test_non_matching_subject_gets_nothing(self):
        acl = Acl.from_text("unix:alice rwl\n")
        assert not acl.rights_for("unix:bob")

    def test_check(self):
        acl = Acl.from_text("unix:alice rwl\n")
        assert acl.check("unix:alice", "r")
        assert not acl.check("unix:alice", "a")

    def test_check_unknown_right_rejected(self):
        acl = Acl()
        with pytest.raises(ValueError):
            acl.check("unix:alice", "z")

    def test_owner_default_has_everything(self):
        acl = Acl.owner_default("unix:owner")
        rights = acl.rights_for("unix:owner")
        assert rights.flags == frozenset("rwldav")
        assert rights.reserve == frozenset("rwlda")

    def test_set_entry_replaces(self):
        acl = Acl.from_text("unix:alice rwl\n")
        acl.set_entry("unix:alice", "r")
        assert acl.rights_for("unix:alice").flags == frozenset("r")
        assert len(acl) == 1

    def test_set_entry_empty_removes(self):
        acl = Acl.from_text("unix:alice rwl\n")
        acl.set_entry("unix:alice", "")
        assert len(acl) == 0

    def test_comments_and_blanks_ignored(self):
        acl = Acl.from_text("# comment\n\nunix:alice r\n")
        assert len(acl) == 1


class TestReserveSemantics:
    def test_reserved_for_grants_only_the_group(self):
        """The paper's worked example: mkdir under v(rwl) yields an ACL
        granting the caller rwl -- and critically not 'a', so the visitor
        cannot extend access to others."""
        parent = Acl.from_text("hostname:*.cse.nd.edu v(rwl)\n")
        child = parent.reserved_for("hostname:laptop.cse.nd.edu")
        assert len(child) == 1
        rights = child.rights_for("hostname:laptop.cse.nd.edu")
        assert rights.flags == frozenset("rwl")
        assert not child.check("hostname:laptop.cse.nd.edu", "a")
        assert not child.check("hostname:other.cse.nd.edu", "r")

    def test_reserved_for_with_admin_group(self):
        parent = Acl.from_text("globus:/O=ND/* v(rwla)\n")
        child = parent.reserved_for("globus:/O=ND/CN=alice")
        assert child.check("globus:/O=ND/CN=alice", "a")

    def test_reserved_for_unmatched_subject_is_empty(self):
        parent = Acl.from_text("unix:alice v(rwl)\n")
        assert len(parent.reserved_for("unix:bob")) == 0


class TestAclStorage:
    """ACLs persist as plain blobs in the directory they govern, written
    through the store's atomic ``write_blob`` (as the backend does)."""

    VPATH = "/" + ACL_FILE_NAME

    def load(self, store):
        data = store.try_read_blob(self.VPATH)
        return None if data is None else Acl.from_text(data.decode("utf-8"))

    def store(self, store, acl):
        store.write_blob(self.VPATH, acl.to_text().encode("utf-8"))

    def test_store_and_load(self, tmp_path):
        store = LocalDirStore(str(tmp_path))
        acl = Acl.from_text("unix:alice rwl\nunix:bob rv(rl)\n")
        self.store(store, acl)
        loaded = self.load(store)
        assert loaded is not None
        assert loaded.to_text() == acl.to_text()
        assert (tmp_path / ACL_FILE_NAME).read_text() == acl.to_text()

    def test_load_missing_returns_none(self, tmp_path):
        assert self.load(LocalDirStore(str(tmp_path))) is None

    def test_store_is_atomic_replace(self, tmp_path):
        store = LocalDirStore(str(tmp_path))
        self.store(store, Acl.from_text("unix:a r\n"))
        self.store(store, Acl.from_text("unix:b w\n"))
        loaded = self.load(store)
        assert loaded.rights_for("unix:b").flags == frozenset("w")
        assert not loaded.rights_for("unix:a")
        assert sorted(p.name for p in tmp_path.iterdir()) == [ACL_FILE_NAME]
