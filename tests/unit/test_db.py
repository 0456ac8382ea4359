"""Unit tests for the metadata database engine and query language."""

import errno
import json
import os

import pytest

from repro.db.engine import MetadataDB
from repro.db.query import Condition, Query


class TestQueryLanguage:
    def test_equality(self):
        q = Query.where(kind="traj", run=5)
        assert q.matches({"kind": "traj", "run": 5, "extra": 1})
        assert not q.matches({"kind": "traj", "run": 6})

    def test_empty_query_matches_everything(self):
        assert Query().matches({"anything": 1})

    @pytest.mark.parametrize(
        "op,value,good,bad",
        [
            ("ne", 5, {"x": 6}, {"x": 5}),
            ("lt", 5, {"x": 4}, {"x": 5}),
            ("le", 5, {"x": 5}, {"x": 6}),
            ("gt", 5, {"x": 6}, {"x": 5}),
            ("ge", 5, {"x": 5}, {"x": 4}),
            ("contains", "bc", {"x": "abcd"}, {"x": "xyz"}),
            ("glob", "run*/t.dcd", {"x": "run5/t.dcd"}, {"x": "other"}),
        ],
    )
    def test_operators(self, op, value, good, bad):
        q = Query((Condition("x", op, value),))
        assert q.matches(good)
        assert not q.matches(bad)

    def test_exists(self):
        q = Query((Condition("x", "exists"),))
        assert q.matches({"x": 1})
        assert not q.matches({"y": 1})

    def test_missing_field_fails_comparison(self):
        q = Query((Condition("x", "lt", 5),))
        assert not q.matches({})

    def test_type_mismatch_is_false_not_error(self):
        q = Query((Condition("x", "lt", 5),))
        assert not q.matches({"x": "string"})

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            Condition("x", "regex", ".*")

    def test_json_roundtrip(self):
        q = Query.where(a=1).and_("b", "glob", "x*")
        assert Query.from_json_obj(q.to_json_obj()) == q

    def test_and_chaining(self):
        q = Query.where(kind="traj").and_("size", "gt", 100)
        assert q.matches({"kind": "traj", "size": 200})
        assert not q.matches({"kind": "traj", "size": 50})


class TestEngineInMemory:
    def test_insert_get(self):
        db = MetadataDB(None)
        rid = db.insert({"name": "a"})
        assert db.get(rid)["name"] == "a"

    def test_insert_assigns_unique_ids(self):
        db = MetadataDB(None)
        ids = {db.insert({"n": i}) for i in range(100)}
        assert len(ids) == 100

    def test_explicit_id_respected(self):
        db = MetadataDB(None)
        assert db.insert({"id": "custom", "x": 1}) == "custom"
        assert db.get("custom")["x"] == 1

    def test_bad_id_rejected(self):
        db = MetadataDB(None)
        with pytest.raises(ValueError):
            db.insert({"id": 42})

    def test_update_merges(self):
        db = MetadataDB(None)
        rid = db.insert({"a": 1, "b": 2})
        db.update(rid, {"b": 3, "c": 4})
        assert db.get(rid) == {"id": rid, "a": 1, "b": 3, "c": 4}

    def test_update_missing_raises(self):
        db = MetadataDB(None)
        with pytest.raises(KeyError):
            db.update("nope", {})

    def test_delete(self):
        db = MetadataDB(None)
        rid = db.insert({"a": 1})
        assert db.delete(rid)
        assert db.get(rid) is None
        assert not db.delete(rid)

    def test_query_and_count(self):
        db = MetadataDB(None)
        for i in range(10):
            db.insert({"kind": "even" if i % 2 == 0 else "odd", "i": i})
        evens = db.query(Query.where(kind="even"))
        assert sorted(r["i"] for r in evens) == [0, 2, 4, 6, 8]
        assert db.count(Query.where(kind="odd")) == 5

    def test_query_limit(self):
        db = MetadataDB(None)
        for i in range(10):
            db.insert({"k": 1})
        assert len(db.query(Query.where(k=1), limit=3)) == 3

    def test_returned_records_are_copies(self):
        db = MetadataDB(None)
        rid = db.insert({"a": 1})
        rec = db.get(rid)
        rec["a"] = 999
        assert db.get(rid)["a"] == 1

    def test_len(self):
        db = MetadataDB(None)
        db.insert({})
        db.insert({})
        assert len(db) == 2


class TestIndexes:
    def test_indexed_query_equals_scan(self):
        indexed = MetadataDB(None, indexes=("kind",))
        plain = MetadataDB(None)
        rows = [{"id": f"r{i}", "kind": f"k{i % 3}", "i": i} for i in range(30)]
        for row in rows:
            indexed.insert(row)
            plain.insert(row)
        q = Query.where(kind="k1")
        assert sorted(r["id"] for r in indexed.query(q)) == sorted(
            r["id"] for r in plain.query(q)
        )

    def test_index_updated_on_update(self):
        db = MetadataDB(None, indexes=("state",))
        rid = db.insert({"state": "ok"})
        db.update(rid, {"state": "bad"})
        assert db.count(Query.where(state="ok")) == 0
        assert db.count(Query.where(state="bad")) == 1

    def test_index_updated_on_delete(self):
        db = MetadataDB(None, indexes=("state",))
        rid = db.insert({"state": "ok"})
        db.delete(rid)
        assert db.count(Query.where(state="ok")) == 0

    def test_id_shortcut(self):
        db = MetadataDB(None)
        rid = db.insert({"x": 1})
        assert db.query(Query.where(id=rid))[0]["x"] == 1
        assert db.query(Query.where(id="missing")) == []

    def test_unindexable_value_still_queryable(self):
        db = MetadataDB(None, indexes=("tags",))
        db.insert({"tags": ["a", "b"]})  # lists are not indexed
        q = Query((Condition("tags", "contains", "a"),))
        assert db.count(q) == 1


class TestDurability:
    def test_reopen_preserves_records(self, tmp_path):
        path = str(tmp_path / "db")
        with MetadataDB(path) as db:
            rid = db.insert({"name": "persist"})
            db.insert({"name": "other"})
            db.delete(db.insert({"name": "temp"}))
        with MetadataDB(path) as db2:
            assert len(db2) == 2
            assert db2.get(rid)["name"] == "persist"

    def test_update_survives_reopen(self, tmp_path):
        path = str(tmp_path / "db")
        with MetadataDB(path) as db:
            rid = db.insert({"v": 1})
            db.update(rid, {"v": 2})
        with MetadataDB(path) as db2:
            assert db2.get(rid)["v"] == 2

    def test_torn_final_line_is_ignored(self, tmp_path):
        path = str(tmp_path / "db")
        with MetadataDB(path) as db:
            rid = db.insert({"ok": True})
        with open(os.path.join(path, "db.log"), "a") as f:
            f.write('["put", {"id": "torn", "par')  # crash mid-write
        with MetadataDB(path) as db2:
            assert db2.get(rid) is not None
            assert db2.get("torn") is None
            # Acked after the torn reopen: must not land on the fragment.
            db2.insert({"id": "c"})
        with MetadataDB(path) as db3:
            assert db3.get(rid) is not None
            assert db3.get("c") is not None
            assert db3.get("torn") is None

    @pytest.mark.parametrize("op", ["insert", "update", "delete"])
    def test_failed_append_leaves_nothing_behind(self, tmp_path, monkeypatch, op):
        path = str(tmp_path / "db")
        real_fsync = os.fsync
        failures = [OSError(errno.ENOSPC, "No space left on device")]

        def fsync_fails_once(fd):
            if failures:
                raise failures.pop()
            real_fsync(fd)

        with MetadataDB(path, indexes=("k",)) as db:
            db.insert({"id": "x", "k": "old"})
            monkeypatch.setattr(os, "fsync", fsync_fails_once)
            with pytest.raises(OSError):
                if op == "insert":
                    db.insert({"id": "y", "k": "new"})
                elif op == "update":
                    db.update("x", {"k": "new"})
                else:
                    db.delete("x")
            # Nothing of the failed mutation is visible ...
            assert db.get("x") == {"id": "x", "k": "old"}
            assert db.get("y") is None
            assert db.query(Query.where(k="new")) == []
            # ... and the next one is durable, not written onto a fragment.
            db.insert({"id": "z"})
        with MetadataDB(path, indexes=("k",)) as db2:
            assert db2.get("x") == {"id": "x", "k": "old"}
            assert db2.get("y") is None
            assert db2.get("z") == {"id": "z"}

    def test_compaction_preserves_state(self, tmp_path):
        path = str(tmp_path / "db")
        with MetadataDB(path, indexes=("k",)) as db:
            rid = db.insert({"k": "keep"})
            for _ in range(3000):  # churn to trigger compaction
                tmp = db.insert({"k": "churn"})
                db.delete(tmp)
            log_size = os.path.getsize(os.path.join(path, "db.log"))
            # compaction must have collapsed ~6000 ops to ~1 record
            assert log_size < 100_000
        with MetadataDB(path, indexes=("k",)) as db2:
            assert db2.get(rid)["k"] == "keep"
            assert len(db2) == 1

    def test_log_is_json_lines(self, tmp_path):
        path = str(tmp_path / "db")
        with MetadataDB(path) as db:
            db.insert({"a": 1})
        with open(os.path.join(path, "db.log")) as f:
            for line in f:
                op, payload = json.loads(line)
                assert op in ("put", "del")
