"""Integration tests: the metadata database over TCP."""

import pytest

from repro.auth.methods import AuthContext, ClientCredentials
from repro.db.client import DatabaseClient
from repro.db.engine import MetadataDB
from repro.db.query import Query
from repro.db.server import DatabaseConfig, DatabaseServer
from repro.util import errors as E


@pytest.fixture()
def db_server(tmp_path, auth_context):
    db = MetadataDB(str(tmp_path / "db"), indexes=("kind",))
    config = DatabaseConfig(auth=auth_context)
    with DatabaseServer(db, config) as server:
        yield server


@pytest.fixture()
def db_client(db_server, credentials):
    c = DatabaseClient(*db_server.address, credentials=credentials)
    yield c
    c.close()


class TestRemoteOperations:
    def test_insert_get(self, db_client):
        rid = db_client.insert({"kind": "traj", "run": 5})
        assert db_client.get(rid)["run"] == 5

    def test_get_missing_returns_none(self, db_client):
        assert db_client.get("nope") is None

    def test_update(self, db_client):
        rid = db_client.insert({"v": 1})
        rec = db_client.update(rid, {"v": 2})
        assert rec["v"] == 2

    def test_update_missing_raises(self, db_client):
        with pytest.raises(E.DoesNotExistError):
            db_client.update("nope", {"v": 1})

    def test_delete(self, db_client):
        rid = db_client.insert({})
        assert db_client.delete(rid) is True
        assert db_client.delete(rid) is False

    def test_query_and_count(self, db_client):
        for i in range(6):
            db_client.insert({"kind": "a" if i < 4 else "b", "i": i})
        assert db_client.count(Query.where(kind="a")) == 4
        hits = db_client.query(Query.where(kind="b"))
        assert sorted(r["i"] for r in hits) == [4, 5]

    def test_query_limit(self, db_client):
        for i in range(10):
            db_client.insert({"kind": "x"})
        assert len(db_client.query(Query.where(kind="x"), limit=3)) == 3

    def test_rich_query_over_wire(self, db_client):
        db_client.insert({"name": "run5/t.dcd", "size": 100})
        db_client.insert({"name": "run6/t.dcd", "size": 900})
        from repro.db.query import Condition

        q = Query((Condition("name", "glob", "run5/*"),))
        q = Query.from_json_obj(q.to_json_obj())  # exercise serialization
        assert len(db_client.query(q)) == 1

    def test_durability_across_server_restart(self, tmp_path, auth_context, credentials):
        path = str(tmp_path / "db")
        db = MetadataDB(path)
        with DatabaseServer(db, DatabaseConfig(auth=auth_context)) as server:
            c = DatabaseClient(*server.address, credentials=credentials)
            rid = c.insert({"survives": True})
            c.close()
        db.close()
        db2 = MetadataDB(path)
        with DatabaseServer(db2, DatabaseConfig(auth=auth_context)) as server2:
            c2 = DatabaseClient(*server2.address, credentials=credentials)
            assert c2.get(rid)["survives"] is True
            c2.close()
        db2.close()

    def test_same_client_recovers_after_server_restart(
        self, tmp_path, auth_context, credentials
    ):
        path = str(tmp_path / "db")
        db = MetadataDB(path)
        server = DatabaseServer(db, DatabaseConfig(auth=auth_context)).start()
        host, port = server.address
        c = DatabaseClient(host, port, credentials=credentials, timeout=5.0)
        try:
            rid = c.insert({"survives": True})
            server.stop()
            db.close()
            db2 = MetadataDB(path)
            config = DatabaseConfig(host=host, port=port, auth=auth_context)
            with DatabaseServer(db2, config):
                try:
                    c.get(rid)  # may still meet the dead connection
                except E.DisconnectedError:
                    pass
                assert c.get(rid)["survives"] is True
            db2.close()
        finally:
            c.close()


class TestAccessControl:
    def test_writer_allowlist(self, tmp_path, auth_context, credentials):
        """The paper's GEMS sharing model: group writes, world reads."""
        db = MetadataDB(None)
        config = DatabaseConfig(auth=auth_context, writers=("unix:pi-*",))
        with DatabaseServer(db, config) as server:
            c = DatabaseClient(*server.address, credentials=credentials)
            # our unix subject does not match unix:pi-*
            with pytest.raises(E.NotAuthorizedError):
                c.insert({"x": 1})
            # reads still fine
            assert c.query(Query()) == []
            c.close()

    def test_matching_writer_allowed(self, tmp_path, auth_context, credentials):
        import getpass

        db = MetadataDB(None)
        config = DatabaseConfig(
            auth=auth_context, writers=(f"unix:{getpass.getuser()}",)
        )
        with DatabaseServer(db, config) as server:
            c = DatabaseClient(*server.address, credentials=credentials)
            rid = c.insert({"x": 1})
            assert c.get(rid)["x"] == 1
            c.close()

    def test_reader_allowlist(self, tmp_path, auth_context, credentials):
        db = MetadataDB(None)
        config = DatabaseConfig(auth=auth_context, readers=("globus:/O=ND/*",))
        with DatabaseServer(db, config) as server:
            c = DatabaseClient(*server.address, credentials=credentials)
            with pytest.raises(E.NotAuthorizedError):
                c.query(Query())
            c.close()

    def test_malformed_command_rejected_not_fatal(self, db_client):
        stream = db_client._stream
        stream.write_line("dbcmd", "{not valid json")
        reply = stream.read_tokens()
        assert int(reply[0]) == int(E.StatusCode.INVALID_REQUEST)
        assert db_client.get("x") is None  # connection survives


class TestLargeReplies:
    """Replies longer than the wire's line limit arrive as a framed payload."""

    @pytest.fixture()
    def big_server(self, auth_context):
        db = MetadataDB(None)
        for i in range(2000):
            db.insert({"tss_kind": "file", "name": f"run{i:04d}/traj.dcd", "size": i})
        with DatabaseServer(db, DatabaseConfig(auth=auth_context)) as server:
            yield server

    def test_query_over_2000_records(self, big_server, credentials):
        c = DatabaseClient(*big_server.address, credentials=credentials)
        try:
            hits = c.query(Query.where(tss_kind="file"))
            assert sorted(r["size"] for r in hits) == list(range(2000))
            assert c.count(Query()) == 2000  # the connection is still in sync
        finally:
            c.close()

    def test_dsdb_scan_records_against_live_server(self, big_server, credentials, pool):
        from repro.core.dsdb import DSDB

        c = DatabaseClient(*big_server.address, credentials=credentials)
        try:
            dsdb = DSDB(c, pool, [("127.0.0.1", 1)])  # scanning never dials it
            ids = [r["id"] for r in dsdb.scan_records()]
            assert len(ids) == 2000 and ids == sorted(ids)
            page = dsdb.scan_records(after=ids[999], limit=10)
            assert [r["id"] for r in page] == ids[1000:1010]
        finally:
            c.close()
