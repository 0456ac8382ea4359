"""Integration tests: the synthetic applications and the tss CLI."""

import os

import pytest

from repro.adapter.adapter import Adapter
from repro.adapter.interpose import interposed
from repro.apps.protomol import generate_runs
from repro.apps.sp5 import SyntheticSP5
from repro.cli import main as tss_main
from repro.core.dsdb import DSDB
from repro.transport.recovery import RetryPolicy
from repro.db.engine import MetadataDB
from repro.db.query import Query

FAST = RetryPolicy(max_attempts=3, initial_delay=0.05)


class TestSyntheticSP5:
    def test_full_run_on_local_disk(self, tmp_path):
        app = SyntheticSP5(str(tmp_path / "sp5"), scale=0.1)
        app.install()
        app.initialize()
        app.process_events(5)
        assert app.verify_outputs() == 5
        assert app.stats.files_read == app.stats.files_installed
        assert app.stats.bytes_read == app.stats.bytes_installed

    def test_unmodified_sp5_runs_on_cfs(self, file_server, pool):
        """The paper's headline deployment: the same application code,
        unchanged, running against grid storage through the adapter."""
        adapter = Adapter(pool=pool, policy=FAST)
        host, port = file_server.address
        app = SyntheticSP5(f"/cfs/{host}:{port}/sp5", scale=0.1)
        with interposed(adapter):
            app.install()
            app.initialize()
            app.process_events(3)
            assert app.verify_outputs() == 3
        # data genuinely lives on the server
        export = file_server.backend.root
        assert os.path.isdir(os.path.join(export, "sp5", "lib"))
        assert len(os.listdir(os.path.join(export, "sp5", "output"))) == 3

    def test_corruption_is_detected(self, tmp_path):
        app = SyntheticSP5(str(tmp_path / "sp5"), scale=0.1)
        app.install()
        victim = tmp_path / "sp5" / "config" / "sp5.cfg"
        victim.write_bytes(b"corrupted config")
        with pytest.raises(RuntimeError):
            app.initialize()


class TestProtomolGems:
    def test_generated_runs_are_deterministic(self):
        a = generate_runs(5)
        b = generate_runs(5)
        for ra, rb in zip(a, b):
            assert ra.files()[0][1] == rb.files()[0][1]

    def test_sweep_covers_parameters(self):
        runs = generate_runs(30)
        assert len({r.molecule for r in runs}) == 5
        assert len({r.integrator for r in runs}) == 3

    def test_ingest_into_dsdb_and_query(self, server_factory, pool):
        servers = [server_factory.new() for _ in range(3)]
        db = MetadataDB(None, indexes=("tss_kind", "molecule"))
        dsdb = DSDB(db, pool, [s.address for s in servers], volume="gems")
        for run in generate_runs(6, trajectory_bytes=5000, energy_bytes=500):
            for name, content, meta in run.files():
                dsdb.ingest(name, content, meta)
        # the paper's use case: query by science metadata, then fetch
        hits = dsdb.query(
            Query.where(tss_kind="file", molecule="bpti", kind="trajectory")
        )
        assert hits
        for hit in hits:
            assert len(dsdb.fetch(hit["id"], verify=True)) == 5000


class TestCli:
    def url(self, file_server, path=""):
        host, port = file_server.address
        return f"/cfs/{host}:{port}{path}"

    def test_put_ls_cat_get_rm(self, file_server, tmp_path, capsys):
        src = tmp_path / "src.txt"
        src.write_text("via the cli")
        assert tss_main(["put", str(src), self.url(file_server, "/up.txt")]) == 0
        assert tss_main(["ls", self.url(file_server, "/")]) == 0
        assert "up.txt" in capsys.readouterr().out
        assert tss_main(["cat", self.url(file_server, "/up.txt")]) == 0
        assert "via the cli" in capsys.readouterr().out
        dst = tmp_path / "down.txt"
        assert tss_main(["get", self.url(file_server, "/up.txt"), str(dst)]) == 0
        assert dst.read_text() == "via the cli"
        assert tss_main(["rm", self.url(file_server, "/up.txt")]) == 0

    def test_mkdir_stat_statfs(self, file_server, capsys):
        assert tss_main(["mkdir", "-p", self.url(file_server, "/a/b")]) == 0
        assert tss_main(["stat", self.url(file_server, "/a/b")]) == 0
        assert "mode" in capsys.readouterr().out
        assert tss_main(["statfs", self.url(file_server, "/")]) == 0
        assert "total" in capsys.readouterr().out

    def test_ls_long(self, file_server, tmp_path, capsys):
        src = tmp_path / "f"
        src.write_bytes(b"12345")
        tss_main(["put", str(src), self.url(file_server, "/f")])
        capsys.readouterr()
        assert tss_main(["ls", "-l", self.url(file_server, "/")]) == 0
        out = capsys.readouterr().out
        assert "5" in out and "f" in out

    def test_acl_get_and_set(self, file_server, capsys):
        assert tss_main(["acl", "get", self.url(file_server, "/")]) == 0
        assert "rwldav" in capsys.readouterr().out
        assert tss_main(
            ["acl", "set", self.url(file_server, "/"), "hostname:*.nd.edu", "rwl"]
        ) == 0
        tss_main(["acl", "get", self.url(file_server, "/")])
        assert "hostname:*.nd.edu" in capsys.readouterr().out

    def test_whoami(self, file_server, capsys):
        assert tss_main(["whoami", self.url(file_server, "/")]) == 0
        assert "unix:" in capsys.readouterr().out

    def test_catalog_command(self, file_server, capsys):
        from repro.catalog.server import CatalogServer

        with CatalogServer() as cat:
            file_server.config.catalog_addrs = (cat.address,)
            file_server.report_now()
            import time

            deadline = time.monotonic() + 5
            while time.monotonic() < deadline and not cat.entries():
                time.sleep(0.02)
            host, port = cat.address
            assert tss_main(["catalog", f"{host}:{port}"]) == 0
            assert "address" in capsys.readouterr().out

    def test_error_paths_return_nonzero(self, file_server, capsys):
        assert tss_main(["cat", self.url(file_server, "/missing")]) == 1
        assert tss_main(["acl", "set", self.url(file_server, "/")]) == 2
