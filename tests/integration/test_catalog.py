"""Integration tests: catalogs, discovery, and staleness."""

import json
import socket
import time

import pytest

from repro.catalog.client import CatalogClient, query_catalog
from repro.catalog.report import ServerReport
from repro.catalog.server import CatalogServer
from repro.util.errors import DisconnectedError


@pytest.fixture()
def catalog():
    with CatalogServer() as cat:
        yield cat


def wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


class TestReportIntake:
    def test_server_reports_are_listed(self, catalog, server_factory):
        server = server_factory.new(
            catalog_addrs=(catalog.address,), name="storage01"
        )
        server.report_now()
        assert wait_for(lambda: len(catalog.entries()) == 1)
        entry = catalog.entries()[0]
        assert entry.name == "storage01"
        assert entry.port == server.address[1]
        assert entry.total_bytes > 0

    def test_periodic_reporting(self, catalog, server_factory):
        server_factory.new(
            catalog_addrs=(catalog.address,), report_interval=0.1, name="ticker"
        )
        assert wait_for(lambda: len(catalog.entries()) == 1)

    def test_re_report_updates_in_place(self, catalog, server_factory):
        server = server_factory.new(catalog_addrs=(catalog.address,))
        server.report_now()
        server.report_now()
        assert wait_for(lambda: len(catalog.entries()) == 1)

    def test_malformed_datagram_dropped(self, catalog):
        assert not catalog.accept_report(b"not json at all")
        assert not catalog.accept_report(json.dumps({"type": "x"}).encode())
        assert catalog.entries() == []

    def test_report_includes_root_acl(self, catalog, server_factory):
        server = server_factory.new(catalog_addrs=(catalog.address,))
        server.report_now()
        assert wait_for(lambda: len(catalog.entries()) == 1)
        assert "rwldav" in catalog.entries()[0].root_acl


class TestPortPair:
    """UDP and TCP share one port number; TCP may already hold it."""

    @pytest.fixture()
    def taken(self):
        """A TCP port held by someone else, and a UDP bind that lands on it
        first -- what an ephemeral UDP bind can return on a busy host."""
        holder = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        holder.bind(("127.0.0.1", 0))
        holder.listen(1)
        port = holder.getsockname()[1]
        calls = []
        real_bind = CatalogServer._bind_udp

        def bind_udp(server):
            calls.append(server.port)
            if len(calls) == 1:
                udp = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
                udp.bind(("127.0.0.1", port))
                udp.settimeout(0.2)
                return udp
            return real_bind(server)

        yield port, bind_udp, calls
        holder.close()

    def test_ephemeral_port_retries_with_a_fresh_pair(self, taken, monkeypatch):
        port, bind_udp, calls = taken
        monkeypatch.setattr(CatalogServer, "_bind_udp", bind_udp)
        report = {
            "type": "chirp", "name": "s", "owner": "unix:x",
            "host": "10.0.0.1", "port": 9094,
        }
        with CatalogServer() as cat:
            assert len(calls) == 2
            assert cat.address[1] != port
            # Both halves answer on the new port.
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as s:
                s.sendto(json.dumps(report).encode(), cat.address)
            assert wait_for(lambda: len(cat.entries()) == 1)
            assert json.loads(query_catalog(*cat.address, "json"))[0]["name"] == "s"

    def test_fixed_port_still_raises(self, taken):
        port, _bind_udp, _calls = taken
        cat = CatalogServer(port=port)
        with pytest.raises(OSError):
            cat.start()
        cat.stop()
        # The failed start released its UDP socket.
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as s:
            s.bind(("127.0.0.1", port))


class TestStaleness:
    def test_unrefreshed_entries_expire(self):
        clock = {"now": 1000.0}
        cat = CatalogServer(lifetime=60.0, now=lambda: clock["now"])
        report = {
            "type": "chirp", "name": "s", "owner": "unix:x",
            "host": "10.0.0.1", "port": 9094,
        }
        cat.accept_report(json.dumps(report).encode())
        assert len(cat.entries()) == 1
        clock["now"] += 61.0
        assert cat.entries() == []

    def test_refresh_keeps_entry_alive(self):
        clock = {"now": 0.0}
        cat = CatalogServer(lifetime=60.0, now=lambda: clock["now"])
        report = {
            "type": "chirp", "name": "s", "owner": "unix:x",
            "host": "10.0.0.1", "port": 9094,
        }
        for _ in range(5):
            cat.accept_report(json.dumps(report).encode())
            clock["now"] += 50.0
        assert len(cat.entries()) == 1


class TestQueryService:
    def test_json_format(self, catalog, server_factory):
        server = server_factory.new(catalog_addrs=(catalog.address,), name="q1")
        server.report_now()
        assert wait_for(lambda: len(catalog.entries()) == 1)
        body = query_catalog(*catalog.address, "json")
        docs = json.loads(body)
        assert docs[0]["name"] == "q1"

    def test_text_format(self, catalog, server_factory):
        server = server_factory.new(catalog_addrs=(catalog.address,), name="q2")
        server.report_now()
        assert wait_for(lambda: len(catalog.entries()) == 1)
        body = query_catalog(*catalog.address, "text")
        assert "name     = q2" in body

    def test_unknown_format_yields_error_document(self, catalog):
        body = query_catalog(*catalog.address, "xml")
        assert "error" in body


class TestCatalogClient:
    def test_discover_merges_catalogs(self, server_factory):
        """Multiple catalogs with overlapping server sets de-duplicate."""
        with CatalogServer() as cat_a, CatalogServer() as cat_b:
            shared = server_factory.new(
                catalog_addrs=(cat_a.address, cat_b.address), name="shared"
            )
            only_a = server_factory.new(catalog_addrs=(cat_a.address,), name="only-a")
            shared.report_now()
            only_a.report_now()
            assert wait_for(lambda: len(cat_a.entries()) == 2)
            assert wait_for(lambda: len(cat_b.entries()) == 1)
            client = CatalogClient([cat_a.address, cat_b.address])
            names = [r.name for r in client.discover()]
            assert names == ["only-a", "shared"]

    def test_unreachable_catalog_tolerated(self, catalog, server_factory):
        server = server_factory.new(catalog_addrs=(catalog.address,))
        server.report_now()
        assert wait_for(lambda: len(catalog.entries()) == 1)
        client = CatalogClient([("127.0.0.1", 1), catalog.address])
        assert len(client.discover()) == 1

    def test_all_catalogs_down_raises(self):
        client = CatalogClient([("127.0.0.1", 1)], timeout=0.5)
        with pytest.raises(DisconnectedError):
            client.discover()

    def test_find_space(self, catalog, server_factory):
        server = server_factory.new(catalog_addrs=(catalog.address,))
        server.report_now()
        assert wait_for(lambda: len(catalog.entries()) == 1)
        client = CatalogClient([catalog.address])
        assert client.find_space(1) != []
        assert client.find_space(10**18) == []

    def test_discovery_to_connection_flow(self, catalog, server_factory, credentials):
        """The paper's loop: discover at the catalog, then go direct."""
        from repro.chirp.client import ChirpClient

        server = server_factory.new(catalog_addrs=(catalog.address,), name="flow")
        server.report_now()
        assert wait_for(lambda: len(catalog.entries()) == 1)
        report = CatalogClient([catalog.address]).discover()[0]
        c = ChirpClient(report.host, report.port, credentials=credentials)
        c.putfile("/via-catalog", b"found you")
        assert c.getfile("/via-catalog") == b"found you"
        c.close()


class TestReportDocument:
    def test_roundtrip(self):
        report = ServerReport(
            type="chirp", name="n", owner="unix:o", host="h", port=1,
            total_bytes=10, free_bytes=5,
        )
        again = ServerReport.from_json(report.to_json())
        assert again.key == report.key
        assert again.total_bytes == 10

    def test_extra_fields_preserved(self):
        doc = {
            "type": "chirp", "name": "n", "owner": "o", "host": "h",
            "port": 1, "custom": "value",
        }
        report = ServerReport.from_json(json.dumps(doc))
        assert report.extra["custom"] == "value"
        assert json.loads(report.to_json())["custom"] == "value"

    def test_missing_required_field_rejected(self):
        with pytest.raises(ValueError):
            ServerReport.from_json(json.dumps({"type": "chirp"}))
