"""``tss``: a small command-line tool over the adapter namespace.

The paper's promise is that a deployed server is "instantly and securely
accessible by a variety of tools"; this is the reference tool.  Paths use
the adapter namespace (``/cfs/host:port/...``, ``/dsfs/host:port@vol/...``).

::

    tss ls /cfs/localhost:9094/
    tss put local.dat /cfs/localhost:9094/data/remote.dat
    tss cat /cfs/localhost:9094/data/remote.dat
    tss acl get /cfs/localhost:9094/data
    tss acl set /cfs/localhost:9094/data 'hostname:*.cse.nd.edu' rwl
    tss catalog localhost:9097
"""

from __future__ import annotations

import argparse
import json
import stat as stat_mod
import sys

from repro.adapter.adapter import Adapter
from repro.cache.policy import CACHE_MODES, CachePolicy
from repro.catalog.client import query_catalog

__all__ = ["main"]


def _endpoint_of(path: str) -> tuple[str, int, str]:
    """Split /cfs/host:port/inner into its pieces (for ACL commands)."""
    parts = path.strip("/").split("/")
    if len(parts) < 2 or parts[0] not in ("cfs", "dsfs"):
        raise SystemExit(f"tss: {path}: expected /cfs/<host:port>/...")
    spec = parts[1].split("@")[0]
    host, _, port = spec.rpartition(":")
    inner = "/" + "/".join(parts[2:])
    return host, int(port), inner


def _cmd_ls(adapter: Adapter, args) -> int:
    for name in adapter.listdir(args.path):
        if args.long:
            st = adapter.stat(args.path.rstrip("/") + "/" + name)
            kind = "d" if stat_mod.S_ISDIR(st.st_mode) else "-"
            print(f"{kind} {st.st_size:12d} {name}")
        else:
            print(name)
    return 0


def _cmd_cat(adapter: Adapter, args) -> int:
    sys.stdout.buffer.write(adapter.read_bytes(args.path))
    return 0


def _cmd_put(adapter: Adapter, args) -> int:
    with open(args.local, "rb") as f:
        data = f.read()
    n = adapter.write_bytes(args.remote, data)
    print(f"wrote {n} bytes to {args.remote}")
    return 0


def _cmd_get(adapter: Adapter, args) -> int:
    data = adapter.read_bytes(args.remote)
    with open(args.local, "wb") as f:
        f.write(data)
    print(f"fetched {len(data)} bytes to {args.local}")
    return 0


def _cmd_rm(adapter: Adapter, args) -> int:
    adapter.unlink(args.path)
    return 0


def _cmd_mkdir(adapter: Adapter, args) -> int:
    adapter.makedirs(args.path) if args.parents else adapter.mkdir(args.path)
    return 0


def _cmd_stat(adapter: Adapter, args) -> int:
    st = adapter.stat(args.path)
    print(f"size  {st.st_size}")
    print(f"mode  {oct(st.st_mode)}")
    print(f"inode {st.st_ino}")
    print(f"mtime {st.st_mtime}")
    return 0


def _cmd_statfs(adapter: Adapter, args) -> int:
    fs = adapter.statfs(args.path)
    print(f"total {fs.total_bytes}")
    print(f"free  {fs.free_bytes}")
    return 0


def _cmd_acl(adapter: Adapter, args) -> int:
    host, port, inner = _endpoint_of(args.path)
    client = adapter.pool.get(host, port)
    if args.acl_op == "get":
        sys.stdout.write(client.getacl(inner).to_text())
    else:
        client.setacl(inner, args.subject, args.rights)
    return 0


def _cmd_whoami(adapter: Adapter, args) -> int:
    host, port, _ = _endpoint_of(args.path)
    print(adapter.pool.get(host, port).whoami())
    return 0


def _cmd_catalog(adapter: Adapter, args) -> int:
    host, _, port = args.catalog.rpartition(":")
    sys.stdout.write(query_catalog(host, int(port), args.format))
    return 0


def _cmd_fsck(adapter: Adapter, args) -> int:
    from repro.core.dsfs import DSFS
    from repro.core.fsck import fsck_volume

    parts = args.volume.strip("/").split("/")
    if len(parts) != 2 or parts[0] != "dsfs" or "@" not in parts[1]:
        raise SystemExit("tss fsck expects /dsfs/<host:port>@<volume>")
    endpoint_text, _, volume = parts[1].partition("@")
    host, _, port = endpoint_text.rpartition(":")
    fs = DSFS.open_volume(adapter.pool, host, int(port), "/" + volume)
    report = fsck_volume(
        fs, remove_dangling=args.repair, remove_orphans=args.repair
    )
    print(f"checked   {report.files_checked} files, {report.directories_checked} dirs")
    print(f"healthy   {report.healthy}")
    for path, reason in report.dangling_stubs.items():
        print(f"dangling  {path}  ({reason})")
    for host_, port_, path in report.orphan_data:
        print(f"orphan    {host_}:{port_}{path}")
    if args.repair:
        print(f"removed   {report.removed_stubs} stubs, {report.removed_orphans} orphans")
    print("clean" if report.clean else "NOT CLEAN")
    return 0 if (report.clean or args.repair) else 1


def _cmd_store_scrub(adapter: Adapter, args) -> int:
    from repro.store.cas import CasStore
    from repro.transport.metrics import default_registry

    store = CasStore(args.root)
    default_registry().attach_section("store", store)
    report = store.scrub(quarantine=args.quarantine)
    if args.json:
        # Machine-readable form: what a keeper ingests
        # (Keeper.ingest_scrub_report) and what CI archives as an
        # artifact.  Same exit-code contract as the human form.
        print(json.dumps(report, sort_keys=True))
        return 0 if not report["corrupt"] else 1
    print(f"objects   {report['objects']}")
    print(f"ok        {report['ok']}")
    for key in report["corrupt"]:
        print(f"corrupt   {key}")
    for key in report["quarantined"]:
        print(f"quarantined {key}")
    for key in report["orphans"]:
        print(f"orphan    {key}")
    print("clean" if not report["corrupt"] else "NOT CLEAN")
    return 0 if not report["corrupt"] else 1


def _cmd_keeper(adapter: Adapter, args) -> int:
    import logging

    from repro.catalog.client import CatalogClient
    from repro.core.dsdb import DSDB
    from repro.db.client import DatabaseClient
    from repro.gems.keeper import Keeper, KeeperConfig
    from repro.gems.policy import BudgetGreedyPolicy, FixedCountPolicy

    if args.verbose:
        logging.basicConfig(
            level=logging.INFO,
            format="%(asctime)s %(name)s %(levelname)s %(message)s",
        )
    db_host, _, db_port = args.db.rpartition(":")
    servers = []
    for spec in args.server:
        host, _, port = spec.rpartition(":")
        servers.append((host, int(port)))
    catalogs = []
    for spec in args.catalog:
        host, _, port = spec.rpartition(":")
        catalogs.append((host, int(port)))
    if not servers and not catalogs:
        print("tss keeper needs --server and/or --catalog", file=sys.stderr)
        return 2
    catalog = CatalogClient(catalogs) if catalogs else None
    if catalog is not None and not servers:
        # Bootstrap the server set from the catalog before building the
        # DSDB (which requires at least one server).
        reports = catalog.try_discover()
        servers = [
            (r.host, r.port) for r in (reports or []) if r.type == "chirp"
        ]
        if not servers:
            print("tss keeper: no servers discovered from catalog", file=sys.stderr)
            return 1
    if args.budget_bytes is not None:
        policy = BudgetGreedyPolicy(args.budget_bytes)
    else:
        policy = FixedCountPolicy(args.copies)
    db = DatabaseClient(db_host, int(db_port))
    try:
        dsdb = DSDB(db, adapter.pool, servers, volume=args.volume)
        keeper = Keeper(
            dsdb,
            policy,
            KeeperConfig(
                state_dir=args.state_dir,
                scan_batch=args.scan_batch,
                records_per_sec=args.records_per_sec,
                repair_bytes_per_sec=args.repair_bytes_per_sec,
                catalog_lifetime=args.catalog_lifetime,
                tick_interval=args.tick_interval,
                audit_mode=args.audit_mode,
            ),
            catalog=catalog,
        )
        if args.passes is not None:
            ticks = keeper.run_passes(args.passes)
            snap = keeper.snapshot()
            print(f"passes    {args.passes} ({len(ticks)} ticks)")
            print(f"scanned   {snap['records_scanned']} records")
            print(f"dropped   {snap['dropped']} bad replicas")
            print(f"repaired  {snap['repairs_committed']} "
                  f"(+{snap['proactive_copies']} proactive, "
                  f"{snap['repairs_aborted']} aborted)")
            keeper.journal.close()
            return 0
        from repro.util.signals import GracefulSignals

        # Installed before the first tick, so a stop signal that arrives
        # once the keeper has shown any sign of life is graceful.
        signals = GracefulSignals().install()
        keeper.start()
        print(f"tss keeper: guarding volume {args.volume!r} "
              f"({len(servers)} servers); journal in {args.state_dir}",
              flush=True)
        signals.wait()
        keeper.stop()
        return 0
    finally:
        db.close()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tss", description=__doc__)
    parser.add_argument(
        "--cache-mode",
        default="off",
        choices=CACHE_MODES,
        help="client-side caching: off (paper semantics, default), "
        "private (data+meta, single-writer), ttl (bounded-staleness meta)",
    )
    parser.add_argument(
        "--cache-ttl", type=float, default=2.0,
        help="metadata TTL in seconds for --cache-mode=ttl",
    )
    parser.add_argument(
        "--cache-capacity", type=int, default=64 * 1024 * 1024,
        help="block cache byte budget for --cache-mode=private",
    )
    parser.add_argument(
        "--cache-block-size", type=int, default=64 * 1024,
        help="block cache granularity in bytes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ls", help="list a directory")
    p.add_argument("path")
    p.add_argument("-l", "--long", action="store_true")
    p.set_defaults(fn=_cmd_ls)

    p = sub.add_parser("cat", help="print a file")
    p.add_argument("path")
    p.set_defaults(fn=_cmd_cat)

    p = sub.add_parser("put", help="upload a local file")
    p.add_argument("local")
    p.add_argument("remote")
    p.set_defaults(fn=_cmd_put)

    p = sub.add_parser("get", help="download to a local file")
    p.add_argument("remote")
    p.add_argument("local")
    p.set_defaults(fn=_cmd_get)

    p = sub.add_parser("rm", help="delete a file")
    p.add_argument("path")
    p.set_defaults(fn=_cmd_rm)

    p = sub.add_parser("mkdir", help="create a directory")
    p.add_argument("path")
    p.add_argument("-p", "--parents", action="store_true")
    p.set_defaults(fn=_cmd_mkdir)

    p = sub.add_parser("stat", help="show file metadata")
    p.add_argument("path")
    p.set_defaults(fn=_cmd_stat)

    p = sub.add_parser("statfs", help="show capacity")
    p.add_argument("path")
    p.set_defaults(fn=_cmd_statfs)

    p = sub.add_parser("acl", help="get or set directory ACLs")
    p.add_argument("acl_op", choices=("get", "set"))
    p.add_argument("path")
    p.add_argument("subject", nargs="?")
    p.add_argument("rights", nargs="?")
    p.set_defaults(fn=_cmd_acl)

    p = sub.add_parser("whoami", help="show the authenticated subject")
    p.add_argument("path", help="any path on the target server")
    p.set_defaults(fn=_cmd_whoami)

    p = sub.add_parser("catalog", help="query a catalog server")
    p.add_argument("catalog", metavar="HOST:PORT")
    p.add_argument("--format", default="text", choices=("text", "json"))
    p.set_defaults(fn=_cmd_catalog)

    p = sub.add_parser(
        "keeper", help="run the GEMS self-healing daemon over a DSDB"
    )
    p.add_argument("--db", required=True, metavar="HOST:PORT",
                   help="metadata database server")
    p.add_argument("--server", action="append", default=[],
                   metavar="HOST:PORT", help="file server (repeatable)")
    p.add_argument("--catalog", action="append", default=[],
                   metavar="HOST:PORT",
                   help="catalog for dynamic membership (repeatable)")
    p.add_argument("--volume", default="dsdb")
    p.add_argument("--state-dir", default=".tss-keeper",
                   help="where the scan cursor and repair journal live")
    p.add_argument("--budget-bytes", type=int, default=None,
                   help="replicate up to this many stored bytes (GEMS budget)")
    p.add_argument("--copies", type=int, default=2,
                   help="target copies per record when no byte budget is given")
    p.add_argument("--passes", type=int, default=None,
                   help="run this many full scans and exit (default: run forever)")
    p.add_argument("--scan-batch", type=int, default=64)
    p.add_argument("--records-per-sec", type=float, default=None,
                   help="audit rate budget (default: unmetered)")
    p.add_argument("--repair-bytes-per-sec", type=float, default=None,
                   help="repair copy rate budget (default: unmetered)")
    p.add_argument("--catalog-lifetime", type=float, default=900.0,
                   help="seconds absent from the catalog before a server is suspect")
    p.add_argument("--tick-interval", type=float, default=1.0)
    p.add_argument("--audit-mode", choices=("bytes", "key", "location"),
                   default="bytes",
                   help="replica audit strategy: 'key' compares content-"
                   "address keys in O(1) on CAS servers (falls back to "
                   "bytes elsewhere)")
    p.add_argument("--verbose", action="store_true",
                   help="log keeper activity (audits, repairs, membership)")
    p.set_defaults(fn=_cmd_keeper)

    p = sub.add_parser("store", help="inspect or repair a server's store")
    store_sub = p.add_subparsers(dest="store_op", required=True)
    ps = store_sub.add_parser(
        "scrub", help="verify every CAS blob hashes to its key"
    )
    ps.add_argument("root", help="store root directory (a --store cas server root)")
    ps.add_argument("--quarantine", action="store_true",
                    help="move corrupt blobs aside instead of just reporting")
    ps.add_argument("--json", action="store_true",
                    help="emit the scrub report as one JSON object "
                    "(exit status still 1 when corruption was found)")
    ps.set_defaults(fn=_cmd_store_scrub)

    p = sub.add_parser("fsck", help="audit (and repair) a DSFS volume")
    p.add_argument("volume", metavar="/dsfs/HOST:PORT@VOLUME")
    p.add_argument("--repair", action="store_true",
                   help="remove dangling stubs and orphan data files")
    p.set_defaults(fn=_cmd_fsck)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "acl" and args.acl_op == "set" and not (
        args.subject and args.rights
    ):
        print("tss acl set needs SUBJECT and RIGHTS", file=sys.stderr)
        return 2
    cache_policy = None
    if args.cache_mode != "off":
        cache_policy = CachePolicy(
            mode=args.cache_mode,
            meta_ttl=args.cache_ttl,
            capacity_bytes=args.cache_capacity,
            block_size=args.cache_block_size,
        )
    adapter = Adapter(cache_policy=cache_policy)
    try:
        return args.fn(adapter, args)
    except OSError as exc:
        print(f"tss: {exc}", file=sys.stderr)
        return 1
    finally:
        adapter.close()


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
