#!/usr/bin/env python3
"""Quickstart: deploy tactical storage and use it in five minutes.

This walks the paper's core loop end to end, on your machine, with no
privileges:

1. deploy two personal file servers (one command each -- here, one call),
2. register them with a catalog and discover them back,
3. talk to one directly through the adapter namespace,
4. set an ACL so a second identity can share a reserved directory.

Run::

    python examples/quickstart.py
"""

import getpass
import tempfile
import time

from repro import (
    Adapter,
    AuthContext,
    CatalogClient,
    CatalogServer,
    ClientCredentials,
    FileServer,
    ServerConfig,
)


def run(workspace: str) -> None:
    user = getpass.getuser()
    print(f"workspace: {workspace}")

    # -- 1. a catalog and two rapidly-deployed file servers ----------------
    catalog = CatalogServer().start()
    auth = AuthContext(enabled=("unix", "hostname"))
    servers = []
    for i in range(2):
        root = f"{workspace}/export{i}"
        import os

        os.makedirs(root)
        config = ServerConfig(
            root=root,
            owner=f"unix:{user}",
            name=f"scratch{i}",
            auth=auth,
            catalog_addrs=(catalog.address,),
            report_interval=0.5,
        )
        server = FileServer(config).start()
        servers.append(server)
        print(f"deployed {config.name} on {server.address[0]}:{server.address[1]}")

    # -- 2. discovery ------------------------------------------------------
    for server in servers:
        server.report_now()
    time.sleep(0.3)
    found = CatalogClient([catalog.address]).discover()
    print("\ncatalog sees:")
    for report in found:
        print(
            f"  {report.name:<10} {report.host}:{report.port}"
            f"  free={report.free_bytes // 10**6} MB  owner={report.owner}"
        )

    # -- 3. direct access through the adapter ------------------------------
    adapter = Adapter(credentials=ClientCredentials(methods=("unix",)))
    host, port = servers[0].address
    url = f"/cfs/{host}:{port}"
    with adapter.open(f"{url}/hello.txt", "w") as f:
        f.write("tactical storage says hello\n")
    with adapter.open(f"{url}/hello.txt") as f:
        print(f"\nread back: {f.read()!r}")
    print(f"listing:   {adapter.listdir(url + '/')}")
    print(f"stat size: {adapter.stat(url + '/hello.txt').st_size} bytes")

    # -- 4. sharing via ACLs and the reserve right --------------------------
    chirp = adapter.pool.get(host, port)
    chirp.setacl("/", "hostname:localhost", "v(rwl)")
    print(f"\nroot ACL now:\n{chirp.getacl('/').to_text()}", end="")

    visitor = Adapter(credentials=ClientCredentials(methods=("hostname",)))
    visitor.mkdir(f"{url}/visitor-space")  # reserve right kicks in
    visitor.write_bytes(f"{url}/visitor-space/note.txt", b"my private corner")
    v_client = visitor.pool.get(host, port)
    print(f"visitor ({v_client.whoami()}) reserved /visitor-space:")
    print(f"  {v_client.getacl('/visitor-space').to_text().strip()}")
    # the owner still sees everything on their own disk
    print(f"owner reads it anyway: {adapter.read_bytes(f'{url}/visitor-space/note.txt')!r}")

    # -- teardown -----------------------------------------------------------
    visitor.close()
    adapter.close()
    for server in servers:
        server.stop()
    catalog.stop()
    print("\nquickstart complete.")


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="tss-quickstart-") as workspace:
        run(workspace)


if __name__ == "__main__":
    main()
