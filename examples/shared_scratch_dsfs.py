#!/usr/bin/env python3
"""Build a shared scratch filesystem out of discovered idle disks.

The question from the paper's introduction: "Why can't a user use a
local idle disk as a personal shared file system?"  Answer, in one
script: discover idle storage at a catalog, compose it into a DSFS
(directory tree on one server, data spread over the rest), and let two
users share it -- then lose a disk and watch the filesystem degrade
instead of dying.

Run::

    python examples/shared_scratch_dsfs.py
"""

import getpass
import os
import tempfile
import time

from repro import (
    AuthContext,
    CatalogClient,
    CatalogServer,
    ClientCredentials,
    ClientPool,
    DSFS,
    FileServer,
    ServerConfig,
)
from repro.util.errors import ChirpError


def run(workspace: str) -> None:
    user = getpass.getuser()
    auth = AuthContext(enabled=("unix",))
    catalog = CatalogServer().start()

    # -- four workstations export their idle space --------------------------
    servers = []
    for i in range(4):
        root = os.path.join(workspace, f"ws{i}")
        os.makedirs(root)
        servers.append(
            FileServer(
                ServerConfig(
                    root=root,
                    owner=f"unix:{user}",
                    name=f"workstation{i}",
                    auth=auth,
                    catalog_addrs=(catalog.address,),
                )
            ).start()
        )
        servers[-1].report_now()
    time.sleep(0.3)

    # -- discover, then compose ----------------------------------------------
    reports = CatalogClient([catalog.address]).find_space(min_free_bytes=1)
    print("discovered idle storage:")
    for r in reports:
        print(f"  {r.name:<14} {r.host}:{r.port}")
    dir_server = reports[0]
    data_servers = [(r.host, r.port) for r in reports[1:]]

    pool = ClientPool(ClientCredentials(methods=("unix",)))
    scratch = DSFS.create(
        pool,
        dir_server.host,
        dir_server.port,
        "/scratch",
        data_servers,
        name="scratch",
    )
    print(
        f"\ncreated DSFS: directory on {dir_server.name}, data across "
        f"{len(data_servers)} servers"
    )

    # -- two users share one namespace ---------------------------------------
    alice_pool = ClientPool(ClientCredentials(methods=("unix",)))
    alice_view = DSFS.open_volume(
        alice_pool, dir_server.host, dir_server.port, "/scratch"
    )
    scratch.mkdir("/results")
    scratch.write_file("/results/run1.dat", b"R" * 50_000)
    alice_view.write_file("/results/run2.dat", b"A" * 50_000)
    print(f"shared namespace: /results -> {alice_view.listdir('/results')}")
    for path in ("/results/run1.dat", "/results/run2.dat"):
        stub = scratch.stub_for(path)
        print(f"  {path} lives on port {stub.port} as {stub.path.split('/')[-1][:24]}…")

    # -- failure coherence ---------------------------------------------------
    victim_endpoint = scratch.stub_for("/results/run1.dat").endpoint
    victim = next(s for s in servers if s.address == victim_endpoint)
    print(f"\nkilling the server holding run1.dat ({victim.config.name})...")
    victim.stop()
    pool.evict(*victim_endpoint)

    print(f"directory still navigable: {scratch.listdir('/results')}")
    other = "/results/run2.dat" if victim_endpoint != scratch.stub_for("/results/run2.dat").endpoint else None
    if other:
        print(f"{other} still reads: {len(scratch.read_file(other))} bytes")
    try:
        scratch.read_file("/results/run1.dat")
    except ChirpError as exc:
        print(f"run1.dat correctly unavailable: {type(exc).__name__}")
    # new files automatically avoid the dead server
    scratch.write_file("/results/run3.dat", b"N" * 10_000)
    print(
        f"new file placed on port {scratch.stub_for('/results/run3.dat').port} "
        "(not the dead one)"
    )

    alice_pool.close()
    pool.close()
    for server in servers:
        if server is not victim:
            server.stop()
    catalog.stop()
    print("\nshared scratch example complete.")


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="tss-dsfs-") as workspace:
        run(workspace)


if __name__ == "__main__":
    main()
