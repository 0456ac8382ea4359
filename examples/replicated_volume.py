#!/usr/bin/env python3
"""Future work, realized: a transparently replicating filesystem.

The paper's conclusion: "One may imagine filesystems that transparently
stripe, replicate, and version data."  Because abstractions are just
user-level code over the same Unix interface, adding one needs no new
servers and no administrator: this script builds a 2-replica filesystem
over four donated disks, survives a server loss *with an open file*,
detects silent corruption, and heals itself.

Run::

    python examples/replicated_volume.py
"""

import getpass
import os
import tempfile

from repro import (
    AuthContext,
    ClientCredentials,
    ClientPool,
    FileServer,
    OpenFlags,
    ServerConfig,
)
from repro.core.cfs import CFS
from repro.core.replfs import ReplicatedFS
from repro.transport.recovery import RetryPolicy


def run(workspace: str) -> None:
    user = getpass.getuser()
    auth = AuthContext(enabled=("unix",))

    servers = []
    for i in range(5):
        root = os.path.join(workspace, f"disk{i}")
        os.makedirs(root)
        servers.append(
            FileServer(
                ServerConfig(root=root, owner=f"unix:{user}", name=f"disk{i}", auth=auth)
            ).start()
        )
    pool = ClientPool(ClientCredentials(methods=("unix",)))
    policy = RetryPolicy(max_attempts=3, initial_delay=0.05)

    # directory tree on disk0; data replicated 2x across disks 1-4
    dir_client = pool.get(*servers[0].address)
    dir_client.mkdir("/rvol")
    for s in servers[1:]:
        c = pool.get(*s.address)
        c.mkdir("/tssdata")
        c.mkdir("/tssdata/rvol")
    fs = ReplicatedFS(
        CFS(dir_client, "/rvol", policy),
        pool,
        [s.address for s in servers[1:]],
        "/tssdata/rvol",
        copies=2,
        policy=policy,
    )
    print("replicated filesystem up: 1 directory server + 4 data servers, 2 copies")

    # -- normal use ---------------------------------------------------------
    fs.mkdir("/archive")
    fs.write_file("/archive/thesis.tex", b"\\documentclass{article}..." * 100)
    stub = fs.stub_for("/archive/thesis.tex")
    ports = [p for _, p, _ in stub.locations]
    print(f"thesis.tex written to 2 servers (ports {ports})")

    # -- survive a server loss with the file open ----------------------------
    handle = fs.open("/archive/thesis.tex", OpenFlags(read=True))
    victim_endpoint = stub.locations[0][:2]
    victim = next(s for s in servers if s.address == victim_endpoint)
    print(f"\nkilling {victim.config.name} while the file is open...")
    victim.stop()
    pool.evict(*victim_endpoint)
    data = handle.pread(30, 0)
    print(f"read still works: {data[:27]!r}...  (handle degraded: {handle.degraded})")
    handle.close()

    # -- heal back to full replication ---------------------------------------
    print(f"health before heal: {sorted(fs.verify('/archive/thesis.tex').values())}")
    added = fs.heal("/archive/thesis.tex")
    print(f"heal added {added} cop{'ies' if added != 1 else 'y'}")
    print(f"health after heal:  {sorted(fs.verify('/archive/thesis.tex').values())}")

    # -- detect silent corruption --------------------------------------------
    # (corrupting the *second* replica: with copies=2 a divergence is a
    # tie, resolved toward the first-listed replica -- use copies>=3 for
    # true majority arbitration; see ReplicatedFS.verify)
    fs.write_file("/archive/data.bin", b"important bytes " * 64)
    loc = fs.stub_for("/archive/data.bin").locations[1]
    pool.get(loc[0], loc[1]).putfile(loc[2], b"bitrot bitrot bi" * 64)
    health = fs.verify("/archive/data.bin")
    print(f"\nafter corrupting one replica: {sorted(health.values())}")
    fs.heal("/archive/data.bin")
    print(f"after heal: {sorted(fs.verify('/archive/data.bin').values())}")
    print(f"content intact: {fs.read_file('/archive/data.bin')[:16]!r}")

    pool.close()
    for s in servers:
        if s is not victim:
            s.stop()
    print("\nreplicated volume example complete.")


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="tss-repl-") as workspace:
        run(workspace)


if __name__ == "__main__":
    main()
