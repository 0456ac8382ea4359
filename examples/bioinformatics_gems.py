#!/usr/bin/env python3
"""The section 9 story: GEMS preserving molecular-simulation data.

A research group pools the idle disks of several machines into a
distributed shared database for PROTOMOL outputs: files live on file
servers, metadata lives in a database, and the keeper -- the GEMS
audit-and-repair loop -- verifies replicas and keeps copies within the
user's storage budget, even when someone forcibly deletes data from a
disk (Figure 9 at desk scale).

Run::

    python examples/bioinformatics_gems.py
"""

import getpass
import os
import tempfile

from repro import (
    AuthContext,
    ClientCredentials,
    ClientPool,
    DSDB,
    FileServer,
    MetadataDB,
    Query,
    ServerConfig,
)
from repro.apps.protomol import generate_runs
from repro.core.dsdb import live_replicas
from repro.gems import BudgetGreedyPolicy, Keeper, KeeperConfig
from repro.util.clock import ManualClock


def live_volume(gems: DSDB) -> tuple[int, int]:
    """Bytes and count of the replicas believed intact."""
    records = gems.find()
    return (
        sum(rec["size"] * len(live_replicas(rec)) for rec in records),
        sum(len(live_replicas(rec)) for rec in records),
    )


def run(workspace: str) -> None:
    user = getpass.getuser()
    auth = AuthContext(enabled=("unix",))

    # -- five lab machines donate storage ---------------------------------
    servers = []
    for i in range(5):
        root = os.path.join(workspace, f"disk{i}")
        os.makedirs(root)
        servers.append(
            FileServer(
                ServerConfig(root=root, owner=f"unix:{user}", name=f"disk{i}", auth=auth)
            ).start()
        )
    print(f"pooled {len(servers)} file servers")

    # -- the GEMS database over those servers ------------------------------
    pool = ClientPool(ClientCredentials(methods=("unix",)))
    db = MetadataDB(
        os.path.join(workspace, "gemsdb"),
        indexes=("tss_kind", "molecule", "kind"),
    )
    gems = DSDB(db, pool, [s.address for s in servers], volume="gems")

    # -- a parameter study lands in GEMS -----------------------------------
    runs = generate_runs(12, trajectory_bytes=40_000, energy_bytes=4_000)
    dataset_bytes = 0
    for run in runs:
        for name, content, meta in run.files():
            gems.ingest(name, content, meta)
            dataset_bytes += len(content)
    print(
        f"ingested {len(runs)} runs ({len(runs) * 2} files, "
        f"{dataset_bytes // 1000} kB) with one copy each"
    )

    # -- querying like a scientist ------------------------------------------
    q = Query.where(tss_kind="file", molecule="bpti", kind="trajectory")
    hits = gems.query(q)
    print(f"\nquery molecule=bpti,kind=trajectory -> {len(hits)} hits:")
    for hit in hits[:3]:
        print(f"  {hit['name']}  T={hit['temperature']}K  {hit['size']} bytes")
    data = gems.fetch(hits[0]["id"], verify=True)
    print(f"fetched {hits[0]['name']}: {len(data)} bytes, checksum verified")

    # -- preservation: replicate up to a budget -----------------------------
    budget = int(dataset_bytes * 2.6)
    policy = BudgetGreedyPolicy(budget)
    keeper = Keeper(
        gems,
        policy,
        KeeperConfig(
            state_dir=os.path.join(workspace, "keeper"), max_repairs_per_tick=64
        ),
        clock=ManualClock(),
    )
    keeper.run_passes(1)
    filled, replicas = live_volume(gems)
    print(
        f"\nkeeper filled the {budget // 1000} kB budget: "
        f"{filled // 1000} kB stored across {replicas} live replicas"
    )

    # -- disaster: a disk owner evicts everything ---------------------------
    victim = servers[0]
    victim_dir = os.path.join(victim.backend.root, "tssdata", "gems")
    evicted = 0
    for name in os.listdir(victim_dir):
        os.unlink(os.path.join(victim_dir, name))
        evicted += 1
    print(f"\ndisk0's owner deleted {evicted} replicas (their right!)")

    ticks = keeper.run_passes(1)
    missing = sum(t.missing for t in ticks)
    added = sum(t.committed for t in ticks)
    restored, replicas = live_volume(gems)
    print(
        f"audit noted {missing} missing; repair added {added} fresh copies; "
        f"stored back to {restored // 1000} kB across {replicas} live replicas"
    )
    if restored != filled:
        raise SystemExit("repair did not restore the stored volume")

    # every file still fetches, verified
    intact = sum(
        1
        for rec in gems.query(Query.where(tss_kind="file"))
        if gems.fetch(rec["id"], verify=True)
    )
    print(f"all {intact} files intact and checksum-verified")

    keeper.stop()
    pool.close()
    db.close()
    for server in servers:
        server.stop()
    print("\nGEMS bioinformatics example complete.")


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="tss-gems-") as workspace:
        run(workspace)


if __name__ == "__main__":
    main()
