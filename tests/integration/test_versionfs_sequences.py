"""Randomized sequences: VersionedFS against an append-only history model."""

import random

import pytest

from repro.chirp.protocol import OpenFlags
from repro.core.cfs import CFS
from repro.core.placement import RoundRobinPlacement
from repro.transport.recovery import RetryPolicy
from repro.core.versionfs import VersionedFS

FAST = RetryPolicy(max_attempts=3, initial_delay=0.05)


@pytest.fixture()
def vfs(server_factory, pool):
    servers = [server_factory.new() for _ in range(2)]
    dir_server = server_factory.new()
    dir_client = pool.get(*dir_server.address)
    dir_client.mkdir("/vvol")
    for s in servers:
        c = pool.get(*s.address)
        c.mkdir("/tssdata")
        c.mkdir("/tssdata/vvol")
    return VersionedFS(
        CFS(dir_client, "/vvol", FAST),
        pool,
        [s.address for s in servers],
        "/tssdata/vvol",
        placement=RoundRobinPlacement(seed=17),
        policy=FAST,
    )


@pytest.mark.parametrize("seed", [10, 20])
def test_history_matches_model(vfs, seed):
    """The model: per file, an append-only list of byte strings.  Every
    VersionedFS operation must keep the full readable history equal to
    the model's."""
    rng = random.Random(seed)
    model: dict[str, list[bytes]] = {}
    files = ["/a", "/b", "/c"]

    def op_write():
        path = rng.choice(files)
        data = bytes([rng.randrange(256)]) * rng.randrange(1, 300)
        vfs.write_file(path, data)
        model.setdefault(path, []).append(data)

    def op_modify():
        path = rng.choice(files)
        if path not in model:
            return
        base = bytearray(model[path][-1])
        if not base:
            return
        pos = rng.randrange(len(base))
        patch = bytes([rng.randrange(256)]) * rng.randrange(1, 20)
        with vfs.open(path, OpenFlags(read=True, write=True)) as h:
            h.pwrite(patch, pos)
        if len(base) < pos + len(patch):
            base.extend(b"\x00" * (pos + len(patch) - len(base)))
        base[pos : pos + len(patch)] = patch
        model[path].append(bytes(base))

    def op_restore():
        path = rng.choice(files)
        history = model.get(path)
        if not history or len(history) < 2:
            return
        pick = rng.randrange(1, len(history) + 1)
        vfs.restore(path, pick)
        history.append(history[pick - 1])

    def op_check_latest():
        path = rng.choice(files)
        if path in model:
            assert vfs.read_file(path) == model[path][-1]

    def op_check_history():
        path = rng.choice(files)
        if path not in model:
            return
        versions = vfs.versions(path)
        assert len(versions) == len(model[path])
        pick = rng.randrange(len(versions))
        assert (
            vfs.read_version(path, versions[pick].number) == model[path][pick]
        )

    ops = [op_write] * 4 + [op_modify] * 3 + [op_restore] * 2 + [
        op_check_latest,
        op_check_history,
    ] * 2
    for _ in range(60):
        rng.choice(ops)()

    # final: every version of every file matches the model exactly
    for path, history in model.items():
        versions = vfs.versions(path)
        assert len(versions) == len(history)
        for version, expected in zip(versions, history):
            assert vfs.read_version(path, version.number) == expected
