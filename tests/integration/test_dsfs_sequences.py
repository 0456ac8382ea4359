"""Randomized operation sequences: DSFS vs an in-memory model.

A seeded generator drives a live DSFS (three data servers + directory
server) through hundreds of mixed operations and mirrors each one on a
plain dict model; observable state (listings, contents, errors) must
match at every step.  This catches interaction bugs no hand-written case
covers, at a fraction of the cost of hypothesis-over-sockets.
"""

import posixpath
import random

import pytest

from repro.core.dsfs import DSFS
from repro.core.placement import RoundRobinPlacement
from repro.transport.recovery import RetryPolicy
from repro.util import errors as E

FAST = RetryPolicy(max_attempts=3, initial_delay=0.05)

NAMES = ["a", "b", "c", "data.bin", "notes.txt"]
DIRS = ["/", "/d1", "/d2", "/d1/nested"]


class Model:
    """Ground truth: files is path->bytes; dirs is a set of paths."""

    def __init__(self):
        self.files: dict[str, bytes] = {}
        self.dirs = {"/"}

    def parent_exists(self, path: str) -> bool:
        return posixpath.dirname(path) in self.dirs


def random_path(rng) -> str:
    d = rng.choice(DIRS)
    return posixpath.join(d, rng.choice(NAMES))


@pytest.fixture()
def live(server_factory, pool):
    servers = [server_factory.new() for _ in range(3)]
    dir_server = server_factory.new()
    fs = DSFS.create(
        pool,
        *dir_server.address,
        "/vol",
        [s.address for s in servers],
        name="vol",
        placement=RoundRobinPlacement(seed=11),
        policy=FAST,
    )
    return fs


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_sequences_match_model(live, seed):
    rng = random.Random(seed)
    model = Model()

    def op_write():
        path = random_path(rng)
        if not model.parent_exists(path) or path in model.dirs:
            return  # would fail identically on both sides; skip for pace
        data = bytes([rng.randrange(256)]) * rng.randrange(1, 2000)
        live.write_file(path, data)
        model.files[path] = data

    def op_read():
        path = random_path(rng)
        if path in model.files:
            assert live.read_file(path) == model.files[path]
        elif model.parent_exists(path) and path not in model.dirs:
            with pytest.raises(E.ChirpError):
                live.read_file(path)

    def op_mkdir():
        parent = rng.choice(DIRS)
        child = posixpath.join(parent, rng.choice(["d1", "d2", "nested"]))
        if child not in DIRS:
            return
        if parent not in model.dirs:
            return
        if child in model.dirs or child in model.files:
            with pytest.raises(E.ChirpError):
                live.mkdir(child)
        else:
            live.mkdir(child)
            model.dirs.add(child)

    def op_unlink():
        path = random_path(rng)
        if path in model.files:
            live.unlink(path)
            del model.files[path]
        elif model.parent_exists(path) and path not in model.dirs:
            with pytest.raises(E.ChirpError):
                live.unlink(path)

    def op_rename():
        src = random_path(rng)
        dst = random_path(rng)
        if src not in model.files or src == dst:
            return
        if not model.parent_exists(dst) or dst in model.dirs:
            return
        live.rename(src, dst)
        model.files[dst] = model.files.pop(src)

    def op_listdir():
        d = rng.choice(DIRS)
        if d not in model.dirs:
            return
        expected = set()
        for f in model.files:
            if posixpath.dirname(f) == d:
                expected.add(posixpath.basename(f))
        for sub in model.dirs:
            if sub != "/" and posixpath.dirname(sub) == d:
                expected.add(posixpath.basename(sub))
        assert set(live.listdir(d)) == expected

    def op_stat():
        path = random_path(rng)
        if path in model.files:
            assert live.stat(path).size == len(model.files[path])

    def op_truncate():
        path = random_path(rng)
        if path not in model.files:
            return
        new_len = rng.randrange(0, len(model.files[path]) + 1)
        live.truncate(path, new_len)
        model.files[path] = model.files[path][:new_len]

    ops = [
        (op_write, 5),
        (op_read, 4),
        (op_mkdir, 2),
        (op_unlink, 2),
        (op_rename, 2),
        (op_listdir, 2),
        (op_stat, 2),
        (op_truncate, 1),
    ]
    weighted = [fn for fn, weight in ops for _ in range(weight)]

    for _ in range(200):
        rng.choice(weighted)()

    # final full-state comparison
    for path, data in model.files.items():
        assert live.read_file(path) == data
    for d in model.dirs:
        op = set(live.listdir(d))
        expected = {
            posixpath.basename(p)
            for p in list(model.files) + [x for x in model.dirs if x != "/"]
            if posixpath.dirname(p) == d
        }
        assert op == expected
