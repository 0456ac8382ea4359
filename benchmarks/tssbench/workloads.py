"""The five workloads: seeded generators, the calls they make, the oracle.

A :class:`Client` owns a connection stack, a partition of the namespace
(directories, files, records) and an RNG stream derived from ``(seed,
workload, client)``.  The benchmark runs one (``bench.client_threads``);
the partitioning is what keeps the generator's model exact -- no other
writer touches a client's files -- so every result can be checked and a
seed replays the same op sequence.

A client turns ``next_op()`` (untimed: draws the op and prepares its
payload) into ``run(op)`` (timed: exactly one call into the abstraction
layer) and ``verify(op, result)`` (untimed: checks the result against
the model, then updates the model).  Bytes are a pure function of
``(seed, key, version)``; every read checks length and 1 in 16 checks
the full content.
"""

from __future__ import annotations

import bisect
import hashlib
import random
from typing import NamedTuple, Optional

from repro import CFS, DSDB, DSFS, Adapter, ChirpClient, ClientPool, DatabaseClient, Query
from repro.auth.methods import ClientCredentials
from repro.cache.policy import CachePolicy
from repro.gems.auditor import Auditor
from repro.util.checksum import data_checksum

__all__ = ["Env", "Client", "Mismatch", "CLIENTS", "blob", "page"]

KIB = 1024
MIB = 1024 * KIB
PAGE = 4 * KIB
_FULL_CHECK_EVERY = 16


class Mismatch(Exception):
    """A result that disagrees with the generator's model."""


class Env(NamedTuple):
    """What a client needs to know about the booted system."""

    seed: int
    nthreads: int
    chirp: list  # file-server addresses, in boot order
    db: Optional[tuple]  # database-server address, if the workload has one
    creds: ClientCredentials


# ---------------------------------------------------------------------------
# content oracle
# ---------------------------------------------------------------------------


def blob(seed: int, key: str, version: int, size: int) -> bytes:
    """Whole-file content.  The 4099-byte period is deliberately not a
    divisor of any block size, so bytes served from the wrong offset of
    the right file still fail the check."""
    unit = (hashlib.blake2b(f"{seed}:{key}:{version}".encode()).digest() * 65)[:4099]
    return (unit * (size // 4099 + 1))[:size]


def page(seed: int, key: str, index: int, version: int) -> bytes:
    """One 4 KiB page of a block-workload file; every page differs."""
    return hashlib.blake2b(f"{seed}:{key}:{index}:{version}".encode()).digest() * 64


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


class Population:
    """Ranked slots with Zipf(s) popularity over the slots ever used.

    Rank = slot index; a removed item leaves a hole that the next
    ``add`` refills, so popular ranks stay populated while creates and
    unlinks churn the set.
    """

    def __init__(self, s: float, capacity: int):
        total = 0.0
        self._cum = []
        for rank in range(1, capacity + 1):
            total += rank ** -s
            self._cum.append(total)
        self.slots: list = []
        self._free: list[int] = []
        self.count = 0

    def add(self, item) -> None:
        if self._free:
            self.slots[self._free.pop()] = item
        elif len(self.slots) < len(self._cum):
            self.slots.append(item)
        else:
            raise RuntimeError("population outgrew its Zipf table")
        self.count += 1

    def remove(self, index: int) -> None:
        self.slots[index] = None
        self._free.append(index)
        self.count -= 1

    def pick(self, rng: random.Random):
        """A live ``(index, item)``, drawn by rank popularity."""
        top = self._cum[len(self.slots) - 1]
        while True:
            index = bisect.bisect_left(self._cum, rng.random() * top)
            item = self.slots[index]
            if item is not None:
                return index, item


class Deck:
    """Draws op kinds in exact shares: a deck holding each kind in
    proportion to its integer weight, shuffled by the caller's RNG and
    reshuffled when it runs out.  Every seed therefore issues the same
    mix -- only the order differs -- so run-to-run spread is the
    system's, not the binomial noise of an i.i.d. draw."""

    def __init__(self, weights: list[tuple[str, int]]):
        self._cards = [kind for kind, weight in weights for _ in range(weight)]
        self._hand: list[str] = []

    def draw(self, rng: random.Random) -> str:
        if not self._hand:
            self._hand = list(self._cards)
            rng.shuffle(self._hand)
        return self._hand.pop()


# ---------------------------------------------------------------------------
# client base
# ---------------------------------------------------------------------------


class Client:
    """One closed-loop client's view of a workload."""

    name = ""
    #: ``(name, kind)`` of the daemons to boot: kind ``local``/``cas``/``db``.
    daemons: list[tuple[str, str]] = []
    #: layer the op spans belong to in the trace.
    layer = "core"
    #: op kind -> latency class (``meta``/``read``/``write``/``bg``/``connect``).
    classes: dict[str, str] = {}
    #: ops in the fixed-count traced replay.
    trace_ops = 1000

    def __init__(self, env: Env, tid: int, metrics):
        self.env = env
        self.tid = tid
        self.metrics = metrics
        self.rng = random.Random(f"{env.seed}/{self.name}/{tid}")
        self._reads = 0

    @classmethod
    def prepare(cls, env: Env) -> None:
        """One-off, before any client exists (e.g. create the volume)."""

    def populate(self) -> None:
        raise NotImplementedError

    def next_op(self) -> tuple:
        raise NotImplementedError

    def run(self, op: tuple):
        raise NotImplementedError

    def verify(self, op: tuple, result) -> int:
        """Check ``result``, update the model, return user bytes moved."""
        raise NotImplementedError

    def live_user_bytes(self) -> int:
        """Logical bytes the model says are stored right now."""
        raise NotImplementedError

    def live_connections(self) -> int:
        return 0

    def close(self) -> None:
        raise NotImplementedError

    def _full_check_due(self) -> bool:
        self._reads += 1
        return self._reads % _FULL_CHECK_EVERY == 0


def _pool_connections(pool: ClientPool, addresses) -> int:
    return sum(pool.endpoints.endpoint(h, p).live_count for h, p in addresses)


# ---------------------------------------------------------------------------
# smallfile_dsfs
# ---------------------------------------------------------------------------


class _File:
    __slots__ = ("path", "key", "version", "size")

    def __init__(self, path: str, size: int):
        self.path = path
        self.key = path  # content stays keyed by the creation path across renames
        self.version = 0
        self.size = size


class SmallFileClient(Client):
    name = "smallfile_dsfs"
    daemons = [("fs0", "local"), ("fs1", "local"), ("fs2", "local")]
    classes = {
        "stat": "meta", "listdir": "meta", "rename": "meta", "unlink": "meta",
        "read": "read", "create": "write", "overwrite": "write", "session": "connect",
    }
    trace_ops = 500

    FILES = 1200  # pre-populated, all clients together
    DIRS = 12  # 100 files per directory
    VOLUME = "/vol"
    MIX = [
        ("stat", 40), ("read", 20), ("listdir", 8), ("create", 12),
        ("overwrite", 4), ("rename", 4), ("unlink", 10), ("session", 2),
    ]

    @classmethod
    def prepare(cls, env: Env) -> None:
        with ClientPool(env.creds) as pool:
            host, port = env.chirp[0]  # the directory tree lives on server 0
            DSFS.create(pool, host, port, cls.VOLUME, env.chirp, name="bench")

    def __init__(self, env, tid, metrics):
        super().__init__(env, tid, metrics)
        self.pool = ClientPool(env.creds, metrics=metrics)
        host, port = env.chirp[0]
        self.fs = DSFS.open_volume(self.pool, host, port, self.VOLUME)
        ndirs = max(1, self.DIRS // env.nthreads)
        self.dirs = [f"/t{tid}d{i}" for i in range(ndirs)]
        self.listing: dict[str, set] = {d: set() for d in self.dirs}
        self.nfiles = self.FILES // env.nthreads
        self.pop = Population(1.1, self.nfiles * 8)
        self.deck = Deck(self.MIX)
        self._serial = 0
        self._sessions = 0

    def _size(self) -> int:
        return self.rng.randrange(1 * KIB, 8 * KIB + 1)

    def _track(self, f: _File) -> None:
        d, _, name = f.path.rpartition("/")
        self.listing[d].add(name)

    def _untrack(self, path: str) -> None:
        d, _, name = path.rpartition("/")
        self.listing[d].discard(name)

    def populate(self) -> None:
        for d in self.dirs:
            self.fs.mkdir(d)
        files = []
        for i in range(self.nfiles):
            f = _File(f"{self.dirs[i % len(self.dirs)]}/f{i:05d}", self._size())
            self.fs.write_file(f.path, blob(self.env.seed, f.key, 0, f.size))
            files.append(f)
        self.rng.shuffle(files)  # popularity rank is unrelated to directory order
        for f in files:
            self.pop.add(f)
            self._track(f)

    def next_op(self) -> tuple:
        kind = self.deck.draw(self.rng)
        rng = self.rng
        if kind == "session":
            return (kind,)
        if kind == "listdir":
            return (kind, rng.choice(self.dirs))
        if kind == "create" or self.pop.count < 2:
            self._serial += 1
            path = f"{rng.choice(self.dirs)}/n{self._serial:06d}"
            size = self._size()
            return ("create", path, size, blob(self.env.seed, path, 0, size))
        index, f = self.pop.pick(rng)
        if kind == "overwrite":
            size = self._size()
            return (kind, f, size, blob(self.env.seed, f.key, f.version + 1, size))
        if kind == "rename":
            self._serial += 1
            return (kind, f, f"{rng.choice(self.dirs)}/r{self._serial:06d}")
        if kind == "unlink":
            return (kind, f, index)
        return (kind, f)  # stat, read

    def run(self, op):
        kind = op[0]
        fs = self.fs
        if kind == "stat":
            return fs.stat(op[1].path)
        if kind == "read":
            return fs.read_file(op[1].path)
        if kind == "listdir":
            return fs.listdir(op[1])
        if kind == "create":
            return fs.write_file(op[1], op[3])
        if kind == "overwrite":
            return fs.write_file(op[1].path, op[3])
        if kind == "rename":
            return fs.rename(op[1].path, op[2])
        if kind == "unlink":
            return fs.unlink(op[1].path)
        # session: connect + authenticate + one RPC + close, the cost a
        # short-lived tool pays before its first byte.
        host, port = self.env.chirp[0]
        client = ChirpClient(host, port, credentials=self.env.creds, metrics=self.metrics)
        try:
            return client.whoami()
        finally:
            client.close()

    def verify(self, op, result) -> int:
        kind = op[0]
        if kind == "stat":
            _expect(result.size == op[1].size, f"stat {op[1].path}: size {result.size} != {op[1].size}")
            return 0
        if kind == "read":
            f = op[1]
            _expect(len(result) == f.size, f"read {f.path}: {len(result)} bytes != {f.size}")
            if self._full_check_due():
                _expect(result == blob(self.env.seed, f.key, f.version, f.size), f"read {f.path}: content")
            return len(result)
        if kind == "listdir":
            _expect(sorted(result) == sorted(self.listing[op[1]]), f"listdir {op[1]}: names differ")
            return 0
        if kind == "create":
            _expect(result == op[2], f"create {op[1]}: wrote {result} != {op[2]}")
            f = _File(op[1], op[2])
            self.pop.add(f)
            self._track(f)
            return op[2]
        if kind == "overwrite":
            f = op[1]
            _expect(result == op[2], f"overwrite {f.path}: wrote {result} != {op[2]}")
            f.version += 1
            f.size = op[2]
            return op[2]
        if kind == "rename":
            f = op[1]
            self._untrack(f.path)
            f.path = op[2]
            self._track(f)
            return 0
        if kind == "unlink":
            self._untrack(op[1].path)
            self.pop.remove(op[2])
            return 0
        _expect(result.startswith("unix:"), f"whoami answered {result!r}")
        self._sessions += 1
        return 0

    def live_user_bytes(self) -> int:
        return sum(f.size for f in self.pop.slots if f is not None)

    def live_connections(self) -> int:
        return _pool_connections(self.pool, self.env.chirp) + self._sessions

    def close(self) -> None:
        self.pool.close()


# ---------------------------------------------------------------------------
# stream_cfs
# ---------------------------------------------------------------------------


class StreamClient(Client):
    name = "stream_cfs"
    daemons = [("fs0", "local")]
    classes = {"write": "write", "read": "read", "verified": "read"}
    trace_ops = 24

    FILE_BYTES = 16 * MIB
    FILES = 8  # per client: 128 MiB, fits the page cache
    #: distinct payloads per client.  Content is still a pure function of
    #: (seed, path, version) -- it picks one of these -- but generating and
    #: hashing 16 MiB per op would cost the client more CPU than the
    #: transfer being measured.
    PAYLOADS = 4
    MIX = [("write", 9), ("read", 9), ("verified", 2)]

    def __init__(self, env, tid, metrics):
        super().__init__(env, tid, metrics)
        self.pool = ClientPool(env.creds, metrics=metrics)
        self.client = self.pool.get(*env.chirp[0])
        self.fs = CFS(self.client)
        self.paths = [f"/t{tid}/s{i}.bin" for i in range(self.FILES)]
        self.versions = [0] * self.FILES
        self.payloads = [
            blob(env.seed, f"stream/{tid}", i, self.FILE_BYTES) for i in range(self.PAYLOADS)
        ]
        self.digests = [data_checksum(data) for data in self.payloads]
        self.deck = Deck(self.MIX)

    def _variant(self, k: int, version: int) -> int:
        return (k + version) % self.PAYLOADS

    def populate(self) -> None:
        self.fs.mkdir(f"/t{self.tid}")
        for k in range(self.FILES):
            self.fs.write_file(self.paths[k], self.payloads[self._variant(k, 0)])

    def next_op(self) -> tuple:
        kind = self.deck.draw(self.rng)
        k = self.rng.randrange(self.FILES)
        if kind == "write":
            return (kind, k, self.payloads[self._variant(k, self.versions[k] + 1)])
        if kind == "verified":
            return (kind, k, self.digests[self._variant(k, self.versions[k])])
        return (kind, k)

    def run(self, op):
        kind, k = op[0], op[1]
        if kind == "write":
            return self.fs.write_file(self.paths[k], op[2])
        if kind == "read":
            return self.fs.read_file(self.paths[k])
        return self.client.getfile_verified(self.paths[k], op[2])

    def verify(self, op, result) -> int:
        kind, k = op[0], op[1]
        if kind == "write":
            _expect(result == self.FILE_BYTES, f"write {self.paths[k]}: {result} bytes")
            self.versions[k] += 1
            return self.FILE_BYTES
        _expect(len(result) == self.FILE_BYTES, f"{kind} {self.paths[k]}: {len(result)} bytes")
        if self._full_check_due():
            want = self.payloads[self._variant(k, self.versions[k])]
            _expect(result == want, f"{kind} {self.paths[k]}: content")
        return len(result)

    def live_user_bytes(self) -> int:
        return self.FILES * self.FILE_BYTES

    def live_connections(self) -> int:
        return _pool_connections(self.pool, self.env.chirp)

    def close(self) -> None:
        self.pool.close()


# ---------------------------------------------------------------------------
# block_fit / block_spill
# ---------------------------------------------------------------------------


class BlockClient(Client):
    """Random/sequential 4 KiB I/O on open files through a private cache."""

    daemons = [("fs0", "local")]
    layer = "adapter"
    classes = {"rand": "read", "seq": "read", "write": "write"}

    BLOCK = 64 * KIB
    CAPACITY = 32 * MIB
    FILES = 4
    RUN = 32  # pages per sequential run
    WORKING_SET = 0  # bytes per adapter; set by the subclass
    SHARES = (0, 0, 0)  # random, sequential, write -- percent of ops

    def __init__(self, env, tid, metrics):
        super().__init__(env, tid, metrics)
        self.adapter = Adapter(
            credentials=env.creds,
            metrics=metrics,
            cache_policy=CachePolicy(
                mode="private", block_size=self.BLOCK, capacity_bytes=self.CAPACITY
            ),
        )
        host, port = env.chirp[0]
        self.base = f"/cfs/{host}:{port}/t{tid}"
        self.keys = [f"/t{tid}/b{k}.dat" for k in range(self.FILES)]
        self.pages = self.WORKING_SET // self.FILES // PAGE
        self.versions: list[dict[int, int]] = [{} for _ in range(self.FILES)]
        self.handles: list = []
        rand, seq, write = self.SHARES
        # A sequential run is RUN ops from one card, so a card's weight is
        # its op share over the ops it stands for (scaled to integers).
        self.deck = Deck([("rand", rand * self.RUN), ("seq", seq), ("write", write * self.RUN)])
        self._run_left = 0
        self._run_at = (0, 0)

    def populate(self) -> None:
        self.adapter.mkdir(self.base)
        for k, key in enumerate(self.keys):
            path = f"{self.base}/b{k}.dat"
            data = b"".join(page(self.env.seed, key, p, 0) for p in range(self.pages))
            self.adapter.write_bytes(path, data)
            self.handles.append(self.adapter.open(path, "r+b"))

    def next_op(self) -> tuple:
        if self._run_left:
            self._run_left -= 1
            k, p = self._run_at
            self._run_at = (k, p + 1)
            return ("seq", k, p + 1)
        rng = self.rng
        kind = self.deck.draw(rng)
        k = rng.randrange(self.FILES)
        if kind == "seq":
            p = rng.randrange(self.pages - self.RUN + 1)
            self._run_left = self.RUN - 1
            self._run_at = (k, p)
            return (kind, k, p)
        p = rng.randrange(self.pages)
        if kind == "write":
            version = self.versions[k].get(p, 0) + 1
            return (kind, k, p, page(self.env.seed, self.keys[k], p, version))
        return (kind, k, p)

    def run(self, op):
        fh = self.handles[op[1]]
        fh.seek(op[2] * PAGE)
        if op[0] == "write":
            return fh.write(op[3])
        return fh.read(PAGE)

    def verify(self, op, result) -> int:
        kind, k, p = op[0], op[1], op[2]
        if kind == "write":
            _expect(result == PAGE, f"pwrite {self.keys[k]}@{p}: wrote {result}")
            self.versions[k][p] = self.versions[k].get(p, 0) + 1
            return PAGE
        _expect(len(result) == PAGE, f"read {self.keys[k]}@{p}: {len(result)} bytes")
        if self._full_check_due():
            want = page(self.env.seed, self.keys[k], p, self.versions[k].get(p, 0))
            _expect(result == want, f"read {self.keys[k]}@{p}: content")
        return PAGE

    def live_user_bytes(self) -> int:
        return self.WORKING_SET

    def live_connections(self) -> int:
        return _pool_connections(self.adapter.pool, self.env.chirp)

    def close(self) -> None:
        for fh in self.handles:
            fh.close()
        self.adapter.close()


class BlockFitClient(BlockClient):
    name = "block_fit"
    WORKING_SET = 16 * MIB  # half the cache
    SHARES = (78, 20, 2)
    trace_ops = 20000


class BlockSpillClient(BlockClient):
    name = "block_spill"
    WORKING_SET = 192 * MIB  # six times the cache
    SHARES = (70, 20, 10)
    trace_ops = 10000


# ---------------------------------------------------------------------------
# dsdb_gems
# ---------------------------------------------------------------------------


class _Record:
    __slots__ = ("rid", "name", "molecule", "doc")

    def __init__(self, name: str, molecule: str, doc: dict):
        self.rid = doc["id"]
        self.name = name
        self.molecule = molecule
        self.doc = doc


class DsdbClient(Client):
    name = "dsdb_gems"
    daemons = [("fs0", "cas"), ("fs1", "cas"), ("fs2", "cas"), ("db", "db")]
    classes = {
        "ingest": "write", "fetch": "read", "get": "meta", "query": "meta",
        "delete": "meta", "audit": "bg",
    }
    trace_ops = 300

    RECORDS = 300  # pre-ingested, all clients together
    RECORD_BYTES = 16 * KIB
    REPLICAS = 2
    MOLECULES = 50  # all clients together
    QUERY_LIMIT = 10  # every db call is bounded: replies over MAX_LINE drop the connection
    AUDIT_BATCH = 20
    MIX = [("ingest", 4), ("fetch", 5), ("get", 5), ("query", 4), ("delete", 1), ("audit", 1)]

    def __init__(self, env, tid, metrics):
        super().__init__(env, tid, metrics)
        self.pool = ClientPool(env.creds, metrics=metrics)
        self.db = DatabaseClient(*env.db, credentials=env.creds, metrics=metrics)
        self.dsdb = DSDB(self.db, self.pool, env.chirp, volume="gems")
        self.auditor = Auditor(self.dsdb)
        per_thread = max(1, self.MOLECULES // env.nthreads)
        self.molecules = [f"mol-{tid}-{i}" for i in range(per_thread)]
        self.by_molecule: dict[str, set] = {m: set() for m in self.molecules}
        self.records: list[_Record] = []
        self._serial = 0
        self.deck = Deck(self.MIX)

    def _new(self) -> tuple:
        self._serial += 1
        name = f"rec-{self.tid}-{self._serial:06d}"
        meta = {"molecule": self.rng.choice(self.molecules), "step": self._serial}
        return name, meta, blob(self.env.seed, name, 0, self.RECORD_BYTES)

    def _ingested(self, name: str, meta: dict, doc: dict) -> None:
        _expect(len(doc["replicas"]) == self.REPLICAS, f"ingest {name}: {len(doc['replicas'])} replicas")
        _expect(doc["size"] == self.RECORD_BYTES, f"ingest {name}: size {doc['size']}")
        rec = _Record(name, meta["molecule"], doc)
        self.records.append(rec)
        self.by_molecule[rec.molecule].add(rec.rid)

    def populate(self) -> None:
        for _ in range(self.RECORDS // self.env.nthreads):
            name, meta, data = self._new()
            self._ingested(name, meta, self.dsdb.ingest(name, data, meta, replicas=self.REPLICAS))

    def next_op(self) -> tuple:
        kind = self.deck.draw(self.rng)
        rng = self.rng
        if kind == "ingest" or len(self.records) < self.AUDIT_BATCH + 1:
            return ("ingest",) + self._new()
        if kind == "query":
            return (kind, rng.choice(self.molecules))
        if kind == "audit":
            return (kind, rng.sample(self.records, self.AUDIT_BATCH))
        return (kind, rng.randrange(len(self.records)))  # fetch, get, delete

    def run(self, op):
        kind = op[0]
        if kind == "ingest":
            return self.dsdb.ingest(op[1], op[3], op[2], replicas=self.REPLICAS)
        if kind == "fetch":
            return self.dsdb.fetch(self.records[op[1]].rid, verify=True)
        if kind == "get":
            return self.dsdb.get(self.records[op[1]].rid)
        if kind == "query":
            return self.dsdb.query(
                Query.where(tss_kind="file", molecule=op[1]), limit=self.QUERY_LIMIT
            )
        if kind == "delete":
            return self.dsdb.delete(self.records[op[1]].rid)
        return self.auditor.audit_records([rec.doc for rec in op[1]])

    def verify(self, op, result) -> int:
        kind = op[0]
        if kind == "ingest":
            self._ingested(op[1], op[2], result)
            return self.RECORD_BYTES
        if kind == "query":
            known = self.by_molecule[op[1]]
            _expect(
                len(result) == min(self.QUERY_LIMIT, len(known)),
                f"query {op[1]}: {len(result)} rows, model has {len(known)}",
            )
            for doc in result:
                _expect(doc["id"] in known and doc["molecule"] == op[1], f"query {op[1]}: stray row {doc['id']}")
            return 0
        if kind == "audit":
            checked = self.AUDIT_BATCH * self.REPLICAS
            _expect(
                result.replicas_checked == checked and result.healthy == checked,
                f"audit: {result.healthy}/{result.replicas_checked} healthy of {checked}",
            )
            return 0
        rec = self.records[op[1]]
        if kind == "fetch":
            _expect(len(result) == self.RECORD_BYTES, f"fetch {rec.name}: {len(result)} bytes")
            if self._full_check_due():
                _expect(result == blob(self.env.seed, rec.name, 0, self.RECORD_BYTES), f"fetch {rec.name}: content")
            return len(result)
        if kind == "get":
            _expect(
                result is not None
                and result["name"] == rec.name
                and result["checksum"] == rec.doc["checksum"]
                and result["molecule"] == rec.molecule,
                f"get {rec.name}: wrong record",
            )
            return 0
        # delete: swap-remove keeps uniform picks O(1)
        self.by_molecule[rec.molecule].discard(rec.rid)
        self.records[op[1]] = self.records[-1]
        self.records.pop()
        return 0

    def live_user_bytes(self) -> int:
        return len(self.records) * self.RECORD_BYTES

    def live_connections(self) -> int:
        return _pool_connections(self.pool, self.env.chirp) + self.db.endpoint.live_count

    def close(self) -> None:
        self.db.close()
        self.pool.close()


CLIENTS: dict[str, type] = {
    cls.name: cls
    for cls in (SmallFileClient, StreamClient, BlockFitClient, BlockSpillClient, DsdbClient)
}
