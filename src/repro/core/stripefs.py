"""StripedFS: a transparently striping filesystem.

The second half of the paper's future-work sentence ("filesystems that
transparently stripe, replicate, and version data").  A file's bytes are
interleaved round-robin in fixed-size stripes across N data servers, so
a single client can exceed one server's disk or NIC -- the aggregate-
bandwidth effect Figures 6-8 get from whole-file placement, delivered
*within* one file.

Layout: logical chunk ``k`` (bytes ``[k*S, (k+1)*S)``) lives in stripe
file ``k % N`` at inner offset ``(k // N) * S``.  Every logical byte maps
to exactly one stripe byte, so the logical size is simply the sum of the
stripe file sizes; pure functions below implement the mapping and are
property-tested against a byte-level reference.  The filesystem is a
:class:`Striped` layout of the stub engine (:mod:`repro.core.stubfs`).

Availability trade-off (documented, deliberate): striping *divides*
failure coherence -- losing any one stripe server makes the whole file
unavailable.  Stripe for bandwidth, replicate for durability; the two
compose by mounting a :class:`~repro.core.replfs.ReplicatedFS` under the
stripes' metadata if both are needed.

Sparse-file caveat: a hole that ends inside an *unwritten stripe tail*
reads as end-of-file rather than zeros (the stripe file is simply short),
so reads stop at the first such hole.  Dense (gapless) files behave
exactly like flat files; sparse logical files would need the logical size
recorded in metadata, which this minimal extension deliberately omits.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Optional, Sequence, TypeVar

from repro.chirp.protocol import ChirpStat
from repro.core.interface import FileHandle, Filesystem
from repro.core.pool import ClientPool
from repro.core.stubfs import Layout, StubFilesystem, close_quietly, fan_out
from repro.core.stubs import Stub, decode_doc, encode_doc, parse_locations
from repro.transport.fanout import DEFAULT_FANOUT, FanoutPool
from repro.util.errors import (
    DisconnectedError,
    DoesNotExistError,
    PartialFailureError,
)

__all__ = [
    "StripedFS",
    "StripeStub",
    "StripedHandle",
    "Striped",
    "map_extent",
    "stripe_sizes_for_length",
]

_T = TypeVar("_T")

DEFAULT_STRIPE_SIZE = 64 * 1024


# ---------------------------------------------------------------------------
# pure layout math
# ---------------------------------------------------------------------------


def map_extent(offset: int, length: int, n_stripes: int, stripe_size: int):
    """Split a logical byte extent into per-stripe pieces.

    Yields ``(stripe_index, inner_offset, piece_length, logical_offset)``
    in logical order.  Pure function -- the heart of the striping layout.
    """
    if offset < 0 or length < 0:
        raise ValueError("negative offset or length")
    position = offset
    end = offset + length
    while position < end:
        chunk = position // stripe_size
        within = position - chunk * stripe_size
        piece = min(stripe_size - within, end - position)
        stripe = chunk % n_stripes
        inner = (chunk // n_stripes) * stripe_size + within
        yield (stripe, inner, piece, position)
        position += piece


def stripe_sizes_for_length(length: int, n_stripes: int, stripe_size: int) -> list[int]:
    """Size of each stripe file for a logical file of ``length`` bytes."""
    if length < 0:
        raise ValueError("negative length")
    sizes = [0] * n_stripes
    full_chunks, remainder = divmod(length, stripe_size)
    rounds, extra = divmod(full_chunks, n_stripes)
    for i in range(n_stripes):
        sizes[i] = rounds * stripe_size
        if i < extra:
            sizes[i] += stripe_size
    if remainder:
        sizes[extra % n_stripes] += remainder
    return sizes


# ---------------------------------------------------------------------------
# on-disk pointer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StripeStub:
    """Pointer to a striped file's pieces."""

    stripe_size: int
    locations: tuple[tuple[str, int, str], ...]  # one per stripe, in order

    def encode(self) -> bytes:
        return encode_doc(
            "sstub",
            stripe_size=self.stripe_size,
            locations=[list(loc) for loc in self.locations],
        )

    @classmethod
    def decode(cls, raw: bytes) -> "StripeStub":
        def parse(doc: dict) -> "StripeStub":
            stripe_size = int(doc["stripe_size"])
            if stripe_size < 1:
                raise ValueError("stripe size must be positive")
            return cls(stripe_size, parse_locations(doc))

        return decode_doc(raw, "sstub", "stripe stub", parse)


# ---------------------------------------------------------------------------
# the handle
# ---------------------------------------------------------------------------


class StripedHandle(FileHandle):
    """An open striped file: extents scatter/gather across stripe handles.

    Reads *and* writes spanning several stripes run **in parallel**
    through the filesystem's :class:`FanoutPool` -- each stripe server
    has its own connections at the transport layer, so a wide extent
    aggregates the servers' bandwidth, which is the point of striping.
    Pieces landing on the same stripe keep their logical order (one
    worker walks each stripe's piece list), so per-stripe write ordering
    within one handle stays obvious.  A pool sized to one worker degrades
    to serial execution -- the forced-serial arm of the striping ablation.
    """

    def __init__(
        self,
        stripes: list[tuple[Stub, FileHandle]],
        stripe_size: int,
        fanout: Optional[FanoutPool] = None,
    ):
        if not stripes:
            raise DoesNotExistError("no stripe could be opened")
        self._members = [member for member, _ in stripes]
        self._handles = [handle for _, handle in stripes]
        self.stripe_size = stripe_size
        self.fanout = fanout or FanoutPool(min(len(stripes), DEFAULT_FANOUT))

    @property
    def width(self) -> int:
        return len(self._handles)

    def _on_stripes(self, stripes: Iterable[int], work: Callable[[int], _T]) -> list[_T]:
        """``work(stripe)`` for every stripe, concurrently.

        Striping has no redundancy, so *any* dead stripe fails the
        operation -- but the error names every dead stripe, not just the
        first, so an operator (or a replication layer above) knows the
        full damage from one exception.
        """
        outcomes = fan_out(self.fanout, stripes, work)
        for _, _, exc in outcomes:
            if exc is not None and not isinstance(exc, DisconnectedError):
                raise exc
        failures = []
        for stripe, _, exc in sorted(outcomes, key=lambda o: o[0]):
            if exc is not None:
                member = self._members[stripe]
                label = f"{member.host}:{member.port}"
                failures.append((stripe, label, str(exc) or "disconnected"))
        if failures:
            raise PartialFailureError(
                f"{len(failures)} of {self.width} stripes unreachable",
                failures=failures,
            )
        return [result for _, result, _ in outcomes]

    def _pieces(self, offset: int, length: int) -> tuple[list, dict[int, list]]:
        """The extent's pieces in logical order, and grouped by stripe."""
        pieces = list(map_extent(offset, length, self.width, self.stripe_size))
        by_stripe: dict[int, list] = {}
        for item in pieces:
            by_stripe.setdefault(item[0], []).append(item)
        return pieces, by_stripe

    def pread(self, length: int, offset: int) -> bytes:
        pieces, by_stripe = self._pieces(offset, length)
        results: dict[int, bytes] = {}  # logical offset -> data

        def fetch(stripe: int) -> None:
            handle = self._handles[stripe]
            for _s, inner, piece, logical in by_stripe[stripe]:
                data = handle.pread(piece, inner)
                results[logical] = data
                if len(data) < piece:
                    break  # EOF in this stripe; later pieces are past it

        self._on_stripes(by_stripe, fetch)

        # reassemble while contiguous; stop at the first gap/short piece
        out = []
        position = offset
        for _stripe, _inner, piece, logical in pieces:
            data = results.get(logical)
            if data is None or logical != position:
                break
            out.append(data)
            position += len(data)
            if len(data) < piece:
                break
        return b"".join(out)

    def pwrite(self, data: bytes, offset: int) -> int:
        view = memoryview(data)
        _, by_stripe = self._pieces(offset, len(data))

        def push(stripe: int) -> int:
            handle = self._handles[stripe]
            return sum(
                handle.pwrite(bytes(view[logical - offset : logical - offset + piece]), inner)
                for _s, inner, piece, logical in by_stripe[stripe]
            )

        return sum(self._on_stripes(by_stripe, push))

    def fsync(self) -> None:
        self._on_stripes(range(self.width), lambda s: self._handles[s].fsync())

    def fstat(self) -> ChirpStat:
        stats = [h.fstat() for h in self._handles]
        return replace(
            stats[0],
            size=sum(st.size for st in stats),
            atime=max(st.atime for st in stats),
            mtime=max(st.mtime for st in stats),
            ctime=max(st.ctime for st in stats),
        )

    def ftruncate(self, size: int) -> None:
        for i, target in enumerate(
            stripe_sizes_for_length(size, self.width, self.stripe_size)
        ):
            self._handles[i].ftruncate(target)

    def close(self) -> None:
        for handle in self._handles:
            close_quietly(handle)


# ---------------------------------------------------------------------------
# the layout and the filesystem
# ---------------------------------------------------------------------------


class Striped(Layout):
    """``stripes`` files on distinct servers, chunks dealt round-robin."""

    def __init__(self, stripes: int, stripe_size: int):
        self.width = stripes
        self.stripe_size = stripe_size

    def decode(self, raw: bytes) -> StripeStub:
        return StripeStub.decode(raw)

    def new_stub(self, members: Sequence[Stub]) -> StripeStub:
        return StripeStub(self.stripe_size, tuple((m.host, m.port, m.path) for m in members))

    def members(self, stub: StripeStub) -> tuple[Stub, ...]:
        return tuple(Stub(*loc) for loc in stub.locations)

    def handle(self, stub: StripeStub, opened, fs) -> StripedHandle:
        return StripedHandle(opened, stub.stripe_size, fanout=fs.fanout)

    def merge_stat(self, mst: ChirpStat, stats: list[ChirpStat]) -> ChirpStat:
        newest = max(dst.mtime for dst in stats)
        return replace(
            mst,
            mode=mst.mode & ~0o170000 | 0o100000,  # present as a regular file
            size=sum(dst.size for dst in stats),
            atime=newest,
            mtime=newest,
        )

    def split(self, stub: StripeStub, data: bytes) -> list:
        n, size = len(stub.locations), stub.stripe_size
        view = memoryview(data)
        return [
            b"".join(view[at : at + size] for at in range(s * size, len(data), n * size))
            for s in range(n)
        ]

    def assemble(self, stub: StripeStub, parts: list[bytes]) -> bytes:
        """Interleave the stripes' chunks back in logical order, up to the
        first short one (where the file, or a stripe's written tail,
        ends)."""
        n, size = len(parts), stub.stripe_size
        out = []
        for chunk in itertools.count():
            inner = (chunk // n) * size
            piece = parts[chunk % n][inner : inner + size]
            out.append(piece)
            if len(piece) < size:
                return b"".join(out)

    def truncate_sizes(self, stub: StripeStub, size: int) -> list[int]:
        return stripe_sizes_for_length(size, len(stub.locations), stub.stripe_size)


class StripedFS(StubFilesystem):
    """A DSFS-shaped filesystem whose files are striped across servers."""

    def __init__(
        self,
        meta: Filesystem,
        pool: Optional[ClientPool],
        servers: Sequence[tuple[str, int]],
        data_dir: str,
        stripe_size: int = DEFAULT_STRIPE_SIZE,
        stripes: Optional[int] = None,
        fanout_workers: Optional[int] = None,
        **kwargs,
    ):
        if stripe_size < 1:
            raise ValueError("stripe_size must be positive")
        super().__init__(meta, pool, servers, data_dir, **kwargs)
        self.stripes = stripes if stripes is not None else len(self.servers)
        if not 1 <= self.stripes <= len(self.servers):
            raise ValueError("stripes must be between 1 and the server count")
        self.stripe_size = stripe_size
        self.layout = Striped(self.stripes, stripe_size)
        if fanout_workers is not None:
            # Shared by every handle; 1 forces serial stripe I/O (the
            # ablation baseline).
            self.fanout = FanoutPool(fanout_workers)
