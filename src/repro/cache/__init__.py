"""Client-side cache subsystem: block cache, metadata TTL cache, readahead.

The paper's TSS deliberately caches nothing; this package is the
opt-in consultative layer above it, one decorator
(:class:`~repro.cache.fs.CachedFilesystem`) over any filesystem.  See
:mod:`repro.cache.policy` for the coherence contract of each mode.
"""

from repro.cache.block import BlockCache
from repro.cache.fs import CachedFilesystem
from repro.cache.handle import CachedFileHandle
from repro.cache.manager import CacheManager
from repro.cache.meta import MetaCache
from repro.cache.policy import CACHE_MODES, CachePolicy

__all__ = [
    "BlockCache",
    "CachedFileHandle",
    "CachedFilesystem",
    "CacheManager",
    "CachePolicy",
    "CACHE_MODES",
    "MetaCache",
]
