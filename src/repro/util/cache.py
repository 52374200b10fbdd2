"""Version-keyed LRU caches for the query-engine hot path.

The §3.2 optimization replaces reasoning with numeric interval
comparisons, but a busy directory still recomputes the same
``d(over, under)`` pairs on every request: each query builds a fresh
matcher, and popular concepts (categories, common outputs) recur across
the whole workload.  :class:`DistanceCache` memoizes them *across*
queries, publications and DAG insertions, owned by the directory and
shared by every matcher it creates: one subsumer map per concept for the
matching kernel, single pairs for the per-pair oracle.

Correctness hinges on the paper's code versioning (§3.2): a concept's
interval code is a pure function of the code-table snapshot, so a cached
distance is valid exactly as long as the table version is unchanged.  The
cache therefore carries the version key it was filled under and flushes
itself whenever the owner presents a different key — the same moment
stale documents start being rejected with
:class:`~repro.core.codes.StaleCodesError`.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable

#: Sentinel distinguishing "cached None" (no subsumption) from "not cached".
_ABSENT = object()

#: Default capacity in entries; ~100k pairs is a few MiB and covers the
#: full cross product of a 300-concept suite, while the kernel's subsumer
#: maps take one entry per concept.
DEFAULT_MAXSIZE = 131072


@dataclass
class CacheStats:
    """Counters describing a cache's lifetime behaviour."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def publish_to(self, metrics, prefix: str, **labels) -> None:
        """Mirror these counters into an observability metric registry
        (``<prefix>.hits`` etc.).  Pull-based on purpose: the cache keeps
        its own cheap ints on the hot path and traced runs copy them out
        once before flushing, instead of paying registry lookups per probe.
        """
        metrics.counter(f"{prefix}.hits", **labels).set(self.hits)
        metrics.counter(f"{prefix}.misses", **labels).set(self.misses)
        metrics.counter(f"{prefix}.evictions", **labels).set(self.evictions)
        metrics.counter(f"{prefix}.invalidations", **labels).set(self.invalidations)


class VersionedLruCache:
    """An LRU mapping whose whole content is keyed by a version token.

    Args:
        maxsize: maximum number of entries before LRU eviction.

    The owner calls :meth:`ensure_version` with its current version token
    (any hashable — the directory uses ``(id(table), table.version)``)
    before reading; a token change flushes everything, which is what keeps
    memoized results consistent with re-encoded ontologies (§3.2's code
    versioning).
    """

    __slots__ = ("maxsize", "version", "stats", "on_invalidate", "_data")

    def __init__(self, maxsize: int = DEFAULT_MAXSIZE) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self.version: Hashable = None
        self.stats = CacheStats()
        #: Optional callback fired with the number of dropped entries when
        #: a populated cache flushes on a version change.  Checked only on
        #: the invalidation branch — never on the per-lookup hot path.
        self.on_invalidate = None
        self._data: OrderedDict = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    def ensure_version(self, version: Hashable) -> None:
        """Flush the cache if ``version`` differs from the last one seen."""
        if version != self.version:
            if self._data:
                self.stats.invalidations += 1
                if self.on_invalidate is not None:
                    self.on_invalidate(len(self._data))
                self._data.clear()
            self.version = version

    def get(self, key: Hashable, default=None):
        """Cached value for ``key`` (marks it most-recently-used)."""
        value = self._data.get(key, _ABSENT)
        if value is _ABSENT:
            self.stats.misses += 1
            return default
        self._data.move_to_end(key)
        self.stats.hits += 1
        return value

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def put(self, key: Hashable, value) -> None:
        """Insert/overwrite ``key``, evicting the LRU entry when full."""
        if key in self._data:
            self._data.move_to_end(key)
        elif len(self._data) >= self.maxsize:
            self._data.popitem(last=False)
            self.stats.evictions += 1
        self._data[key] = value

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        self._data.clear()

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({len(self._data)}/{self.maxsize} entries, "
            f"hits={self.stats.hits}, misses={self.stats.misses})"
        )


class DistanceCache(VersionedLruCache):
    """Concept-distance memo shared across a directory's matchers.

    Two kinds of entry share one LRU and one version key:

    * **subsumer maps** (what the matching kernel reads, through
      :meth:`get`/:meth:`put`): keyed by a concept URI, the value is
      ``{over: d(over, concept)}`` for every table concept whose code
      subsumes it (:meth:`repro.core.codes.CodeTable.subsumers`).  One
      entry answers every pair with that concept on the subsumed side,
      so a catalog of N concepts needs N entries, not N² pairs;
    * **pairs** (the per-pair oracle's memo, through :meth:`lookup` /
      :meth:`store`): keyed by an ``(over, under)`` tuple, the value is
      the §2.3 ``d(over, under)`` result (``int`` levels, or ``None`` for
      "does not subsume" — also worth caching, since failed probes
      dominate matching).
    """

    def lookup(self, over: str, under: str):
        """Cached distance, or the :data:`MISS` sentinel when absent."""
        value = self._data.get((over, under), _ABSENT)
        if value is _ABSENT:
            self.stats.misses += 1
            return MISS
        self._data.move_to_end((over, under))
        self.stats.hits += 1
        return value

    def store(self, over: str, under: str, distance: int | None) -> None:
        """Record one computed distance."""
        self.put((over, under), distance)


#: Returned by :meth:`DistanceCache.lookup` when the pair is not cached
#: (``None`` is a legitimate cached value meaning "no subsumption").
MISS = _ABSENT


#: Default request-cache capacity: a backbone directory sees a working set
#: of distinct request documents far smaller than its distance-pair space.
DEFAULT_REQUEST_MAXSIZE = 1024


def document_key(document: str) -> bytes:
    """Content address of a service document (16-byte BLAKE2 digest).

    Request caching is keyed by the document *content*, not by message
    identity: the same request forwarded to N peers, retried by a client,
    or re-issued by another node hits the same entry.
    """
    return hashlib.blake2b(document.encode("utf-8"), digest_size=16).digest()


class RequestCache(VersionedLruCache):
    """Content-addressed memo of parsed/encoded request documents.

    A directory parses and encodes a request document exactly once per
    node: ``local_query`` and ``summaries_admitting`` (via
    ``_rank_forward_peers``) share the entry.  Keys are
    :func:`document_key` digests; values are whatever parsed form the
    protocol produces (S-Ariadne: the request plus its resolved interval
    codes).

    Like :class:`DistanceCache`, validity is tied to the §3.2 code
    versioning: the owner presents its ``(id(table), table.version)``
    token via :meth:`ensure_version` and any snapshot change flushes the
    whole cache — exactly when embedded codes would start being rejected
    with :class:`~repro.core.codes.StaleCodesError`.
    """

    def __init__(self, maxsize: int = DEFAULT_REQUEST_MAXSIZE) -> None:
        super().__init__(maxsize=maxsize)

    def get_document(self, document: str, default=None):
        """Cached parsed form for ``document`` (marks it recently used)."""
        return self.get(document_key(document), default)

    def put_document(self, document: str, value) -> None:
        """Record the parsed form of ``document``."""
        self.put(document_key(document), value)
