"""Bloom filters for directory content summaries (paper §4).

S-Ariadne directories summarize the set of ontologies used by their cached
capabilities in a Bloom filter and exchange these summaries so that a query
is only forwarded to directories that are *likely* to hold a matching
capability.  The implementation below is a classic m-bit / k-hash Bloom
filter with double hashing (Kirsch & Mitzenmacher) over SHA-256, which
gives k independent-enough hash functions from two.

The filter hashes *items* — for S-Ariadne an item is the canonical string
form of a capability's ontology set (see :mod:`repro.core.summaries`), but
the structure is generic and is also used by the syntactic Ariadne baseline
over WSDL keywords.
"""

from __future__ import annotations

import functools
import hashlib
import math
from array import array
from collections.abc import Iterable


def _base_hashes(item: str) -> tuple[int, int]:
    digest = hashlib.sha256(item.encode("utf-8")).digest()
    h1 = int.from_bytes(digest[:8], "big")
    h2 = int.from_bytes(digest[8:16], "big")
    # h2 must be odd so that the double-hashing probe sequence cycles
    # through all positions for power-of-two sizes as well.
    return h1, h2 | 1


# A summary's items are ontology sets and ontology URIs, far fewer than
# the memo holds.
@functools.lru_cache(maxsize=4096)
def item_positions(item: str, m: int, k: int) -> tuple[int, ...]:
    """The k probe positions of ``item`` in an (m, k) filter.

    Public so batch testers (:class:`repro.core.summaries.SummaryBank`)
    can hash an item *once* per (m, k) parameter group and reuse the
    positions across every peer filter — the per-peer SHA-256 was the
    dominant cost of testing one request against N summaries.  Memoized:
    a directory's summary adds and removes the same few hundred
    ontology-set items on every publication and withdrawal.
    """
    h1, h2 = _base_hashes(item)
    return tuple((h1 + i * h2) % m for i in range(k))


def item_mask(item: str, m: int, k: int) -> int:
    """``item``'s k probe bits as one integer mask.

    A filter with bit vector ``bits`` contains the item iff
    ``bits & mask == mask`` — one bitwise subset test instead of k
    indexed probes.
    """
    mask = 0
    for pos in item_positions(item, m, k):
        mask |= 1 << pos
    return mask


def optimal_parameters(expected_items: int, false_positive_rate: float) -> tuple[int, int]:
    """Return ``(m, k)`` minimizing size for a target false-positive rate.

    Standard Bloom sizing: ``m = -n ln p / (ln 2)^2`` and ``k = m/n ln 2``.

    Raises:
        ValueError: if ``expected_items < 1`` or the rate is not in (0, 1).
    """
    if expected_items < 1:
        raise ValueError(f"expected_items must be >= 1, got {expected_items}")
    if not 0.0 < false_positive_rate < 1.0:
        raise ValueError(f"false_positive_rate must be in (0, 1), got {false_positive_rate}")
    m = math.ceil(-expected_items * math.log(false_positive_rate) / (math.log(2) ** 2))
    k = max(1, round(m / expected_items * math.log(2)))
    return m, k


class BloomFilter:
    """An m-bit Bloom filter with k hash functions.

    Supports adding string items, membership tests (with false positives,
    never false negatives), union (for aggregating summaries along a
    directory backbone), and a compact wire representation.
    """

    __slots__ = ("m", "k", "_bits", "_count")

    def __init__(self, m: int = 256, k: int = 4) -> None:
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.m = m
        self.k = k
        self._bits = 0
        self._count = 0

    def _positions(self, item: str) -> tuple[int, ...]:
        return item_positions(item, self.m, self.k)

    def add(self, item: str) -> None:
        """Set the k bit positions for ``item``."""
        for pos in self._positions(item):
            self._bits |= 1 << pos
        self._count += 1

    @property
    def bits(self) -> int:
        """The raw bit vector (read-only view for batch testers)."""
        return self._bits

    def update(self, items: Iterable[str]) -> None:
        """Add every item in ``items``."""
        for item in items:
            self.add(item)

    def __contains__(self, item: str) -> bool:
        return all(self._bits >> pos & 1 for pos in self._positions(item))

    def might_contain(self, item: str) -> bool:
        """Alias of ``in`` with a name that advertises the false positives."""
        return item in self

    @property
    def approximate_items(self) -> int:
        """Number of ``add`` calls recorded (not deduplicated)."""
        return self._count

    @property
    def fill_ratio(self) -> float:
        """Fraction of bits set; a saturation indicator for re-exchange."""
        return self._bits.bit_count() / self.m

    def false_positive_probability(self) -> float:
        """Estimated false-positive probability at the current fill.

        Uses ``(fill_ratio)^k``, the standard estimate once the actual bit
        density is known.
        """
        return self.fill_ratio**self.k

    def union(self, other: "BloomFilter") -> "BloomFilter":
        """Return the bitwise union of two equally-parameterized filters.

        Raises:
            ValueError: if ``m`` or ``k`` differ (unions would be unsound).
        """
        if (self.m, self.k) != (other.m, other.k):
            raise ValueError(
                f"cannot union Bloom filters with different parameters: "
                f"(m={self.m}, k={self.k}) vs (m={other.m}, k={other.k})"
            )
        merged = BloomFilter(self.m, self.k)
        merged._bits = self._bits | other._bits
        merged._count = self._count + other._count
        return merged

    def copy(self) -> "BloomFilter":
        """Return an independent copy of this filter."""
        clone = BloomFilter(self.m, self.k)
        clone._bits = self._bits
        clone._count = self._count
        return clone

    def clear(self) -> None:
        """Reset all bits (used when a directory rebuilds its summary)."""
        self._bits = 0
        self._count = 0

    def to_bytes(self) -> bytes:
        """Serialize the bit vector for exchange between directories."""
        nbytes = (self.m + 7) // 8
        return self._bits.to_bytes(nbytes, "big")

    @classmethod
    def from_bytes(cls, data: bytes, m: int, k: int) -> "BloomFilter":
        """Deserialize a filter previously produced by :meth:`to_bytes`."""
        bloom = cls(m=m, k=k)
        bits = int.from_bytes(data, "big")
        if bits >> m:
            raise ValueError("serialized filter has bits beyond its declared size")
        bloom._bits = bits
        return bloom

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BloomFilter):
            return NotImplemented
        return (self.m, self.k, self._bits) == (other.m, other.k, other._bits)

    def __repr__(self) -> str:
        return (
            f"BloomFilter(m={self.m}, k={self.k}, "
            f"items~{self._count}, fill={self.fill_ratio:.3f})"
        )


class CountingBloomFilter:
    """A Bloom filter whose positions are counters, enabling *removal*.

    §2.4's churn means directories withdraw capabilities all the time; a
    plain Bloom summary can only be rebuilt from the full content after a
    withdrawal (O(directory size)).  Counting positions make removal
    O(k) per item: decrement the k counters and clear a bit only when its
    counter reaches zero.  The projected plain filter (:meth:`to_filter`)
    is bit-for-bit identical to one rebuilt from the surviving items, so
    exchanged summaries are unchanged on the wire.

    Counters saturate at 2^16-1; a saturated counter is never decremented
    (the standard safeguard: the bit then stays set forever, which only
    costs false positives, never false negatives).
    """

    __slots__ = ("m", "k", "_counts", "_bits", "_adds")

    _MAX_COUNT = 0xFFFF

    def __init__(self, m: int = 256, k: int = 4) -> None:
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.m = m
        self.k = k
        self._counts = array("H", bytes(2 * m))
        self._bits = 0
        self._adds = 0

    def _positions(self, item: str) -> tuple[int, ...]:
        return item_positions(item, self.m, self.k)

    def add(self, item: str) -> None:
        """Increment the k counters for ``item`` and set their bits."""
        for pos in set(self._positions(item)):
            if self._counts[pos] < self._MAX_COUNT:
                self._counts[pos] += 1
            self._bits |= 1 << pos
        self._adds += 1

    def remove(self, item: str) -> bool:
        """Decrement ``item``'s counters; clear bits that reach zero.

        Returns False (and changes nothing) when any position is already
        zero — removing a never-added item would corrupt other entries.
        """
        positions = set(self._positions(item))
        if any(self._counts[pos] == 0 for pos in positions):
            return False
        for pos in positions:
            if self._counts[pos] < self._MAX_COUNT:
                self._counts[pos] -= 1
                if self._counts[pos] == 0:
                    self._bits &= ~(1 << pos)
        self._adds = max(0, self._adds - 1)
        return True

    def __contains__(self, item: str) -> bool:
        return all(self._bits >> pos & 1 for pos in self._positions(item))

    @property
    def approximate_items(self) -> int:
        """Net ``add`` minus successful ``remove`` calls."""
        return self._adds

    @property
    def fill_ratio(self) -> float:
        """Fraction of bits currently set."""
        return self._bits.bit_count() / self.m

    def to_filter(self) -> BloomFilter:
        """Project to a plain :class:`BloomFilter` (for wire exchange)."""
        bloom = BloomFilter(self.m, self.k)
        bloom._bits = self._bits
        bloom._count = self._adds
        return bloom

    def clear(self) -> None:
        """Reset every counter and bit."""
        self._counts = array("H", bytes(2 * self.m))
        self._bits = 0
        self._adds = 0

    def __repr__(self) -> str:
        return (
            f"CountingBloomFilter(m={self.m}, k={self.k}, "
            f"items~{self._adds}, fill={self.fill_ratio:.3f})"
        )
