"""Bloom-filter directory summaries (paper §4).

"For each capability C provided by a networked service, and stored in a
directory, the capability description in terms of used ontologies is
hashed with k independent hash functions" — the summary answers, without
contacting the directory, whether it *may* cache a capability relevant to a
request.

Items hashed are: (a) the canonical string of the capability's whole
ontology set ``O(C)`` — the paper's scheme — and (b) each individual
ontology URI.  Adding the individual URIs preserves the no-false-negative
guarantee when a request's ontology set is a *subset* of an
advertisement's (the whole-set hash alone would miss it), at a marginal
increase in false positives; the E10 benchmark quantifies both.
"""

from __future__ import annotations

from repro.services.profile import Capability, ServiceRequest
from repro.util.bloom import BloomFilter, CountingBloomFilter, item_mask

#: Default summary parameters; E10 sweeps them.
DEFAULT_BITS = 512
DEFAULT_HASHES = 4


def _canonical_set(ontologies: frozenset[str]) -> str:
    """The canonical string form of an ontology set ``O(C)``: the item the
    §4 summaries hash ("the capability description in terms of used
    ontologies")."""
    return "|".join(sorted(ontologies))


class DirectorySummary:
    """Compact overview of one directory's content for query forwarding.

    A directory-owned summary is backed by a *counting* Bloom filter so a
    capability withdrawal is O(its concepts) — decrement and clear — rather
    than a rebuild over the whole remaining content (brutal under §2.4
    churn).  The bits exchanged with peers (:attr:`bloom`, :meth:`snapshot`)
    are identical to a from-scratch rebuild.  Summaries wrapped from
    *received* bits (:meth:`from_bloom`) carry no counters and do not
    support removal — peers only ever test them.
    """

    def __init__(self, m: int = DEFAULT_BITS, k: int = DEFAULT_HASHES) -> None:
        self._counts: CountingBloomFilter | None = CountingBloomFilter(m=m, k=k)
        self._filter: BloomFilter | None = None

    @classmethod
    def from_bloom(cls, bloom: BloomFilter) -> "DirectorySummary":
        """Wrap a filter received from a peer directory (exchanged bits)."""
        summary = cls(m=bloom.m, k=bloom.k)
        summary._counts = None
        summary._filter = bloom
        return summary

    @property
    def bloom(self) -> BloomFilter:
        """The plain filter form (exchanged between directories)."""
        if self._counts is not None:
            return self._counts.to_filter()
        return self._filter

    def _items_of(self, capability: Capability) -> list[str]:
        ontologies = capability.ontologies()
        return [_canonical_set(ontologies), *ontologies]

    def add_capability(self, capability: Capability) -> None:
        """Record a cached capability's ontology footprint."""
        backing = self._counts if self._counts is not None else self._filter
        for item in self._items_of(capability):
            backing.add(item)

    def remove_capability(self, capability: Capability) -> None:
        """Withdraw one previously-added capability's footprint — the O(1)
        (per concept) path :meth:`rebuild` existed for.

        Raises:
            TypeError: on summaries wrapped from exchanged bits, which
                carry no counters (peers never withdraw from them).
        """
        if self._counts is None:
            raise TypeError("cannot remove from a summary wrapped from exchanged bits")
        for item in self._items_of(capability):
            self._counts.remove(item)

    def might_hold(self, capability: Capability) -> bool:
        """Could the summarized directory hold a match for this required
        capability?  False ⇒ definitely not; True ⇒ probably (§4)."""
        backing = self._counts if self._counts is not None else self._filter
        ontologies = capability.ontologies()
        if _canonical_set(ontologies) in backing:
            return True
        return all(uri in backing for uri in ontologies)

    def might_answer(self, request: ServiceRequest) -> bool:
        """True iff the directory may hold a match for *any* requested
        capability."""
        return any(self.might_hold(cap) for cap in request.capabilities)

    def rebuild(self, capabilities: list[Capability]) -> None:
        """Recompute the summary from scratch.

        Kept for recovery paths (e.g. adopting a foreign content dump);
        the directory hot path uses :meth:`remove_capability` instead.
        """
        if self._counts is not None:
            self._counts.clear()
        else:
            self._filter.clear()
        for capability in capabilities:
            self.add_capability(capability)

    @property
    def saturated(self) -> bool:
        """True when false positives exceed ~10% — time to re-exchange with
        larger parameters (the paper's reactive exchange trigger)."""
        return self.bloom.false_positive_probability() > 0.1

    def snapshot(self) -> BloomFilter:
        """An immutable copy suitable for sending to peer directories."""
        bloom = self.bloom
        return bloom.copy() if bloom is self._filter else bloom

    def __repr__(self) -> str:
        backing = self._counts if self._counts is not None else self._filter
        return f"DirectorySummary({backing!r})"


class SummaryBank:
    """Batch admission tests of one request against many peer summaries.

    ``_rank_forward_peers`` used to rebuild a :class:`DirectorySummary`
    wrapper and re-hash every request item (SHA-256 per item) *per peer*.
    The probe positions depend only on the item string and the ``(m, k)``
    parameters — never on the peer — so the bank groups the peer filters
    by ``(m, k)``, hashes each request item once per group into a bit
    mask, and answers "which peers might hold a match" with one bitwise
    subset test per (peer, item) over the filters' Python-integer bits.
    The verdicts are exactly :meth:`DirectorySummary.might_answer`'s per
    peer (the test suite proves it), including its false positives — the
    bank changes the cost, never the decision.

    A bank snapshot is immutable: build it from the current
    ``peer_summaries`` and rebuild when that mapping changes (callers key
    a cached bank to a mutation epoch — see
    ``DirectoryProtocol.summaries_admitting``).
    """

    def __init__(self, summaries: dict[int, BloomFilter]) -> None:
        #: (m, k) -> (peer ids, per-peer filter bits in the same order)
        self._groups: dict[tuple[int, int], tuple[list[int], list[int]]] = {}
        for peer_id, bloom in summaries.items():
            peer_ids, bits = self._groups.setdefault((bloom.m, bloom.k), ([], []))
            peer_ids.append(peer_id)
            bits.append(bloom.bits)

    def __len__(self) -> int:
        return sum(len(peer_ids) for peer_ids, _bits in self._groups.values())

    @staticmethod
    def _contains(packed: list[int], mask: int) -> list[bool]:
        """Per-peer membership of one item mask (group-local order)."""
        return [bits & mask == mask for bits in packed]

    def might_hold(self, capability: Capability) -> dict[int, bool]:
        """Per peer: could it hold a match for ``capability`` (§4 test)?"""
        ontologies = capability.ontologies()
        verdicts: dict[int, bool] = {}
        if not ontologies:
            # Vacuous truth, matching the scalar ``all()`` over an empty
            # URI set: an ontology-free request filters nothing.
            for _group, (peer_ids, _packed) in self._groups.items():
                for peer_id in peer_ids:
                    verdicts[peer_id] = True
            return verdicts
        canon = _canonical_set(ontologies)
        for (m, k), (peer_ids, packed) in self._groups.items():
            # Whole-set hash, then the subset fallback: every individual
            # ontology URI present (mirrors DirectorySummary.might_hold).
            hold = self._contains(packed, item_mask(canon, m, k))
            all_uris = None
            for uri in sorted(ontologies):
                uri_hits = self._contains(packed, item_mask(uri, m, k))
                if all_uris is None:
                    all_uris = uri_hits
                else:
                    all_uris = [a and b for a, b in zip(all_uris, uri_hits)]
            for peer_id, whole, every in zip(peer_ids, hold, all_uris):
                verdicts[peer_id] = whole or every
        return verdicts

    def might_answer(self, request: ServiceRequest) -> dict[int, bool]:
        """Per peer: could it answer *any* capability of ``request``?

        Value-identical to ``DirectorySummary.from_bloom(f).might_answer``
        evaluated per peer, in one batch.
        """
        verdicts: dict[int, bool] = {}
        for _group, (peer_ids, _packed) in self._groups.items():
            for peer_id in peer_ids:
                verdicts[peer_id] = False
        for capability in request.capabilities:
            held = self.might_hold(capability)
            for peer_id, hold in held.items():
                if hold:
                    verdicts[peer_id] = True
            if all(verdicts.values()):
                break
        return verdicts

    def __repr__(self) -> str:
        return f"SummaryBank({len(self)} peers, {len(self._groups)} parameter groups)"
