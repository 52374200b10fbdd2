"""Sharded directory tier: ontology-hash partitioning + pruned scatter/gather.

The paper's §4 cooperation model splits the catalog across directories by
ontology coverage and prunes query forwarding with Bloom summaries.  This
module applies the same two ideas *inside* one logical directory to push
past what a single store can hold (ROADMAP item 2):

* :class:`ShardRouter` partitions advertisements across K shard
  directories by a stable hash of each service's **ontology set** — the
  exact :func:`~repro.core.summaries.canonical_ontology_set` string the §4
  summaries hash.  Sharing the keying is the point: the per-shard counting
  :class:`~repro.core.summaries.DirectorySummary` then answers "could
  shard *i* hold a match?" with the no-false-negative guarantee the
  forwarding layer already relies on, so most queries fan out to a small
  subset of shards instead of all K.
* Queries scatter as ``query_batch`` calls (each shard keeps reusing its
  epoch-keyed :class:`~repro.core.packed.BatchMatchEngine` across the
  whole batch) and gather into one ranked list per request, merged
  deterministically by ``(distance, service uri, capability uri)`` — the
  same total order the unsharded directories sort by, so a sharded answer
  is bit-identical to a single directory over the same content (asserted
  in tests and in ``benchmarks/bench_directory_sharding.py``).
* :meth:`ShardRouter.resize` rebalances live content when the shard count
  changes.  Because placement is ``crc32(key) % K``, shrinking to a
  divisor of K moves *whole shards* (``h ≡ x (mod 8)`` implies
  ``h ≡ x mod 4 (mod 4)``) without rehashing a single service; any other
  resize re-routes per service.  Both paths re-publish through the same
  profile objects the ``export_state``/``from_state`` element codecs
  round-trip, so a rebalance and a snapshot-restore agree on content.

A service is placed *atomically* (by the union of its capabilities'
ontology sets), so every entry of one service lands on one shard and the
merged ranking cannot interleave duplicate services.

Observability: ``dir.shard.fanout`` (histogram of admitted shards per
query), ``dir.shard.queries``/``dir.shard.pruned`` counters, per-shard
``dir.shard.publishes``/``dir.shard.served`` counters (labelled
``shard=i``), and a ``shard.rebalance`` lifecycle event per resize.

:class:`ShardedSemanticDirectory` packages a router over
:class:`~repro.core.directory.SemanticDirectory` shards behind the exact
surface ``SAriadneDirectoryAgent`` hosts, so an elected node can serve a
sharded tier with no protocol changes (``shard_count=`` in
:class:`~repro.protocols.sariadne.SAriadneDirectoryAgent`).
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
import zlib
from collections.abc import Callable, Iterable

from repro.core.codes import CodeTable
from repro.core.directory import DirectoryMatch, FlatDirectory, SemanticDirectory
from repro.core.matching import MatcherStats
from repro.core.summaries import DirectorySummary, SummaryBank, canonical_ontology_set
from repro.obs import NULL_OBS
from repro.services.profile import ServiceProfile, ServiceRequest
from repro.services.xml_codec import (
    profile_from_element,
    profile_from_xml,
    profile_to_element,
    request_from_xml,
)
from repro.util.timing import PhaseTimer


def shard_index_for(ontologies: frozenset[str], shard_count: int) -> int:
    """The shard hosting content keyed by ``ontologies``.

    Hashes the :func:`canonical_ontology_set` string — the same item the
    §4 Bloom summaries hash — with crc32 (stable across processes, unlike
    the salted built-in ``hash``), modulo the shard count.

    Raises:
        ValueError: if ``shard_count < 1``.
    """
    if shard_count < 1:
        raise ValueError(f"shard_count must be >= 1, got {shard_count}")
    key = canonical_ontology_set(ontologies)
    return zlib.crc32(key.encode("utf-8")) % shard_count


def service_shard_key(profile: ServiceProfile) -> frozenset[str]:
    """The routing key of an advertisement: the union of its capabilities'
    ontology sets.  One service — one key — one shard, so the merged
    ranking never splits a service across shards."""
    ontologies: set[str] = set()
    for capability in profile.provided:
        ontologies |= capability.ontologies()
    return frozenset(ontologies)


def _parse_state(document: str, shard_count: int | None):
    """Validate a ``<DirectoryState>`` snapshot; returns ``(table,
    shard_count, services_element)``.

    Raises:
        ValueError: on malformed snapshots.
    """
    try:
        root = ET.fromstring(document)
    except ET.ParseError as exc:
        raise ValueError(f"not well-formed XML: {exc}") from exc
    if root.tag != "DirectoryState":
        raise ValueError(f"expected <DirectoryState> root, got <{root.tag}>")
    codes_el = root.find("Codes")
    services_el = root.find("Services")
    if codes_el is None or len(codes_el) != 1 or services_el is None:
        raise ValueError("snapshot must contain <Codes> and <Services>")
    table = CodeTable.from_element(codes_el[0])
    count = shard_count or int(root.get("shards", "1"))
    return table, count, services_el


def _merge_key(match: DirectoryMatch) -> tuple[int, str, str]:
    return (
        match.distance,
        match.service_uri,
        match.capability.uri if match.capability is not None else "",
    )


class ShardRouter:
    """Partition one logical directory across K shard directories.

    Args:
        table: the shared code table (every shard sees the same snapshot).
        shard_count: number of shard directories (K >= 1).
        shard_factory: zero-argument callable building one empty shard.
            Defaults to a packed-engine
            :class:`~repro.core.directory.FlatDirectory` — the highest
            single-store throughput backend (PR 6).  Pass a
            ``SemanticDirectory`` factory for classified shards.
        summary_bits / summary_hashes: per-shard Bloom summary parameters.
        use_summaries: prune the scatter with per-shard summary admission
            tests (§4 semantics: ``False`` ⇒ the shard definitely has no
            match).  Disable to fan every query out to all shards.
    """

    def __init__(
        self,
        table: CodeTable,
        shard_count: int,
        shard_factory: Callable[[], object] | None = None,
        summary_bits: int = 2048,
        summary_hashes: int = 4,
        use_summaries: bool = True,
    ) -> None:
        if shard_count < 1:
            raise ValueError(f"shard_count must be >= 1, got {shard_count}")
        self.table = table
        self.summary_bits = summary_bits
        self.summary_hashes = summary_hashes
        self.use_summaries = use_summaries
        self._factory: Callable[[], object] = shard_factory or (
            lambda: FlatDirectory(table, use_interval_index=False, use_batch_engine=True)
        )
        self.shards: list = [self._factory() for _ in range(shard_count)]
        #: Per-shard counting summaries driving the scatter pruning.
        self.shard_summaries: list[DirectorySummary] = [
            DirectorySummary(m=summary_bits, k=summary_hashes)
            for _ in range(shard_count)
        ]
        #: Whole-tier summary (what a hosting agent exchanges with peers).
        self.summary = DirectorySummary(m=summary_bits, k=summary_hashes)
        self._service_shard: dict[str, int] = {}
        #: Content epoch: bumped on every publish/unpublish/resize so the
        #: cached :class:`SummaryBank` (and anything else keyed to router
        #: content) knows when to rebuild.
        self._epoch = 0
        self._bank: SummaryBank | None = None
        self._bank_epoch: int | None = None
        self.rebalances = 0
        self._obs = NULL_OBS

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shard_count(self) -> int:
        """Current number of shard directories."""
        return len(self.shards)

    def __len__(self) -> int:
        return len(self._service_shard)

    @property
    def capability_count(self) -> int:
        """Total advertised capabilities across all shards."""
        return sum(shard.capability_count for shard in self.shards)

    def shard_sizes(self) -> list[int]:
        """Capabilities per shard, in shard order (skew inspection)."""
        return [shard.capability_count for shard in self.shards]

    def shard_of(self, service_uri: str) -> int | None:
        """The shard hosting ``service_uri`` (None when not published)."""
        return self._service_shard.get(service_uri)

    def services(self) -> list[ServiceProfile]:
        """All cached profiles, in shard order then shard-local order."""
        return [profile for shard in self.shards for profile in shard.services()]

    @property
    def obs(self):
        """The observability sink for this router (NULL_OBS when off)."""
        return self._obs

    @obs.setter
    def obs(self, value) -> None:
        """Propagate the sink to every shard directory."""
        self._obs = value
        for shard in self.shards:
            if hasattr(shard, "obs"):
                shard.obs = value

    def describe(self) -> str:
        """Per-shard content table: sizes, share of total, and skew."""
        sizes = self.shard_sizes()
        total = sum(sizes)
        mean = total / max(1, len(sizes))
        lines = [
            f"ShardRouter: {len(self)} services, {total} capabilities, "
            f"{len(sizes)} shards, skew {self.skew():.2f}"
        ]
        for index, (shard, size) in enumerate(zip(self.shards, sizes)):
            share = 100.0 * size / total if total else 0.0
            lines.append(
                f"  shard {index}: {len(shard)} services, {size} capabilities "
                f"({share:.1f}% of total)"
            )
        lines.append(f"  mean capabilities/shard: {mean:.1f}")
        return "\n".join(lines)

    def skew(self) -> float:
        """Largest shard size over the mean (1.0 = perfectly balanced)."""
        sizes = self.shard_sizes()
        total = sum(sizes)
        if not total:
            return 1.0
        return max(sizes) / (total / len(sizes))

    def export_metrics(self) -> None:
        """Mirror per-shard gauges into the obs registry (pull-based)."""
        obs = self._obs
        for index, size in enumerate(self.shard_sizes()):
            obs.counter("dir.shard.capabilities", shard=str(index)).set(size)
        for shard in self.shards:
            if hasattr(shard, "export_metrics"):
                shard.export_metrics()

    # ------------------------------------------------------------------
    # Publication
    # ------------------------------------------------------------------
    def publish(self, profile: ServiceProfile, extra_codes: dict | None = None) -> int:
        """Route an advertisement to its shard; returns the shard index.

        ``extra_codes`` (pre-resolved §3.2 annotations) are forwarded to
        classified shards, which need them to place capabilities whose
        concepts are not in the table snapshot.
        """
        if profile.uri in self._service_shard:
            self.unpublish(profile.uri)
        index = shard_index_for(service_shard_key(profile), self.shard_count)
        self._publish_to(index, profile, extra_codes)
        self._epoch += 1
        if self._obs.enabled:
            self._obs.counter("dir.shard.publishes", shard=str(index)).inc()
        return index

    def _publish_to(
        self, index: int, profile: ServiceProfile, extra_codes: dict | None = None
    ) -> None:
        shard = self.shards[index]
        if extra_codes and isinstance(shard, SemanticDirectory):
            shard.publish_profile(profile, extra_codes)
        else:
            shard.publish(profile)
        self._service_shard[profile.uri] = index
        for capability in profile.provided:
            self.shard_summaries[index].add_capability(capability)
            self.summary.add_capability(capability)

    def publish_batch(self, profiles: Iterable[ServiceProfile]) -> int:
        """Route many advertisements; returns the count.  Streams — a
        10⁵–10⁶ profile generator is never materialized."""
        count = 0
        for profile in profiles:
            self.publish(profile)
            count += 1
        return count

    def unpublish(self, service_uri: str) -> int:
        """Withdraw a service from whichever shard hosts it.

        Returns the number of capability entries removed.
        """
        index = self._service_shard.pop(service_uri, None)
        if index is None:
            return 0
        shard = self.shards[index]
        profile = shard.profile(service_uri)
        removed = shard.unpublish(service_uri)
        if profile is not None:
            for capability in profile.provided:
                self.shard_summaries[index].remove_capability(capability)
                self.summary.remove_capability(capability)
        self._epoch += 1
        return removed

    # ------------------------------------------------------------------
    # Scatter / gather
    # ------------------------------------------------------------------
    def _summary_bank(self) -> SummaryBank:
        """Batch admission tester over the per-shard summaries, rebuilt
        only when content mutates (epoch-keyed, like the packed engines)."""
        if self._bank is None or self._bank_epoch != self._epoch:
            self._bank = SummaryBank(
                {
                    index: summary.snapshot()
                    for index, summary in enumerate(self.shard_summaries)
                }
            )
            self._bank_epoch = self._epoch
        return self._bank

    def admitted_shards(self, request: ServiceRequest) -> list[int]:
        """Shards whose summaries admit ``request`` (§4 semantics: a shard
        absent from this list definitely holds no match)."""
        if not self.use_summaries:
            return list(range(self.shard_count))
        verdicts = self._summary_bank().might_answer(request)
        return [index for index in range(self.shard_count) if verdicts.get(index)]

    def query(
        self, request: ServiceRequest, extra_codes: dict | None = None
    ) -> list[DirectoryMatch]:
        """Scatter one request across admitted shards and merge."""
        return self.query_batch([request], [extra_codes])[0]

    def query_batch(
        self,
        requests: Iterable[ServiceRequest],
        extra_codes: list[dict | None] | None = None,
    ) -> list[list[DirectoryMatch]]:
        """Answer many requests: per-request scatter over admitted shards,
        one ``query_batch`` per shard (reusing its packed engine across
        the whole sub-batch), deterministic per-request merge."""
        request_list = list(requests)
        extras = extra_codes or [None] * len(request_list)
        obs = self._obs
        by_shard: dict[int, list[int]] = {}
        for position, request in enumerate(request_list):
            admitted = self.admitted_shards(request)
            if obs.enabled:
                obs.counter("dir.shard.queries").inc()
                obs.histogram("dir.shard.fanout").observe(len(admitted))
                obs.counter("dir.shard.pruned").inc(self.shard_count - len(admitted))
            for index in admitted:
                by_shard.setdefault(index, []).append(position)
        gathered: list[list[list[DirectoryMatch]]] = [[] for _ in request_list]
        for index in sorted(by_shard):
            positions = by_shard[index]
            shard = self.shards[index]
            if any(extras[position] for position in positions) and isinstance(
                shard, SemanticDirectory
            ):
                answers = [
                    shard.query(request_list[position], extras[position])
                    for position in positions
                ]
            else:
                answers = shard.query_batch(
                    [request_list[position] for position in positions]
                )
            if obs.enabled:
                obs.counter("dir.shard.served", shard=str(index)).inc(len(positions))
            for position, rows in zip(positions, answers):
                gathered[position].append(rows)
        return [
            self._merge(request, shard_rows)
            for request, shard_rows in zip(request_list, gathered)
        ]

    def _merge(
        self, request: ServiceRequest, shard_rows: list[list[DirectoryMatch]]
    ) -> list[DirectoryMatch]:
        """Gather per-shard answers into one ranked list.

        Results are regrouped per requested capability (preserving the
        request's capability order, as the unsharded directories do) and
        each group is sorted by ``(distance, service uri, capability
        uri)`` — a total order over distinct entries, so the merge is
        independent of shard count and enumeration order.
        """
        positions = {id(cap): pos for pos, cap in enumerate(request.capabilities)}
        groups: list[list[DirectoryMatch]] = [[] for _ in request.capabilities]
        trailing: list[DirectoryMatch] = []
        for rows in shard_rows:
            for match in rows:
                pos = positions.get(id(match.requested))
                (groups[pos] if pos is not None else trailing).append(match)
        merged: list[DirectoryMatch] = []
        for group in groups:
            group.sort(key=_merge_key)
            merged.extend(group)
        trailing.sort(key=_merge_key)
        merged.extend(trailing)
        return merged

    # ------------------------------------------------------------------
    # Rebalance on resize
    # ------------------------------------------------------------------
    def resize(self, new_count: int, cause: str = "resize") -> int:
        """Re-partition live content over ``new_count`` fresh shards.

        Shrinking to a divisor of the current count is a pure shard
        *merge*: ``crc32(key) % old == i`` already determines
        ``crc32(key) % new == i % new``, so whole shards move without
        recomputing a single hash.  Any other resize re-routes per
        service.  Either way content moves as the same profile objects
        the snapshot codecs (:meth:`export_state`/:meth:`from_state`)
        round-trip, and the per-shard summaries are rebuilt from the
        moved content.

        Returns the number of services that changed shards.

        Raises:
            ValueError: if ``new_count < 1``.
        """
        if new_count < 1:
            raise ValueError(f"new_count must be >= 1, got {new_count}")
        old_count = self.shard_count
        old_shards = self.shards
        old_assignment = dict(self._service_shard)
        self.shards = [self._factory() for _ in range(new_count)]
        self.shard_summaries = [
            DirectorySummary(m=self.summary_bits, k=self.summary_hashes)
            for _ in range(new_count)
        ]
        self._service_shard = {}
        merge_fast_path = new_count <= old_count and old_count % new_count == 0
        for old_index, shard in enumerate(old_shards):
            target = old_index % new_count if merge_fast_path else None
            for profile in shard.services():
                index = (
                    target
                    if target is not None
                    else shard_index_for(service_shard_key(profile), new_count)
                )
                self._publish_to(index, profile)
        moved = sum(
            1
            for uri, index in self._service_shard.items()
            if old_assignment.get(uri) != index
        )
        self._epoch += 1
        self.rebalances += 1
        obs = self._obs
        if obs.enabled:
            obs.lifecycle(
                "shard.rebalance",
                cause=cause,
                shards_before=old_count,
                shards_after=new_count,
                services_moved=moved,
                fast_merge=merge_fast_path,
            )
            obs.counter("dir.shard.rebalances").inc()
            obs.counter("dir.shard.services_moved").inc(moved)
        # New shards inherit the sink old ones carried.
        self.obs = self._obs
        return moved

    # ------------------------------------------------------------------
    # State snapshot (restart / handoff)
    # ------------------------------------------------------------------
    def export_state(self) -> str:
        """Serialize the whole tier: code table + every cached profile.

        Same ``<DirectoryState>`` document the unsharded
        :meth:`SemanticDirectory.export_state` emits (with a ``shards``
        attribute), so a sharded tier and a single directory restore from
        each other's snapshots.
        """
        root = ET.Element(
            "DirectoryState",
            {"version": str(self.table.version), "shards": str(self.shard_count)},
        )
        codes_el = ET.SubElement(root, "Codes")
        codes_el.append(self.table.to_element())
        services_el = ET.SubElement(root, "Services")
        for profile in self.services():
            services_el.append(profile_to_element(profile))
        return ET.tostring(root, encoding="unicode")

    @classmethod
    def from_state(
        cls, document: str, shard_count: int | None = None, **kwargs
    ) -> "ShardRouter":
        """Rebuild a router from :meth:`export_state` output.

        ``shard_count`` overrides the snapshot's shard count — restoring
        into a different K *is* the rebalance path (every service is
        re-routed by its ontology-set hash).

        Raises:
            ValueError: on malformed snapshots.
        """
        table, count, services_el = _parse_state(document, shard_count)
        router = cls(table, count, **kwargs)
        router.publish_batch(
            profile_from_element(service_el)[0] for service_el in services_el
        )
        return router

    def __repr__(self) -> str:
        return (
            f"ShardRouter({len(self)} services, {self.capability_count} capabilities, "
            f"{self.shard_count} shards)"
        )


class ShardedSemanticDirectory:
    """A sharded tier behind the :class:`SemanticDirectory` surface.

    Hosts K classified shards (sharing one code table and query mode)
    behind the exact methods ``SAriadneDirectoryAgent`` calls, so an
    elected node serves a sharded catalog with no protocol changes.

    Args:
        table: shared code table.
        shard_count: number of classified shards.
        query_mode / summary_bits / summary_hashes: forwarded to each
            shard (and to the tier summary).
    """

    def __init__(
        self,
        table: CodeTable,
        shard_count: int,
        query_mode=None,
        summary_bits: int = 512,
        summary_hashes: int = 4,
    ) -> None:
        shard_kwargs: dict = {
            "summary_bits": summary_bits,
            "summary_hashes": summary_hashes,
        }
        if query_mode is not None:
            shard_kwargs["query_mode"] = query_mode
        self.router = ShardRouter(
            table,
            shard_count,
            shard_factory=lambda: SemanticDirectory(table, **shard_kwargs),
            summary_bits=summary_bits,
            summary_hashes=summary_hashes,
        )
        self.table = table
        self.timer = PhaseTimer()

    # -- observability ---------------------------------------------------
    @property
    def obs(self):
        """The observability sink (propagated to the router and shards)."""
        return self.router.obs

    @obs.setter
    def obs(self, value) -> None:
        self.router.obs = value

    def export_metrics(self) -> None:
        """Mirror router + per-shard counters into the obs registry."""
        self.router.export_metrics()

    # -- introspection ---------------------------------------------------
    def __len__(self) -> int:
        return len(self.router)

    @property
    def shard_count(self) -> int:
        """Number of shard directories."""
        return self.router.shard_count

    @property
    def capability_count(self) -> int:
        """Total advertised capabilities across shards."""
        return self.router.capability_count

    @property
    def summary(self) -> DirectorySummary:
        """The whole-tier §4 summary (what peers receive)."""
        return self.router.summary

    @property
    def stats(self) -> MatcherStats:
        """Matcher counters summed over every shard."""
        total = MatcherStats()
        for shard in self.router.shards:
            total.concept_comparisons += shard.stats.concept_comparisons
            total.capability_matches += shard.stats.capability_matches
        return total

    def services(self) -> list[ServiceProfile]:
        """All cached service profiles across shards."""
        return self.router.services()

    def profile(self, service_uri: str) -> ServiceProfile | None:
        """The cached profile for ``service_uri`` (None when absent)."""
        index = self.router.shard_of(service_uri)
        if index is None:
            return None
        return self.router.shards[index].profile(service_uri)

    def describe_info(self) -> dict:
        """Structured backend summary (the normalized ``describe`` schema:
        ``kind``/``services``/``capability_count``/``index``)."""
        return {
            "kind": type(self).__name__,
            "services": len(self),
            "capability_count": self.capability_count,
            "index": (
                f"{self.shard_count} ontology-routed shards "
                f"(skew {self.router.skew():.2f})"
            ),
        }

    def describe(self) -> str:
        """Per-shard content table (see :meth:`ShardRouter.describe`)."""
        return self.router.describe()

    # -- publication -----------------------------------------------------
    def publish_xml(self, document: str) -> ServiceProfile:
        """Parse and route one advertisement document.

        Raises:
            ServiceSyntaxError: malformed document.
            StaleCodesError: embedded codes minted against another snapshot.
        """
        with self.timer.phase("parse"):
            profile, annotations = profile_from_xml(document)
        extra = None
        if annotations:
            with self.timer.phase("encode"):
                extra = self.table.resolve_annotations(
                    annotations.codes, annotations.version
                )
        self.router.publish(profile, extra)
        return profile

    def publish_xml_batch(self, documents: Iterable[str]) -> list[ServiceProfile]:
        """Parse, validate and route many documents (all-or-nothing parse,
        mirroring :meth:`SemanticDirectory.publish_xml_batch`).

        Raises:
            ServiceSyntaxError: a malformed document.
            StaleCodesError: a document with codes from another snapshot.
        """
        with self.timer.phase("parse"):
            parsed = [profile_from_xml(document) for document in documents]
        resolved: list[tuple[ServiceProfile, dict | None]] = []
        for profile, annotations in parsed:
            extra = None
            if annotations:
                with self.timer.phase("encode"):
                    extra = self.table.resolve_annotations(
                        annotations.codes, annotations.version
                    )
            resolved.append((profile, extra))
        for profile, extra in resolved:
            self.router.publish(profile, extra)
        return [profile for profile, _extra in resolved]

    def publish(self, profile: ServiceProfile) -> None:
        """Route an already-parsed advertisement."""
        self.router.publish(profile)

    def publish_batch(self, profiles: Iterable[ServiceProfile]) -> int:
        """Route many already-parsed advertisements; returns the count."""
        return self.router.publish_batch(profiles)

    def unpublish(self, service_uri: str) -> int:
        """Withdraw a service; returns removed capability entries."""
        return self.router.unpublish(service_uri)

    # -- queries ---------------------------------------------------------
    def query_xml(self, document: str) -> list[DirectoryMatch]:
        """Parse a request document and answer it across shards.

        Raises:
            ServiceSyntaxError: malformed document.
            StaleCodesError: embedded codes minted against another snapshot.
        """
        with self.timer.phase("parse"):
            request, annotations = request_from_xml(document)
        extra = None
        if annotations:
            with self.timer.phase("encode"):
                # Dropped once here, not in every shard's matcher: codes
                # the table already holds.
                extra = self.table.foreign_codes(
                    self.table.resolve_annotations(annotations.codes, annotations.version)
                )
        return self.router.query(request, extra)

    def query(
        self, request: ServiceRequest, extra_codes: dict | None = None
    ) -> list[DirectoryMatch]:
        """Scatter/gather one already-parsed request."""
        return self.router.query(request, extra_codes)

    def query_batch(self, requests: Iterable[ServiceRequest]) -> list[list[DirectoryMatch]]:
        """Scatter/gather many requests (one sub-batch per shard)."""
        return self.router.query_batch(requests)

    # -- state snapshot --------------------------------------------------
    def export_state(self) -> str:
        """Serialize the tier (see :meth:`ShardRouter.export_state`)."""
        return self.router.export_state()

    @classmethod
    def from_state(
        cls, document: str, shard_count: int | None = None, **kwargs
    ) -> "ShardedSemanticDirectory":
        """Rebuild a sharded tier from a snapshot (restoring into a
        different ``shard_count`` re-routes every service — the rebalance
        path).

        Raises:
            ValueError: on malformed snapshots.
        """
        table, count, services_el = _parse_state(document, shard_count)
        directory = cls(table, count, **kwargs)
        directory.publish_batch(
            profile_from_element(service_el)[0] for service_el in services_el
        )
        return directory

    def __repr__(self) -> str:
        return (
            f"ShardedSemanticDirectory({len(self)} services, "
            f"{self.capability_count} capabilities, {self.shard_count} shards)"
        )
