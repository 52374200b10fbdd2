"""Semantic service directories (paper §3.3 + §5 measurements).

:class:`SemanticDirectory` is the optimized directory S-Ariadne deploys on
elected nodes: it parses Amigo-S advertisements (XML), encodes their
concepts with the code table, classifies their capabilities into
:class:`~repro.core.capability_graph.CapabilityDag` graphs *keyed by the
ontology sets they use*, and answers requests with a handful of numeric
matches: one directory-wide concept index finds the vertices of every
graph that can match a requested capability, and one pass scores them.
:class:`FlatDirectory` is the unclassified baseline of Fig. 9: same
code-based matching, but no capability graphs: by default the entries a
concept index preselects are scored by the subsumer-map kernel, and the
paper's linear scan stays available (see ``docs/PERFORMANCE.md``).

The query engine shares two directory-owned structures across all the
short-lived matchers it creates (``docs/PERFORMANCE.md`` quantifies both):

* a :class:`~repro.util.cache.DistanceCache` memoizing ``d(over, under)``
  pairs across queries, publications and DAG insertions, flushed whenever
  the code-table snapshot changes (§3.2 code versioning);
* a :class:`~repro.util.cache.CacheStats`/:class:`MatcherStats` pair
  aggregating comparison and cache counters for the §5 experiments.

Timing: ``publish``/``query`` record per-phase durations (parse / encode /
classify / match) in a :class:`~repro.util.timing.PhaseTimer`, which is
exactly the decomposition plotted in Figs. 7–9.
"""

from __future__ import annotations

import itertools
import xml.etree.ElementTree as ET
from collections.abc import Iterable
from contextlib import nullcontext
from dataclasses import dataclass

from repro.core.capability_graph import CapabilityDag, ConceptIndex, DagNode, QueryMode, score
from repro.core.codes import CodeTable, StaleCodesError
from repro.core.matching import CodeMatcher, Matcher, MatcherStats
from repro.core.summaries import DirectorySummary
from repro.obs import NULL_OBS
from repro.services.profile import Capability, ServiceProfile, ServiceRequest
from repro.services.xml_codec import (
    profile_from_element,
    profile_from_xml,
    profile_to_element,
    request_from_xml,
)
from repro.util.cache import DEFAULT_MAXSIZE, DistanceCache
from repro.util.timing import PhaseTimer


@dataclass(frozen=True)
class DirectoryMatch:
    """One ranked answer to a discovery request.

    ``requested``/``capability`` are None for backends that do not carry
    capability detail in their answers (the syntactic baseline matches
    whole interfaces; the on-line matchmaker reports URIs + distances).
    """

    requested: Capability | None
    capability: Capability | None
    service_uri: str
    distance: int


def _rank(match: DirectoryMatch) -> tuple[int, str, str]:
    """Answer order: ascending distance, then service and capability URI."""
    return match.distance, match.service_uri, match.capability.uri


class SemanticDirectory:
    """The §3.3 optimized directory: encoded matching + classified graphs.

    Args:
        table: code table snapshotting the ontologies in force.
        query_mode: how graphs are searched (paper default: greedy).
        summary_bits / summary_hashes: Bloom summary parameters (§4).
        distance_cache_size: capacity of the shared concept-distance memo;
            0 disables it (every pair recomputed, as in the seed code).
    """

    def __init__(
        self,
        table: CodeTable,
        query_mode: QueryMode = QueryMode.GREEDY,
        summary_bits: int = 512,
        summary_hashes: int = 4,
        distance_cache_size: int = DEFAULT_MAXSIZE,
    ) -> None:
        self.table = table
        self.query_mode = query_mode
        self.summary = DirectorySummary(m=summary_bits, k=summary_hashes)
        self._graphs: dict[frozenset[str], CapabilityDag] = {}
        # Every graph's vertices, in one index shared by the graphs.
        self._index = ConceptIndex()
        # Each graph's ontology key and creation rank, the order in which
        # a request visits graphs after the exact key and the overlap.
        self._graph_keys: dict[CapabilityDag, tuple[frozenset[str], int]] = {}
        self._graph_ranks = itertools.count()
        self._profiles: dict[str, ServiceProfile] = {}
        self.timer = PhaseTimer()
        #: Aggregated matcher counters across every publish/query this
        #: directory served (each call used to get throwaway counters).
        self.stats = MatcherStats()
        self.distance_cache: DistanceCache | None = (
            DistanceCache(maxsize=distance_cache_size) if distance_cache_size else None
        )
        self._obs = NULL_OBS

    @property
    def obs(self):
        """The observability sink for this directory (NULL_OBS when off)."""
        return self._obs

    @obs.setter
    def obs(self, value) -> None:
        """Propagate the sink to every capability graph."""
        self._obs = value
        for graph in self._graphs.values():
            graph.obs = value

    def export_metrics(self) -> None:
        """Mirror the directory's accumulated counters (matcher stats,
        distance-cache stats) into the observability metric registry.
        Pull-based: traced runs call this right before flushing sinks."""
        obs = self._obs
        obs.counter("dir.capability_matches").set(self.stats.capability_matches)
        obs.counter("dir.concept_comparisons").set(self.stats.concept_comparisons)
        cache = self.distance_cache
        if cache is not None:
            cache.stats.publish_to(obs.metrics, "dir.distance_cache")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._profiles)

    @property
    def graph_count(self) -> int:
        """Number of capability DAGs currently maintained."""
        return len(self._graphs)

    @property
    def capability_count(self) -> int:
        """Total advertised capabilities across graphs."""
        return sum(graph.size for graph in self._graphs.values())

    def graphs(self) -> dict[frozenset[str], CapabilityDag]:
        """The ontology-set index (read-only use)."""
        return dict(self._graphs)

    def services(self) -> list[ServiceProfile]:
        """All cached service profiles."""
        return list(self._profiles.values())

    def profile(self, service_uri: str) -> ServiceProfile | None:
        """The cached profile for ``service_uri`` (None when absent)."""
        return self._profiles.get(service_uri)

    def capabilities(self) -> list[Capability]:
        """All cached provided capabilities."""
        return [cap for profile in self._profiles.values() for cap in profile.provided]

    def _matcher(self, extra_codes: dict | None = None, query: bool = False) -> Matcher:
        """A matcher over the shared cache.  Query-path matchers keep their
        compiled requested capabilities in the cache too (see
        :class:`~repro.core.matching.CodeMatcher`), so a recurring request
        is compiled once per table version."""
        cache = self.distance_cache
        if cache is not None:
            # Cached distances are pure functions of the table snapshot
            # (§3.2): re-encoding — a new version or a swapped table —
            # must flush them, at the same moment stale documents start
            # being rejected with StaleCodesError.
            cache.ensure_version((id(self.table), self.table.version))
        return CodeMatcher(
            table=self.table,
            extra_codes=extra_codes,
            cache=cache,
            stats=self.stats,
            share_compiled=query,
        )

    # ------------------------------------------------------------------
    # Publication (§3.3 insertion, Figs. 7–8)
    # ------------------------------------------------------------------
    def publish_xml(self, document: str) -> ServiceProfile:
        """Parse and publish an advertisement document.

        Raises:
            ServiceSyntaxError: malformed document.
            StaleCodesError: embedded codes minted against another snapshot.
            MalformedCodeError: an embedded code does not parse.
        """
        with self.timer.phase("parse"):
            profile, annotations = profile_from_xml(document)
        extra = None
        if annotations:
            with self.timer.phase("encode"):
                extra = self.table.resolve_annotations(annotations.codes, annotations.version)
        self._publish(profile, extra)
        return profile

    def publish_xml_batch(self, documents: Iterable[str]) -> list[ServiceProfile]:
        """Parse and publish many advertisement documents in one call.

        All documents are parsed (and their codes validated) before the
        first one is published, so a malformed or stale document aborts the
        batch without partial insertions.

        Raises:
            ServiceSyntaxError: a malformed document.
            StaleCodesError: a document with codes from another snapshot.
            MalformedCodeError: a document with an unparseable code.
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
            self._publish(profile, extra)
        return [profile for profile, _extra in resolved]

    def publish(self, profile: ServiceProfile) -> None:
        """Publish an already-parsed advertisement."""
        self._publish(profile, None)

    def publish_batch(self, profiles: Iterable[ServiceProfile]) -> int:
        """Publish many already-parsed advertisements; returns the count.

        One matcher (and one cache-version check) serves the whole batch —
        the per-call setup the one-at-a-time path pays per profile.
        """
        matcher = self._matcher(None)
        count = 0
        for profile in profiles:
            self._publish(profile, None, matcher=matcher)
            count += 1
        return count

    def _publish(
        self,
        profile: ServiceProfile,
        extra_codes: dict | None,
        matcher: Matcher | None = None,
    ) -> None:
        if profile.uri in self._profiles:
            self.unpublish(profile.uri)
        if matcher is None or extra_codes:
            matcher = self._matcher(extra_codes)
        with self.timer.phase("classify"):
            for capability in profile.provided:
                key = capability.ontologies()
                graph = self._graphs.get(key)
                if graph is None:
                    graph = self._graphs[key] = CapabilityDag(self._index)
                    graph.obs = self._obs
                    self._graph_keys[graph] = (key, next(self._graph_ranks))
                graph.insert(capability, profile.uri, matcher)
                self.summary.add_capability(capability)
        self._profiles[profile.uri] = profile

    def unpublish(self, service_uri: str) -> int:
        """Withdraw a service.

        Cost is proportional to the withdrawn service itself: only the
        graphs its ontology sets index are touched, and the Bloom summary
        is decremented per capability (counting filter) instead of rebuilt
        over the remaining content.

        Returns the number of capability entries removed.
        """
        profile = self._profiles.pop(service_uri, None)
        if profile is None:
            return 0
        removed = 0
        for key in {capability.ontologies() for capability in profile.provided}:
            graph = self._graphs.get(key)
            if graph is None:
                continue
            removed += graph.remove_service(service_uri)
            if len(graph) == 0:
                del self._graphs[key]
                del self._graph_keys[graph]
        for capability in profile.provided:
            self.summary.remove_capability(capability)
        return removed

    # ------------------------------------------------------------------
    # Queries (§3.3 answering, Fig. 9)
    # ------------------------------------------------------------------
    def query_xml(self, document: str) -> list[DirectoryMatch]:
        """Parse a request document and answer it.

        Raises:
            ServiceSyntaxError: malformed document.
            StaleCodesError: embedded codes minted against another snapshot.
            MalformedCodeError: an embedded code does not parse.
        """
        obs = self._obs
        with obs.span("query.parse") if obs.tracing else nullcontext():
            with self.timer.phase("parse"):
                request, annotations = request_from_xml(document)
        extra = None
        if annotations:
            with obs.span("query.encode") if obs.tracing else nullcontext():
                with self.timer.phase("encode"):
                    extra = self.table.resolve_annotations(annotations.codes, annotations.version)
        return self._query(request, self._matcher(extra, query=True))

    def query(
        self, request: ServiceRequest, extra_codes: dict | None = None
    ) -> list[DirectoryMatch]:
        """Answer an already-parsed request: best matches per requested
        capability, each list sorted by ascending semantic distance.

        ``extra_codes`` carries pre-resolved embedded request codes (the
        parse-once protocol fast path resolves a document's annotations
        once and reuses them here, instead of re-parsing per query via
        :meth:`query_xml`).
        """
        return self._query(request, self._matcher(extra_codes, query=True))

    def query_batch(self, requests: Iterable[ServiceRequest]) -> list[list[DirectoryMatch]]:
        """Answer many requests with one matcher; returns per-request
        results in order.  Amortizes matcher setup and keeps the shared
        distance cache hot across the whole batch."""
        matcher = self._matcher(None, query=True)
        return [self._query(request, matcher) for request in requests]

    def _query(self, request: ServiceRequest, matcher: Matcher) -> list[DirectoryMatch]:
        obs = self._obs
        results: list[DirectoryMatch] = []
        with self.timer.phase("match"):
            for capability in request.capabilities:
                if not obs.tracing:
                    results.extend(self._search(capability, matcher))
                    continue
                mode = self.query_mode.name.lower()
                with obs.span("dag.descend", mode=mode, vertices=len(self._index)) as span:
                    results.extend(self._search(capability, matcher, span.attrs))
        return results

    def _search(
        self, requested: Capability, matcher: Matcher, attrs: dict | None = None
    ) -> list[DirectoryMatch]:
        """The ranked matches of one requested capability.

        One probe of the directory-wide concept index finds the vertices
        that can match, in whatever graphs hold them, and one pass scores
        them all (:func:`~repro.core.capability_graph.score`).  Without
        subsumer maps (embedded foreign codes, a request with neither
        outputs nor properties) every vertex of the graphs sharing an
        ontology with the request is scored.  In greedy mode a perfect
        (distance 0) hit ends the paper's graph visit: of the graphs
        holding hits, in :meth:`_visit_order`, those after the first with
        a perfect hit are dropped.  ``attrs`` (a span's) receives the
        search's sizes.
        """
        pool = self._index.candidates(requested, matcher)
        if pool is None:
            wanted = requested.ontologies()
            pool = set().union(
                *(graph.nodes() for key, graph in self._graphs.items() if key & wanted)
            )
        hits = score(requested, matcher, self.query_mode, pool)
        if self.query_mode is QueryMode.GREEDY and 0 in hits.values():
            hits = self._up_to_perfect(hits, requested)
        rows = [
            DirectoryMatch(requested, entry.capability, entry.service_uri, distance)
            for node, distance in hits.items()
            for entry in node.entries
        ]
        rows.sort(key=_rank)
        if attrs is not None:
            attrs["candidates"] = len(pool)
            attrs["graphs"] = len({node.graph for node in pool})
            attrs["indexed"] = len(self._graphs)
            attrs["hits"] = len(rows)
        return rows

    def _up_to_perfect(self, hits: dict[DagNode, int], requested: Capability) -> dict:
        """``hits`` without the graphs visited after the first one holding
        a perfect hit."""
        graphs = {node.graph() for node in hits}
        if len(graphs) == 1:
            return hits
        perfect = {node.graph() for node, distance in hits.items() if distance == 0}
        kept = set()
        for graph in self._visit_order(graphs, requested):
            kept.add(graph)
            if graph in perfect:
                break
        return {node: distance for node, distance in hits.items() if node.graph() in kept}

    def _visit_order(self, graphs, requested: Capability) -> list[CapabilityDag]:
        """``graphs`` in the order the paper's request visits them: keyed
        by exactly the requested ontologies first, then by decreasing
        overlap with them, then in creation order."""
        wanted = requested.ontologies()
        keys = self._graph_keys

        def order(graph: CapabilityDag) -> tuple[bool, int, int]:
            key, rank = keys[graph]
            return key != wanted, -len(key & wanted), rank

        return sorted(graphs, key=order)

    def describe_info(self) -> dict:
        """Structured backend summary (the normalized ``describe`` schema:
        ``kind``/``services``/``capability_count``/``index`` — asserted
        across all backends by the conformance suite)."""
        index = f"{self.graph_count} ontology-keyed graphs, one concept index"
        return {
            "kind": type(self).__name__,
            "services": len(self),
            "capability_count": self.capability_count,
            "index": index,
        }

    def describe(self) -> str:
        """One-line backend summary (full graph dump:
        :meth:`describe_graphs`)."""
        info = self.describe_info()
        return (
            f"{info['kind']}: {info['services']} services, "
            f"{info['capability_count']} capabilities, {info['index']}"
        )

    def describe_graphs(self) -> str:
        """Human-readable dump of the ontology index and every graph (the
        ``inspect`` CLI's output; ``describe()`` used to return this)."""
        lines = [repr(self)]
        for key in sorted(self._graphs, key=lambda k: sorted(k)):
            graph = self._graphs[key]
            names = ", ".join(sorted(uri.rsplit("/", 1)[-1] for uri in key))
            lines.append(f"\ngraph over {{{names}}} ({len(graph)} vertices):")
            lines.append(graph.to_text())
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # State snapshot (restart / handoff with codes included)
    # ------------------------------------------------------------------
    def export_state(self) -> str:
        """Serialize the directory: code table + every cached profile.

        The §5 Fig. 7 scenario ("a directory leaves ... another one has to
        host the set of service descriptions") needs exactly this: the
        successor re-creates graphs from the snapshot without ever running
        a reasoner.
        """
        root = ET.Element("DirectoryState", {"version": str(self.table.version)})
        codes_el = ET.SubElement(root, "Codes")
        codes_el.append(self.table.to_element())
        services_el = ET.SubElement(root, "Services")
        for profile in self._profiles.values():
            services_el.append(profile_to_element(profile))
        return ET.tostring(root, encoding="unicode")

    @classmethod
    def from_state(cls, document: str, **kwargs) -> "SemanticDirectory":
        """Reconstruct a directory from :meth:`export_state` output.

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
        directory = cls(table, **kwargs)
        directory.publish_batch(
            profile_from_element(service_el)[0] for service_el in services_el
        )
        return directory

    def __repr__(self) -> str:
        return (
            f"SemanticDirectory({len(self)} services, {self.capability_count} capabilities, "
            f"{self.graph_count} graphs)"
        )


class FlatDirectory:
    """Fig. 9's unclassified baseline: code-based matching over a flat list.

    Same parsing and encoded matching as :class:`SemanticDirectory`, but no
    capability graphs: the entries are one flat list.

    Args:
        table: code table snapshotting the ontologies in force.
        use_concept_index: preselect the entries that can match with a
            :class:`~repro.core.capability_graph.ConceptIndex` (the one the
            capability graphs keep) and score them with the subsumer-map
            kernel of :class:`~repro.core.matching.CodeMatcher` over a
            directory-owned distance cache.  Results are identical to the
            linear scan (property-tested).  The Fig. 9 "flat" baseline
            disables this to keep the paper's linear scan, one scalar match
            per cached capability.
    """

    def __init__(self, table: CodeTable, use_concept_index: bool = True) -> None:
        self.table = table
        self.use_concept_index = use_concept_index
        self._entries: dict[int, tuple[Capability, str]] = {}
        self._by_service: dict[str, list[int]] = {}
        self._ids = itertools.count(1)
        self._profiles: dict[str, ServiceProfile] = {}
        self._index = ConceptIndex()
        self.distance_cache = DistanceCache()
        #: The observability sink for this directory (NULL_OBS when off).
        self.obs = NULL_OBS
        self.timer = PhaseTimer()
        self.stats = MatcherStats()

    def __len__(self) -> int:
        return len(self._profiles)

    @property
    def capability_count(self) -> int:
        """Number of cached capabilities."""
        return len(self._entries)

    def services(self) -> list[ServiceProfile]:
        """All cached service profiles."""
        return list(self._profiles.values())

    def profile(self, service_uri: str) -> ServiceProfile | None:
        """The cached profile for ``service_uri`` (None when absent)."""
        return self._profiles.get(service_uri)

    def publish(self, profile: ServiceProfile) -> None:
        """Cache an advertisement (no classification work)."""
        if profile.uri in self._profiles:
            self.unpublish(profile.uri)
        self._profiles[profile.uri] = profile
        entry_ids = self._by_service.setdefault(profile.uri, [])
        for capability in profile.provided:
            entry_id = next(self._ids)
            self._entries[entry_id] = (capability, profile.uri)
            self._index.add(entry_id, capability)
            entry_ids.append(entry_id)

    def publish_batch(self, profiles: Iterable[ServiceProfile]) -> int:
        """Cache many advertisements; returns the count."""
        count = 0
        for profile in profiles:
            self.publish(profile)
            count += 1
        return count

    def publish_xml(self, document: str) -> ServiceProfile:
        """Parse and cache an advertisement document."""
        with self.timer.phase("parse"):
            profile, _annotations = profile_from_xml(document)
        self.publish(profile)
        return profile

    def unpublish(self, service_uri: str) -> int:
        """Withdraw a service."""
        entry_ids = self._by_service.pop(service_uri, [])
        for entry_id in entry_ids:
            capability, _uri = self._entries.pop(entry_id)
            self._index.discard(entry_id, capability)
        self._profiles.pop(service_uri, None)
        return len(entry_ids)

    def query(self, request: ServiceRequest) -> list[DirectoryMatch]:
        """Match cached capabilities against every requested one."""
        return self.query_batch((request,))[0]

    def query_batch(self, requests: Iterable[ServiceRequest]) -> list[list[DirectoryMatch]]:
        """Answer many requests with one matcher; per-request results."""
        if self.use_concept_index:
            cache = self.distance_cache
            # Cached maps are pure functions of the table snapshot (§3.2),
            # as in :meth:`SemanticDirectory._matcher`.
            cache.ensure_version((id(self.table), self.table.version))
            matcher = CodeMatcher(
                table=self.table, cache=cache, stats=self.stats, share_compiled=True
            )
        else:
            matcher = CodeMatcher(table=self.table, stats=self.stats)
        return [self._query(request, matcher) for request in requests]

    def _query(self, request: ServiceRequest, matcher: CodeMatcher) -> list[DirectoryMatch]:
        """Score the candidate entries of each requested capability: the
        concept index's preselection, or every entry on the linear scan."""
        entries = self._entries
        results: list[DirectoryMatch] = []
        with self.timer.phase("match"):
            for requested in request.capabilities:
                candidates = (
                    self._index.candidates(requested, matcher)
                    if self.use_concept_index
                    else None
                )
                hits = []
                for entry_id in entries if candidates is None else sorted(candidates):
                    capability, service_uri = entries[entry_id]
                    distance = matcher.semantic_distance(capability, requested)
                    if distance is not None:
                        hits.append(DirectoryMatch(requested, capability, service_uri, distance))
                hits.sort(key=_rank)
                results.extend(hits)
        return results

    def export_metrics(self) -> None:
        """Mirror matcher counters into the obs metric registry.
        Pull-based, like :meth:`SemanticDirectory.export_metrics`."""
        obs = self.obs
        obs.counter("dir.capability_matches").set(self.stats.capability_matches)
        obs.counter("dir.concept_comparisons").set(self.stats.concept_comparisons)

    def describe_info(self) -> dict:
        """Structured backend summary (the normalized ``describe`` schema:
        ``kind``/``services``/``capability_count``/``index``)."""
        index = (
            "concept-indexed, subsumer-map kernel"
            if self.use_concept_index
            else "linear-scan, scalar matcher"
        )
        return {
            "kind": type(self).__name__,
            "services": len(self),
            "capability_count": self.capability_count,
            "index": index,
        }

    def describe(self) -> str:
        """One-line backend summary."""
        info = self.describe_info()
        return (
            f"{info['kind']}: {info['services']} services, "
            f"{info['capability_count']} capabilities, {info['index']}"
        )

    def __repr__(self) -> str:
        return f"FlatDirectory({len(self)} services, {self.capability_count} capabilities)"
