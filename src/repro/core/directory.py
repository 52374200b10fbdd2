"""Semantic service directories (paper §3.3 + §5 measurements).

:class:`SemanticDirectory` is the optimized directory S-Ariadne deploys on
elected nodes: it parses Amigo-S advertisements (XML), encodes their
concepts with the code table, classifies their capabilities into
:class:`~repro.core.capability_graph.CapabilityDag` graphs *indexed by the
ontology sets they use*, and answers requests with a handful of numeric
matches.  :class:`FlatDirectory` is the unclassified baseline of Fig. 9:
same code-based matching, but no capability graphs: by default the packed
batch engine answers over every cached capability, and the paper's linear
scan stays available (see ``docs/PERFORMANCE.md``).

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

from repro.core.capability_graph import CapabilityDag, GraphMatch, QueryMode
from repro.core.codes import CodeTable, StaleCodesError
from repro.core.matching import CodeMatcher, Matcher, MatcherStats
from repro.core.packed import BatchMatchEngine
from repro.core.summaries import DirectorySummary
from repro.obs import NULL_OBS
from repro.services.profile import Capability, ServiceProfile, ServiceRequest, ontology_of
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


class SemanticDirectory:
    """The §3.3 optimized directory: encoded matching + classified graphs.

    Args:
        table: code table snapshotting the ontologies in force.
        query_mode: how graphs are searched (paper default: greedy).
        summary_bits / summary_hashes: Bloom summary parameters (§4).
        preselection: graph-index filter strength (see
            :meth:`_candidate_graphs`).
        distance_cache_size: capacity of the shared concept-distance memo;
            0 disables it (every pair recomputed, as in the seed code).
    """

    def __init__(
        self,
        table: CodeTable,
        query_mode: QueryMode = QueryMode.GREEDY,
        summary_bits: int = 512,
        summary_hashes: int = 4,
        preselection: str = "superset",
        distance_cache_size: int = DEFAULT_MAXSIZE,
    ) -> None:
        if preselection not in ("superset", "intersection"):
            raise ValueError(f"unknown preselection {preselection!r}")
        self.table = table
        self.query_mode = query_mode
        self.preselection = preselection
        self.summary = DirectorySummary(m=summary_bits, k=summary_hashes)
        self._graphs: dict[frozenset[str], CapabilityDag] = {}
        self._profiles: dict[str, ServiceProfile] = {}
        # Graph preselection depends only on the *keys* of the ontology
        # index, which change far less often than their contents: memoize
        # per request signature, flush when a graph is created or dropped.
        self._graph_select_memo: dict[tuple[frozenset[str], frozenset[str]], list[CapabilityDag]] = {}
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
                    graph = self._graphs[key] = CapabilityDag()
                    graph.obs = self._obs
                    self._graph_select_memo.clear()
                graph.insert(capability, profile.uri, matcher)
                self.summary.add_capability(capability)
        self._profiles[profile.uri] = profile
        if self._obs.enabled:
            self._obs.counter("dir.publishes").inc()

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
                self._graph_select_memo.clear()
        for capability in profile.provided:
            self.summary.remove_capability(capability)
        return removed

    # ------------------------------------------------------------------
    # Queries (§3.3 answering, Fig. 9)
    # ------------------------------------------------------------------
    def _candidate_graphs(self, capability: Capability) -> list[CapabilityDag]:
        """Graphs preselected by the ontology index.

        Graphs whose key shares no ontology with the request are always
        filtered out (the paper's DAG2/O3 example).  In the default
        ``superset`` mode the filter is stronger: a matching advertisement
        must provide outputs/properties that *subsume* the requested ones,
        and (with ontologies defining disjoint concept spaces) a subsumer
        lives in the same ontology as the subsumee — so a graph can only
        contain a match if its key covers every ontology the request's
        outputs and properties come from.  This is what keeps the number
        of semantic matches per query nearly independent of directory size
        (Fig. 9).  ``intersection`` mode keeps the weaker filter for
        ontology suites with cross-namespace bridging axioms.
        """
        wanted = capability.ontologies()
        required = frozenset(
            ontology_of(c) for c in capability.outputs | capability.properties
        )
        memo_key = (wanted, required)
        memoized = self._graph_select_memo.get(memo_key)
        if memoized is not None:
            return memoized
        scored: list[tuple[int, int, CapabilityDag]] = []
        for key, graph in self._graphs.items():
            overlap = len(key & wanted)
            if overlap == 0:
                continue
            if self.preselection == "superset" and required and not required <= key:
                continue
            exact = 0 if key == wanted else 1
            scored.append((exact, -overlap, graph))
        scored.sort(key=lambda item: (item[0], item[1]))
        selected = [graph for _exact, _overlap, graph in scored]
        if len(self._graph_select_memo) >= 1024:  # bound stale-request growth
            self._graph_select_memo.clear()
        self._graph_select_memo[memo_key] = selected
        return selected

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
        if obs.enabled:
            obs.counter("dir.queries").inc()
        results: list[DirectoryMatch] = []
        with self.timer.phase("match"):
            for capability in request.capabilities:
                if obs.tracing:
                    with obs.span("graph.select") as span:
                        graphs = self._candidate_graphs(capability)
                        span.attrs["graphs"] = len(graphs)
                        span.attrs["indexed"] = self.graph_count
                else:
                    graphs = self._candidate_graphs(capability)
                hits: list[GraphMatch] = []
                for graph in graphs:
                    hits.extend(graph.query(capability, matcher, self.query_mode))
                    if self.query_mode is QueryMode.GREEDY and any(
                        hit.distance == 0 for hit in hits
                    ):
                        break  # a perfect substitute exists; stop scanning graphs
                hits.sort(key=lambda m: (m.distance, m.service_uri, m.capability.uri))
                results.extend(
                    DirectoryMatch(capability, hit.capability, hit.service_uri, hit.distance)
                    for hit in hits
                )
        return results

    def describe_info(self) -> dict:
        """Structured backend summary (the normalized ``describe`` schema:
        ``kind``/``services``/``capability_count``/``index`` — asserted
        across all backends by the conformance suite)."""
        index = (
            f"{self.graph_count} ontology-indexed graphs, "
            f"{self.preselection} preselection"
        )
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
    capability graphs: every cached capability is matched per request.

    Args:
        table: code table snapshotting the ontologies in force.
        use_interval_index: answer queries with the packed batch engine
            (:class:`~repro.core.packed.BatchMatchEngine`): each requested
            concept's subsumers come from one interval-index stab, a
            postings intersection prunes the entries, and survivors are
            ranked by segmented sums instead of per-entry scalar matching.
            Results are identical to the scalar path (property-tested).
            The Fig. 9 "flat" baseline disables this to keep the paper's
            linear scan, one scalar match per cached capability.
    """

    def __init__(self, table: CodeTable, use_interval_index: bool = True) -> None:
        self.table = table
        self.use_interval_index = use_interval_index
        self._entries: dict[int, tuple[Capability, str]] = {}
        self._by_service: dict[str, list[int]] = {}
        self._ids = itertools.count(1)
        self._profiles: dict[str, ServiceProfile] = {}
        #: Content epoch: bumped on every publish/unpublish so epoch-keyed
        #: caches (the packed engine tables) know when to rebuild — the
        #: same coherence scheme as the version-keyed distance caches.
        self._epoch = 0
        self._engine: BatchMatchEngine | None = None
        self._engine_key: tuple | None = None
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
        self._epoch += 1
        entry_ids = self._by_service.setdefault(profile.uri, [])
        for capability in profile.provided:
            entry_id = next(self._ids)
            self._entries[entry_id] = (capability, profile.uri)
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

    def _lookup(self, concept: str):
        if concept in self.table:
            return self.table.code(concept)
        return None

    def unpublish(self, service_uri: str) -> int:
        """Withdraw a service."""
        entry_ids = self._by_service.pop(service_uri, [])
        if entry_ids:
            self._epoch += 1
        for entry_id in entry_ids:
            del self._entries[entry_id]
        self._profiles.pop(service_uri, None)
        return len(entry_ids)

    def query(self, request: ServiceRequest) -> list[DirectoryMatch]:
        """Match cached capabilities against every requested one."""
        return self.query_batch((request,))[0]

    def query_batch(self, requests: Iterable[ServiceRequest]) -> list[list[DirectoryMatch]]:
        """Answer many requests (one matcher on the linear scan);
        per-request results."""
        if self.use_interval_index:
            return [self._query_batched(request) for request in requests]
        matcher = CodeMatcher(table=self.table, stats=self.stats)
        return [self._query_linear(request, matcher) for request in requests]

    def _batch_engine(self) -> BatchMatchEngine:
        """The packed engine for the current content; rebuilt lazily when
        the content epoch or the code-table version moves (the same
        coherence rule version-keyed distance caches follow)."""
        key = (self._epoch, id(self.table), self.table.version)
        if self._engine is None or self._engine_key != key:
            entries = {eid: cap for eid, (cap, _uri) in self._entries.items()}
            self._engine = BatchMatchEngine(entries, self._lookup)
            self._engine_key = key
        return self._engine

    def _query_linear(self, request: ServiceRequest, matcher: CodeMatcher) -> list[DirectoryMatch]:
        """Answer by the Fig. 9 linear scan with the scalar matcher."""
        results: list[DirectoryMatch] = []
        with self.timer.phase("match"):
            for requested in request.capabilities:
                ordered = list(self._entries)
                provided = [self._entries[entry_id][0] for entry_id in ordered]
                distances = matcher.semantic_distance_many(provided, requested)
                hits = []
                for entry_id, capability, distance in zip(ordered, provided, distances):
                    if distance is not None:
                        service_uri = self._entries[entry_id][1]
                        hits.append(DirectoryMatch(requested, capability, service_uri, distance))
                hits.sort(key=lambda m: (m.distance, m.service_uri, m.capability.uri))
                results.extend(hits)
        return results

    def _query_batched(self, request: ServiceRequest) -> list[DirectoryMatch]:
        """Answer via the packed batch engine (identical results to the
        scalar path; only the evaluation strategy changes)."""
        results: list[DirectoryMatch] = []
        obs = self.obs
        with self.timer.phase("match"):
            engine = self._batch_engine()
            for requested in request.capabilities:
                pairs, qstats = engine.match_capability(requested, self._lookup)
                self.stats.capability_matches += qstats.evaluated
                if obs.enabled:
                    obs.counter("match.batch_queries").inc()
                    obs.histogram("match.batch_size").observe(qstats.batch_size)
                    obs.counter("match.candidates_pruned").inc(qstats.pruned)
                hits = []
                for entry_id, distance in pairs:
                    capability, service_uri = self._entries[entry_id]
                    hits.append(DirectoryMatch(requested, capability, service_uri, distance))
                hits.sort(key=lambda m: (m.distance, m.service_uri, m.capability.uri))
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
            "interval-indexed, packed engine"
            if self.use_interval_index
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
