"""Capability DAGs: classification of service advertisements (paper §3.3).

Advertised capabilities are organized into directed acyclic graphs where an
edge ``C1 → C2`` means ``Match(C1, C2)`` holds — ``C1`` is *more generic*
(can substitute ``C2``).  Equivalent capabilities share a single vertex.
Roots are the most generic capabilities; the query algorithm matches a
request against roots only and descends toward the smallest semantic
distance, so answering a request needs a handful of semantic matches
instead of one per cached capability (the Fig. 9 effect).

Each graph also keeps a *concept index*: its vertices by the output and
by the property concepts of their representatives.  A matcher that
resolves codes from the table alone hands out each requested concept's
subsumer map (:meth:`repro.core.matching.Matcher.subsumers`), and the
vertices indexed under a concept of that map are exactly the ones whose
representative can cover it.  Intersecting over the requested outputs and
properties gives the vertices that can match at all, so a query or an
insertion starts from the parentless candidates instead of every root and
never runs a semantic match that is bound to fail.

The paper's insertion pseudocode is under-specified (its root/leaf loops do
not pin down the final edge set); we implement the standard partial-order
insertion it sketches — find the *minimal subsumers* with a pruned
top-down search from the roots and the *maximal subsumees* with a pruned
bottom-up search from the leaves, then rewire the transitive reduction.
Both prunings are sound because ``Match`` is transitive (a property test
verifies transitivity of the implemented relation).

Deviations from the paper, by necessity:

* the paper merges two capabilities into one vertex only when they match
  mutually *with distance 0*; mutual matches with non-zero distance would
  create a 2-cycle, so we merge on mutual match regardless of distance and
  keep the individual capabilities as separate entries of the vertex;
* the paper's query returns as soon as one graph yields a match; we rank
  all candidate graphs and return the globally best entries, plus expose
  the paper's first-hit behaviour via ``first_only``.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

from repro.core.matching import Matcher
from repro.obs import NULL_OBS
from repro.services.profile import Capability


class QueryMode(enum.Enum):
    """How a request is matched against a DAG."""

    #: The paper's algorithm: match roots, descend toward minimal distance.
    GREEDY = "greedy"
    #: Evaluate every vertex (upper bound on recall; Fig. 9's baseline).
    EXHAUSTIVE = "exhaustive"


@dataclass
class DagEntry:
    """One advertised capability stored in a vertex."""

    capability: Capability
    service_uri: str


@dataclass
class DagNode:
    """A vertex: an equivalence class of advertised capabilities."""

    node_id: int
    representative: Capability
    entries: list[DagEntry] = field(default_factory=list)
    parents: set[int] = field(default_factory=set)
    children: set[int] = field(default_factory=set)


@dataclass(frozen=True)
class GraphMatch:
    """A query hit: an advertised capability with its semantic distance."""

    capability: Capability
    service_uri: str
    distance: int


class CapabilityDag:
    """One classified graph of capabilities (vertices + reduction edges)."""

    def __init__(self) -> None:
        self._nodes: dict[int, DagNode] = {}
        self._ids = itertools.count(1)
        # Concept index over the vertices' representatives: concept →
        # vertex ids, one map for output concepts and one for property
        # concepts (see :meth:`_candidates`).
        self._by_output: dict[str, set[int]] = {}
        self._by_property: dict[str, set[int]] = {}
        self.obs = NULL_OBS

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def size(self) -> int:
        """Number of stored capability entries (≥ number of vertices)."""
        return sum(len(node.entries) for node in self._nodes.values())

    def nodes(self) -> list[DagNode]:
        """All vertices."""
        return list(self._nodes.values())

    def roots(self) -> list[DagNode]:
        """Vertices without predecessors — the most generic capabilities."""
        return [node for node in self._nodes.values() if not node.parents]

    def leaves(self) -> list[DagNode]:
        """Vertices without successors — the most specific capabilities."""
        return [node for node in self._nodes.values() if not node.children]

    def ontologies(self) -> frozenset[str]:
        """Union of ontology sets over all stored capabilities (the index)."""
        result: frozenset[str] = frozenset()
        for node in self._nodes.values():
            for entry in node.entries:
                result |= entry.capability.ontologies()
        return result

    # ------------------------------------------------------------------
    # Insertion (§3.3 "Adding a New Service Advertisement")
    # ------------------------------------------------------------------
    def insert(self, capability: Capability, service_uri: str, matcher: Matcher) -> int:
        """Classify one capability into the graph; returns its vertex id."""
        # Vertices that can subsume the newcomer (``Match(N, capability)``)
        # are exactly the query-direction candidates for it.
        candidates = self._candidates(capability, matcher)
        uppers = self._minimal_subsumers(capability, matcher, candidates)
        equal = next(
            (
                node_id
                for node_id in uppers
                if matcher.match(capability, self._nodes[node_id].representative)
            ),
            None,
        )
        if equal is not None:
            self._nodes[equal].entries.append(DagEntry(capability, service_uri))
            return equal
        lowers = self._maximal_subsumees(capability, matcher)

        node = DagNode(node_id=next(self._ids), representative=capability)
        node.entries.append(DagEntry(capability, service_uri))
        self._nodes[node.node_id] = node
        for concepts, index in self._indexed_fields(capability):
            for concept in concepts:
                index.setdefault(concept, set()).add(node.node_id)

        # Remove reduction edges that the new vertex now interposes.
        for lower_id in lowers:
            lower = self._nodes[lower_id]
            for old_parent in [p for p in lower.parents if p in uppers or self._above(p, uppers)]:
                lower.parents.discard(old_parent)
                self._nodes[old_parent].children.discard(lower_id)
        for upper_id in uppers:
            self._nodes[upper_id].children.add(node.node_id)
            node.parents.add(upper_id)
        for lower_id in lowers:
            self._nodes[lower_id].parents.add(node.node_id)
            node.children.add(lower_id)
        return node.node_id

    def _above(self, node_id: int, uppers: set[int]) -> bool:
        """True iff ``node_id`` is an ancestor of any vertex in ``uppers``."""
        stack = list(uppers)
        seen: set[int] = set()
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            parents = self._nodes[current].parents
            if node_id in parents:
                return True
            stack.extend(parents)
        return False

    def _minimal_subsumers(
        self, capability: Capability, matcher: Matcher, candidates: set[int] | None = None
    ) -> set[int]:
        """Vertices N with ``Match(N, capability)`` minimal in the order.

        Top search from the roots: subsumers are ancestor-closed (Match is
        transitive), so children of a non-matching vertex never match.
        ``candidates`` (when not ``None``) is a sound superset of the
        matching vertices (:meth:`_candidates`); vertices outside it are
        rejected without a semantic match, and the search starts from the
        parentless ones among them.
        """
        matching_memo: dict[int, bool] = {}

        def matches(node_id: int) -> bool:
            if candidates is not None and node_id not in candidates:
                return False
            if node_id not in matching_memo:
                matching_memo[node_id] = matcher.match(
                    self._nodes[node_id].representative, capability
                )
            return matching_memo[node_id]

        result: set[int] = set()
        stack = [node_id for node_id in self._root_ids(candidates) if matches(node_id)]
        seen: set[int] = set()
        while stack:
            node_id = stack.pop()
            if node_id in seen:
                continue
            seen.add(node_id)
            narrower = [c for c in self._nodes[node_id].children if matches(c)]
            if narrower:
                stack.extend(narrower)
            else:
                result.add(node_id)
        return result

    def _maximal_subsumees(self, capability: Capability, matcher: Matcher) -> set[int]:
        """Vertices N with ``Match(capability, N)`` maximal in the order.

        Bottom search from the leaves: subsumees are descendant-closed, so
        parents of a non-subsumed vertex are never subsumed.
        """
        matching_memo: dict[int, bool] = {}

        def matches(node_id: int) -> bool:
            if node_id not in matching_memo:
                matching_memo[node_id] = matcher.match(
                    capability, self._nodes[node_id].representative
                )
            return matching_memo[node_id]

        result: set[int] = set()
        stack = [node.node_id for node in self.leaves() if matches(node.node_id)]
        seen: set[int] = set()
        while stack:
            node_id = stack.pop()
            if node_id in seen:
                continue
            seen.add(node_id)
            wider = [p for p in self._nodes[node_id].parents if matches(p)]
            if wider:
                stack.extend(wider)
            else:
                result.add(node_id)
        return result

    # ------------------------------------------------------------------
    # Removal
    # ------------------------------------------------------------------
    def remove_service(self, service_uri: str) -> int:
        """Withdraw every capability advertised by ``service_uri``.

        Returns the number of entries removed.  Vertices left empty are
        deleted and their parents re-linked to their children where no
        alternative path exists (keeping the transitive reduction).
        """
        removed = 0
        for node_id in [nid for nid, n in self._nodes.items()]:
            node = self._nodes.get(node_id)
            if node is None:
                continue
            before = len(node.entries)
            node.entries = [e for e in node.entries if e.service_uri != service_uri]
            removed += before - len(node.entries)
            if not node.entries:
                self._delete_node(node_id)
        return removed

    def _delete_node(self, node_id: int) -> None:
        node = self._nodes.pop(node_id)
        for concepts, index in self._indexed_fields(node.representative):
            for concept in concepts:
                ids = index[concept]
                ids.discard(node_id)
                if not ids:
                    del index[concept]
        for parent_id in node.parents:
            self._nodes[parent_id].children.discard(node_id)
        for child_id in node.children:
            self._nodes[child_id].parents.discard(node_id)
        for parent_id in node.parents:
            for child_id in node.children:
                if not self._has_path(parent_id, child_id):
                    self._nodes[parent_id].children.add(child_id)
                    self._nodes[child_id].parents.add(parent_id)

    def _has_path(self, from_id: int, to_id: int) -> bool:
        stack = [from_id]
        seen: set[int] = set()
        while stack:
            current = stack.pop()
            if current == to_id:
                return True
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self._nodes[current].children)
        return False

    # ------------------------------------------------------------------
    # Query (§3.3 "Answering User Requests")
    # ------------------------------------------------------------------
    def _candidates(self, requested: Capability, matcher: Matcher) -> set[int] | None:
        """Vertices whose representative may match ``requested``; ``None``
        when the matcher gives no preselection.

        ``Match`` needs every requested output (property) covered by some
        provided output (property), so a vertex qualifies only if, for each
        requested concept, its representative holds a concept of that
        concept's subsumer map: the candidates are the intersection, over
        the requested outputs and properties, of the vertices indexed under
        the map's concepts.  For a matcher resolving codes from the table
        this is exact on outputs and properties (inputs are left to the
        matcher).  ``None`` when the request has neither outputs nor
        properties, or the matcher hands out no maps (taxonomy matchers,
        embedded codes shadowing the table).
        """
        result: set[int] | None = None
        for concepts, index in self._indexed_fields(requested):
            for concept in concepts:
                subsumers = matcher.subsumers(concept)
                if subsumers is None:
                    return None
                hits: set[int] = set()
                if len(subsumers) <= len(index):
                    for over in subsumers:
                        ids = index.get(over)
                        if ids is not None:
                            hits.update(ids)
                else:
                    for over, ids in index.items():
                        if over in subsumers:
                            hits.update(ids)
                result = hits if result is None else result & hits
                if not result:
                    return result
        return result

    def _indexed_fields(self, capability: Capability):
        """``(concepts, concept index)`` for the output and the property
        concepts of ``capability``."""
        return (
            (capability.outputs, self._by_output),
            (capability.properties, self._by_property),
        )

    def _root_ids(self, candidates: set[int] | None) -> list[int]:
        """The parentless vertices, among ``candidates`` when given, in
        insertion order (vertex ids grow with insertion)."""
        nodes = self._nodes
        if candidates is None:
            return [node_id for node_id, node in nodes.items() if not node.parents]
        return sorted(node_id for node_id in candidates if not nodes[node_id].parents)

    def query(
        self,
        requested: Capability,
        matcher: Matcher,
        mode: QueryMode = QueryMode.GREEDY,
    ) -> list[GraphMatch]:
        """Find advertised capabilities matching ``requested``.

        Returns matches sorted by ascending semantic distance.  In
        ``GREEDY`` mode (the paper's algorithm) each root that matches is
        descended toward strictly smaller distances; in ``EXHAUSTIVE`` mode
        every vertex is evaluated.

        Both scans are narrowed to the candidate vertices
        (:meth:`_candidates`) when the matcher provides subsumer maps: a
        vertex outside the set cannot match (its distance would be
        ``None``), so skipping it changes no result — only the number of
        semantic matches evaluated.
        """
        obs = self.obs
        if not obs.tracing:
            return self._search(requested, matcher, mode, self._candidates(requested, matcher))
        with obs.span("dag.descend", mode=mode.name.lower(), vertices=len(self._nodes)) as span:
            candidates = self._candidates(requested, matcher)
            results = self._search(requested, matcher, mode, candidates)
            span.attrs["candidates"] = len(self._nodes if candidates is None else candidates)
            span.attrs["hits"] = len(results)
        return results

    def _search(
        self,
        requested: Capability,
        matcher: Matcher,
        mode: QueryMode,
        candidates: set[int] | None,
    ) -> list[GraphMatch]:
        if candidates is not None and not candidates:
            return []
        nodes = self._nodes
        hits: dict[int, int] = {}
        if mode is QueryMode.EXHAUSTIVE:
            for node_id in nodes if candidates is None else sorted(candidates):
                distance = matcher.semantic_distance(nodes[node_id].representative, requested)
                if distance is not None:
                    hits[node_id] = distance
        else:
            for root_id in self._root_ids(candidates):
                distance = matcher.semantic_distance(nodes[root_id].representative, requested)
                if distance is None:
                    continue
                current_id, current_distance = root_id, distance
                hits[current_id] = min(hits.get(current_id, current_distance), current_distance)
                improved = True
                while improved and current_distance > 0:
                    improved = False
                    for child_id in nodes[current_id].children:
                        if candidates is not None and child_id not in candidates:
                            continue
                        child_distance = matcher.semantic_distance(
                            nodes[child_id].representative, requested
                        )
                        if child_distance is not None and child_distance < current_distance:
                            current_id, current_distance = child_id, child_distance
                            improved = True
                    hits[current_id] = min(
                        hits.get(current_id, current_distance), current_distance
                    )

        results = [
            GraphMatch(entry.capability, entry.service_uri, distance)
            for node_id, distance in hits.items()
            for entry in nodes[node_id].entries
        ]
        results.sort(key=lambda m: (m.distance, m.service_uri))
        return results

    # ------------------------------------------------------------------
    # Introspection rendering
    # ------------------------------------------------------------------
    def to_text(self) -> str:
        """ASCII rendering of the DAG, roots first, indentation = depth.

        Vertices reached through several parents are printed once per
        path with a ``^`` marker after the first occurrence.
        """
        lines: list[str] = []
        printed: set[int] = set()

        def render(node_id: int, depth: int) -> None:
            node = self._nodes[node_id]
            entries = ", ".join(sorted(e.service_uri for e in node.entries))
            marker = " ^" if node_id in printed else ""
            lines.append(f"{'  ' * depth}- {node.representative.name} [{entries}]{marker}")
            if node_id in printed:
                return
            printed.add(node_id)
            for child_id in sorted(node.children):
                render(child_id, depth + 1)

        for root in sorted(self.roots(), key=lambda n: n.representative.name):
            render(root.node_id, 0)
        return "\n".join(lines) if lines else "(empty graph)"

    def __repr__(self) -> str:
        return (
            f"CapabilityDag({len(self._nodes)} vertices, {self.size} entries, "
            f"{len(self.roots())} roots)"
        )
