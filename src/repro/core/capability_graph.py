"""Capability DAGs: classification of service advertisements (paper §3.3).

Advertised capabilities are organized into directed acyclic graphs where an
edge ``C1 → C2`` means ``Match(C1, C2)`` holds — ``C1`` is *more generic*
(can substitute ``C2``).  Equivalent capabilities share a single vertex.
Roots are the most generic capabilities; the query algorithm matches a
request against roots only and descends toward the smallest semantic
distance, so answering a request needs a handful of semantic matches
instead of one per cached capability (the Fig. 9 effect).

Vertices are found through a :class:`ConceptIndex`: vertices by the
output and by the property concepts of their representatives.  A matcher
that resolves codes from the table alone hands out each requested
concept's subsumer map (:meth:`repro.core.matching.Matcher.subsumers`),
and the vertices indexed under a concept of that map are exactly the ones
whose representative can cover it.  Intersecting over the requested
outputs and properties gives the vertices that can match at all, so a
query or an insertion starts from the parentless candidates instead of
every root and never runs a semantic match that is bound to fail.  A
standalone graph keeps its own index; the graphs of a
:class:`repro.core.directory.SemanticDirectory` share one directory-wide
index, whose items (:class:`DagNode`) lead straight to their graph, so a
request is probed once for all graphs.  The flat directory
(:class:`repro.core.directory.FlatDirectory`) preselects its entries with
the same class.

The paper's insertion pseudocode is under-specified (its root/leaf loops do
not pin down the final edge set); we implement the standard partial-order
insertion it sketches — find the *minimal subsumers* with a pruned
top-down search from the roots and the *maximal subsumees* with a pruned
bottom-up search from the leaves, then rewire the transitive reduction.
Both prunings are sound because ``Match`` is transitive (a property test
verifies transitivity of the implemented relation).  The bottom-up search
is prefiltered from the matcher's subsumee sets
(:meth:`repro.core.matching.Matcher.subsumees`): a vertex whose outputs or
properties the newcomer's cannot all cover is rejected without a semantic
match, so a publication runs matches only on the vertices it may subsume.

Deviations from the paper, by necessity:

* the paper merges two capabilities into one vertex only when they match
  mutually *with distance 0*; mutual matches with non-zero distance would
  create a 2-cycle, so we merge on mutual match regardless of distance and
  keep the individual capabilities as separate entries of the vertex;
* the paper's query visits graphs in turn and returns as soon as one
  yields a match; the directory scores the candidates of every graph in
  one pass (:func:`score`), keeps (greedy mode) the hits of the graphs
  visited up to the first one with a perfect (distance 0) hit, and ranks
  the entries of every graph kept together.
"""

from __future__ import annotations

import enum
import itertools
import weakref
from collections.abc import Hashable
from dataclasses import dataclass, field
from operator import attrgetter

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


@dataclass(eq=False, slots=True)
class DagNode:
    """A vertex: an equivalence class of advertised capabilities.

    Hashed by identity: concept indexes hold vertices themselves, so a
    candidate leads straight to its entries and, through ``graph`` (a weak
    reference shared by the graph's vertices), to its graph.  The
    reference is weak so that a dropped graph is freed at once instead of
    waiting for the cycle collector.
    """

    node_id: int
    representative: Capability
    graph: weakref.ReferenceType[CapabilityDag] = field(repr=False)
    entries: list[DagEntry] = field(default_factory=list)
    parents: set[int] = field(default_factory=set)
    children: set[int] = field(default_factory=set)


@dataclass(frozen=True)
class GraphMatch:
    """A query hit: an advertised capability with its semantic distance."""

    capability: Capability
    service_uri: str
    distance: int


class ConceptIndex:
    """Items by the output and by the property concepts of their capabilities.

    The one candidate preselection of both directory kinds: capability
    graphs index their vertices (:class:`DagNode`), the flat directory its
    entry ids.  ``Match`` needs every requested output (property) covered
    by some provided output (property), so an item qualifies only if, for
    each requested concept, its capability holds a concept of that
    concept's subsumer map (:meth:`repro.core.matching.Matcher.subsumers`).
    """

    def __init__(self) -> None:
        self._by_output: dict[str, set[Hashable]] = {}
        self._by_property: dict[str, set[Hashable]] = {}
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def add(self, item: Hashable, capability: Capability) -> None:
        """Index ``capability`` under ``item``."""
        self._size += 1
        for concepts, index in self._fields(capability):
            for concept in concepts:
                index.setdefault(concept, set()).add(item)

    def discard(self, item: Hashable, capability: Capability) -> None:
        """Drop ``item``, indexed earlier under ``capability``."""
        self._size -= 1
        for concepts, index in self._fields(capability):
            for concept in concepts:
                items = index[concept]
                items.discard(item)
                if not items:
                    del index[concept]

    def candidates(
        self, requested: Capability, matcher: Matcher, within: set | None = None
    ) -> set | None:
        """Items (of ``within``, when given) whose capability may match
        ``requested``; ``None`` when the matcher gives no preselection.

        The candidates are the intersection, over the requested outputs and
        properties, of the items indexed under the concepts of each one's
        subsumer map.  For a matcher resolving codes from the table this is
        exact on outputs and properties (inputs are left to the matcher).
        ``None`` when the request has neither outputs nor properties, or
        the matcher hands out no maps (taxonomy matchers, embedded codes
        shadowing the table).

        The intersection is progressive: ``within``, or else the requested
        concept with the fewest indexed items, seeds the running set, and
        each requested concept keeps the survivors found in the item set
        of some concept of its map.  ``survivors & items`` walks the
        smaller side, so no later concept's whole hit set is ever
        gathered.
        """
        if not requested.outputs and not requested.properties:
            return None
        result = within
        probes: list[list[set[Hashable]]] = []
        for concepts, index in self._fields(requested):
            for concept in concepts:
                subsumers = matcher.subsumers(concept)
                if subsumers is None:
                    return None
                if len(subsumers) <= len(index):
                    item_sets = [index[over] for over in subsumers if over in index]
                else:
                    item_sets = [items for over, items in index.items() if over in subsumers]
                if not item_sets:
                    return set()
                if result is None:
                    probes.append(item_sets)
                    continue
                result = _narrowed(result, item_sets)
                if not result:
                    return result
        if result is None:
            probes.sort(key=_indexed)
            result = set().union(*probes[0])
            for item_sets in probes[1:]:
                result = _narrowed(result, item_sets)
                if not result:
                    break
        return result

    def _fields(self, capability: Capability):
        """``(concepts, index)`` for the output and the property concepts
        of ``capability``."""
        return (
            (capability.outputs, self._by_output),
            (capability.properties, self._by_property),
        )


def _covers(capability: Capability, matcher: Matcher) -> tuple[set[str], set[str]] | None:
    """The union of the subsumee sets of ``capability``'s outputs, and of
    its properties: the concepts a capability it subsumes may hold in each
    field.  ``None`` when the matcher hands out no sets."""
    covers = []
    for concepts in (capability.outputs, capability.properties):
        cover: set[str] = set()
        for concept in concepts:
            subsumees = matcher.subsumees(concept)
            if subsumees is None:
                return None
            cover |= subsumees
        covers.append(cover)
    return covers[0], covers[1]


def _indexed(item_sets: list[set]) -> int:
    """Items indexed under a requested concept's subsumers (with repeats)."""
    return sum(map(len, item_sets))


def _narrowed(result: set, item_sets: list[set]) -> set:
    """The items of ``result`` found in some set of ``item_sets``."""
    survivors: set = set()
    for items in item_sets:
        survivors |= result & items
    return survivors


_NODE_ID = attrgetter("node_id")


def score(
    requested: Capability, matcher: Matcher, mode: QueryMode, candidates: set[DagNode]
) -> dict[DagNode, int]:
    """The matching vertices among ``candidates`` with their semantic
    distances to ``requested``: the one scoring pass of every query.

    ``candidates`` may span graphs (a directory's concept-index probe) and
    must hold every vertex of theirs that can match.  ``EXHAUSTIVE`` mode
    scores each of them.  ``GREEDY`` mode (the paper's algorithm) scores
    the parentless ones; each that matches is a hit and descends, through
    its children that are candidates too, toward strictly smaller
    distances, and the vertex the descent ends on is a hit as well.  A
    candidate with parents is reached only by descent: the matching
    vertices are ancestor-closed (``Match`` is transitive), so one whose
    parents are not candidates cannot match.
    """
    distance_of = matcher.semantic_distance
    hits: dict[DagNode, int] = {}
    if mode is QueryMode.EXHAUSTIVE:
        for node in candidates:
            distance = distance_of(node.representative, requested)
            if distance is not None:
                hits[node] = distance
        return hits
    for root in candidates:
        if root.parents:
            continue
        distance = distance_of(root.representative, requested)
        if distance is None:
            continue
        hits[root] = distance
        if not distance or not root.children:
            continue
        nodes = root.graph()._nodes
        current = root
        improved = True
        while improved and distance > 0:
            improved = False
            for child_id in current.children:
                child = nodes[child_id]
                if child not in candidates:
                    continue
                child_distance = distance_of(child.representative, requested)
                if child_distance is not None and child_distance < distance:
                    current, distance = child, child_distance
                    improved = True
        hits[current] = distance
    return hits


class CapabilityDag:
    """One classified graph of capabilities (vertices + reduction edges).

    Args:
        index: the concept index to keep this graph's vertices in — a
            directory shares one across its graphs; by default the graph
            keeps its own.
    """

    def __init__(self, index: ConceptIndex | None = None) -> None:
        self._nodes: dict[int, DagNode] = {}
        # The vertices again, as the set a shared index's probe is
        # restricted to.
        self._vertices: set[DagNode] = set()
        self._ids = itertools.count(1)
        # The ids of the vertices holding an entry of each service, for
        # withdrawal; a tuple, since most services hold one vertex a graph.
        self._by_service: dict[str, tuple[int, ...]] = {}
        self._index = ConceptIndex() if index is None else index
        self._ref = weakref.ref(self)
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

    def candidates(self, requested: Capability, matcher: Matcher) -> set[DagNode] | None:
        """This graph's vertices that may match ``requested``
        (:meth:`ConceptIndex.candidates` within them); ``None`` when the
        matcher gives no maps."""
        return self._index.candidates(requested, matcher, self._vertices)

    # ------------------------------------------------------------------
    # Insertion (§3.3 "Adding a New Service Advertisement")
    # ------------------------------------------------------------------
    def insert(self, capability: Capability, service_uri: str, matcher: Matcher) -> int:
        """Classify one capability into the graph; returns its vertex id."""
        # Vertices that can subsume the newcomer (``Match(N, capability)``)
        # are exactly the query-direction candidates for it.
        candidates = self.candidates(capability, matcher)
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
            held = self._by_service.get(service_uri, ())
            if equal not in held:
                self._by_service[service_uri] = (*held, equal)
            return equal
        lowers = self._maximal_subsumees(capability, matcher)

        node = DagNode(node_id=next(self._ids), representative=capability, graph=self._ref)
        node.entries.append(DagEntry(capability, service_uri))
        self._nodes[node.node_id] = node
        self._by_service[service_uri] = (*self._by_service.get(service_uri, ()), node.node_id)
        self._vertices.add(node)
        self._index.add(node, capability)

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
        self, capability: Capability, matcher: Matcher, candidates: set[DagNode] | None = None
    ) -> set[int]:
        """Vertices N with ``Match(N, capability)`` minimal in the order.

        Top search from the roots: subsumers are ancestor-closed (Match is
        transitive), so children of a non-matching vertex never match.
        ``candidates`` (when not ``None``) is a sound superset of the
        matching vertices (:meth:`candidates`); vertices outside it are
        rejected without a semantic match, and the search starts from the
        parentless ones among them.
        """
        if candidates is not None and not candidates:
            return set()
        nodes = self._nodes
        matching_memo: dict[int, bool] = {}

        def matches(node_id: int) -> bool:
            node = nodes[node_id]
            if candidates is not None and node not in candidates:
                return False
            if node_id not in matching_memo:
                matching_memo[node_id] = matcher.match(node.representative, capability)
            return matching_memo[node_id]

        if candidates is None:
            roots = self.roots()
        else:
            roots = sorted((node for node in candidates if not node.parents), key=_NODE_ID)
        result: set[int] = set()
        stack = [node.node_id for node in roots if matches(node.node_id)]
        seen: set[int] = set()
        while stack:
            node_id = stack.pop()
            if node_id in seen:
                continue
            seen.add(node_id)
            narrower = [c for c in nodes[node_id].children if matches(c)]
            if narrower:
                stack.extend(narrower)
            else:
                result.add(node_id)
        return result

    def _maximal_subsumees(self, capability: Capability, matcher: Matcher) -> set[int]:
        """Vertices N with ``Match(capability, N)`` maximal in the order.

        Bottom search from the leaves: subsumees are descendant-closed, so
        parents of a non-subsumed vertex are never subsumed.  ``Match``
        needs each output (property) of N covered by an output (property)
        of ``capability``, so when the matcher hands out subsumee sets a
        vertex holding a concept outside their union is rejected by one
        subset test instead of a semantic match.
        """
        covers = _covers(capability, matcher)
        nodes = self._nodes
        matching_memo: dict[int, bool] = {}

        def matches(node_id: int) -> bool:
            found = matching_memo.get(node_id)
            if found is None:
                representative = nodes[node_id].representative
                found = matching_memo[node_id] = (
                    covers is None
                    or (
                        representative.outputs <= covers[0]
                        and representative.properties <= covers[1]
                    )
                ) and matcher.match(capability, representative)
            return found

        result: set[int] = set()
        stack = [node.node_id for node in self.leaves() if matches(node.node_id)]
        seen: set[int] = set()
        while stack:
            node_id = stack.pop()
            if node_id in seen:
                continue
            seen.add(node_id)
            wider = [p for p in nodes[node_id].parents if matches(p)]
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

        Returns the number of entries removed.  Only the vertices holding
        the service's entries are visited.  Vertices left empty are
        deleted and their parents re-linked to their children where no
        alternative path exists (keeping the transitive reduction).
        """
        removed = 0
        for node_id in sorted(self._by_service.pop(service_uri, ())):
            node = self._nodes[node_id]
            before = len(node.entries)
            node.entries = [e for e in node.entries if e.service_uri != service_uri]
            removed += before - len(node.entries)
            if not node.entries:
                self._delete_node(node_id)
        return removed

    def _delete_node(self, node_id: int) -> None:
        node = self._nodes.pop(node_id)
        self._vertices.discard(node)
        self._index.discard(node, node.representative)
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
    def query(
        self,
        requested: Capability,
        matcher: Matcher,
        mode: QueryMode = QueryMode.GREEDY,
    ) -> list[GraphMatch]:
        """Find advertised capabilities matching ``requested``.

        Returns matches sorted by ascending semantic distance, then
        service and capability URI: :func:`score` over this graph's
        candidate vertices (:meth:`candidates`) when the matcher provides
        subsumer maps, over every vertex otherwise.  A vertex outside the
        candidates cannot match (its distance would be ``None``), so
        skipping it changes no result — only the number of semantic
        matches evaluated.
        """
        obs = self.obs
        if not obs.tracing:
            hits = score(requested, matcher, mode, self._pool(requested, matcher))
        else:
            with obs.span("dag.descend", mode=mode.name.lower(), vertices=len(self._nodes)) as span:
                pool = self._pool(requested, matcher)
                hits = score(requested, matcher, mode, pool)
                span.attrs["candidates"] = len(pool)
                span.attrs["hits"] = len(hits)
        results = [
            GraphMatch(entry.capability, entry.service_uri, distance)
            for node, distance in hits.items()
            for entry in node.entries
        ]
        results.sort(key=lambda m: (m.distance, m.service_uri, m.capability.uri))
        return results

    def _pool(self, requested: Capability, matcher: Matcher) -> set[DagNode]:
        """The vertices a query scores: the candidates, or every vertex
        when the matcher gives no maps."""
        candidates = self.candidates(requested, matcher)
        return self._vertices if candidates is None else candidates

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
