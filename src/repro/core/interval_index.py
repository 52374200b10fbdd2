"""Sorted interval indexes over concept tree-intervals (§3.2 codes).

The encoded matcher decides ``provider ⊒ requested`` by checking that the
requested concept's *tree interval* is contained in one of the provider
concept's *code intervals* (:meth:`repro.core.codes.ConceptCode.subsumes`).
The flat directory's linear scan evaluates that containment against every
cached entry per request — an O(n) scan of mostly guaranteed misses.
This module turns the scan into a stabbing query: index the code
intervals of all cached provider concepts once, then find the entries whose
intervals *contain* a requested tree interval by binary search.

:class:`IntervalIndex` is a nested containment list (Alekseyenko & Lee's
NCList): intervals sorted by ``(lo, -hi)`` are threaded into sibling lists
where no sibling contains another, so within a list both ``lo`` and ``hi``
are strictly increasing and the intervals containing a query form one
contiguous slice findable with two bisects.  Containment recursion then
descends only into the children of stabbed intervals.  Code intervals are
*not* laminar (merged DAG codes can partially overlap), which is exactly
the case NCLists handle and plain nesting trees do not.

:class:`CandidateIndex` layers the §2.3 match semantics on top: an entry
can only satisfy ``Match(provided, requested)`` if, for *every* requested
output, some provided output subsumes it (and likewise for properties), so
the candidate set is the intersection of per-concept stab results — a
sound preselection whose survivors are then confirmed by the real matcher.
No directory keeps one: both directory kinds preselect with a
:class:`~repro.core.capability_graph.ConceptIndex` over subsumer maps,
and its candidate sets are tested against a :class:`CandidateIndex`.
The property tests in ``tests/core/test_interval_index.py`` prove
stabbing identical to the linear scan.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from repro.core.codes import ConceptCode
from repro.services.profile import Capability

#: Deferred-rebuild trigger: a rebuild is scheduled once more than this
#: many *and* more than half of the distinct interval nodes are empty
#: tombstones.  Below the threshold, discards are O(intervals of the item)
#: instead of an O(n log n) structure rebuild per removal.
STALE_NODE_REBUILD_MIN = 32


class _Node:
    """One distinct interval with its payload ids and nested children.

    ``child_los``/``child_his`` are the children's bounds frozen into
    plain lists at rebuild time so a stab bisects without materializing
    them per query.
    """

    __slots__ = ("lo", "hi", "ids", "children", "child_los", "child_his")

    def __init__(self, lo: float, hi: float, ids: set[int]) -> None:
        self.lo = lo
        self.hi = hi
        self.ids = ids
        self.children: list[_Node] = []
        self.child_los: list[float] = []
        self.child_his: list[float] = []


class IntervalIndex:
    """Static stabbing index from intervals to item ids, rebuilt lazily.

    Items are inserted/discarded freely; the sorted structure is rebuilt
    on the first query after a *structural* mutation (directories mutate
    in bursts and query in storms, so lazy rebuilds amortize to nothing).
    Mutations touching only existing interval nodes — a discard, or an
    insert whose intervals are already indexed — are applied **in place**:
    ids move in and out of the untouched node structure, and emptied nodes
    stay as tombstones until more than :data:`STALE_NODE_REBUILD_MIN` (and
    half) of all nodes are empty, which schedules one deferred rebuild.
    Churny unpublish storms therefore no longer pay an O(n log n) rebuild
    per removal (``tests/core/test_interval_index.py`` counts the events).
    """

    def __init__(self) -> None:
        #: item id -> its intervals (an item matches if ANY contains the query)
        self._intervals: dict[int, tuple[tuple[float, float], ...]] = {}
        self._roots: list[_Node] = []
        self._root_los: list[float] = []
        self._root_his: list[float] = []
        self._node_by_interval: dict[tuple[float, float], _Node] = {}
        self._nodes: list[_Node] = []
        self._stale_nodes = 0
        self._dirty = False
        self.rebuilds = 0
        #: Mutations absorbed without dirtying the structure.
        self.inplace_updates = 0

    def __len__(self) -> int:
        return len(self._intervals)

    @property
    def tombstones(self) -> int:
        """Distinct interval nodes currently emptied in place.

        These are the pending compaction debt of churn (unpublish
        storms): each is a node whose ids were all discarded but
        whose slot still occupies the sorted structure until the deferred
        rebuild fires (see :data:`STALE_NODE_REBUILD_MIN`).
        """
        return self._stale_nodes

    @property
    def rebuild_pending(self) -> bool:
        """True when the next query will pay a structure rebuild."""
        return self._dirty

    def describe(self) -> str:
        """One-line structural health summary (tombstones, rebuilds)."""
        return (
            f"IntervalIndex: {len(self)} items, {len(self._nodes)} nodes, "
            f"{self.tombstones} tombstones, {self.rebuilds} rebuilds, "
            f"{self.inplace_updates} in-place updates"
            f"{', rebuild pending' if self._dirty else ''}"
        )

    def insert(self, item_id: int, intervals: tuple[tuple[float, float], ...]) -> None:
        """Register ``item_id`` under every ``(lo, hi)`` in ``intervals``.

        When the structure is built and every interval already has a node
        (common under churn: a service re-publishes with codes the table
        already minted), the ids are added in place with no rebuild.
        """
        if not intervals:
            return
        if (
            not self._dirty
            and item_id not in self._intervals
            and self._node_by_interval
            and all(interval in self._node_by_interval for interval in intervals)
        ):
            self._intervals[item_id] = intervals
            for interval in intervals:
                node = self._node_by_interval[interval]
                if not node.ids:
                    self._stale_nodes -= 1
                node.ids.add(item_id)
            self.inplace_updates += 1
            return
        self._intervals[item_id] = intervals
        self._dirty = True

    def discard(self, item_id: int) -> None:
        """Remove ``item_id`` (no-op if absent).

        On a built structure this is O(intervals of the item): the ids are
        cleared from their nodes, which become tombstones; one deferred
        rebuild compacts the structure only when tombstones dominate.
        """
        intervals = self._intervals.pop(item_id, None)
        if intervals is None:
            return
        if self._dirty:
            return
        for interval in intervals:
            node = self._node_by_interval.get(interval)
            if node is None:  # structure never built for this interval
                self._dirty = True
                return
            node.ids.discard(item_id)
            if not node.ids:
                self._stale_nodes += 1
        self.inplace_updates += 1
        if self._stale_nodes > max(STALE_NODE_REBUILD_MIN, len(self._nodes) // 2):
            self._dirty = True

    # ------------------------------------------------------------------
    # NCList construction
    # ------------------------------------------------------------------
    def _rebuild(self) -> None:
        grouped: dict[tuple[float, float], set[int]] = {}
        for item_id, intervals in self._intervals.items():
            for interval in intervals:
                grouped.setdefault(interval, set()).add(item_id)
        nodes = [_Node(lo, hi, ids) for (lo, hi), ids in grouped.items()]
        nodes.sort(key=lambda n: (n.lo, -n.hi))
        self._nodes = nodes
        self._node_by_interval = {(n.lo, n.hi): n for n in nodes}
        self._stale_nodes = 0
        self._roots = []
        stack: list[_Node] = []
        for node in nodes:
            while stack and not (stack[-1].lo <= node.lo and node.hi <= stack[-1].hi):
                stack.pop()
            (stack[-1].children if stack else self._roots).append(node)
            stack.append(node)
        self._root_los = [n.lo for n in self._roots]
        self._root_his = [n.hi for n in self._roots]
        for node in nodes:
            if node.children:
                node.child_los = [n.lo for n in node.children]
                node.child_his = [n.hi for n in node.children]
        self._dirty = False
        self.rebuilds += 1

    # ------------------------------------------------------------------
    # Stabbing
    # ------------------------------------------------------------------
    def stab(self, lo: float, hi: float) -> set[int]:
        """Ids of items with an interval containing ``[lo, hi]``.

        Containment mirrors :meth:`ConceptCode.subsumes`: ``ilo <= lo`` and
        ``hi <= ihi``.
        """
        if self._dirty:
            self._rebuild()
        result: set[int] = set()
        # Each sibling list has strictly increasing lo AND hi (equal-lo
        # intervals nest), so its containers of [lo, hi] are the slice with
        # ilo <= lo (a prefix) intersected with ihi >= hi (a suffix).  The
        # invariant holds per list, not across lists — descend into each
        # stabbed node's children as its own list.
        work: list[tuple[list[_Node], list[float], list[float]]] = [
            (self._roots, self._root_los, self._root_his)
        ]
        while work:
            siblings, los, his = work.pop()
            first = bisect_left(his, hi)
            last = bisect_right(los, lo)
            for node in siblings[first:last]:
                result |= node.ids
                if node.children:
                    work.append((node.children, node.child_los, node.child_his))
        return result


class CandidateIndex:
    """Match-aware preselection over cached capabilities.

    For each indexed entry, the *code intervals* of its output concepts
    and (separately) its property concepts are stored.  A requested
    capability's candidates are::

        ⋂ over requested outputs    stab(output index,  out.tree)
      ∩ ⋂ over requested properties stab(property index, prop.tree)

    which is a superset of the entries the §2.3 ``Match`` relation accepts
    (each stab is a necessary condition).  Entries whose concepts could not
    be resolved to codes at insertion time are kept as always-candidates so
    the filter never produces a false negative, even for concepts that only
    resolve through a later request's embedded codes.

    ``lookup`` callables map a concept URI to its :class:`ConceptCode` (or
    ``None``) and must agree with the matcher that later confirms the
    candidates — pass :meth:`repro.core.matching.CodeMatcher.lookup`.
    """

    def __init__(self) -> None:
        self._outputs = IntervalIndex()
        self._properties = IntervalIndex()
        self._unindexed_outputs: set[int] = set()
        self._unindexed_properties: set[int] = set()
        self._all: set[int] = set()

    def __len__(self) -> int:
        return len(self._all)

    def insert(self, item_id: int, capability: Capability, lookup) -> None:
        """Index one provided capability under ``item_id``."""
        self._all.add(item_id)
        self._index_field(item_id, capability.outputs, self._outputs, self._unindexed_outputs, lookup)
        self._index_field(
            item_id, capability.properties, self._properties, self._unindexed_properties, lookup
        )

    def _index_field(
        self,
        item_id: int,
        concepts: frozenset[str],
        index: IntervalIndex,
        unindexed: set[int],
        lookup,
    ) -> None:
        intervals: list[tuple[float, float]] = []
        for concept in concepts:
            code: ConceptCode | None = lookup(concept) if lookup is not None else None
            if code is None:
                # Unknown code now ≠ unmatchable forever: a future request
                # may carry this concept's code (§3.2 embedded annotations).
                unindexed.add(item_id)
            else:
                intervals.extend(code.code)
        index.insert(item_id, tuple(intervals))

    def discard(self, item_id: int) -> None:
        """Drop an entry from every sub-index."""
        self._all.discard(item_id)
        self._outputs.discard(item_id)
        self._properties.discard(item_id)
        self._unindexed_outputs.discard(item_id)
        self._unindexed_properties.discard(item_id)

    @property
    def tombstones(self) -> int:
        """Pending empty interval nodes across both sub-indexes."""
        return self._outputs.tombstones + self._properties.tombstones

    @property
    def rebuilds(self) -> int:
        """Structure rebuilds paid across both sub-indexes."""
        return self._outputs.rebuilds + self._properties.rebuilds

    def describe(self) -> str:
        """Structural health of the output and property sub-indexes."""
        return (
            f"CandidateIndex: {len(self._all)} entries\n"
            f"  outputs:    {self._outputs.describe()}\n"
            f"  properties: {self._properties.describe()}"
        )

    def candidates(self, requested: Capability, lookup) -> set[int] | None:
        """Entries that may match ``requested``; ``None`` = no filtering.

        Returns ``None`` when the request carries neither outputs nor
        properties (inputs alone give no sound interval condition), and the
        empty set when a requested concept has no code anywhere (then the
        matcher cannot pair it, so nothing matches — same as the scan).
        """
        result: set[int] | None = None
        for concepts, index, unindexed in (
            (requested.outputs, self._outputs, self._unindexed_outputs),
            (requested.properties, self._properties, self._unindexed_properties),
        ):
            for concept in concepts:
                code: ConceptCode | None = lookup(concept) if lookup is not None else None
                if code is None:
                    return set()
                hits = index.stab(code.tree_lo, code.tree_hi)
                if unindexed:
                    hits = hits | unindexed
                result = hits if result is None else result & hits
                if not result:
                    return result
        return result

    def __repr__(self) -> str:
        return (
            f"CandidateIndex({len(self._all)} entries, "
            f"{len(self._outputs)} output / {len(self._properties)} property indexed)"
        )
