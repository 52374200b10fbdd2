"""Packed code tables and the batch matching engine.

The §3.2 insight — subsumption is interval containment — lets one request
concept be tested against every cached provider concept at once: a stab
of an interval index over the providers' code intervals returns all of
its subsumers, and the per-entry ``Match``/``SemanticDistance``
aggregation of §2.3 reduces to segmented min/sum over flat incidence
arrays.  This module packs a directory's content into contiguous columns
once per content epoch and answers each query in a handful of passes over
those columns, replacing the per-entry ``Matcher.match_outcome`` loop
(``docs/PERFORMANCE.md`` has the layout and the scaling curve;
``benchmarks/bench_match_scaling.py`` gates the speedup).

Columns are ``array``-module arrays.  Containment uses the NCList stab of
:class:`~repro.core.interval_index.IntervalIndex` at the *concept* level,
and a postings-list intersection prunes the entries that ever reach the
Python ranking loop.  The hypothesis suite in
``tests/core/test_packed.py`` asserts the engine returns bitwise-identical
match sets and distances to the scalar matcher.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from repro.core.codes import ConceptCode
from repro.core.interval_index import IntervalIndex
from repro.services.profile import Capability


class PackedCodeTable:
    """Columnar packing of a concept set's interval codes.

    The distinct concepts referenced by a directory's entries are numbered,
    with per concept its depth, and their code intervals are indexed in one
    NCList keyed by concept number.  A request concept's subsumers
    (provider concepts whose merged code contains the request's tree
    interval) then come from one stab; merged code unions make the owner
    of each containing interval unique, so no deduplication is needed.
    """

    def __init__(self, concepts: list[str], lookup) -> None:
        self.uris: list[str] = []
        self.index: dict[str, int] = {}
        self.depth = array("q")
        self._stab_index = IntervalIndex()
        for uri in concepts:
            code: ConceptCode | None = lookup(uri) if lookup is not None else None
            if code is None:
                continue  # unknown concept: can never subsume or be ranked
            concept_index = len(self.uris)
            self.index[uri] = concept_index
            self.uris.append(uri)
            self.depth.append(code.depth)
            self._stab_index.insert(concept_index, code.code)

    def __len__(self) -> int:
        return len(self.uris)

    def subsumer_distances(self, code: ConceptCode) -> dict[int, int]:
        """``{concept index: §2.3 distance}`` for every packed concept
        whose code contains ``code``'s tree interval (i.e. subsumes it)."""
        hits = self._stab_index.stab(code.tree_lo, code.tree_hi)
        return {owner: max(0, code.depth - self.depth[owner]) for owner in hits}


@dataclass(frozen=True)
class BatchQueryStats:
    """Per-query effectiveness counters of the batch engine.

    ``batch_size`` is the number of packed entries tested, ``pruned`` how
    many the cheap containment pass eliminated before ranking, and
    ``evaluated`` how many reached the full distance aggregation.
    """

    batch_size: int
    pruned: int
    evaluated: int


class _Field:
    """Flattened entry→concept incidence for one IOPE field."""

    __slots__ = ("idx", "offsets", "postings")

    def __init__(self, idx, offsets, postings: dict[int, list[int]] | None) -> None:
        self.idx = idx
        self.offsets = offsets
        self.postings = postings


class BatchMatchEngine:
    """Batched ``Match``/``SemanticDistance`` over packed entries.

    Built from a directory's cached entries and a concept-code ``lookup``
    (the same resolution the scalar :class:`~repro.core.matching.CodeMatcher`
    would use — no embedded-code extras, which is exactly the situation of
    the directory-owned matchers).  One engine instance serves a storm of
    queries; directories rebuild it lazily, keyed to their content epoch
    and code-table version (see ``FlatDirectory``).

    Args:
        entries: ``{entry_id: Capability}`` of the cached advertisements.
        lookup: concept URI → :class:`ConceptCode` or ``None``.
    """

    #: Concept index standing in for "no code known" occurrences.
    _UNKNOWN = -1

    def __init__(self, entries: dict[int, Capability], lookup) -> None:
        self.entry_ids: list[int] = list(entries)
        concepts = sorted({c for cap in entries.values() for c in cap.concepts()})
        self.codes = PackedCodeTable(concepts, lookup)
        caps = [entries[entry_id] for entry_id in self.entry_ids]
        self._inputs = self._pack_field(caps, "inputs", postings=False)
        self._outputs = self._pack_field(caps, "outputs", postings=True)
        self._properties = self._pack_field(caps, "properties", postings=True)

    def __len__(self) -> int:
        return len(self.entry_ids)

    def _pack_field(self, caps: list[Capability], field: str, postings: bool) -> _Field:
        idx = array("q")
        offsets = array("q", [0])
        posting_lists: dict[int, list[int]] | None = {} if postings else None
        index_of = self.codes.index
        for position, cap in enumerate(caps):
            for concept in sorted(getattr(cap, field)):
                concept_index = index_of.get(concept, self._UNKNOWN)
                idx.append(concept_index)
                if posting_lists is not None and concept_index != self._UNKNOWN:
                    rows = posting_lists.setdefault(concept_index, [])
                    if not rows or rows[-1] != position:
                        rows.append(position)
            offsets.append(len(idx))
        return _Field(idx, offsets, posting_lists)

    # ------------------------------------------------------------------
    # Request-side resolution
    # ------------------------------------------------------------------
    def _request_codes(self, concepts, lookup) -> list[ConceptCode | None]:
        return [lookup(c) if lookup is not None else None for c in sorted(concepts)]

    def match_capability(
        self, requested: Capability, lookup
    ) -> tuple[list[tuple[int, int]], BatchQueryStats]:
        """All entries matching ``requested`` with their distances.

        Returns ``([(entry_id, distance), ...], stats)``; the pair list is
        in packed-entry order (callers sort by their own ranking key).
        Results are value-identical to running the scalar matcher over
        every entry — the property suite proves it.
        """
        n = len(self.entry_ids)
        if n == 0:
            return [], BatchQueryStats(batch_size=0, pruned=0, evaluated=0)
        in_codes = self._request_codes(requested.inputs, lookup)
        out_codes = self._request_codes(requested.outputs, lookup)
        prop_codes = self._request_codes(requested.properties, lookup)
        # A requested output/property with no code can never be paired, so
        # nothing matches — the scalar matcher fails every entry the same
        # way.  Unknown requested *inputs* merely drop out of the partner
        # pool.
        if any(code is None for code in out_codes + prop_codes):
            return [], BatchQueryStats(batch_size=n, pruned=n, evaluated=0)
        # Per request concept: {provider concept index -> distance}.
        input_best: dict[int, int] = {}
        for code in in_codes:
            if code is None:
                continue
            for owner, dist in self.codes.subsumer_distances(code).items():
                best = input_best.get(owner)
                if best is None or dist < best:
                    input_best[owner] = dist
        out_maps = [self.codes.subsumer_distances(code) for code in out_codes]
        prop_maps = [self.codes.subsumer_distances(code) for code in prop_codes]
        return self._rank(n, input_best, out_maps, prop_maps)

    # ------------------------------------------------------------------
    # Postings prefilter, then ranking over the survivors
    # ------------------------------------------------------------------
    def _rank(self, n, input_best, out_maps, prop_maps):
        candidates: set[int] | None = None
        for field, maps in ((self._outputs, out_maps), (self._properties, prop_maps)):
            postings = field.postings
            for mapping in maps:
                admitted: set[int] = set()
                for owner in mapping:
                    rows = postings.get(owner)
                    if rows:
                        admitted.update(rows)
                candidates = admitted if candidates is None else candidates & admitted
                if not candidates:
                    return [], BatchQueryStats(batch_size=n, pruned=n, evaluated=0)
        positions = range(n) if candidates is None else sorted(candidates)
        evaluated = n if candidates is None else len(candidates)
        pairs: list[tuple[int, int]] = []
        in_idx, in_off = self._inputs.idx, self._inputs.offsets
        ranked_fields = [
            (self._outputs.idx, self._outputs.offsets, out_maps),
            (self._properties.idx, self._properties.offsets, prop_maps),
        ]
        for position in positions:
            total = 0
            for concept_index in in_idx[in_off[position] : in_off[position + 1]]:
                dist = input_best.get(concept_index)
                if dist is None:
                    total = None
                    break
                total += dist
            if total is None:
                continue
            for idx, offsets, maps in ranked_fields:
                slots = idx[offsets[position] : offsets[position + 1]]
                for mapping in maps:
                    best = None
                    for concept_index in slots:
                        dist = mapping.get(concept_index)
                        if dist is not None and (best is None or dist < best):
                            best = dist
                            if best == 0:
                                break
                    if best is None:
                        total = None
                        break
                    total += best
                if total is None:
                    break
            if total is not None:
                pairs.append((self.entry_ids[position], total))
        return pairs, BatchQueryStats(
            batch_size=n, pruned=n - evaluated, evaluated=evaluated
        )

    def __repr__(self) -> str:
        return (
            f"BatchMatchEngine({len(self.entry_ids)} entries, "
            f"{len(self.codes)} concepts)"
        )
