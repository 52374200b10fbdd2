"""The ``Match`` relation and ``SemanticDistance`` function (paper §2.3).

``Match(C1, C2)`` decides whether provided capability ``C1`` can substitute
required capability ``C2``; ``SemanticDistance(C1, C2)`` scores how close
the substitution is (0 = perfect), used to rank advertisements.

Direction of the concept pairs
------------------------------

The paper's prose formula and its worked example disagree on the argument
order for *inputs*: read literally, the formula would require the
requester-offered input concept to subsume the provider-expected one, which
makes the paper's own Fig. 1 example (``Match(SendDigitalStream,
GetVideoStream)`` holds with distance 3: DigitalResource vs VideoResource,
Stream vs VideoStream, DigitalServer vs VideoServer — one level each) fail.
We implement the direction that reproduces the worked example exactly, and
that is also the standard substitutability reading:

* **inputs** — every input the provider expects must *subsume* some input
  the requester offers (the provider can consume what it will be handed):
  ``∀ in' ∈ C1.In, ∃ in ∈ C2.In : d(in', in) ≥ 0``;
* **outputs** — every output the requester expects must be subsumed by
  some output the provider offers:
  ``∀ out' ∈ C2.Out, ∃ out ∈ C1.Out : d(out, out') ≥ 0``;
* **properties** — every property the requester demands must be subsumed
  by a provided property: ``∀ p' ∈ C2.P, ∃ p ∈ C1.P : d(p, p') ≥ 0``.

``SemanticDistance`` sums, per required pairing, the *minimum* distance
over the admissible partners (the paper assumes a designated pairing; the
minimum makes the score well defined when several partners qualify).

Two interchangeable distance oracles implement ``d``:

* :class:`TaxonomyMatcher` — asks a classified
  :class:`~repro.ontology.taxonomy.Taxonomy` (requires the reasoner; this
  is what on-line matchmakers pay for on every request);
* :class:`CodeMatcher` — pure numeric comparison of interval codes from a
  :class:`~repro.core.codes.CodeTable` or from codes embedded in received
  documents (§3.2's optimization: no reasoning at discovery time).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.core.codes import CodeTable, ConceptCode
from repro.ontology.taxonomy import Taxonomy
from repro.services.profile import Capability
from repro.util.cache import MISS, DistanceCache


@dataclass
class MatcherStats:
    """Counters: how many capability matches / concept comparisons ran.

    ``concept_comparisons`` counts concept pairs resolved, by a distance
    computation or cache probe on the per-pair path or by a subsumer-map
    probe in :class:`CodeMatcher`'s kernel.  ``cache_hits``/``cache_misses``
    count fetches from the shared :class:`repro.util.cache.DistanceCache`:
    a pair on the per-pair path (pairs involving document-embedded codes
    bypass it), a whole subsumer map when the kernel compiles a requested
    capability or a capability graph preselects its candidates, or a whole
    compiled request on the query path.  A map fetch answers many later
    comparisons, so the sum is no longer bounded by
    ``concept_comparisons``.
    """

    capability_matches: int = 0
    concept_comparisons: int = 0
    cache_hits: int = 0
    cache_misses: int = 0


class Matcher:
    """Base class wiring the §2.3 formulas to a concept-distance oracle.

    Subclasses supply :meth:`concept_distance`; everything else — the
    ``Match`` relation, ``SemanticDistance``, detailed outcomes — is shared.

    Args:
        stats: counter object to record into; pass a shared instance to
            aggregate across many short-lived matchers (the directory
            batch APIs do), or leave ``None`` for a private one.
    """

    def __init__(self, stats: MatcherStats | None = None) -> None:
        self.stats = stats if stats is not None else MatcherStats()

    # -- oracle ---------------------------------------------------------
    def concept_distance(self, over: str, under: str) -> int | None:
        """The paper's ``d(over, under)``: levels when ``over ⊒ under``,
        else ``None``.  Subclasses must implement."""
        raise NotImplementedError

    def _d(self, over: str, under: str) -> int | None:
        self.stats.concept_comparisons += 1
        return self.concept_distance(over, under)

    def subsumers(self, concept: str) -> dict[str, int] | None:
        """``{over: d(over, concept)}`` for every concept this matcher can
        pair with ``concept`` on the subsuming side, or ``None`` when the
        matcher cannot enumerate them.  Directories preselect their
        candidates from these maps
        (:meth:`repro.core.capability_graph.ConceptIndex.candidates`); the
        base class enumerates nothing, so they scan every vertex."""
        return None

    def subsumees(self, concept: str) -> frozenset[str] | None:
        """The concepts this matcher pairs with ``concept`` on the
        subsumed side (``concept`` itself included), or ``None`` when the
        matcher cannot enumerate them.  Capability graphs prefilter the
        vertices a new capability may subsume with these sets
        (:meth:`repro.core.capability_graph.CapabilityDag.insert`); the
        base class enumerates nothing, so they match every vertex their
        search reaches."""
        return None

    def concept_degree(self, provided: str, requested: str) -> "MatchDegree":
        """Paolucci-style degree for one requested/provided concept pair."""
        down = self._d(provided, requested)  # provided ⊒ requested?
        if down == 0:
            return MatchDegree.EXACT
        up = self._d(requested, provided)  # requested ⊒ provided?
        if up == 0:
            return MatchDegree.EXACT
        if up is not None:
            return MatchDegree.PLUGIN
        if down is not None:
            return MatchDegree.SUBSUMES
        return MatchDegree.FAIL

    def output_degree(self, provided: Capability, requested: Capability) -> "MatchDegree":
        """Aggregate output degree: the worst over the requested outputs,
        each taken at its best provided partner (the [13] scoring)."""
        worst = MatchDegree.EXACT
        for requested_output in sorted(requested.outputs):
            best = MatchDegree.FAIL
            for provided_output in sorted(provided.outputs):
                degree = self.concept_degree(provided_output, requested_output)
                if degree < best:
                    best = degree
                if best is MatchDegree.EXACT:
                    break
            if best > worst:
                worst = best
            if worst is MatchDegree.FAIL:
                break
        return worst

    # -- §2.3 relations ---------------------------------------------------
    def match(self, provided: Capability, requested: Capability) -> bool:
        """The relation ``Match(provided, requested)``."""
        return self.match_outcome(provided, requested).matched

    def semantic_distance(self, provided: Capability, requested: Capability) -> int | None:
        """``SemanticDistance(provided, requested)``; ``None`` if no match."""
        outcome = self.match_outcome(provided, requested)
        return outcome.distance if outcome.matched else None

    def match_outcome(self, provided: Capability, requested: Capability) -> "MatchOutcome":
        """Full result: match flag, distance, per-concept pairings."""
        self.stats.capability_matches += 1
        pairings: list[tuple[str, str, str, int]] = []
        total = 0

        def best_partner(needed: str, candidates: frozenset[str], flip: bool) -> tuple[str, int] | None:
            best: tuple[str, int] | None = None
            for candidate in sorted(candidates):
                d = self._d(needed, candidate) if not flip else self._d(candidate, needed)
                if d is not None and (best is None or d < best[1]):
                    best = (candidate, d)
                    if d == 0:
                        break
            return best

        for expected_input in sorted(provided.inputs):
            found = best_partner(expected_input, requested.inputs, flip=False)
            if found is None:
                return MatchOutcome(False, None, tuple(pairings))
            pairings.append(("input", expected_input, found[0], found[1]))
            total += found[1]
        for expected_output in sorted(requested.outputs):
            found = best_partner(expected_output, provided.outputs, flip=True)
            if found is None:
                return MatchOutcome(False, None, tuple(pairings))
            pairings.append(("output", found[0], expected_output, found[1]))
            total += found[1]
        for required_property in sorted(requested.properties):
            found = best_partner(required_property, provided.properties, flip=True)
            if found is None:
                return MatchOutcome(False, None, tuple(pairings))
            pairings.append(("property", found[0], required_property, found[1]))
            total += found[1]
        return MatchOutcome(True, total, tuple(pairings))


@dataclass(frozen=True)
class MatchOutcome:
    """Result of one ``Match``/``SemanticDistance`` evaluation.

    Args:
        matched: whether ``Match(provided, requested)`` holds.
        distance: ``SemanticDistance`` when matched, else ``None``.
        pairings: per-concept evidence as
            ``(kind, provided_concept, requested_concept, distance)``.
    """

    matched: bool
    distance: int | None
    pairings: tuple[tuple[str, str, str, int], ...] = ()


class MatchDegree(enum.IntEnum):
    """Paolucci-style degrees of match (the related-work ranking [13]
    uses; ordered best-first).

    Applied per requested output concept against the best provided one:

    * ``EXACT``    — same (or equivalent) concept;
    * ``PLUGIN``   — requested subsumes provided (the provider delivers
      something more specific than asked: fully usable);
    * ``SUBSUMES`` — provided subsumes requested (more general: the §2.3
      relation's accepted direction, weaker per Paolucci);
    * ``FAIL``     — unrelated.
    """

    EXACT = 0
    PLUGIN = 1
    SUBSUMES = 2
    FAIL = 3


class TaxonomyMatcher(Matcher):
    """``d`` backed by a classified taxonomy (on-line reasoning path)."""

    def __init__(self, taxonomy: Taxonomy, stats: MatcherStats | None = None) -> None:
        super().__init__(stats=stats)
        self._taxonomy = taxonomy

    def concept_distance(self, over: str, under: str) -> int | None:
        """Taxonomy walk: subsumption levels, ``None`` if unrelated."""
        if over not in self._taxonomy or under not in self._taxonomy:
            return None
        return self._taxonomy.distance(over, under)


class CodeMatcher(Matcher):
    """``d`` backed by interval codes: pure numeric comparison (§3.2).

    With a shared cache, :meth:`match` and :meth:`semantic_distance` run a
    *subsumer-map kernel*.  Each requested capability is compiled once per
    matcher into one subsumer map per requested concept
    (:meth:`repro.core.codes.CodeTable.subsumers`), its input maps merged
    into ``{over: min over requested inputs of d(over, input)}`` from its
    second match on.  A capability match then costs ``|P.in| +
    |R.out|·|P.out| + |R.prop|·|P.prop|`` dict probes and no interval
    search.  The maps are the cache's entries, one per concept, built on
    first use and reused by every later matcher until the table version
    changes.  With ``share_compiled`` the compiled capabilities are cache
    entries too, keyed by the capability, so an equal capability matched
    by a later matcher (the next query) is not compiled
    again.

    :meth:`subsumers` hands the same maps to the directories' concept
    indexes for candidate preselection: the cached ones with a cache,
    maps computed from the table without one (memoized per matcher either
    way), and none for a matcher whose embedded codes shadow the table.
    :meth:`subsumees` answers the converse direction for the same
    matchers, from the table's memo, to prefilter what a new capability
    in a graph can subsume.

    The per-pair evaluation (:meth:`Matcher.match_outcome`, the oracle the
    kernel must agree with) answers everything else: pairings and degrees,
    matchers without a cache, and matchers holding embedded codes the
    table cannot stand in for.

    Args:
        table: the directory's code table (used for concepts not covered by
            ``extra_codes``).
        extra_codes: codes embedded in a received document, already
            validated against the table version via
            :meth:`repro.core.codes.CodeTable.resolve_annotations`; lets a
            directory match concepts it has not locally encoded.  Codes
            equal to the table's own are redundant at the same version and
            dropped, so ordinary annotated documents take the kernel.  Any
            other embedded code (a concept the table lacks, or a different
            code) switches this matcher to per-pair evaluation, and pairs
            touching it skip the cache (it shadows the table for this
            document only, so its results are not globally reusable).
        cache: shared :class:`~repro.util.cache.DistanceCache` owned by the
            directory: it holds the kernel's subsumer maps and the
            per-pair path's table-only distances, across matcher instances.
        stats: shared counter object (see :class:`Matcher`).
        share_compiled: keep compiled requested capabilities in ``cache``
            (kernel matchers only).  The directory sets it on the query
            path, where a few hundred distinct requests recur.  Publication
            compiles the stored capabilities its insertion matches on the
            requested side, which would grow the cache with the catalog.
    """

    def __init__(
        self,
        table: CodeTable | None = None,
        extra_codes: dict[str, ConceptCode] | None = None,
        cache: DistanceCache | None = None,
        stats: MatcherStats | None = None,
        share_compiled: bool = False,
    ) -> None:
        super().__init__(stats=stats)
        if table is None and not extra_codes:
            raise ValueError("CodeMatcher needs a code table and/or embedded codes")
        self._table = table
        self._extra = (
            (table.foreign_codes(extra_codes) if table is not None else extra_codes) or {}
        )
        self._cache = cache
        self._table_only = table is not None and not self._extra
        self._kernel = cache is not None and self._table_only
        self._share = share_compiled and self._kernel
        self._compiled: dict[int, _CompiledRequest] = {}
        # Requested capabilities whose compiled form came from the cache
        # under an equal object: held so their ids stay unique while the
        # ``_compiled`` keys refer to them.
        self._held: list[Capability] = []
        # The maps handed to concept indexes, fetched once per matcher
        # (the requests of a batch share most of their concepts).
        self._maps: dict[str, dict[str, int]] = {}

    def lookup(self, concept: str) -> ConceptCode | None:
        """The code this matcher uses for ``concept`` (embedded codes
        shadow the table), or ``None`` when neither source covers it: the
        resolution every per-pair distance of this matcher uses.
        """
        code = self._extra.get(concept)
        if code is not None:
            return code
        if self._table is not None and concept in self._table:
            return self._table.code(concept)
        return None

    def _compute_distance(self, over: str, under: str) -> int | None:
        code_over = self.lookup(over)
        code_under = self.lookup(under)
        if code_over is None or code_under is None:
            return None
        return code_over.distance_to(code_under)

    def concept_distance(self, over: str, under: str) -> int | None:
        """Interval-code subsumption test with the §3.1 distance cache."""
        cache = self._cache
        if cache is None or over in self._extra or under in self._extra:
            return self._compute_distance(over, under)
        cached = cache.lookup(over, under)
        if cached is not MISS:
            self.stats.cache_hits += 1
            return cached
        self.stats.cache_misses += 1
        distance = self._compute_distance(over, under)
        cache.store(over, under, distance)
        return distance

    # -- subsumer-map kernel ----------------------------------------------
    def match(self, provided: Capability, requested: Capability) -> bool:
        """The relation ``Match(provided, requested)``."""
        if self._kernel:
            return self._kernel_distance(provided, requested) is not None
        return super().match(provided, requested)

    def semantic_distance(self, provided: Capability, requested: Capability) -> int | None:
        """``SemanticDistance(provided, requested)``; ``None`` if no match."""
        if self._kernel:
            return self._kernel_distance(provided, requested)
        return super().semantic_distance(provided, requested)

    def subsumers(self, concept: str) -> dict[str, int] | None:
        """``concept``'s subsumer map as this matcher resolves codes (see
        :meth:`Matcher.subsumers`): the cached map for kernel matchers, one
        computed from the table for uncached table-only matchers (both
        preselect the same vertices), ``None`` when embedded codes shadow
        the table or there is none."""
        if not self._table_only:
            return None
        found = self._maps.get(concept)
        if found is None:
            found = self._maps[concept] = (
                self._subsumers(concept) if self._kernel else self._table.subsumers(concept)
            )
        return found

    def subsumees(self, concept: str) -> frozenset[str] | None:
        """``concept``'s subsumee set (see :meth:`Matcher.subsumees`) from
        the table, which memoizes it, for every table-only matcher, cached
        or not; ``None`` when embedded codes shadow the table or there is
        none."""
        return self._table.subsumees(concept) if self._table_only else None

    def _subsumers(self, concept: str) -> dict[str, int]:
        cache = self._cache
        found = cache.get(concept, MISS)
        if found is not MISS:
            self.stats.cache_hits += 1
            return found
        self.stats.cache_misses += 1
        found = self._table.subsumers(concept)
        cache.put(concept, found)
        return found

    def _kernel_distance(self, provided: Capability, requested: Capability) -> int | None:
        stats = self.stats
        stats.capability_matches += 1
        compiled = self._compiled.get(id(requested))
        if compiled is None:
            compiled = self._compile(requested)
            self._compiled[id(requested)] = compiled
            input_maps = compiled.merged or compiled.input_maps
        else:
            input_maps = compiled.merged or compiled.merge_inputs()
        total = 0
        probes = 0
        for concept in provided.inputs:
            probes += len(input_maps)
            best = None
            for subsumers in input_maps:
                distance = subsumers.get(concept)
                if distance is not None and (best is None or distance < best):
                    best = distance
            if best is None:
                stats.concept_comparisons += probes
                return None
            total += best
        outputs, properties = compiled.rest(self._subsumers)
        for wanted, offered in ((outputs, provided.outputs), (properties, provided.properties)):
            for subsumers in wanted:
                probes += len(offered)
                best = None
                for concept in offered:
                    distance = subsumers.get(concept)
                    if distance is not None and (best is None or distance < best):
                        best = distance
                if best is None:
                    stats.concept_comparisons += probes
                    return None
                total += best
        stats.concept_comparisons += probes
        return total

    def _compile(self, requested: Capability) -> "_CompiledRequest":
        """``requested`` in the kernel's form; from the cache when shared
        (an entry from an earlier matcher has matched before, so its
        inputs are merged)."""
        if not self._share:
            return _CompiledRequest(requested, self._subsumers)
        cache = self._cache
        compiled = cache.get(requested, MISS)
        if compiled is not MISS:
            self.stats.cache_hits += 1
            if compiled.requested is not requested:
                self._held.append(requested)
            if compiled.merged is None:
                compiled.merge_inputs()
            return compiled
        self.stats.cache_misses += 1
        compiled = _CompiledRequest(requested, self._subsumers)
        cache.put(requested, compiled)
        return compiled


class _CompiledRequest:
    """A requested capability in the kernel's form (see :class:`CodeMatcher`).

    Holds one subsumer map per requested concept, fetched lazily: the
    input maps first, the output and property maps once some provided
    capability's inputs pass.  The input maps are merged into ``{over:
    min distance}`` on the capability's second match: a capability matched
    once (most requested sides during DAG insertion) is cheaper to probe
    map by map than to merge.  Every field is a function of the
    capability's value and the table version, so one instance may serve
    any number of matchers over the same cache.
    """

    __slots__ = ("requested", "input_maps", "merged", "_rest")

    def __init__(self, requested: Capability, fetch) -> None:
        # Holding the capability keeps its id from being reused while the
        # owning matcher lives.
        self.requested = requested
        self.input_maps = [fetch(concept) for concept in requested.inputs]
        #: ``[merged input map]`` once :meth:`merge_inputs` ran, else None.
        self.merged: list[dict[str, int]] | None = None
        self._rest: tuple[list[dict[str, int]], list[dict[str, int]]] | None = None

    def merge_inputs(self) -> list[dict[str, int]]:
        """Merge the input maps into one; returns :attr:`merged`."""
        if len(self.input_maps) == 1:
            self.merged = self.input_maps
        else:
            merged: dict[str, int] = {}
            for subsumers in self.input_maps:
                for over, distance in subsumers.items():
                    best = merged.get(over)
                    if best is None or distance < best:
                        merged[over] = distance
            self.merged = [merged]
        return self.merged

    def rest(self, fetch) -> tuple[list[dict[str, int]], list[dict[str, int]]]:
        """The output maps and the property maps."""
        if self._rest is None:
            requested = self.requested
            self._rest = (
                [fetch(concept) for concept in requested.outputs],
                [fetch(concept) for concept in requested.properties],
            )
        return self._rest
