"""Versioned code tables: semantic reasoning as numeric comparison (§3.2).

A :class:`CodeTable` snapshots an ontology registry: it classifies all
registered ontologies once (the expensive, off-line step) and encodes the
classified hierarchy with intervals.  Afterwards every subsumption query is
an interval containment check and every §2.3 ``distance`` is an integer
subtraction — no reasoner at discovery time.

Versioning: "in order to ensure consistency of codes along with the
dynamics and evolution of ontologies, service advertisements and service
requests specify the version of the codes being used" (§3.2).  The table's
version is the registry snapshot it was built from; codes carried by a
document with a different version are rejected with
:class:`StaleCodesError` so callers re-encode.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from repro.core.encoding import EncodedConcept, Interval, IntervalEncoder
from repro.ontology.model import THING
from repro.ontology.reasoner import ClassificationStrategy, Reasoner
from repro.ontology.registry import OntologyRegistry
from repro.services.profile import Capability


class UnknownConceptError(KeyError):
    """Raised when a concept URI has no code in the table."""


class StaleCodesError(ValueError):
    """Raised when embedded codes were minted against another snapshot."""


class MalformedCodeError(ValueError):
    """Raised when an embedded concept code string does not parse."""


@dataclass(frozen=True)
class ConceptCode:
    """Wire-friendly form of one concept's interval code."""

    uri: str
    tree_lo: float
    tree_hi: float
    code: tuple[tuple[float, float], ...]
    depth: int

    @classmethod
    def from_encoded(cls, encoded: EncodedConcept) -> "ConceptCode":
        """Build from the encoder's interval form (§3.1)."""
        return cls(
            uri=encoded.uri,
            tree_lo=float(encoded.tree_interval.lo),
            tree_hi=float(encoded.tree_interval.hi),
            code=tuple((float(iv.lo), float(iv.hi)) for iv in encoded.code),
            depth=encoded.depth,
        )

    def subsumes(self, other: "ConceptCode") -> bool:
        """Numeric subsumption: the other's tree interval is contained in
        one of this code's intervals (binary search)."""
        lo_index, hi_index = 0, len(self.code)
        target_lo, target_hi = other.tree_lo, other.tree_hi
        while lo_index < hi_index:
            mid = (lo_index + hi_index) // 2
            clo, chi = self.code[mid]
            if chi <= target_lo:
                lo_index = mid + 1
            elif clo > target_lo:
                hi_index = mid
            else:
                return target_hi <= chi
        return False

    def distance_to(self, other: "ConceptCode") -> int | None:
        """Numeric §2.3 distance: depth difference when subsuming.

        For tree-shaped hierarchies this equals the taxonomy's
        shortest-path level count exactly; for multi-parent concepts it is
        the depth-difference approximation documented in DESIGN.md.
        """
        if not self.subsumes(other):
            return None
        return max(0, other.depth - self.depth)

    # -- wire format -----------------------------------------------------
    def serialize(self) -> str:
        """Compact string for embedding in XML ``code`` attributes."""
        code_part = "|".join(f"{lo!r},{hi!r}" for lo, hi in self.code)
        return f"{self.tree_lo!r},{self.tree_hi!r};{self.depth};{code_part}"

    @classmethod
    def deserialize(cls, uri: str, data: str) -> "ConceptCode":
        """Parse the :meth:`serialize` format.

        Raises:
            MalformedCodeError: on malformed input.
        """
        try:
            tree_part, depth_part, code_part = data.split(";", 2)
            tree_lo, tree_hi = (float(x) for x in tree_part.split(","))
            code = tuple(
                (float(lo), float(hi))
                for lo, hi in (chunk.split(",") for chunk in code_part.split("|") if chunk)
            )
            return cls(
                uri=uri, tree_lo=tree_lo, tree_hi=tree_hi, code=code, depth=int(depth_part)
            )
        except (ValueError, TypeError) as exc:
            raise MalformedCodeError(f"malformed concept code for {uri}: {data!r}") from exc


class CodeTable:
    """Interval codes for every concept of a registry snapshot.

    Args:
        registry: the ontology registry to snapshot.
        encoder: interval encoder (paper defaults p=2, k=5, float64).
        strategy: classification strategy for the one-off reasoning step.
    """

    def __init__(
        self,
        registry: OntologyRegistry,
        encoder: IntervalEncoder | None = None,
        strategy: ClassificationStrategy = ClassificationStrategy.TRAVERSAL,
    ) -> None:
        self._encoder = encoder if encoder is not None else IntervalEncoder()
        self.version = registry.snapshot_version
        reasoner = Reasoner(strategy=strategy).load(registry.all())
        self.taxonomy = reasoner.classify()
        encoded = self._encoder.encode(self.taxonomy)
        self._codes: dict[str, ConceptCode] = {
            uri: ConceptCode.from_encoded(enc) for uri, enc in encoded.items()
        }
        self._init_memos()

    def _init_memos(self) -> None:
        # Derived from _codes on first use, never at load (see subsumers,
        # subsumees and resolve_annotations).
        self._wire: dict[str, str] = {}
        self._spans: list[tuple[float, float, str, ConceptCode]] | None = None
        self._span_los: list[float] = []
        self._trees: list[tuple[float, float, str]] | None = None
        self._tree_los: list[float] = []
        self._subsumees: dict[str, frozenset[str]] = {}

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def code(self, concept_uri: str) -> ConceptCode:
        """The code of ``concept_uri``.

        Raises:
            UnknownConceptError: if the concept is not in this snapshot.
        """
        try:
            return self._codes[concept_uri]
        except KeyError:
            raise UnknownConceptError(concept_uri) from None

    def __contains__(self, concept_uri: str) -> bool:
        return concept_uri in self._codes

    def __len__(self) -> int:
        return len(self._codes)

    def subsumes(self, over: str, under: str) -> bool:
        """Numeric subsumption between two concept URIs."""
        if over == THING:
            return True
        if under == THING:
            return False
        return self.code(over).subsumes(self.code(under))

    def distance(self, over: str, under: str) -> int | None:
        """Numeric §2.3 distance between two concept URIs."""
        if over == THING:
            return self.code(under).depth if under != THING else 0
        if under == THING:
            return None
        return self.code(over).distance_to(self.code(under))

    def subsumers(self, concept_uri: str) -> dict[str, int]:
        """``{over: d(over, concept)}`` for every table concept whose code
        subsumes ``concept_uri``'s (itself included); empty for a concept
        the table lacks.

        Candidates are the codes whose span (first interval's low end to
        last interval's high end) contains the concept's tree interval, a
        sound superset since code intervals are sorted; each is confirmed
        with :meth:`ConceptCode.distance_to`.
        """
        target = self._codes.get(concept_uri)
        if target is None:
            return {}
        if self._spans is None:
            self._spans = sorted(
                (code.code[0][0], code.code[-1][1], uri, code)
                for uri, code in self._codes.items()
                if code.code
            )
            self._span_los = [span[0] for span in self._spans]
        lo, hi = target.tree_lo, target.tree_hi
        return {
            uri: distance
            for _lo, span_hi, uri, code in self._spans[: bisect_right(self._span_los, lo)]
            if hi <= span_hi and (distance := code.distance_to(target)) is not None
        }

    def subsumees(self, concept_uri: str) -> frozenset[str]:
        """Every table concept whose code ``concept_uri``'s code subsumes
        (itself included); empty for a concept the table lacks.  The
        converse of :meth:`subsumers`: ``c in subsumees(a)`` iff ``a in
        subsumers(c)``.  Memoized per concept: the sets are small and a
        function of this snapshot alone.

        The tree intervals are kept sorted by their low end; per interval
        of the concept's code, a bisection finds the concepts whose tree
        interval starts inside it, and each is confirmed by the tree
        interval's high end (the test :meth:`ConceptCode.subsumes` makes).
        """
        found = self._subsumees.get(concept_uri)
        if found is not None:
            return found
        target = self._codes.get(concept_uri)
        if target is None:
            return frozenset()
        if self._trees is None:
            self._trees = sorted(
                (code.tree_lo, code.tree_hi, uri) for uri, code in self._codes.items()
            )
            self._tree_los = [tree[0] for tree in self._trees]
        trees, los = self._trees, self._tree_los
        found = self._subsumees[concept_uri] = frozenset(
            uri
            for lo, hi in target.code
            for _lo, tree_hi, uri in trees[bisect_left(los, lo) : bisect_left(los, hi)]
            if tree_hi <= hi
        )
        return found

    # ------------------------------------------------------------------
    # Document annotation (§3.2: advertisements/requests carry codes)
    # ------------------------------------------------------------------
    def annotate(self, capabilities: list[Capability] | tuple[Capability, ...]) -> dict[str, str]:
        """Serialized codes for every concept the capabilities reference.

        The result plugs into
        :func:`repro.services.xml_codec.profile_to_xml` /
        ``request_to_xml`` as the ``annotations`` argument.

        Raises:
            UnknownConceptError: if a referenced concept has no code.
        """
        annotations: dict[str, str] = {}
        for cap in capabilities:
            for concept in cap.concepts():
                if concept not in annotations:
                    annotations[concept] = self.code(concept).serialize()
        return annotations

    def resolve_annotations(
        self, codes: dict[str, str], version: int | None
    ) -> dict[str, ConceptCode]:
        """Validate and parse codes embedded in a received document.

        Raises:
            StaleCodesError: if the document's code version is not this
                table's version — the sender must refresh its codes
                ("services periodically check the version of codes that
                they are using", §3.2).
            MalformedCodeError: on malformed code strings.
        """
        if version != self.version:
            raise StaleCodesError(
                f"document codes have version {version}, table is at {self.version}"
            )
        resolved: dict[str, ConceptCode] = {}
        for uri, data in codes.items():
            if data == self._serialized(uri):
                # Serialized exactly like the table's own code, so it would
                # parse to an equal one: hand out the table's object.
                resolved[uri] = self._codes[uri]
            else:
                resolved[uri] = ConceptCode.deserialize(uri, data)
        return resolved

    def foreign_codes(self, codes: dict[str, ConceptCode] | None) -> dict[str, ConceptCode] | None:
        """The codes of ``codes`` this table cannot stand in for: those of
        concepts it lacks or that differ from its own.  ``None`` when every
        code equals the table's, which is what an up-to-date annotated
        document carries, so its matchers need no embedded codes at all.

        :meth:`resolve_annotations` hands out the table's own object for an
        unchanged code, so an identity test settles the common case.
        """
        if not codes:
            return None
        own_codes = self._codes
        foreign = {
            uri: code
            for uri, code in codes.items()
            if (own := own_codes.get(uri)) is not code and own != code
        }
        return foreign or None

    def _serialized(self, concept_uri: str) -> str | None:
        """The wire form of ``concept_uri``'s code (memoized), or ``None``."""
        data = self._wire.get(concept_uri)
        if data is None and concept_uri in self._codes:
            data = self._wire[concept_uri] = self._codes[concept_uri].serialize()
        return data

    # ------------------------------------------------------------------
    # Snapshot distribution (newly elected directories need the codes but
    # not the reasoner — §3.2's whole point)
    # ------------------------------------------------------------------
    def to_element(self):
        """The ``<CodeTable>`` element tree (for embedding in snapshots
        without a serialize/re-parse round-trip)."""
        import xml.etree.ElementTree as ET

        root = ET.Element("CodeTable", {"version": str(self.version)})
        for uri, code in self._codes.items():
            ET.SubElement(root, "Code", {"uri": uri, "data": code.serialize()})
        return root

    def to_xml(self) -> str:
        """Serialize the full table for transfer to another directory."""
        import xml.etree.ElementTree as ET

        return ET.tostring(self.to_element(), encoding="unicode")

    @classmethod
    def from_element(cls, root) -> "CodeTable":
        """Reconstruct a table from an already-parsed ``<CodeTable>``
        element (counterpart of :meth:`to_element`).

        The result answers every code/subsumption/distance/annotation
        query without any reasoning, but carries no :attr:`taxonomy`
        (set to ``None``) — receiving directories never need one.

        Raises:
            ValueError: on malformed elements.
        """
        if root.tag != "CodeTable":
            raise ValueError(f"expected <CodeTable> root, got <{root.tag}>")
        table = cls.__new__(cls)
        table.version = int(root.get("version", "0"))
        table.taxonomy = None
        table._encoder = None
        table._codes = {}
        table._init_memos()
        for el in root:
            if el.tag != "Code":
                raise ValueError(f"unexpected element <{el.tag}> in <CodeTable>")
            uri = el.get("uri")
            data = el.get("data")
            if not uri or not data:
                raise ValueError("<Code> needs uri and data attributes")
            table._codes[uri] = ConceptCode.deserialize(uri, data)
        return table

    @classmethod
    def from_xml(cls, document: str) -> "CodeTable":
        """Reconstruct a table from :meth:`to_xml` output.

        Raises:
            ValueError: on malformed documents.
        """
        import xml.etree.ElementTree as ET

        try:
            root = ET.fromstring(document)
        except ET.ParseError as exc:
            raise ValueError(f"not well-formed XML: {exc}") from exc
        return cls.from_element(root)

    def __repr__(self) -> str:
        return f"CodeTable({len(self._codes)} concepts, version={self.version})"
