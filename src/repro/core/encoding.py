"""Interval encoding of classified concept hierarchies (paper §3.2).

"The main idea of the encoding is that any concept in a classified ontology
is associated with an interval.  These intervals can be contained in other
intervals but are never overlapping" — so subsumption between concepts
reduces to numeric containment between intervals, and no reasoner is needed
at discovery time.

Slot layout: the ``linKinvexp`` scheme
--------------------------------------

Following Constantinescu & Faltings [3], child slots under a parent
interval are laid out with a *linear-inverse-exponential* function with
parameters ``p`` and ``k``: sibling ``i`` receives a slot of relative width

    ``w(i) = (1/k) · p^-(⌊i/k⌋ + 1)``

i.e. within a block of ``k`` siblings the widths are equal (linear
packing), and each successive block shrinks by a factor ``p`` (inverse
exponential).  The total over infinitely many children is
``Σ w(i) = 1/(p-1)`` — exactly the parent's span for the paper's ``p = 2``
— so a parent never runs out of room no matter how many children are
inserted.  :func:`linkinvexp` exposes the paper's generator function; the
closed-form cumulative offset is in :func:`slot`.

DAG support
-----------

A classified hierarchy is a DAG, not a tree.  Each concept gets a *tree
interval* from a deterministic spanning tree (primary parent = the
lexicographically smallest of its direct subsumers), and its full *code* is
the merged union of its own tree interval and the tree intervals of **all**
its hierarchy descendants.  Then ``B ⊑ A`` iff B's tree interval is
contained in one of A's code intervals — correct for arbitrary DAGs because
A's code covers exactly the tree intervals of concepts it subsumes.

Precision
---------

With 64-bit floats, slots shrink until they are no longer representable;
§3.2 reports the capacity for ``p=2, k=5`` (the paper: 1071 first-level
entries, 462 levels).  :func:`first_level_capacity` and
:func:`nesting_capacity` measure the same quantities for this
implementation, and an exact-:class:`fractions.Fraction` arithmetic mode
removes the limits entirely at some CPU cost (ablation benchmark E7).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from repro.ontology.model import THING
from repro.ontology.taxonomy import Taxonomy

Number = Union[float, Fraction]

#: Paper defaults for the slot function.
DEFAULT_P = 2
DEFAULT_K = 5


def linkinvexp(x: int, p: int = DEFAULT_P, k: int = DEFAULT_K) -> float:
    """The paper's ``linKinvexpP`` generator function.

    ``linKinvexpP(x) = 1/p^⌊x/k⌋ + (x mod k) · (1/k) · (1/p^⌊x/k⌋)``

    It enumerates, per block of ``k``, linearly spaced values scaled by an
    inverse exponential of the block index; :func:`slot` uses the same
    (p, k) geometry to derive non-overlapping child slots.

    Raises:
        ValueError: if ``x < 0``, ``p < 2`` or ``k < 1``.
    """
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    _check_pk(p, k)
    block, offset = divmod(x, k)
    scale = 1.0 / p**block
    return scale + offset * (1.0 / k) * scale


def _check_pk(p: int, k: int) -> None:
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")


def slot_width(index: int, p: int = DEFAULT_P, k: int = DEFAULT_K) -> Fraction:
    """Relative width of child slot ``index``: ``(1/k) · p^-(⌊i/k⌋+1)``."""
    if index < 0:
        raise ValueError(f"index must be >= 0, got {index}")
    _check_pk(p, k)
    block = index // k
    return Fraction(1, k) * Fraction(1, p ** (block + 1))


def slot(index: int, p: int = DEFAULT_P, k: int = DEFAULT_K) -> tuple[Fraction, Fraction]:
    """Relative ``(offset, width)`` of child slot ``index`` within (0, 1).

    Closed form of the cumulative width: for ``index = a·k + b``,
    ``offset = (1 - p^-a) / (p - 1) + (b/k) · p^-(a+1)``.
    """
    if index < 0:
        raise ValueError(f"index must be >= 0, got {index}")
    _check_pk(p, k)
    block, within = divmod(index, k)
    offset = Fraction(1 - Fraction(1, p**block), p - 1) + Fraction(within, k) * Fraction(
        1, p ** (block + 1)
    )
    return offset, slot_width(index, p, k)


@dataclass(frozen=True)
class Interval:
    """A half-open interval ``[lo, hi)`` on the unit line.

    ``lo``/``hi`` are floats in the default encoder and
    :class:`~fractions.Fraction` in exact mode.
    """

    lo: Number
    hi: Number

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ValueError(f"degenerate interval [{self.lo}, {self.hi})")

    def contains(self, other: "Interval") -> bool:
        """True iff ``other`` lies entirely within this interval."""
        return self.lo <= other.lo and other.hi <= self.hi

    def overlaps(self, other: "Interval") -> bool:
        """True iff the two intervals share any point."""
        return self.lo < other.hi and other.lo < self.hi

    @property
    def width(self) -> Number:
        """Interval length ``hi - lo``."""
        return self.hi - self.lo

    def __repr__(self) -> str:
        return f"[{self.lo}, {self.hi})"


def merge_intervals(intervals: list[Interval]) -> tuple[Interval, ...]:
    """Merge overlapping/adjacent intervals into a minimal sorted union."""
    if not intervals:
        return ()
    ordered = sorted(intervals, key=lambda iv: (iv.lo, iv.hi))
    merged: list[Interval] = [ordered[0]]
    for interval in ordered[1:]:
        last = merged[-1]
        if interval.lo <= last.hi:
            if interval.hi > last.hi:
                merged[-1] = Interval(last.lo, interval.hi)
        else:
            merged.append(interval)
    return tuple(merged)


def union_contains(union: tuple[Interval, ...], target: Interval) -> bool:
    """True iff ``target`` is contained in one interval of a merged union.

    Binary search over the sorted union; with merged intervals, containment
    in the union implies containment in a single member.
    """
    lo_index, hi_index = 0, len(union)
    while lo_index < hi_index:
        mid = (lo_index + hi_index) // 2
        interval = union[mid]
        if interval.hi <= target.lo:
            lo_index = mid + 1
        elif interval.lo > target.lo:
            hi_index = mid
        else:
            return interval.contains(target)
    return False


class IntervalEncoder:
    """Assigns intervals to the concepts of a classified taxonomy.

    Args:
        p: inverse-exponential base of the slot function (paper: 2).
        k: block size of the slot function (paper: 5).
        exact: when True, interval bounds are exact
            :class:`~fractions.Fraction` values (no precision limits);
            when False (default, the paper's setting), bounds are 64-bit
            floats.

    The encoder is deterministic: the spanning tree picks each concept's
    primary parent as the lexicographically smallest direct subsumer, and
    children are laid out in sorted order.
    """

    def __init__(self, p: int = DEFAULT_P, k: int = DEFAULT_K, exact: bool = False) -> None:
        _check_pk(p, k)
        self.p = p
        self.k = k
        self.exact = exact

    def _to_number(self, value: Fraction) -> Number:
        return value if self.exact else float(value)

    def child_interval(self, parent: Interval, index: int) -> Interval:
        """Interval of child slot ``index`` within ``parent``.

        Raises:
            PrecisionExhaustedError: in float mode, when the slot is no
                longer representable as a non-degenerate interval.
        """
        offset, width = slot(index, self.p, self.k)
        if self.exact:
            span = parent.hi - parent.lo
            lo = parent.lo + span * offset
            hi = lo + span * width
            return Interval(lo, hi)
        span = float(parent.hi) - float(parent.lo)
        lo = float(parent.lo) + span * float(offset)
        hi = float(parent.lo) + span * float(offset + width)
        if not lo < hi or not (parent.lo <= lo and hi <= parent.hi):
            raise PrecisionExhaustedError(
                f"slot {index} under {parent} is not representable in float64"
            )
        return Interval(lo, hi)

    def encode(self, taxonomy: Taxonomy) -> dict[str, "EncodedConcept"]:
        """Encode every concept of ``taxonomy``.

        Returns a mapping from concept URI (every member of every
        equivalence class, plus ``owl:Thing``) to its
        :class:`EncodedConcept`.

        Raises:
            PrecisionExhaustedError: in float mode when the hierarchy is
                too deep/bushy for 64-bit doubles.
        """
        unit = Interval(self._to_number(Fraction(0)), self._to_number(Fraction(1)))
        tree_interval: dict[str, Interval] = {THING: unit}

        # Deterministic spanning tree: primary parent = min direct subsumer.
        canon_concepts = sorted({taxonomy.canonical(c) for c in taxonomy.concepts()})
        children_in_tree: dict[str, list[str]] = {c: [] for c in canon_concepts}
        for concept in canon_concepts:
            if concept == THING:
                continue
            primary = min(taxonomy.parents(concept))
            children_in_tree.setdefault(primary, []).append(concept)

        # BFS assignment of slots.
        queue = [THING]
        while queue:
            parent = queue.pop()
            for index, child in enumerate(sorted(children_in_tree.get(parent, ()))):
                tree_interval[child] = self.child_interval(tree_interval[parent], index)
                queue.append(child)

        # Full codes: own tree interval + all hierarchy descendants' ones.
        descendants: dict[str, set[str]] = {c: set() for c in canon_concepts}
        for concept in canon_concepts:
            for ancestor in taxonomy.ancestors(concept):
                if ancestor != THING:
                    descendants[ancestor].add(concept)

        result: dict[str, EncodedConcept] = {}
        for concept in canon_concepts:
            own = tree_interval[concept]
            code = merge_intervals([own, *(tree_interval[d] for d in descendants[concept])])
            encoded = EncodedConcept(
                uri=concept,
                tree_interval=own,
                code=code,
                depth=taxonomy.depth(concept),
            )
            for member in taxonomy.equivalents(concept):
                result[member] = encoded
        return result


class PrecisionExhaustedError(ArithmeticError):
    """Raised when float64 can no longer represent a required slot (§3.2's
    capacity limit); switch to ``exact=True`` or re-balance the ontology."""


@dataclass(frozen=True)
class EncodedConcept:
    """A concept's interval code.

    Args:
        uri: canonical concept URI.
        tree_interval: the concept's own spanning-tree interval.
        code: merged union of the tree intervals of the concept and all
            concepts it subsumes; ``B ⊑ A`` iff ``B.tree_interval`` is
            contained in ``A.code``.
        depth: the concept's level below ``owl:Thing`` (used for the
            numeric distance of §2.3).
    """

    uri: str
    tree_interval: Interval
    code: tuple[Interval, ...]
    depth: int

    def subsumes(self, other: "EncodedConcept") -> bool:
        """Numeric subsumption: containment of the other's tree interval."""
        return union_contains(self.code, other.tree_interval)


def first_level_capacity(p: int = DEFAULT_P, k: int = DEFAULT_K, limit: int = 1_000_000) -> int:
    """Measured float64 capacity of one level: how many sibling slots fit.

    The paper reports 1071 for p=2, k=5 on their layout; this measures the
    same quantity for ours (experiment E7).
    """
    encoder = IntervalEncoder(p=p, k=k, exact=False)
    unit = Interval(0.0, 1.0)
    count = 0
    while count < limit:
        try:
            encoder.child_interval(unit, count)
        except PrecisionExhaustedError:
            break
        count += 1
    return count


def nesting_capacity(p: int = DEFAULT_P, k: int = DEFAULT_K, limit: int = 100_000) -> int:
    """Measured float64 capacity in depth: how deep first slots can nest.

    The paper reports 462 levels for p=2, k=5 on their layout.
    """
    encoder = IntervalEncoder(p=p, k=k, exact=False)
    current = Interval(0.0, 1.0)
    depth = 0
    while depth < limit:
        try:
            current = encoder.child_interval(current, 0)
        except PrecisionExhaustedError:
            break
        depth += 1
    return depth
