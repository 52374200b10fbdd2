"""Service conversations: the OWL-S process model part of Amigo-S (§2.1).

"The process model is a representation of the service conversation, i.e.,
the interaction protocol between a service and its client that is
described as a process."  The paper's discovery layer only consumes the
profile, so conversations here are carried and serialised with it, not
checked: a :class:`~repro.services.profile.ServiceProfile` may hold one
process term, and :mod:`repro.services.xml_codec` round-trips it.

The terms follow the OWL-S control constructs — :class:`Invoke`
(atomic), :class:`Sequence`, :class:`Choice`, :class:`Repeat`
(zero-or-more) and :class:`AnyOrder` (interleaving of two to four parts,
OWL-S's ``Any-Order``).  Constructors reject structurally invalid terms
with :class:`ProcessError`.
"""

from __future__ import annotations

from dataclasses import dataclass


class ProcessError(ValueError):
    """Raised for structurally invalid process terms."""


@dataclass(frozen=True)
class Invoke:
    """An atomic process: one operation invocation."""

    operation: str

    def __post_init__(self) -> None:
        if not self.operation:
            raise ProcessError("operation name must be non-empty")


@dataclass(frozen=True)
class Sequence:
    """Parts executed in order."""

    parts: tuple["ProcessTerm", ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise ProcessError("Sequence needs at least one part")


@dataclass(frozen=True)
class Choice:
    """Exactly one branch executes."""

    branches: tuple["ProcessTerm", ...]

    def __post_init__(self) -> None:
        if len(self.branches) < 2:
            raise ProcessError("Choice needs at least two branches")


@dataclass(frozen=True)
class Repeat:
    """The body executes zero or more times (OWL-S Repeat-While shape)."""

    body: "ProcessTerm"


@dataclass(frozen=True)
class AnyOrder:
    """All parts execute, in any interleaving (OWL-S Any-Order).

    Raises:
        ProcessError: with more than 4 parts (at most 4! interleavings).
    """

    parts: tuple["ProcessTerm", ...]

    def __post_init__(self) -> None:
        if len(self.parts) < 2:
            raise ProcessError("AnyOrder needs at least two parts")
        if len(self.parts) > 4:
            raise ProcessError("AnyOrder supports at most 4 parts (interleaving blow-up)")


ProcessTerm = Invoke | Sequence | Choice | Repeat | AnyOrder


def sequence(*parts: ProcessTerm) -> ProcessTerm:
    """Convenience constructor flattening a single part."""
    return parts[0] if len(parts) == 1 else Sequence(parts=tuple(parts))


def choice(*branches: ProcessTerm) -> Choice:
    """Convenience constructor for :class:`Choice`."""
    return Choice(branches=tuple(branches))
