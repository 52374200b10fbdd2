"""Amigo-S service profiles and capabilities (paper §2.2).

A service profile models a service as a set of *provided* capabilities and
a set of *required* capabilities (needed from other networked services —
this is what enables peer-to-peer composition schemes).  Each capability is
a semantic concept with three sets of concept URIs:

* ``inputs`` — for a provided capability, the inputs the service *expects*;
  for a required capability, the inputs the requester *offers*;
* ``outputs`` — for a provided capability, what it *offers*; for a required
  capability, what the requester *expects*;
* ``properties`` — additional required/provided properties; the service
  category is the one the paper exercises and gets a dedicated field that
  is folded into ``properties``.

Capabilities may *include* other capabilities of the same service (the
paper's ``SendDigitalStream`` includes ``ProvideGame``); included
capabilities remain separately accessible, the inclusion is advisory
structure used by examples and the workload generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.services.process import ProcessTerm
from repro.util.ids import uri_fragment, validate_uri


def ontology_of(concept_uri: str) -> str:
    """Namespace (ontology URI) of a concept URI: the part before ``#``.

    Concepts minted by :func:`repro.util.ids.join_namespace` always carry
    their ontology as the pre-fragment prefix, mirroring how OWL concept
    IRIs embed their ontology namespace.
    """
    return concept_uri.split("#", 1)[0]


def capability_tokens(capability: "Capability") -> frozenset[str]:
    """Syntactic token rendering of a capability.

    The token set is the capability's name plus the fragment (local name)
    of every concept it references — exactly the keyword vocabulary the
    WSDL/UDDI baseline indexes (:mod:`repro.registry.syntactic` builds its
    keyword index from these).
    """
    tokens = {capability.name}
    tokens.update(uri_fragment(c) for c in capability.concepts())
    return frozenset(tokens)


@dataclass(frozen=True)
class Capability:
    """One semantic capability (provided or required).

    Args:
        uri: URI identifying this capability.
        name: human-readable capability name (e.g. ``GetVideoStream``).
        inputs: concept URIs of the capability's inputs.
        outputs: concept URIs of the capability's outputs.
        properties: concept URIs of additional properties; by the paper's
            convention the service *category* concept is one of them.
        category: convenience accessor for the category concept; must also
            appear in ``properties`` (the constructor enforces it).
        includes: URIs of other capabilities of the same service composed
            into this one.
    """

    uri: str
    name: str
    inputs: frozenset[str] = frozenset()
    outputs: frozenset[str] = frozenset()
    properties: frozenset[str] = frozenset()
    category: str | None = None
    includes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        validate_uri(self.uri)
        for uri in (*self.inputs, *self.outputs, *self.properties):
            validate_uri(uri)
        if self.category is not None and self.category not in self.properties:
            object.__setattr__(self, "properties", self.properties | {self.category})

    @classmethod
    def build(
        cls,
        uri: str,
        name: str,
        inputs: list[str] | tuple[str, ...] = (),
        outputs: list[str] | tuple[str, ...] = (),
        properties: list[str] | tuple[str, ...] = (),
        category: str | None = None,
        includes: tuple[str, ...] = (),
    ) -> "Capability":
        """Ergonomic constructor accepting plain sequences."""
        return cls(
            uri=uri,
            name=name,
            inputs=frozenset(inputs),
            outputs=frozenset(outputs),
            properties=frozenset(properties),
            category=category,
            includes=tuple(includes),
        )

    def concepts(self) -> frozenset[str]:
        """Every concept URI this capability references (memoized — the
        capability is immutable and the directory hot path asks per query)."""
        cached = self.__dict__.get("_concepts")
        if cached is None:
            cached = self.inputs | self.outputs | self.properties
            object.__setattr__(self, "_concepts", cached)
        return cached

    def ontologies(self) -> frozenset[str]:
        """The set ``O(C)`` of ontology URIs used by this capability (§4).

        This set indexes capability graphs (§3.3) and feeds the Bloom
        filter summaries (§4); memoized for the same reason as
        :meth:`concepts`.
        """
        cached = self.__dict__.get("_ontologies")
        if cached is None:
            cached = frozenset(ontology_of(c) for c in self.concepts())
            object.__setattr__(self, "_ontologies", cached)
        return cached

    def __repr__(self) -> str:
        return (
            f"Capability({self.name}, in={len(self.inputs)}, "
            f"out={len(self.outputs)}, props={len(self.properties)})"
        )


@dataclass(frozen=True)
class Grounding:
    """Invocation information (OWL-S-style grounding, §2.1).

    Discovery never interprets these fields; they ride along so a selected
    advertisement is actionable.
    """

    endpoint: str = ""
    protocol: str = "soap-http"
    wsdl_uri: str = ""


@dataclass(frozen=True)
class ServiceProfile:
    """An Amigo-S service description.

    Args:
        uri: service URI.
        name: human-readable service name.
        provided: capabilities the service offers.
        required: capabilities the service needs from the network.
        device: hosting device descriptor (Amigo-S context flavour).
        middleware: underlying middleware platform identifier (Amigo-S
            supports heterogeneous service infrastructures).
        qos: coarse quality-of-service attributes (string key/value).
        grounding: invocation details.
    """

    uri: str
    name: str
    provided: tuple[Capability, ...] = ()
    required: tuple[Capability, ...] = ()
    device: str = ""
    middleware: str = "ws-soap"
    qos: tuple[tuple[str, str], ...] = ()
    grounding: Grounding = field(default_factory=Grounding)
    #: Optional OWL-S-style process model: the service conversation
    #: (:mod:`repro.services.process`), carried and serialised with the
    #: profile; discovery does not read it.  ``None`` = none declared.
    process: ProcessTerm | None = None

    def __post_init__(self) -> None:
        validate_uri(self.uri)
        seen: set[str] = set()
        for cap in (*self.provided, *self.required):
            if cap.uri in seen:
                raise ValueError(f"duplicate capability {cap.uri} in service {self.uri}")
            seen.add(cap.uri)

    def capability(self, uri: str) -> Capability:
        """Look up a capability of this service by URI.

        Raises:
            KeyError: if no provided or required capability has that URI.
        """
        for cap in (*self.provided, *self.required):
            if cap.uri == uri:
                return cap
        raise KeyError(uri)

    def ontologies(self) -> frozenset[str]:
        """Union of ontology sets across all capabilities."""
        result: frozenset[str] = frozenset()
        for cap in (*self.provided, *self.required):
            result |= cap.ontologies()
        return result

    def __repr__(self) -> str:
        return (
            f"ServiceProfile({self.name}, provided={len(self.provided)}, "
            f"required={len(self.required)})"
        )


@dataclass(frozen=True)
class ServiceRequest:
    """A discovery request: capabilities sought on the network (§3.3).

    A request is itself expressed as an Amigo-S service whose *required*
    capabilities are to be resolved; this mirrors the paper's "user request
    that contains a set of required capabilities".
    """

    uri: str
    capabilities: tuple[Capability, ...]
    requester: str = ""

    def __post_init__(self) -> None:
        validate_uri(self.uri)
        if not self.capabilities:
            raise ValueError(f"request {self.uri} has no capabilities")

    def ontologies(self) -> frozenset[str]:
        """Union of ontology sets across requested capabilities."""
        result: frozenset[str] = frozenset()
        for cap in self.capabilities:
            result |= cap.ontologies()
        return result

    def __repr__(self) -> str:
        return f"ServiceRequest({self.uri}, capabilities={len(self.capabilities)})"
