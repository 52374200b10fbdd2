"""S-Ariadne: efficient semantic service discovery for pervasive computing.

A full reproduction of *Ben Mokhtar, Kaul, Georgantas, Issarny — Efficient
Semantic Service Discovery in Pervasive Computing Environments* (Middleware
2006): the Amigo-S service model, the semantic ``Match`` relation, interval
encoding of classified ontologies, capability-graph directories, and the
S-Ariadne protocol over a simulated hybrid wireless network, plus the
syntactic Ariadne baseline and on-line-reasoning matchmakers it is
evaluated against.

Quickstart::

    from repro import (
        CodeTable, OntologyRegistry, SemanticDirectory, ServiceWorkload,
    )

    workload = ServiceWorkload(seed=42)
    registry = OntologyRegistry(workload.ontologies)
    directory = SemanticDirectory(CodeTable(registry))
    for profile in workload.make_services(20):
        directory.publish(profile)
    request = workload.matching_request(directory.services()[0])
    for match in directory.query(request):
        print(match.service_uri, match.distance)

See ``examples/`` for runnable scenarios and ``DESIGN.md`` for the system
inventory and the experiment index.
"""

from repro.core.capability_graph import CapabilityDag, QueryMode
from repro.core.codes import CodeTable, ConceptCode, StaleCodesError
from repro.core.composition import Composer, CompositionPlan
from repro.core.directory import DirectoryMatch, FlatDirectory, SemanticDirectory
from repro.core.encoding import Interval, IntervalEncoder, linkinvexp
from repro.core.matching import CodeMatcher, Matcher, MatchOutcome, TaxonomyMatcher
from repro.core.summaries import DirectorySummary
from repro.ontology.model import Concept, ObjectProperty, Ontology, Restriction, THING
from repro.ontology.reasoner import ClassificationStrategy, Reasoner
from repro.ontology.registry import OntologyRegistry
from repro.ontology.taxonomy import Taxonomy
from repro.services.generator import ServiceWorkload, WorkloadShape
from repro.services.profile import Capability, Grounding, ServiceProfile, ServiceRequest

__version__ = "1.0.0"

__all__ = [
    "CapabilityDag",
    "QueryMode",
    "CodeTable",
    "ConceptCode",
    "StaleCodesError",
    "Composer",
    "CompositionPlan",
    "DirectoryMatch",
    "FlatDirectory",
    "SemanticDirectory",
    "Interval",
    "IntervalEncoder",
    "linkinvexp",
    "CodeMatcher",
    "Matcher",
    "MatchOutcome",
    "TaxonomyMatcher",
    "DirectorySummary",
    "Concept",
    "ObjectProperty",
    "Ontology",
    "Restriction",
    "THING",
    "ClassificationStrategy",
    "Reasoner",
    "OntologyRegistry",
    "Taxonomy",
    "ServiceWorkload",
    "WorkloadShape",
    "Capability",
    "Grounding",
    "ServiceProfile",
    "ServiceRequest",
    "__version__",
]
