"""The paper's primary contribution: lightweight semantic service matching.

Sub-modules map to the paper's §3:

* :mod:`repro.core.encoding` — interval encoding of classified concept
  hierarchies with the ``linKinvexp`` slot function (§3.2, after
  Constantinescu & Faltings [3]);
* :mod:`repro.core.codes` — versioned code tables; run-time subsumption
  and distance become numeric comparisons (§3.2);
* :mod:`repro.core.matching` — the ``Match`` relation and
  ``SemanticDistance`` (§2.3), with a reasoner-backed and a code-backed
  implementation;
* :mod:`repro.core.capability_graph` — classification of advertised
  capabilities into DAGs indexed by ontology sets (§3.3);
* :mod:`repro.core.directory` — the semantic directory: publish / query /
  withdraw with the §3.3 algorithms (plus a flat baseline for Fig. 9);
* :mod:`repro.core.summaries` — Bloom-filter directory summaries (§4).
"""

from repro.core.codes import CodeTable, ConceptCode, StaleCodesError, UnknownConceptError
from repro.core.capability_graph import CapabilityDag, QueryMode
from repro.core.composition import Binding, Composer, CompositionError, CompositionPlan
from repro.core.directory import DirectoryMatch, FlatDirectory, SemanticDirectory
from repro.core.encoding import Interval, IntervalEncoder, linkinvexp
from repro.core.matching import CodeMatcher, MatchOutcome, Matcher, MatcherStats, TaxonomyMatcher
from repro.core.summaries import DirectorySummary

__all__ = [
    "CodeTable",
    "ConceptCode",
    "StaleCodesError",
    "UnknownConceptError",
    "CapabilityDag",
    "QueryMode",
    "Binding",
    "Composer",
    "CompositionError",
    "CompositionPlan",
    "DirectoryMatch",
    "FlatDirectory",
    "SemanticDirectory",
    "Interval",
    "IntervalEncoder",
    "linkinvexp",
    "CodeMatcher",
    "MatchOutcome",
    "Matcher",
    "MatcherStats",
    "TaxonomyMatcher",
    "DirectorySummary",
]
