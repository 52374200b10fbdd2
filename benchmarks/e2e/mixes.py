"""Traffic mixes of the live discovery benchmark and their answer oracle.

A mix fixes what the directories hold, which request documents the
client sends and in what order, and the expected answer of every
distinct request.  Everything is a pure
function of the seed: the deployment config, the §5 service catalog and
the code table all derive from it, exactly as ``repro.cli serve`` derives
them, so the documents' embedded interval codes resolve on the servers.

The expected rows come from an in-process reference
:class:`~repro.core.directory.SemanticDirectory` holding the same
advertisement documents the servers receive, queried before any timing
starts.
"""

from __future__ import annotations

import functools
import itertools
import random
from collections import deque
from dataclasses import dataclass, field

from repro.core.directory import SemanticDirectory
from repro.core.encoding import PrecisionExhaustedError
from repro.network.election import ElectionConfig
from repro.protocols.deployment import DeploymentConfig
from repro.protocols.live_deploy import (
    annotated_profile_doc,
    annotated_request_doc,
    build_catalog,
)
from repro.services.profile import (
    Capability,
    Grounding,
    ServiceProfile,
    ServiceRequest,
    ontology_of,
)
from repro.services.xml_codec import profile_to_xml, request_to_xml

#: The workloads, in report order.
WORKLOADS = ("hot_repeat", "cold_unique", "broad_match", "backbone_churn")

#: Services in every mix's catalog (on ``backbone_churn`` they sit on the
#: second directory; the queried one is empty).
CATALOG_SIZE = 4096

#: Distinct requests per mix, sent round-robin in a seeded order.  The
#: directory's request cache holds 1024 parsed requests: ``hot_repeat``'s
#: fit, ``cold_unique``'s are twice as many, so a round-robin never hits.
#: Each mix has enough that the mean of their costs, and so the mix's
#: numbers, barely move from one seed's catalog to the next.
DISTINCT = {"hot_repeat": 256, "cold_unique": 2048, "broad_match": 256, "backbone_churn": 256}
#: ``cold_unique`` adds one ``unrelated_request`` per this many requests,
#: keeping those that indeed match nothing.
COLD_NOMATCH_EVERY = 10
#: Unselective request candidates tried before giving up on filling
#: ``broad_match`` (each costs one reference query).
BROAD_CANDIDATES = 1024
#: ``backbone_churn`` writes once per this many queries.
CHURN_QUERIES_PER_WRITE = 4
#: Churn services alive at B at once; writes alternate publish/withdraw.
CHURN_LIVE = 8
CHURN_POOL = 64
#: Catalog seeds tried from the run's seed upward (see :func:`_catalog`).
CATALOG_SEED_TRIES = 8


def _catalog(seed: int):
    """``(config, workload, code table)`` of the first catalog seed from
    ``seed`` upward whose ontologies the interval codes can encode.

    About one seed in seventy generates a taxonomy nested deeper than
    float64 intervals resolve (``PrecisionExhaustedError``); a server
    given that seed could not start, so such a seed takes the next
    one's catalog.  Requests and their order still derive from ``seed``.
    """
    for catalog_seed in range(seed, seed + CATALOG_SEED_TRIES):
        config = deployment_config(catalog_seed)
        try:
            return (config, *build_catalog(config))
        except PrecisionExhaustedError:
            continue
    raise ValueError(f"no encodable catalog for seeds {seed}..{catalog_seed}")


def deployment_config(seed: int) -> DeploymentConfig:
    """The benchmark's deployment: ``configs/deployment_smoke.toml`` with
    the seed swapped in and a 50 ms advert beacon.

    The short beacon keeps ``setup_s`` a measure of start-up work: a
    client learns of the directory from its first advert, and with the
    smoke config's 0.5 s period the wait would be a random share of it.
    """
    return DeploymentConfig(
        node_count=2,
        protocol="sariadne",
        seed=seed,
        directory_shards=2,
        forward_window=0.2,
        election=ElectionConfig(
            advert_interval=0.05,
            directory_timeout=0.4,
            check_interval=0.2,
            reply_window=0.15,
        ),
    )


Rows = tuple[tuple[str, str, int | float], ...]


def _rows(matches) -> Rows:
    """Directory matches as the sorted ``(service, capability, distance)``
    rows a ``QueryResponse`` carries."""
    return tuple(sorted((m.service_uri, m.capability.uri, m.distance) for m in matches))


@dataclass
class Mix:
    """One workload's inputs and expected answers.

    Attributes:
        name: workload name.
        seed: the seed everything derives from.
        config: deployment config written for the servers.
        catalog: advertisement documents published before timing.
        backbone: True when a second directory holds the catalog and the
            queried one is empty.
        requests: distinct request documents.
        expected: sorted expected rows of each request, by index.
        order: request indices in send order (cycled).
        churn: ``(service uri, document)`` pool written during the run
            (``backbone_churn`` only).
    """

    name: str
    seed: int
    config: DeploymentConfig
    catalog: list[str]
    backbone: bool
    requests: list[str]
    expected: list[Rows]
    order: list[int]
    churn: list[tuple[str, str]] = field(default_factory=list)

    @functools.cached_property
    def churn_uris(self) -> frozenset[str]:
        """Service URIs of the churn pool."""
        return frozenset(uri for uri, _document in self.churn)

    def sequence(self):
        """Endless request-index stream in the mix's send order."""
        return itertools.cycle(self.order)

    def check(self, index: int, rows) -> bool:
        """Does an answered row set equal request ``index``'s expected rows?

        Rows of churn services are dropped first: they come and go during
        the run, and they live in a graph no measured request visits.
        """
        churn = self.churn_uris
        if churn:
            rows = [row for row in rows if row[0] not in churn]
        return tuple(sorted(tuple(row) for row in rows)) == self.expected[index]


class ChurnWriter:
    """Publishes a fresh churn service or withdraws the oldest live one,
    alternating once ``CHURN_LIVE`` are alive."""

    def __init__(self, pool: list[tuple[str, str]]) -> None:
        self._pool = pool
        self._next = 0
        self._live: deque[str] = deque()
        self.writes = 0

    def write(self, client) -> bool:
        """Issue one write through ``client``; False when the send failed."""
        self.writes += 1
        if len(self._live) < CHURN_LIVE or self.writes % 2:
            uri, document = self._pool[self._next % len(self._pool)]
            self._next += 1
            self._live.append(uri)
            return client.publish(document)
        return client.withdraw(self._live.popleft())


def _one_graph(profile: ServiceProfile) -> bool:
    """Do the outputs and properties of the service's capability span
    both of its ontologies?

    Requests derived from such a service keep that span, and the §3.3
    graph index then offers exactly one capability graph to match them
    against; otherwise every graph sharing the one ontology is scanned,
    which costs about 3.6 times more, and more so for some seeds' catalogs
    than others.  The selective mixes use only such requests, so their
    matching work is about the same for every seed.
    """
    capability = profile.provided[0]
    spanned = {ontology_of(concept) for concept in capability.outputs | capability.properties}
    return spanned == set(capability.ontologies())


def _tier_agrees(one_graph: bool, rows: Rows) -> bool:
    """Does the servers' 2-shard tier answer like one directory?

    A perfect (distance 0) match stops the greedy scan over capability
    graphs.  The tier stops it per shard, so when a request has several
    candidate graphs the other shard goes on scanning and may add worse
    rows.  Requests with one candidate graph, or without a perfect
    match, are answered identically; the mixes use only those.
    """
    return one_graph or all(distance != 0 for _service, _capability, distance in rows)


def _selective(workload, table, reference, profiles, indices) -> tuple[list[str], list[Rows]]:
    """Requests matching services ``indices``, with their reference rows,
    minus those :func:`_tier_agrees` rules out."""
    documents, expected = [], []
    for index in indices:
        document = annotated_request_doc(workload, table, index)
        rows = _rows(reference.query_xml(document))
        if _tier_agrees(_one_graph(profiles[index][0]), rows):
            documents.append(document)
            expected.append(rows)
    return documents, expected


def _leaves(workload, ontology) -> list[str]:
    taxonomy = workload.taxonomy
    return sorted(
        concept
        for concept in ontology.concepts
        if not taxonomy.children(taxonomy.canonical(concept))
    )


def _annotated_request(table, request: ServiceRequest) -> str:
    return request_to_xml(
        request, annotations=table.annotate(request.capabilities), codes_version=table.version
    )


def _broad_requests(workload, table, reference, rng: random.Random, wanted: int):
    """Unselective requests: every leaf of two ontologies as inputs, one
    leaf output.

    A candidate is kept when the reference answers it with rows and the
    tier answers it the same way (it has several candidate graphs, so
    that means no perfect match; see :func:`_tier_agrees`).
    """
    documents, expected = [], []
    ontologies = workload.ontologies
    for number in range(BROAD_CANDIDATES):
        if len(documents) == wanted:
            break
        first, second = rng.sample(ontologies, 2)
        leaves = _leaves(workload, first) + _leaves(workload, second)
        capability = Capability.build(
            uri=f"urn:repro:request:broad:{number}",
            name=f"Broad{number}",
            inputs=leaves,
            outputs=[rng.choice(leaves)],
            properties=[],
        )
        document = _annotated_request(
            table, ServiceRequest(uri=f"urn:repro:request:b{number}", capabilities=(capability,))
        )
        rows = _rows(reference.query_xml(document))
        if rows and _tier_agrees(False, rows):
            documents.append(document)
            expected.append(rows)
    if not documents:
        raise ValueError("no unselective request matched the catalog")
    return documents, expected


def _churn_pool(workload, table, reserved: list, seed: int) -> list[tuple[str, str]]:
    """Fresh services over the reserved ontology pair only, so they land
    in a capability graph no measured request visits."""
    pool = [concept for ontology in reserved for concept in sorted(ontology.concepts)]
    services = []
    for number in range(CHURN_POOL):
        rng = random.Random(f"{seed}:churn:{number}")
        concepts = rng.sample(pool, 6)
        capability = Capability.build(
            uri=f"urn:repro:capability:churn{number}",
            name=f"Churn_{number}",
            inputs=concepts[:3],
            outputs=concepts[3:5],
            properties=[],
            category=concepts[5],
        )
        profile = ServiceProfile(
            uri=f"urn:repro:service:churn:{number}",
            name=f"Churn{number}",
            provided=(capability,),
            device="device-churn",
            grounding=Grounding(endpoint=f"http://10.0.1.{number % 250 + 1}:8080/svc"),
        )
        document = profile_to_xml(
            profile, annotations=table.annotate(profile.provided), codes_version=table.version
        )
        services.append((profile.uri, document))
    return services


def build_mix(name: str, seed: int, catalog_size: int | None = None) -> Mix:
    """Generate workload ``name`` from ``seed`` and compute its oracle.

    Args:
        name: one of :data:`WORKLOADS`.
        seed: input seed (deployment config, catalog, request order).
        catalog_size: override of the catalog size (small self-test runs).

    Raises:
        ValueError: on an unknown workload name.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    config, workload, table = _catalog(seed)
    size = catalog_size or CATALOG_SIZE
    profiles = [annotated_profile_doc(workload, table, index) for index in range(size)]
    catalog = [document for _profile, document in profiles]
    reference = SemanticDirectory(table)
    for document in catalog:
        reference.publish_xml(document)
    rng = random.Random(f"{seed}:{name}:requests")
    churn: list[tuple[str, str]] = []

    if name == "broad_match":
        requests, expected = _broad_requests(workload, table, reference, rng, DISTINCT[name])
    else:
        pool = [index for index, (profile, _doc) in enumerate(profiles) if _one_graph(profile)]
        if name == "backbone_churn":
            reserved = rng.sample(workload.ontologies, 2)
            reserved_uris = {ontology.uri for ontology in reserved}
            pool = [i for i in pool if not profiles[i][0].provided[0].ontologies() & reserved_uris]
            churn = _churn_pool(workload, table, reserved, seed)
        picks = rng.sample(pool, min(DISTINCT[name], len(pool)))
        requests, expected = _selective(workload, table, reference, profiles, picks)
        if name == "cold_unique":
            for index in range(len(picks) // COLD_NOMATCH_EVERY):
                document = _annotated_request(table, workload.unrelated_request(index))
                if not reference.query_xml(document):
                    requests.append(document)
                    expected.append(())
    order = list(range(len(requests)))
    rng.shuffle(order)

    return Mix(
        name=name,
        seed=seed,
        config=config,
        catalog=catalog,
        backbone=name == "backbone_churn",
        requests=requests,
        expected=expected,
        order=order,
        churn=churn,
    )
