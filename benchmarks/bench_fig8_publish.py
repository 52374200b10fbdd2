"""Experiment E4 — Fig. 8: time to publish one service advertisement.

Paper setting (§5): a directory already caching 1→100 services receives a
new advertisement.  Findings to reproduce in shape:

* insertion (classification into graphs) is negligible vs XML parsing;
* insertion time is ~constant in the directory size, because the ontology
  set picks the graph and the concept index and subsumee sets leave only a
  few semantic matches to run.

The second claim is gated twice: on the median insert time, and exactly on
the number of semantic matches one probe publication runs, which must not
grow with the directory size.
"""

from __future__ import annotations

import pytest

from benchmarks._report import save_report
from repro.core.directory import SemanticDirectory
from repro.services.xml_codec import profile_to_xml

DIRECTORY_SIZES = [1, 20, 40, 60, 80, 100]
PROBE_INDEX = 10_000  # a service outside the preloaded population


@pytest.fixture(scope="module")
def preloaded(directory_workload, directory_table):
    """Directories preloaded at each size, plus the new advertisement."""
    table = directory_table
    directories = {}
    for size in DIRECTORY_SIZES:
        directory = SemanticDirectory(table)
        for index in range(size):
            directory.publish(directory_workload.make_service(index))
        directories[size] = directory
    profile = directory_workload.make_service(PROBE_INDEX)
    document = profile_to_xml(
        profile, annotations=table.annotate(profile.provided), codes_version=table.version
    )
    return directories, profile, document


def test_publish_into_100(benchmark, preloaded):
    """Benchmark target: publish one advertisement into a full directory."""
    directories, profile, document = preloaded
    directory = directories[100]

    def run():
        directory.publish_xml(document)
        directory.unpublish(profile.uri)

    benchmark(run)


def test_fig8_report(benchmark):
    """Regenerates the Fig. 8 series: parse / insert / total, plus the
    near-constant-insertion check."""
    from repro.experiments import fig8_publish

    result = fig8_publish()
    insert_times = [result.extras[f"insert_{size}"] for size in DIRECTORY_SIZES]
    for size in DIRECTORY_SIZES:
        # Same caveat as Fig. 7: our XML parse is relatively much faster
        # than the paper's, so insert and parse are comparable; the claim
        # that survives any stack is that insertion never dwarfs parsing.
        # Both sides are sub-millisecond means, so leave an order of
        # magnitude of headroom (plus a 10 µs floor) for loaded runners —
        # this bench now runs in CI via tools/make_artifacts.py.
        assert result.extras[f"insert_{size}"] < 10 * max(
            result.extras[f"parse_{size}"], 1e-5
        )
    # Insertion must not grow linearly with directory size: allow noise but
    # require the largest directory to stay within 5x of the smallest
    # (Ariadne-style linear growth would be ~100x).
    assert max(insert_times) < 5 * max(min(insert_times), 1e-5)
    # The same claim without timing noise: no directory size makes the
    # probe's insertion run more semantic matches than the smallest one.
    matches = [result.extras[f"matches_{size}"] for size in DIRECTORY_SIZES]
    assert max(matches) <= matches[0], matches
    save_report(
        "fig8_publish",
        result.render(),
        metrics=result.extras,
        config={"sizes": DIRECTORY_SIZES, "seed": 42},
        units={
            name: "matches" if name.startswith("matches_") else "seconds"
            for name in result.extras
        },
    )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
