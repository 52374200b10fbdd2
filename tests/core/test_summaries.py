"""Tests for Bloom-filter directory summaries (§4)."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.summaries import DirectorySummary, SummaryBank
from repro.services.profile import Capability, ServiceRequest


def cap(name: str, namespaces: list[str]) -> Capability:
    return Capability.build(
        f"urn:x:cap:{name}",
        name,
        outputs=[f"{ns}#Out{name}" for ns in namespaces],
    )


def request_for(capability: Capability) -> ServiceRequest:
    return ServiceRequest(uri="urn:x:req:1", capabilities=(capability,))


class TestMightHold:
    def test_exact_ontology_set_hit(self):
        summary = DirectorySummary()
        stored = cap("A", ["http://o.org/1", "http://o.org/2"])
        summary.add_capability(stored)
        probe = cap("B", ["http://o.org/1", "http://o.org/2"])
        assert summary.might_hold(probe)

    def test_subset_ontology_request_hit(self):
        """A request using fewer ontologies than the advertisement must not
        be filtered out (no false negatives for subset footprints)."""
        summary = DirectorySummary()
        summary.add_capability(cap("A", ["http://o.org/1", "http://o.org/2"]))
        probe = cap("B", ["http://o.org/1"])
        assert summary.might_hold(probe)

    def test_unrelated_ontology_filtered(self):
        summary = DirectorySummary()
        summary.add_capability(cap("A", ["http://o.org/1"]))
        probe = cap("B", ["http://elsewhere.org/9"])
        assert not summary.might_hold(probe)

    def test_empty_summary_rejects(self):
        assert not DirectorySummary().might_hold(cap("A", ["http://o.org/1"]))

    def test_might_answer_any_capability(self):
        summary = DirectorySummary()
        summary.add_capability(cap("A", ["http://o.org/1"]))
        request = ServiceRequest(
            uri="urn:x:req:2",
            capabilities=(cap("Nope", ["http://x.org/7"]), cap("Yes", ["http://o.org/1"])),
        )
        assert summary.might_answer(request)


class TestNoFalseNegatives:
    @given(
        st.lists(
            st.lists(st.sampled_from([f"http://o.org/{i}" for i in range(8)]), min_size=1, max_size=3, unique=True),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=60)
    def test_stored_footprints_always_admitted(self, footprints):
        summary = DirectorySummary()
        capabilities = [cap(f"C{i}", spaces) for i, spaces in enumerate(footprints)]
        for capability in capabilities:
            summary.add_capability(capability)
        for capability in capabilities:
            assert summary.might_hold(capability)


class TestRebuildAndSaturation:
    def test_rebuild_reflects_current_content(self):
        summary = DirectorySummary()
        a = cap("A", ["http://o.org/1"])
        b = cap("B", ["http://o.org/2"])
        summary.add_capability(a)
        summary.add_capability(b)
        summary.rebuild([b])
        assert summary.might_hold(b)
        assert not summary.might_hold(a)

    def test_saturation_flag(self):
        summary = DirectorySummary(m=32, k=2)
        for i in range(60):
            summary.add_capability(cap(f"C{i}", [f"http://o{i}.org/x"]))
        assert summary.saturated

    def test_snapshot_is_copy(self):
        summary = DirectorySummary()
        snap = summary.snapshot()
        summary.add_capability(cap("A", ["http://o.org/1"]))
        assert snap.fill_ratio == 0.0

    def test_from_bloom_wraps_exchanged_bits(self):
        summary = DirectorySummary()
        summary.add_capability(cap("A", ["http://o.org/1"]))
        wrapped = DirectorySummary.from_bloom(summary.snapshot())
        assert wrapped.might_hold(cap("B", ["http://o.org/1"]))


class TestSummaryBank:
    """The batch bank must reproduce per-peer DirectorySummary verdicts
    exactly — including false positives."""

    @staticmethod
    def _peer_filters(n_peers: int, seed: int):
        """Peers with mixed (m, k) groups, each holding a few capabilities."""
        rng = random.Random(seed)
        params = [(512, 4), (256, 3)]
        filters: dict[int, object] = {}
        held: dict[int, list[Capability]] = {}
        for peer_id in range(n_peers):
            m, k = params[peer_id % len(params)]
            summary = DirectorySummary(m=m, k=k)
            held[peer_id] = [
                cap(
                    f"p{peer_id}c{j}",
                    sorted(
                        rng.sample([f"http://o.org/{i}" for i in range(10)], rng.randint(1, 3))
                    ),
                )
                for j in range(rng.randint(0, 4))
            ]
            for capability in held[peer_id]:
                summary.add_capability(capability)
            filters[peer_id] = summary.snapshot()
        return filters, held

    def test_might_answer_equals_per_peer_scalar(self):
        filters, _held = self._peer_filters(30, seed=7)
        bank = SummaryBank(filters)
        assert len(bank) == 30
        rng = random.Random(99)
        for probe in range(60):
            namespaces = sorted(
                rng.sample(
                    [f"http://o.org/{i}" for i in range(10)]
                    + [f"http://elsewhere.org/{i}" for i in range(4)],
                    rng.randint(1, 3),
                )
            )
            request = request_for(cap(f"probe{probe}", namespaces))
            expected = {
                peer_id: DirectorySummary.from_bloom(bloom).might_answer(request)
                for peer_id, bloom in filters.items()
            }
            assert bank.might_answer(request) == expected

    def test_might_hold_equals_per_peer_scalar(self):
        filters, _held = self._peer_filters(12, seed=3)
        bank = SummaryBank(filters)
        for probe_ns in (["http://o.org/0"], ["http://o.org/1", "http://o.org/2"]):
            probe = cap("probe", probe_ns)
            expected = {
                peer_id: DirectorySummary.from_bloom(bloom).might_hold(probe)
                for peer_id, bloom in filters.items()
            }
            assert bank.might_hold(probe) == expected

    def test_no_false_negatives(self):
        """Every capability a peer actually holds must be admitted."""
        filters, held = self._peer_filters(20, seed=11)
        bank = SummaryBank(filters)
        for peer_id, capabilities in held.items():
            for capability in capabilities:
                assert bank.might_hold(capability)[peer_id]

    def test_empty_ontology_capability_is_vacuously_admitted(self):
        """A capability with no ontology footprint filters nobody — the
        scalar path's all() over an empty URI set is vacuously true."""
        filters, _held = self._peer_filters(6, seed=5)
        bank = SummaryBank(filters)
        bare = Capability.build("urn:x:cap:bare", "bare")
        assert not bare.ontologies()
        verdicts = bank.might_hold(bare)
        for peer_id, bloom in filters.items():
            assert verdicts[peer_id] == DirectorySummary.from_bloom(bloom).might_hold(bare)
            assert verdicts[peer_id] is True

    def test_empty_bank(self):
        bank = SummaryBank({})
        assert len(bank) == 0
        assert bank.might_answer(request_for(cap("A", ["http://o.org/1"]))) == {}
