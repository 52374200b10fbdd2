"""Tests for Paolucci-style match degrees and profiles carrying conversations."""

import pytest

from repro.core.directory import SemanticDirectory
from repro.core.matching import MatchDegree, TaxonomyMatcher
from repro.services.process import Invoke, Repeat, choice, sequence
from repro.services.profile import Capability, ServiceProfile, ServiceRequest

NS = "http://repro.example.org/media"


def r(name: str) -> str:
    return f"{NS}/resources#{name}"


@pytest.fixture()
def matcher(media_taxonomy):
    return TaxonomyMatcher(media_taxonomy)


class TestConceptDegree:
    def test_exact(self, matcher):
        assert matcher.concept_degree(r("Stream"), r("Stream")) is MatchDegree.EXACT

    def test_plugin_when_provided_more_specific(self, matcher):
        assert (
            matcher.concept_degree(r("VideoResource"), r("DigitalResource"))
            is MatchDegree.PLUGIN
        )

    def test_subsumes_when_provided_more_general(self, matcher):
        assert (
            matcher.concept_degree(r("DigitalResource"), r("VideoResource"))
            is MatchDegree.SUBSUMES
        )

    def test_fail_when_unrelated(self, matcher):
        assert matcher.concept_degree(r("Title"), r("Stream")) is MatchDegree.FAIL

    def test_ordering_best_first(self):
        assert MatchDegree.EXACT < MatchDegree.PLUGIN < MatchDegree.SUBSUMES < MatchDegree.FAIL


class TestOutputDegree:
    def _caps(self, provided_outputs, requested_outputs):
        provided = Capability.build("urn:x:p", "P", outputs=provided_outputs)
        requested = Capability.build("urn:x:q", "Q", outputs=requested_outputs)
        return provided, requested

    def test_all_exact(self, matcher):
        provided, requested = self._caps([r("Stream")], [r("Stream")])
        assert matcher.output_degree(provided, requested) is MatchDegree.EXACT

    def test_worst_over_outputs(self, matcher):
        provided, requested = self._caps(
            [r("Stream"), r("DigitalResource")], [r("Stream"), r("VideoResource")]
        )
        # Stream exact, VideoResource served by more-general DigitalResource.
        assert matcher.output_degree(provided, requested) is MatchDegree.SUBSUMES

    def test_best_partner_per_output(self, matcher):
        provided, requested = self._caps(
            [r("Stream"), r("VideoStream")], [r("VideoStream")]
        )
        assert matcher.output_degree(provided, requested) is MatchDegree.EXACT

    def test_fail_dominates(self, matcher):
        provided, requested = self._caps([r("Stream")], [r("Title")])
        assert matcher.output_degree(provided, requested) is MatchDegree.FAIL


class TestConversationFilter:
    """Conversations carried by profiles do not filter discovery."""

    @pytest.fixture()
    def directory(self, media_table):
        directory = SemanticDirectory(media_table)
        strict = ServiceProfile(
            uri="urn:x:svc:strict",
            name="Strict",
            provided=(
                Capability.build("urn:x:cap:strict", "Play", outputs=[r("Stream")]),
            ),
            process=sequence(Invoke("login"), Invoke("play"), Invoke("logout")),
        )
        lenient = ServiceProfile(
            uri="urn:x:svc:lenient",
            name="Lenient",
            provided=(
                Capability.build("urn:x:cap:lenient", "Play2", outputs=[r("Stream")]),
            ),
            process=sequence(Repeat(body=choice(Invoke("play"), Invoke("pause"))),),
        )
        unconstrained = ServiceProfile(
            uri="urn:x:svc:open",
            name="Open",
            provided=(
                Capability.build("urn:x:cap:open", "Play3", outputs=[r("Stream")]),
            ),
        )
        for profile in (strict, lenient, unconstrained):
            directory.publish(profile)
        return directory

    def _request(self):
        return ServiceRequest(
            uri="urn:x:req:1",
            capabilities=(Capability.build("urn:x:req:cap", "Want", outputs=[r("Stream")]),),
        )

    def test_all_match_semantically(self, directory):
        assert len(directory.query(self._request())) == 3


class TestProcessXmlRoundtrip:
    def test_profile_with_process_roundtrips(self, media_table):
        from repro.services.xml_codec import profile_from_xml, profile_to_xml
        from repro.services.process import AnyOrder

        profile = ServiceProfile(
            uri="urn:x:svc:conv",
            name="Conv",
            provided=(Capability.build("urn:x:cap:c", "C", outputs=[r("Stream")]),),
            process=sequence(
                Invoke("login"),
                AnyOrder(parts=(Invoke("configure"), Invoke("warmup"))),
                Repeat(body=choice(Invoke("play"), Invoke("pause"))),
            ),
        )
        restored, _ = profile_from_xml(profile_to_xml(profile))
        assert restored == profile

    def test_malformed_process_rejected(self):
        from repro.services.xml_codec import ServiceSyntaxError, profile_from_xml

        doc = (
            "<Service uri='urn:x:s' name='s'><Process>"
            "<Repeat><Invoke operation='a'/><Invoke operation='b'/></Repeat>"
            "</Process></Service>"
        )
        with pytest.raises(ServiceSyntaxError, match="exactly one child"):
            profile_from_xml(doc)

    def test_process_survives_directory_snapshot(self, media_table):
        directory = SemanticDirectory(media_table)
        profile = ServiceProfile(
            uri="urn:x:svc:conv",
            name="Conv",
            provided=(Capability.build("urn:x:cap:c", "C", outputs=[r("Stream")]),),
            process=sequence(Invoke("a"), Invoke("b")),
        )
        directory.publish(profile)
        restored = SemanticDirectory.from_state(directory.export_state())
        assert restored.services()[0].process == profile.process
