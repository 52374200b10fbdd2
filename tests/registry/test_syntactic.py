"""Tests for the syntactic WSDL registry (Ariadne local / UDDI)."""

import pytest

from repro.registry.syntactic import SyntacticRegistry
from repro.services.generator import ServiceWorkload
from repro.services.wsdl import WsdlDescription, WsdlOperation, WsdlRequest
from repro.services.xml_codec import ServiceSyntaxError, wsdl_to_xml


def desc(uri="urn:x:svc:1", name="getStream", keywords=("media",)) -> WsdlDescription:
    return WsdlDescription(
        uri=uri,
        port_type="Media",
        operations=(WsdlOperation(name, inputs=("title",), outputs=("stream",)),),
        keywords=keywords,
    )


def req(name="getStream", keywords=()) -> WsdlRequest:
    return WsdlRequest(
        uri="urn:x:req:1",
        operations=(WsdlOperation(name, inputs=("title",), outputs=("stream",)),),
        keywords=tuple(keywords),
    )


class TestPublish:
    def test_publish_and_len(self):
        registry = SyntacticRegistry()
        registry.publish_wsdl(desc())
        assert len(registry) == 1

    def test_republish_replaces(self):
        registry = SyntacticRegistry()
        registry.publish_wsdl(desc(keywords=("old",)))
        registry.publish_wsdl(desc(keywords=("new",)))
        assert len(registry) == 1
        assert not registry.query_wsdl(req(keywords=("old",)))

    def test_unpublish(self):
        registry = SyntacticRegistry()
        registry.publish_wsdl(desc())
        assert registry.unpublish("urn:x:svc:1")
        assert not registry.unpublish("urn:x:svc:1")
        assert len(registry) == 0

    def test_publish_xml(self):
        registry = SyntacticRegistry()
        registry.publish_xml(wsdl_to_xml(desc()))
        assert len(registry) == 1

    def test_publish_xml_rejects_request_document(self):
        registry = SyntacticRegistry()
        with pytest.raises(ServiceSyntaxError):
            registry.publish_xml(wsdl_to_xml(req()))


class TestQuery:
    def test_conforming_service_found(self):
        registry = SyntacticRegistry()
        registry.publish_wsdl(desc())
        assert [d.uri for d in registry.query_wsdl(req())] == ["urn:x:svc:1"]

    def test_non_conforming_rejected(self):
        registry = SyntacticRegistry()
        registry.publish_wsdl(desc(name="getStream"))
        assert registry.query_wsdl(req(name="fetchStream")) == []

    def test_keyword_index_shortlists(self):
        registry = SyntacticRegistry()
        registry.publish_wsdl(desc(uri="urn:x:svc:1", keywords=("media",)))
        registry.publish_wsdl(desc(uri="urn:x:svc:2", keywords=("printer",)))
        hits = registry.query_wsdl(req(keywords=("media",)))
        assert [d.uri for d in hits] == ["urn:x:svc:1"]

    def test_no_keywords_scans_all(self):
        registry = SyntacticRegistry()
        registry.publish_wsdl(desc(uri="urn:x:svc:1"))
        registry.publish_wsdl(desc(uri="urn:x:svc:2"))
        assert len(registry.query_wsdl(req(keywords=()))) == 2

    def test_query_xml_rejects_description_document(self):
        registry = SyntacticRegistry()
        with pytest.raises(ServiceSyntaxError):
            registry.query_xml(wsdl_to_xml(desc()))

    def test_workload_twins(self, small_workload):
        registry = SyntacticRegistry()
        services = small_workload.make_services(20)
        for profile in services:
            registry.publish_wsdl(ServiceWorkload.wsdl_twin(profile))
        request = ServiceWorkload.wsdl_request_for(services[9])
        hits = registry.query_wsdl(request)
        assert [d.uri for d in hits] == [services[9].uri]


class TestBrittleness:
    def test_synonym_breaks_syntactic_discovery(self):
        """The paper's core motivation: a requester using a synonymous
        interface finds nothing syntactically."""
        registry = SyntacticRegistry()
        registry.publish_wsdl(desc(name="getVideoStream"))
        assert registry.query_wsdl(req(name="fetchVideoStream")) == []


class TestWsdlDocumentRegistry:
    """Ariadne's original behaviour: documents stored raw, parsed per
    query (the Fig. 10 growth mechanism)."""

    def _registry(self):
        from repro.registry.syntactic import WsdlDocumentRegistry

        return WsdlDocumentRegistry()

    def test_publish_and_query(self):
        registry = self._registry()
        registry.publish_xml(wsdl_to_xml(desc()))
        hits = registry.query_xml(wsdl_to_xml(req()))
        assert [d.uri for d in hits] == ["urn:x:svc:1"]

    def test_republish_replaces(self):
        registry = self._registry()
        registry.publish_xml(wsdl_to_xml(desc()))
        registry.publish_xml(wsdl_to_xml(desc()))
        assert len(registry) == 1

    def test_unpublish(self):
        registry = self._registry()
        registry.publish_xml(wsdl_to_xml(desc()))
        assert registry.unpublish("urn:x:svc:1")
        assert not registry.unpublish("urn:x:svc:1")
        assert registry.query_xml(wsdl_to_xml(req())) == []

    def test_rejects_request_documents_on_publish(self):
        registry = self._registry()
        with pytest.raises(ServiceSyntaxError):
            registry.publish_xml(wsdl_to_xml(req()))

    def test_rejects_description_on_query(self):
        registry = self._registry()
        with pytest.raises(ServiceSyntaxError):
            registry.query_xml(wsdl_to_xml(desc()))

    def test_parse_time_grows_with_population(self):
        registry = self._registry()
        for index in range(50):
            registry.publish_xml(wsdl_to_xml(desc(uri=f"urn:x:svc:{index}")))
        registry.query_xml(wsdl_to_xml(req()))
        small_parse = registry.timer.seconds("parse")
        for index in range(50, 200):
            registry.publish_xml(wsdl_to_xml(desc(uri=f"urn:x:svc:{index}")))
        registry.query_xml(wsdl_to_xml(req()))
        total_parse = registry.timer.seconds("parse")
        assert total_parse - small_parse > small_parse  # 4x docs, > 2x time
