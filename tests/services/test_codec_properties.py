"""Hypothesis round-trip properties for the service XML codec."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.services.process import AnyOrder, Choice, Invoke, Repeat, Sequence
from repro.services.profile import Capability, Grounding, ServiceProfile, ServiceRequest
from repro.services.xml_codec import (
    profile_from_xml,
    profile_to_xml,
    request_from_xml,
    request_to_xml,
)

# XML-safe local names (the codec must escape everything else itself; URIs
# in this system come from join_namespace so stay in this alphabet).
_name = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-.",
    min_size=1,
    max_size=12,
)


@st.composite
def concepts(draw):
    onto = draw(st.integers(min_value=0, max_value=5))
    local = draw(_name)
    return f"http://o{onto}.example.org/onto#{local}"


@st.composite
def capabilities(draw, index: int = 0):
    uri = f"urn:x:cap:{draw(_name)}:{index}"
    return Capability.build(
        uri=uri,
        name=draw(_name),
        inputs=draw(st.lists(concepts(), max_size=4)),
        outputs=draw(st.lists(concepts(), max_size=4)),
        properties=draw(st.lists(concepts(), max_size=3)),
        category=draw(st.one_of(st.none(), concepts())),
        includes=tuple(draw(st.lists(st.just("urn:x:cap:other"), max_size=1))),
    )


@st.composite
def process_terms(draw, depth: int = 3):
    """Random process terms of all five kinds over a small alphabet."""
    ops = ["a", "b", "c"]
    if depth == 0:
        return Invoke(draw(st.sampled_from(ops)))
    kind = draw(st.integers(0, 4))
    if kind == 0:
        return Invoke(draw(st.sampled_from(ops)))
    if kind == 1:
        parts = draw(st.lists(process_terms(depth=depth - 1), min_size=1, max_size=3))
        return Sequence(parts=tuple(parts))
    if kind == 2:
        branches = draw(st.lists(process_terms(depth=depth - 1), min_size=2, max_size=3))
        return Choice(branches=tuple(branches))
    if kind == 3:
        parts = draw(st.lists(process_terms(depth=depth - 1), min_size=2, max_size=4))
        return AnyOrder(parts=tuple(parts))
    return Repeat(body=draw(process_terms(depth=depth - 1)))


@st.composite
def profiles(draw):
    count = draw(st.integers(min_value=0, max_value=3))
    provided = tuple(draw(capabilities(index=i)) for i in range(count))
    required_count = draw(st.integers(min_value=0, max_value=2))
    required = tuple(draw(capabilities(index=100 + i)) for i in range(required_count))
    # Deduplicate capability URIs (profile rejects duplicates).
    seen = set()
    unique_provided = []
    for cap in provided:
        if cap.uri not in seen:
            seen.add(cap.uri)
            unique_provided.append(cap)
    unique_required = []
    for cap in required:
        if cap.uri not in seen:
            seen.add(cap.uri)
            unique_required.append(cap)
    return ServiceProfile(
        uri=f"urn:x:svc:{draw(_name)}",
        name=draw(_name),
        provided=tuple(unique_provided),
        required=tuple(unique_required),
        device=draw(_name),
        middleware=draw(_name),
        qos=tuple(draw(st.lists(st.tuples(_name, _name), max_size=3))),
        grounding=Grounding(endpoint=f"http://h/{draw(_name)}", wsdl_uri=""),
        process=draw(st.one_of(st.none(), process_terms())),
    )


@given(profiles())
@settings(max_examples=150, deadline=None)
def test_profile_roundtrip_property(profile):
    restored, annotations = profile_from_xml(profile_to_xml(profile))
    assert restored == profile
    assert not annotations


@given(st.lists(capabilities(), min_size=1, max_size=3))
@settings(max_examples=100, deadline=None)
def test_request_roundtrip_property(caps):
    seen = set()
    unique = []
    for index, cap in enumerate(caps):
        if cap.uri not in seen:
            seen.add(cap.uri)
            unique.append(cap)
    request = ServiceRequest(uri="urn:x:req:prop", capabilities=tuple(unique))
    restored, _ = request_from_xml(request_to_xml(request))
    assert restored == request


@given(profiles(), st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_codes_version_roundtrip_property(profile, version):
    annotations = {concept: f"0.1,0.2;{1};0.1,0.2" for cap in profile.provided for concept in cap.concepts()}
    document = profile_to_xml(profile, annotations=annotations, codes_version=version)
    restored, parsed = profile_from_xml(document)
    assert restored == profile
    assert parsed.version == version
    assert set(parsed.codes) == set(annotations)
