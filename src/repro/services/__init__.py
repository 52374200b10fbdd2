"""Amigo-S service descriptions: profiles, capabilities, codecs, workloads.

This package is the reproduction's stand-in for the Amigo-S language
(§2.2): services expose *capabilities* — each a semantic concept with sets
of semantic inputs, outputs and properties (service category among them) —
plus shared service-level attributes and a grounding.  A WSDL-like purely
syntactic model is included for the Ariadne baseline.
"""

from repro.services.profile import (
    Capability,
    Grounding,
    ServiceProfile,
    ServiceRequest,
)
from repro.services.process import (
    AnyOrder,
    Choice,
    Invoke,
    Repeat,
    Sequence,
)
from repro.services.wsdl import WsdlDescription, WsdlOperation, WsdlRequest
from repro.services.xml_codec import (
    ServiceSyntaxError,
    profile_from_xml,
    profile_to_xml,
    request_from_xml,
    request_to_xml,
    wsdl_from_xml,
    wsdl_to_xml,
)

__all__ = [
    "Capability",
    "Grounding",
    "ServiceProfile",
    "ServiceRequest",
    "AnyOrder",
    "Choice",
    "Invoke",
    "Repeat",
    "Sequence",
    "WsdlDescription",
    "WsdlOperation",
    "WsdlRequest",
    "ServiceSyntaxError",
    "profile_from_xml",
    "profile_to_xml",
    "request_from_xml",
    "request_to_xml",
    "wsdl_from_xml",
    "wsdl_to_xml",
]
