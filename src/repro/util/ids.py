"""URI helpers used by ontologies, service descriptions and directories.

Concepts, properties, ontologies, services and capabilities are all
identified by URIs, mirroring how OWL and Amigo-S identify entities.  The
helpers here keep URI handling in one place so the rest of the code base
can treat identifiers as opaque strings.
"""

from __future__ import annotations

import itertools
import re

_URI_RE = re.compile(r"^[a-zA-Z][a-zA-Z0-9+.-]*:")
_FRAGMENT_RE = re.compile(r"#([^#/]+)$")
#: ``\s`` on ``str`` patterns matches exactly the code points ``str.isspace``
#: accepts (``tests/util/test_ids.py`` checks all of them).
_SPACE_RE = re.compile(r"\s")

#: Default namespace for synthetic entities produced by the generators.
DEFAULT_NAMESPACE = "urn:repro"

_counter = itertools.count(1)


class InvalidUriError(ValueError):
    """Raised when a string is not an acceptable absolute URI."""


def validate_uri(uri: str) -> str:
    """Return ``uri`` unchanged if it looks like an absolute URI.

    Raises:
        InvalidUriError: if ``uri`` is empty, contains whitespace, or has no
            scheme component.
    """
    if not isinstance(uri, str) or not uri:
        raise InvalidUriError(f"URI must be a non-empty string, got {uri!r}")
    if _SPACE_RE.search(uri):
        raise InvalidUriError(f"URI may not contain whitespace: {uri!r}")
    if not _URI_RE.match(uri):
        raise InvalidUriError(f"URI has no scheme: {uri!r}")
    return uri


def uri_fragment(uri: str) -> str:
    """Return the fragment (local name) of a URI.

    ``http://example.org/onto#Stream`` yields ``Stream``.  URIs without a
    fragment fall back to the last path segment, so the result is always a
    human-readable short name suitable for logs and reports.
    """
    match = _FRAGMENT_RE.search(uri)
    if match:
        return match.group(1)
    tail = uri.rstrip("/").rsplit("/", 1)[-1]
    # Strip a scheme remnant such as "urn:repro:x" -> "x".
    if ":" in tail:
        tail = tail.rsplit(":", 1)[-1]
    return tail


def make_urn(kind: str, name: str | None = None) -> str:
    """Build a fresh URN for a synthetic entity.

    Args:
        kind: entity class, e.g. ``"service"`` or ``"capability"``.
        name: optional stable local name; a process-unique counter is used
            when omitted.
    """
    if name is None:
        name = f"{kind}-{next(_counter)}"
    return f"{DEFAULT_NAMESPACE}:{kind}:{name}"


def join_namespace(namespace: str, local: str) -> str:
    """Join an ontology namespace and a local concept name with ``#``."""
    if namespace.endswith(("#", "/", ":")):
        return namespace + local
    return f"{namespace}#{local}"
