"""Tests for URI helpers."""

import sys

import pytest

from repro.util.ids import (
    InvalidUriError,
    join_namespace,
    make_urn,
    uri_fragment,
    validate_uri,
)


class TestValidateUri:
    def test_accepts_http_uri(self):
        assert validate_uri("http://example.org/x") == "http://example.org/x"

    def test_accepts_urn(self):
        assert validate_uri("urn:repro:service:1") == "urn:repro:service:1"

    def test_rejects_empty(self):
        with pytest.raises(InvalidUriError):
            validate_uri("")

    def test_rejects_none(self):
        with pytest.raises(InvalidUriError):
            validate_uri(None)

    def test_rejects_whitespace(self):
        with pytest.raises(InvalidUriError):
            validate_uri("http://example.org/a b")

    def test_whitespace_check_agrees_with_isspace_on_every_code_point(self):
        disagree = []
        for code in range(sys.maxunicode + 1):
            char = chr(code)
            try:
                validate_uri("urn:a" + char + "b")
                rejected = False
            except InvalidUriError:
                rejected = True
            if rejected != char.isspace():
                disagree.append(hex(code))
        assert disagree == []

    def test_rejects_schemeless(self):
        with pytest.raises(InvalidUriError):
            validate_uri("no-scheme-here/path")


class TestUriFragment:
    def test_hash_fragment(self):
        assert uri_fragment("http://example.org/onto#Stream") == "Stream"

    def test_path_tail(self):
        assert uri_fragment("http://example.org/onto/Stream") == "Stream"

    def test_urn_tail(self):
        assert uri_fragment("urn:repro:service:42") == "42"

    def test_trailing_slash(self):
        assert uri_fragment("http://example.org/onto/Stream/") == "Stream"


class TestMakeUrn:
    def test_explicit_name(self):
        assert make_urn("service", "printer") == "urn:repro:service:printer"

    def test_generated_names_unique(self):
        assert make_urn("service") != make_urn("service")

    def test_generated_is_valid(self):
        validate_uri(make_urn("capability"))


class TestJoinNamespace:
    def test_plain_namespace_gets_hash(self):
        assert join_namespace("http://x.org/o", "C") == "http://x.org/o#C"

    def test_hash_suffix_respected(self):
        assert join_namespace("http://x.org/o#", "C") == "http://x.org/o#C"

    def test_slash_suffix_respected(self):
        assert join_namespace("http://x.org/o/", "C") == "http://x.org/o/C"
