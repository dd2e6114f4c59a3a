"""Unit tests for the front end's request API (parsing, routing, headers).

The HTTP front end builds every response through :mod:`repro.serve.api`;
these tests pin the routing errors and the normalized header contract —
charset-qualified Content-Type on success *and* error bodies, exact
Content-Length, explicit Connection disposition.
"""

from __future__ import annotations

import pytest

from repro import RuleMaintainer, RuleStore
from repro.errors import EmptyDatabaseError
from repro.serve.api import (
    JSON_CONTENT_TYPE,
    BadRequest,
    encode_json,
    parse_items,
    parse_positive_int,
    reason_phrase,
    response_headers,
    route_query,
)


class TestParsing:
    def test_parse_items(self):
        assert parse_items("1,2,3", "basket") == (1, 2, 3)
        assert parse_items("7", "basket") == (7,)

    def test_parse_items_tolerates_blank_tokens(self):
        assert parse_items("1,,2,", "basket") == (1, 2)

    def test_parse_items_rejects_garbage(self):
        with pytest.raises(BadRequest, match="basket"):
            parse_items("1,zebra", "basket")
        with pytest.raises(BadRequest, match="at least one"):
            parse_items(",", "basket")

    def test_parse_positive_int(self):
        assert parse_positive_int("5", "k") == 5
        with pytest.raises(BadRequest, match="positive"):
            parse_positive_int("0", "k")
        with pytest.raises(BadRequest, match="integer"):
            parse_positive_int("five", "k")


class TestEncodeJson:
    def test_strict_json(self):
        with pytest.raises(ValueError):
            encode_json({"x": float("nan")})

    def test_utf8_bytes(self):
        assert encode_json({"a": 1}) == b'{"a": 1}'


class TestResponseHeaders:
    def test_charset_and_exact_length(self):
        body = encode_json({"error": "bad"})
        headers = dict(response_headers(body, keep_alive=True))
        assert headers["Content-Type"] == JSON_CONTENT_TYPE
        assert "charset=utf-8" in headers["Content-Type"]
        assert headers["Content-Length"] == str(len(body))

    def test_connection_disposition_is_explicit(self):
        body = b"{}"
        assert dict(response_headers(body, keep_alive=True))["Connection"] == "keep-alive"
        assert dict(response_headers(body, keep_alive=False))["Connection"] == "close"

    def test_extra_headers_come_before_connection(self):
        body = b"{}"
        headers = response_headers(
            body, keep_alive=False, extra=[("Retry-After", "2")]
        )
        names = [name for name, _ in headers]
        assert names == ["Content-Type", "Content-Length", "Retry-After", "Connection"]


class TestReasonPhrase:
    @pytest.mark.parametrize(
        ("status", "phrase"),
        [(200, "OK"), (400, "Bad Request"), (429, "Too Many Requests"), (503, "Service Unavailable")],
    )
    def test_standard_codes(self, status, phrase):
        assert reason_phrase(status) == phrase


class TestRouteQuery:
    @pytest.fixture
    def store(self, small_database):
        maintainer = RuleMaintainer(0.3, 0.5)
        maintainer.initialise(small_database)
        store = RuleStore()
        store.attach(maintainer)
        return store

    def test_missing_basket_is_a_bad_request(self, store):
        with pytest.raises(BadRequest, match="basket"):
            route_query(store, "/recommend", {})

    def test_empty_store_raises_for_data_routes(self):
        with pytest.raises(EmptyDatabaseError):
            route_query(RuleStore(), "/rules", {})

    def test_empty_store_health_is_503(self):
        assert route_query(RuleStore(), "/health", {}) == (503, {"status": "empty", "version": None})

    def test_ok_routes_answer_200(self, store):
        status, payload = route_query(store, "/health", {})
        assert status == 200
        assert payload["status"] == "ok"
